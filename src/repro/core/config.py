"""Configuration of the moving-object trees.

One tree implementation covers the whole design space the paper studies;
the TPR-tree and every R^exp-tree flavour of Section 5 are points in
this configuration space (see :mod:`repro.core.presets`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..geometry.bounding import BoundingKind
from ..storage.layout import EntryLayout


@dataclass(frozen=True)
class TreeConfig:
    """Tunable parameters of :class:`repro.core.tree.MovingObjectTree`.

    Attributes:
        dims: dimensionality of the indexed space.
        page_size: disk page (node) size in bytes; the paper uses 4096.
        buffer_pages: LRU buffer-pool capacity; the paper uses 50.
        bounding: TPBR construction algorithm (Section 4.1).
        store_br_expiration: record expiration times inside internal
            entries.  Costs fan-out; the paper finds *not* recording them
            usually wins (Section 5.2).  When off, shrinking rectangles
            still expose their derived zero-extent time.
        store_leaf_expiration: record expiration times in leaf entries
            (always on for the R^exp-tree; off for the plain TPR-tree).
        choose_ignores_expiration: ChooseSubtree pretends all entries
            never expire (the "algs w/o exp.t." flavour, Section 4.2.2).
        use_overlap_in_choose: use the R*-tree overlap-enlargement
            heuristic at the leaf-parent level.  The R^exp-tree drops it
            (linear ChooseSubtree); the TPR-tree keeps it.
        lazy_expiry: purge expired entries whenever a node is modified
            and handle the resulting underfull nodes (Section 4.3).
        min_fill: minimum live-entry fill fraction of a node.
        reinsert_fraction: share of entries evicted by forced reinsert.
        horizon_alpha: W = alpha * UI (Section 4.2.3; the paper uses 0.5).
        default_ui: update-interval estimate used before the tracker has
            observed enough insertions.
        max_orphans: bound on the orphans list; when full, underfull
            handling is skipped (the paper's suggested safeguard).
        seed: randomness seed (near-optimal dimension ordering).
    """

    dims: int = 2
    page_size: int = 4096
    buffer_pages: int = 50
    bounding: BoundingKind = BoundingKind.NEAR_OPTIMAL
    store_br_expiration: bool = False
    store_leaf_expiration: bool = True
    choose_ignores_expiration: bool = False
    use_overlap_in_choose: bool = False
    lazy_expiry: bool = True
    min_fill: float = 0.4
    reinsert_fraction: float = 0.3
    horizon_alpha: float = 0.5
    default_ui: float = 60.0
    max_orphans: int = 100_000
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.min_fill <= 0.5:
            raise ValueError(f"min_fill must be in (0, 0.5], got {self.min_fill}")
        if not 0.0 <= self.reinsert_fraction < 1.0:
            raise ValueError(
                f"reinsert_fraction must be in [0, 1), got {self.reinsert_fraction}"
            )
        if self.horizon_alpha < 0.0:
            raise ValueError(f"horizon_alpha must be >= 0, got {self.horizon_alpha}")
        if self.default_ui <= 0.0:
            raise ValueError(f"default_ui must be positive, got {self.default_ui}")

    def layout(self) -> EntryLayout:
        """The on-page entry layout implied by this configuration."""
        return EntryLayout(
            page_size=self.page_size,
            dims=self.dims,
            store_velocities=self.bounding is not BoundingKind.STATIC,
            store_br_expiration=self.store_br_expiration,
            store_leaf_expiration=self.store_leaf_expiration,
        )

    @classmethod
    def for_layout(cls, layout, buffer_pages: int = 50) -> "TreeConfig":
        """A configuration whose :meth:`layout` is ``layout``.

        How a reader rebuilds the configuration of pages it did not
        write: ``layout`` is an :class:`EntryLayout` or a page-file
        header, which carries the same fields.  Stored velocities mean
        near-optimal bounding, stored leaf expiration times mean lazy
        expiry; every other field keeps its default.
        """
        return cls(
            page_size=layout.page_size,
            dims=layout.dims,
            buffer_pages=buffer_pages,
            bounding=(
                BoundingKind.NEAR_OPTIMAL
                if layout.store_velocities
                else BoundingKind.STATIC
            ),
            store_br_expiration=layout.store_br_expiration,
            store_leaf_expiration=layout.store_leaf_expiration,
            lazy_expiry=layout.store_leaf_expiration,
        )

    def with_(self, **changes) -> "TreeConfig":
        """A copy with the given fields replaced."""
        return replace(self, **changes)
