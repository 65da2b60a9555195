"""Named tree configurations matching the paper's experiment series.

Each figure in Section 5 compares a handful of index flavours; these
factory functions pin down the exact configuration of each.
"""

from __future__ import annotations

from dataclasses import fields

from ..geometry.bounding import BoundingKind
from .config import TreeConfig
from .forest import ForestConfig


def rexp_config(**overrides) -> TreeConfig:
    """The default R^exp-tree of Sections 5.3-5.4.

    Near-optimal TPBRs, no stored TPBR expiration times, normal
    ChooseSubtree (without the overlap-enlargement heuristic), lazy
    purging of expired entries.
    """
    base = TreeConfig(
        bounding=BoundingKind.NEAR_OPTIMAL,
        store_br_expiration=False,
        choose_ignores_expiration=False,
        use_overlap_in_choose=False,
        lazy_expiry=True,
    )
    return base.with_(**overrides)


def tpr_config(**overrides) -> TreeConfig:
    """The TPR-tree baseline: non-expiring information.

    Conservative bounding rectangles, expiration times neither stored in
    leaves nor in internal entries (objects are indexed as infinite
    lines, Section 3), the R*-tree overlap heuristic in ChooseSubtree,
    and no lazy purging.
    """
    base = TreeConfig(
        bounding=BoundingKind.CONSERVATIVE,
        store_br_expiration=False,
        store_leaf_expiration=False,
        choose_ignores_expiration=False,
        use_overlap_in_choose=True,
        lazy_expiry=False,
    )
    return base.with_(**overrides)


def forest_config(
    partitions: int = 4, partitioner: str = "speed", **overrides
) -> ForestConfig:
    """A velocity-partitioned forest of default R^exp-trees.

    Keyword overrides that name :class:`ForestConfig` fields (e.g.
    ``split_buffer``, ``max_speed``) configure the forest; all others
    are applied to the member-tree configuration, exactly as the other
    presets apply them to a single tree.
    """
    forest_fields = {
        key.name: overrides.pop(key.name)
        for key in fields(ForestConfig)
        if key.name in overrides
    }
    return ForestConfig(
        tree=rexp_config(**overrides),
        partitions=partitions,
        partitioner=partitioner,
        **forest_fields,
    )


def flavor_config(
    brs_with_expiration: bool, algs_with_expiration: bool, **overrides
) -> TreeConfig:
    """The four flavours of Figures 9-10.

    Args:
        brs_with_expiration: record expiration times in internal TPBRs.
        algs_with_expiration: ChooseSubtree uses expiration times (the
            "regular" algorithm); when False it treats every entry as
            never expiring.
    """
    base = rexp_config(
        store_br_expiration=brs_with_expiration,
        choose_ignores_expiration=not algs_with_expiration,
    )
    return base.with_(**overrides)


def bounding_config(
    kind: BoundingKind, algs_with_expiration: bool = True, **overrides
) -> TreeConfig:
    """The bounding-rectangle comparison flavours of Figures 11-12."""
    base = rexp_config(
        bounding=kind,
        choose_ignores_expiration=not algs_with_expiration,
    )
    return base.with_(**overrides)
