"""Node representation shared by the disk-based trees."""

from __future__ import annotations

from typing import Any, List, Sequence, Tuple

import numpy as np

from ..geometry.block import RegionBlock, as_block, column
from ..geometry.kinematics import MovingPoint
from ..storage.disk import PageId

#: Columns a node's storage starts with when its first entry arrives.
_MIN_CAPACITY = 8

_WRONG_KIND = "leaf entries hold moving points, internal entries TPBRs"


class Node:
    """A tree node stored on one disk page.

    ``level`` 0 is a leaf.  Leaf entries pair a moving point with an
    object id, internal entries a TPBR with a child page id.

    The node *is* one float64 block — regions as columns, in
    :class:`~repro.geometry.block.RegionBlock`'s row layout — plus an
    int64 id column; the kernels, the codec and the tree read those
    arrays directly.  The mutators below are the only writers.
    ``entries`` and iteration over ``regions()`` are read-only views
    that materialise ``(region, value)`` tuples for code that wants
    objects; ``entries`` is a fresh *tuple* on every access, so a stale
    ``node.entries.append(...)`` fails instead of mutating a copy.
    """

    __slots__ = ("level", "_data", "_ids", "_regions")

    def __init__(
        self, level: int, entries: Sequence[Tuple[Any, int]] = None
    ):
        self.level = level
        entries = entries if entries is not None else ()
        block = as_block([region for region, _ in entries])
        if len(block) and block.points != self.is_leaf:
            raise TypeError(_WRONG_KIND)
        self._adopt(
            block.data,
            np.array([value for _, value in entries], dtype=np.int64),
        )

    @classmethod
    def of_columns(
        cls, level: int, data: np.ndarray, ids: np.ndarray
    ) -> "Node":
        """A node that adopts a block and its id column without copying."""
        node = cls.__new__(cls)
        node.level = level
        node._adopt(data, ids)
        return node

    def _adopt(self, data: np.ndarray, ids: np.ndarray) -> None:
        """Make ``data`` / ``ids`` the storage, every column live."""
        self._data = data
        self._ids = ids
        self._resize(data.shape[1])

    def _resize(self, count: int) -> None:
        """Set the live column count (the storage already holds them)."""
        self._regions = RegionBlock(self._data[:, :count], self.is_leaf)

    # -- views ----------------------------------------------------------------

    @property
    def is_leaf(self) -> bool:
        return self.level == 0

    def __len__(self) -> int:
        return len(self._regions)

    def regions(self) -> RegionBlock:
        """The entry regions: the live columns, as a sequence of objects."""
        return self._regions

    @property
    def ids(self) -> np.ndarray:
        """Object ids (leaf) or child page ids, one per entry (read-only)."""
        return self._ids[: len(self._regions)]

    def child_ids(self) -> List[PageId]:
        if self.is_leaf:
            raise ValueError("leaf nodes have no children")
        return self.ids.tolist()

    @property
    def entries(self) -> Tuple[Tuple[Any, int], ...]:
        """``(region, value)`` pairs, materialised on every access."""
        return tuple(zip(self._regions, self.ids.tolist()))

    # -- mutation ---------------------------------------------------------------

    def _column(self, region) -> tuple:
        if isinstance(region, MovingPoint) != self.is_leaf:
            raise TypeError(_WRONG_KIND)
        values = column(region)
        if len(self) and len(values) != len(self._data):
            raise ValueError("entries differ in dimensionality")
        return values

    def append(self, region, value: int) -> None:
        """Add an entry after the existing ones."""
        values = self._column(region)
        count = len(self)
        if count == self._data.shape[1] or len(values) != len(self._data):
            # Full, or empty and shaped for another dimensionality.
            capacity = max(_MIN_CAPACITY, 2 * count)
            data = np.empty((len(values), capacity))
            ids = np.empty(capacity, dtype=np.int64)
            if count:
                data[:, :count] = self._data
                ids[:count] = self._ids
            self._data, self._ids = data, ids
        self._data[:, count] = values
        self._ids[count] = value
        self._resize(count + 1)

    def replace(self, index: int, region) -> None:
        """Overwrite entry ``index``'s region, keeping its value."""
        self._data[:, range(len(self))[index]] = self._column(region)

    def delete(self, index: int) -> None:
        """Remove entry ``index``; later entries keep their order."""
        count = len(self)
        index = range(count)[index]
        self._data[:, index : count - 1] = self._data[:, index + 1 : count]
        self._ids[index : count - 1] = self._ids[index + 1 : count]
        self._resize(count - 1)

    def _select(self, selection) -> Tuple[np.ndarray, np.ndarray]:
        """Copies of the columns at ``selection`` (a mask array or indices)."""
        if not isinstance(selection, np.ndarray):
            selection = np.asarray(selection, dtype=np.intp)
        return self._regions.data[:, selection], self.ids[selection]

    def keep(self, selection) -> None:
        """Reduce the node to the entries at ``selection``, in that order.

        ``selection`` is a boolean mask array over the entries or a
        sequence of indices.
        """
        self._adopt(*self._select(selection))

    def take(self, selection) -> "Node":
        """A new node of the same level holding the entries at ``selection``."""
        return Node.of_columns(self.level, *self._select(selection))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Node(level={self.level}, entries={len(self)})"
