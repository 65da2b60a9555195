"""Tests for the shared node representation.

A ``Node`` is one float64 block plus an id column; ``entries`` and
``regions()`` are views that materialise objects.  The contract is
checked against the obvious model — a plain list of ``(region, value)``
tuples — bit for bit: ``==`` cannot tell ``0.0`` from ``-0.0``, so
every comparison goes through ``struct.pack`` (``entry_bits``).
"""

import math

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.geometry.block import as_block
from repro.geometry.kinematics import MovingPoint
from repro.geometry.tpbr import TPBR
from repro.rstar.node import Node
from repro.storage.layout import EntryLayout

from ..storage.reference_codec import entry_bits

MAX_OID = EntryLayout(page_size=1024).max_oid


def point(x=0.0, t_exp=50.0):
    return MovingPoint((x, 1.0), (0.5, -0.25), 2.0, t_exp)


def rect(x=0.0, t_exp=50.0):
    return TPBR((x, 1.0), (x + 3.0, 4.0), (-1.0, 0.0), (1.0, 0.5), 2.0, t_exp)


def test_leaf_properties():
    node = Node(0, [(point(), 7)])
    assert node.is_leaf
    assert len(node) == 1
    assert list(node.regions()) == [point()]
    assert node.regions()[0] == point()
    assert node.entries == ((point(), 7),)
    with pytest.raises(ValueError):
        node.child_ids()


def test_internal_children():
    node = Node(1, [(rect(0.0), 7), (rect(2.0), 9)])
    assert not node.is_leaf
    assert node.child_ids() == [7, 9]
    assert all(type(child) is int for child in node.child_ids())


def test_default_entries_are_independent():
    a = Node(0)
    b = Node(0)
    a.append(point(), 1)
    assert len(a) == 1
    assert len(b) == 0
    assert b.entries == ()


def test_entries_is_a_read_only_view():
    node = Node(0, [(point(), 1)])
    with pytest.raises(AttributeError):
        node.entries.append((point(1.0), 2))
    with pytest.raises(AttributeError):
        node.entries = []
    with pytest.raises(TypeError):
        node.entries[0] = (point(1.0), 2)
    assert node.entries == ((point(), 1),)


def test_growth_past_capacity_plus_one():
    """A node holds capacity + 1 entries just before it splits."""
    capacity = EntryLayout(page_size=1024).leaf_capacity
    entries = [(point(float(i)), i) for i in range(capacity + 1)]
    node = Node(0, entries[:3])  # storage sized for three
    for entry in entries[3:]:
        node.append(*entry)
    assert node.entries == tuple(entries)
    grown = Node(0)
    for entry in entries:
        grown.append(*entry)
    assert grown.entries == tuple(entries)


def test_mixed_dimensions_are_rejected():
    flat = MovingPoint((1.0,), (0.0,), 0.0, 5.0)
    with pytest.raises(ValueError):
        Node(0, [(point(), 1), (flat, 2)])
    node = Node(0, [(point(), 1)])
    with pytest.raises(ValueError):
        node.append(flat, 2)
    with pytest.raises(ValueError):
        node.replace(0, flat)
    assert node.entries == ((point(), 1),)
    with pytest.raises(ValueError):
        as_block([point(), flat])


def test_region_kind_must_match_the_level():
    with pytest.raises(TypeError):
        Node(0, [(rect(), 1)])
    with pytest.raises(TypeError):
        Node(1).append(point(), 1)


def test_an_emptied_node_may_change_dimensionality():
    node = Node(0, [(point(), 1)])
    node.delete(0)
    flat = MovingPoint((1.0,), (0.0,), 0.0, 5.0)
    node.append(flat, 2)
    assert node.entries == ((flat, 2),)


def test_index_errors():
    node = Node(0, [(point(), 1)])
    with pytest.raises(IndexError):
        node.delete(1)
    with pytest.raises(IndexError):
        node.replace(-2, point())
    with pytest.raises(IndexError):
        node.regions()[1]
    with pytest.raises(TypeError):
        node.regions()[0:1]


# -- the contract, model-based ------------------------------------------------

any_float = st.floats(allow_nan=False)  # ±0.0, ±inf, subnormals included
finite = st.floats(allow_nan=False, allow_infinity=False)
edge = st.sampled_from(
    [0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324, 1.0, -1.0]
)
coords = st.one_of(edge, any_float)
speeds = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, 1.0]), finite)
extents = st.one_of(
    st.sampled_from([0.0, 5e-324, math.inf]), st.floats(min_value=0.0)
)
ids = st.one_of(
    st.sampled_from([0, MAX_OID]), st.integers(min_value=0, max_value=MAX_OID)
)
DIMS = 2


@st.composite
def times(draw):
    t_ref = draw(st.one_of(st.sampled_from([0.0, -0.0]), finite))
    t_exp = draw(
        st.one_of(st.sampled_from([t_ref, math.inf]), st.floats(min_value=t_ref))
    )
    return t_ref, t_exp


@st.composite
def points(draw):
    pos = tuple(draw(coords) for _ in range(DIMS))
    vel = tuple(draw(speeds) for _ in range(DIMS))
    return MovingPoint(pos, vel, *draw(times()))


@st.composite
def rects(draw):
    lo = tuple(draw(coords) for _ in range(DIMS))
    hi = tuple(x if x == -math.inf else x + draw(extents) for x in lo)
    vlo = tuple(draw(speeds) for _ in range(DIMS))
    vhi = tuple(draw(speeds) for _ in range(DIMS))
    t_ref, t_exp = draw(times())
    if draw(st.booleans()):
        t_exp = draw(any_float)  # a rectangle's may precede t_ref
    return TPBR(lo, hi, vlo, vhi, t_ref, t_exp)


def query_form(regions):
    """The offset rows as the list-walking ``pack_tpbrs`` computed them."""
    if not regions:
        return np.empty((2, DIMS, 0))
    if isinstance(regions[0], MovingPoint):
        hi = lo = np.array([r.pos for r in regions])
        vhi = vlo = np.array([r.vel for r in regions])
    else:
        hi = np.array([r.hi for r in regions])
        lo = np.array([r.lo for r in regions])
        vhi = np.array([r.vhi for r in regions])
        vlo = np.array([r.vlo for r in regions])
    t_ref = np.array([r.t_ref for r in regions])[:, None]
    with np.errstate(all="ignore"):
        return np.stack([(hi - vhi * t_ref).T, (lo - vlo * t_ref).T])


class NodeMachine(RuleBasedStateMachine):
    """Random mutations applied to a Node and to a plain list."""

    @initialize(level=st.integers(0, 2), data=st.data())
    def start(self, level, data):
        self.level = level
        self.region = points() if level == 0 else rects()
        self.model = data.draw(
            st.lists(st.tuples(self.region, ids), max_size=5)
        )
        self.node = Node(level, self.model)

    @rule(data=st.data())
    def append(self, data):
        entry = data.draw(st.tuples(self.region, ids))
        self.node.append(*entry)
        self.model.append(entry)

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def delete(self, data):
        n = len(self.model)
        index = data.draw(st.integers(-n, n - 1))
        self.node.delete(index)
        del self.model[index]

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def replace(self, data):
        n = len(self.model)
        index = data.draw(st.integers(-n, n - 1))
        region = data.draw(self.region)
        self.node.replace(index, region)
        self.model[index] = (region, self.model[index][1])

    def selection(self, data):
        """Indices in any order (as a split produces), or a mask array."""
        n = len(self.model)
        if data.draw(st.booleans()):
            mask = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
            return np.array(mask, dtype=bool), [
                i for i, flag in enumerate(mask) if flag
            ]
        indices = data.draw(
            st.lists(st.integers(0, n - 1), unique=True) if n
            else st.just([])
        )
        as_given = data.draw(st.sampled_from([list, tuple, np.array]))
        if as_given is np.array:
            return np.array(indices, dtype=np.intp), indices
        return as_given(indices), indices

    @rule(data=st.data())
    def keep(self, data):
        selection, indices = self.selection(data)
        self.node.keep(selection)
        self.model = [self.model[i] for i in indices]

    @rule(data=st.data())
    def take(self, data):
        selection, indices = self.selection(data)
        taken = self.node.take(selection)
        assert taken.level == self.level
        assert entry_bits(taken.entries) == entry_bits(
            [self.model[i] for i in indices]
        )
        # The copy is independent of the node it came from.
        if len(taken):
            taken.delete(0)

    @invariant()
    def agrees_with_the_model(self):
        node, model = self.node, self.model
        assert len(node) == len(model) == len(node.regions())
        assert isinstance(node.entries, tuple)
        assert entry_bits(node.entries) == entry_bits(model)
        regions = [region for region, _ in model]
        assert entry_bits(zip(node.regions(), node.ids.tolist())) == \
            entry_bits(model)
        assert [
            entry_bits([(node.regions()[i], 0)]) for i in range(len(model))
        ] == [entry_bits([(region, 0)]) for region in regions]
        values = [value for _, value in model]
        assert node.ids.tolist() == values
        if not node.is_leaf:
            assert node.child_ids() == values
        if model:
            block = node.regions()
            assert block.s.tobytes() == query_form(regions).tobytes()
            assert block.data.tobytes() == as_block(regions).data.tobytes()
        assert entry_bits(Node(self.level, model).entries) == \
            entry_bits(model)
        assert Node(self.level, model).entries == tuple(model)


NodeMachine.TestCase.settings = settings(
    max_examples=40, stateful_step_count=20, deadline=None
)
test_node_contract = NodeMachine.TestCase
