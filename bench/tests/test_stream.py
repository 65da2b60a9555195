import pytest

from repro.geometry.kinematics import MovingPoint
from repro.geometry.queries import TimesliceQuery
from repro.geometry.rect import Rect
from repro.workloads.base import InsertOp, UpdateOp

from bench.stream import Model, entries_mismatch, model_after
from bench.workloads import SCENARIOS, Sizing

TINY = Sizing(population=200, warmup=40)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_the_op_list_is_a_function_of_the_seed(name):
    first = SCENARIOS[name]().plan(5, TINY)
    again = SCENARIOS[name]().plan(5, TINY)
    other = SCENARIOS[name]().plan(6, TINY)
    assert first.digest() == again.digest()
    assert first.digest() != other.digest()
    timed = sum(step.samples for step in first.steps if step.timed)
    assert timed >= 1000


def _point(x, y, t_ref=0.0, t_exp=100.0):
    return MovingPoint((x, y), (0.0, 0.0), t_ref, t_exp)


def test_model_answers_by_the_scalar_predicate():
    model = Model([(_point(0.5, 0.5), 1), (_point(0.9, 0.9), 2)])
    query = TimesliceQuery(Rect((0.4, 0.4), (0.6, 0.6)), 10.0)
    assert model.range(query) == [1]
    assert not model.wrong(query, [1])
    assert model.wrong(query, [])          # a lost object
    assert model.wrong(query, [1, 2])      # a far-away extra
    assert model.wrong(query, [1, 1])      # a duplicate
    assert model.wrong(query, [1, 99])     # an unknown object
    model.write(UpdateOp(20.0, 1, _point(0.5, 0.5), _point(0.1, 0.1, 20.0, 120.0)))
    assert model.range(query) == []


def test_an_object_on_the_boundary_may_fall_either_way():
    # within binary32 rounding of the query's edge: not a wrong answer
    model = Model([(_point(0.6 + 1e-8, 0.5), 1)])
    query = TimesliceQuery(Rect((0.4, 0.4), (0.6, 0.6)), 10.0)
    assert not model.wrong(query, [1])
    assert not model.wrong(query, [])


def test_rewound_model_undoes_writes_past_the_mark():
    model = Model([(_point(0.5, 0.5), 1)])
    model.write(UpdateOp(1.0, 1, _point(0.5, 0.5), _point(0.2, 0.2)), mark=10)
    model.write(InsertOp(2.0, 2, _point(0.7, 0.7)), mark=12)
    assert set(model.rewound(12).points) == {1, 2}
    past = model.rewound(10)
    assert set(past.points) == {1} and past.points[1].pos == (0.2, 0.2)
    assert model.rewound(9).points[1].pos == (0.5, 0.5)


def test_entries_mismatch_tolerates_codec_rounding_only():
    model = Model([(_point(0.5, 0.5), 1), (_point(0.2, 0.2, t_exp=5.0), 2)])
    rounded = _point(0.5 + 3e-8, 0.5, t_ref=0.0, t_exp=100.000004)
    assert entries_mismatch([(rounded, 1)], model, now=10.0) == 0
    assert entries_mismatch([], model, now=10.0) == 1
    assert entries_mismatch([(_point(0.6, 0.5), 1)], model, now=10.0) == 1
    assert entries_mismatch([(rounded, 1), (rounded, 1)], model, now=10.0) == 1
    # the expired object 2 is nobody's business
    assert entries_mismatch([(rounded, 1), (_point(0.2, 0.2, t_exp=5.0), 2)], model, 10.0) == 0


def test_model_after_applies_every_write_of_every_step():
    plan = SCENARIOS["sharded_stream"]().plan(5, TINY)
    model = model_after(plan.entries, plan.warmup + plan.steps)
    written = {
        op.oid for step in plan.warmup + plan.steps
        if step.kind == "apply" for op in step.payload
        if isinstance(op, (InsertOp, UpdateOp))
    }
    assert written <= set(model.points)
