"""Tests for the workload runner."""

from repro.core.presets import rexp_config, tpr_config
from repro.experiments.adapters import TreeAdapter
from repro.experiments.runner import run_workload
from repro.geometry.kinematics import MovingPoint
from repro.geometry.queries import TimesliceQuery
from repro.geometry.rect import Rect
from repro.workloads.base import (
    DeleteOp,
    InsertOp,
    QueryOp,
    UpdateOp,
    Workload,
)

CONFIG = rexp_config(page_size=512, buffer_pages=4, default_ui=10.0)


def point(x, y, t_ref=0.0, t_exp=100.0):
    return MovingPoint((x, y), (0.0, 0.0), t_ref, t_exp)


def tiny_workload():
    ops = [
        InsertOp(0.0, 1, point(5.0, 5.0)),
        InsertOp(0.1, 2, point(50.0, 50.0)),
        QueryOp(0.2, TimesliceQuery(Rect((0.0, 0.0), (10.0, 10.0)), 1.0)),
        UpdateOp(1.0, 1, point(5.0, 5.0), point(60.0, 60.0, t_ref=1.0)),
        QueryOp(1.1, TimesliceQuery(Rect((0.0, 0.0), (10.0, 10.0)), 2.0)),
        DeleteOp(2.0, 2, point(50.0, 50.0)),
        QueryOp(2.1, TimesliceQuery(Rect((40.0, 40.0), (70.0, 70.0)), 3.0)),
    ]
    return Workload("tiny", ops, {"kind": "manual"})


def test_runner_executes_all_op_kinds():
    adapter = TreeAdapter("t", CONFIG)
    result = run_workload(adapter, tiny_workload(), verify=True)
    assert result.search_ops == 3
    # 2 inserts + (delete+insert) + 1 delete = 5 update operations.
    assert result.update_ops == 5
    assert result.oracle_mismatches == 0
    assert result.page_count >= 1
    assert result.params["kind"] == "manual"


def test_runner_advances_clock():
    adapter = TreeAdapter("t", CONFIG)
    run_workload(adapter, tiny_workload())
    assert adapter.clock.time == 2.1


def test_runner_counts_failed_deletes():
    ops = [
        InsertOp(0.0, 1, point(5.0, 5.0, t_exp=1.0)),
        DeleteOp(10.0, 1, point(5.0, 5.0, t_exp=1.0)),  # expired by now
    ]
    adapter = TreeAdapter("t", CONFIG)
    result = run_workload(adapter, Workload("w", ops))
    assert result.failed_deletes == 1


def test_runner_verification_superset_for_tpr():
    """The TPR-tree may answer with expired false drops (Section 3) but
    must never miss a live match."""
    config = tpr_config(page_size=512, buffer_pages=4, default_ui=10.0)
    ops = [
        InsertOp(0.0, 1, point(5.0, 5.0, t_exp=1.0)),  # expires quickly
        InsertOp(0.1, 2, point(6.0, 6.0, t_exp=100.0)),
        QueryOp(5.0, TimesliceQuery(Rect((0.0, 0.0), (10.0, 10.0)), 6.0)),
    ]
    adapter = TreeAdapter("tpr", config)
    result = run_workload(adapter, Workload("w", ops), verify=True)
    # Object 1 is a false drop for the TPR-tree, but that is allowed.
    assert result.oracle_mismatches == 0


def test_runner_measures_result_sizes():
    adapter = TreeAdapter("t", CONFIG)
    result = run_workload(adapter, tiny_workload())
    assert result.avg_result_size > 0.0


# -- bulk-loaded prepopulation ------------------------------------------------


def bigger_workload(n=80):
    """First reports, then interleaved updates and queries."""
    import random

    rng = random.Random(4)
    ops = []
    t = 0.0
    points = {}
    for oid in range(n):
        t += 0.01
        points[oid] = MovingPoint(
            (rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)),
            (rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)),
            t,
            t + rng.uniform(10.0, 60.0),
        )
        ops.append(InsertOp(t, oid, points[oid]))
    for step in range(60):
        t += 0.5
        if step % 3 == 0:
            x = rng.uniform(0.0, 75.0)
            ops.append(QueryOp(
                t, TimesliceQuery(Rect((x, x), (x + 25.0, x + 25.0)), t + 1.0)
            ))
        else:
            oid = rng.randrange(n)
            new = MovingPoint(
                (rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)),
                (rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)),
                t,
                t + rng.uniform(10.0, 60.0),
            )
            ops.append(UpdateOp(t, oid, points[oid], new))
            points[oid] = new
    return Workload("bigger", ops, {"kind": "manual"})


def test_split_initial_population():
    from repro.experiments.runner import split_initial_population

    workload = bigger_workload()
    initial, remaining = split_initial_population(workload)
    assert len(initial) == 80
    assert len(initial) + len(remaining) == len(workload.ops)
    assert not any(isinstance(op, InsertOp) for op in remaining)


def test_split_stops_at_first_query():
    from repro.experiments.runner import split_initial_population

    ops = [
        InsertOp(0.0, 1, point(5.0, 5.0)),
        QueryOp(0.2, TimesliceQuery(Rect((0.0, 0.0), (10.0, 10.0)), 1.0)),
        InsertOp(0.3, 2, point(50.0, 50.0)),
    ]
    initial, remaining = split_initial_population(Workload("w", ops))
    assert [oid for oid, _ in initial] == [1]
    assert len(remaining) == 2


def test_prepopulated_run_matches_replayed_run():
    workload = bigger_workload()
    replayed = run_workload(TreeAdapter("t", CONFIG), workload, verify=True)
    prepopulated = run_workload(
        TreeAdapter("t", CONFIG), workload, verify=True, prepopulate=True
    )
    assert replayed.oracle_mismatches == 0
    assert prepopulated.oracle_mismatches == 0
    assert prepopulated.prepopulated == 80
    assert prepopulated.setup_io > 0
    # The initial inserts moved out of the update tally into setup.
    assert prepopulated.update_ops == replayed.update_ops - 80
    assert prepopulated.search_ops == replayed.search_ops


def test_prepopulate_scheduled_adapter():
    from repro.experiments.adapters import ScheduledAdapter

    workload = bigger_workload()
    adapter = ScheduledAdapter("s", CONFIG)
    result = run_workload(adapter, workload, verify=True, prepopulate=True)
    assert result.oracle_mismatches == 0
    assert result.prepopulated == 80
    # Bulk-loaded reports still get their deletions scheduled.
    assert adapter.index.scheduled_deletions > 0


def test_prepopulate_default_adapter_falls_back_to_inserts():
    from repro.experiments.adapters import IndexAdapter

    class Recorder(TreeAdapter):
        pass

    # Route bulk_load through the base class: its accounted bulk load is
    # the only one (the insert-loop fallback left with the ABC).
    adapter = Recorder("r", CONFIG)
    adapter.bulk_load = lambda items: IndexAdapter.bulk_load(adapter, items)
    result = run_workload(adapter, bigger_workload(), verify=True,
                          prepopulate=True)
    assert result.oracle_mismatches == 0
    assert result.prepopulated == 80
    assert result.setup_io > 0
    # Only the post-ramp updates: 40 UpdateOps, each a delete + insert.
    assert result.update_ops == 80
