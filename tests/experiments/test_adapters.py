"""Tests for the I/O-accounted index adapters."""

import pytest

from repro.core.presets import rexp_config, tpr_config
from repro.experiments.adapters import ScheduledAdapter, TreeAdapter
from repro.geometry.kinematics import MovingPoint
from repro.geometry.queries import TimesliceQuery
from repro.geometry.rect import Rect

CONFIG = rexp_config(page_size=512, buffer_pages=4, default_ui=10.0)


def point(x, y, t_ref=0.0, t_exp=20.0):
    return MovingPoint((x, y), (0.0, 0.0), t_ref, t_exp)


def test_tree_adapter_accounts_updates_and_searches():
    adapter = TreeAdapter("t", CONFIG)
    for oid in range(80):
        adapter.insert(oid, point(float(oid % 10) * 10, float(oid // 10) * 10))
    assert adapter.op_stats.update_ops == 80
    assert adapter.op_stats.update_io > 0
    adapter.query(TimesliceQuery(Rect((0.0, 0.0), (100.0, 100.0)), 1.0))
    assert adapter.op_stats.search_ops == 1
    assert adapter.op_stats.search_io > 0


def test_tree_adapter_update_counts_two_operations():
    """Paper metric: I/O per *single insertion or deletion* operation."""
    adapter = TreeAdapter("t", CONFIG)
    p0 = point(1.0, 1.0)
    adapter.insert(1, p0)
    ops_before = adapter.op_stats.update_ops
    adapter.advance_time(1.0)
    adapter.update(1, p0, point(2.0, 2.0, t_ref=1.0))
    assert adapter.op_stats.update_ops == ops_before + 2


def test_tree_adapter_exact_semantics_flag():
    assert TreeAdapter("r", rexp_config()).exact_semantics
    assert not TreeAdapter("t", tpr_config()).exact_semantics


def test_scheduled_adapter_separates_queue_io():
    adapter = ScheduledAdapter("s", CONFIG, queue_buffer_pages=4)
    for oid in range(50):
        adapter.insert(oid, point(float(oid), float(oid), t_exp=5.0 + oid))
    assert adapter.op_stats.auxiliary_io > 0
    tree_only = adapter.op_stats.avg_update_io
    with_queue = adapter.op_stats.avg_update_io_with_auxiliary
    assert with_queue > tree_only
    assert adapter.aux_page_count > 0


def test_scheduled_adapter_counts_scheduled_deletions_as_updates():
    adapter = ScheduledAdapter("s", CONFIG, queue_buffer_pages=4)
    adapter.insert(1, point(5.0, 5.0, t_exp=10.0))
    ops_before = adapter.op_stats.update_ops
    adapter.advance_time(50.0)
    assert adapter.op_stats.update_ops == ops_before + 1
    assert adapter.audit().leaf_entries == 0


def test_adapter_page_counts():
    adapter = TreeAdapter("t", CONFIG)
    assert adapter.page_count >= 1
    assert adapter.aux_page_count == 0


def test_forest_adapter_accounts_and_exposes_partitions():
    from repro.core.presets import forest_config
    from repro.experiments.adapters import ForestAdapter

    config = forest_config(
        partitions=3, page_size=512, buffer_pages=6, default_ui=10.0
    )
    adapter = ForestAdapter("f", config)
    speeds = (0.2, 1.5, 2.9)
    for oid in range(60):
        adapter.insert(oid, MovingPoint(
            (float(oid % 10) * 10, float(oid // 10) * 10),
            (speeds[oid % 3], 0.0), 0.0, 40.0,
        ))
    assert adapter.op_stats.update_ops == 60
    assert adapter.op_stats.update_io > 0
    adapter.query(TimesliceQuery(Rect((0.0, 0.0), (100.0, 100.0)), 1.0))
    assert adapter.op_stats.search_ops == 1
    assert len(adapter.partition_page_counts) == 3
    assert sum(adapter.partition_page_counts) == adapter.page_count
    assert adapter.audit().leaf_entries == 60
    assert adapter.exact_semantics


def test_forest_adapter_replays_workload_with_oracle():
    from repro.core.presets import forest_config
    from repro.experiments.adapters import ForestAdapter
    from repro.experiments.runner import run_workload
    from repro.workloads.expiration import FixedPeriod
    from repro.workloads.uniform import UniformParams, generate_uniform_workload

    workload = generate_uniform_workload(
        UniformParams(target_population=60, insertions=500, seed=2),
        FixedPeriod(120.0),
    )
    config = forest_config(
        partitions=4, page_size=512, buffer_pages=8, default_ui=10.0
    )
    result = run_workload(
        ForestAdapter("forest/4", config), workload,
        verify=True, prepopulate=True,
    )
    assert result.oracle_mismatches == 0
    assert result.search_ops > 0
    assert len(result.partition_pages) == 4
    assert sum(result.partition_pages) == result.page_count


def _forest_adapter():
    from repro.core.presets import forest_config
    from repro.experiments.adapters import ForestAdapter

    return ForestAdapter("f", forest_config(
        partitions=2, page_size=512, buffer_pages=4, default_ui=10.0
    ))


@pytest.mark.parametrize("build", [
    lambda: TreeAdapter("t", CONFIG), _forest_adapter,
], ids=["tree", "forest"])
def test_batched_and_knn_reads_are_charged_as_searches(build):
    """Search I/O grows by exactly the wrapped index's I/O delta."""
    adapter = build()
    for oid in range(400):
        adapter.insert(oid, point(float(oid % 20) * 5, float(oid // 20) * 5))
    query = TimesliceQuery(Rect((0.0, 0.0), (100.0, 100.0)), 1.0)
    search_io, search_ops = (
        adapter.op_stats.search_io, adapter.op_stats.search_ops
    )
    index_before = adapter.index.stats.snapshot()
    batched = adapter.query_batch([query, query])
    nearest = adapter.query_knn((50.0, 50.0), 1.0, 5)
    delta = adapter.index.stats.since(index_before).total
    assert delta > 0
    assert adapter.op_stats.search_io - search_io == delta
    # Two batched queries share one traversal's I/O; the kNN is one more.
    assert adapter.op_stats.search_ops - search_ops == 3
    assert batched == [adapter.query(query)] * 2
    assert len(nearest) == 5
    assert adapter.query_batch([]) == []
