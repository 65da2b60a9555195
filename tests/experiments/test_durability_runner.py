"""Durability wiring through the adapters and the workload runner."""

import pytest

from repro.core.forest import ForestConfig
from repro.core.presets import rexp_config
from repro.experiments.adapters import (
    ForestAdapter,
    ScheduledAdapter,
    TreeAdapter,
)
from repro.experiments.runner import run_workload
from repro.geometry.kinematics import MovingPoint
from repro.workloads.expiration import FixedPeriod
from repro.workloads.uniform import UniformParams, generate_uniform_workload

CONFIG = rexp_config(page_size=512, buffer_pages=8, default_ui=10.0)


def small_workload(seed=0):
    return generate_uniform_workload(
        UniformParams(
            target_population=30,
            insertions=120,
            update_interval=10.0,
            space=100.0,
            queries_per_insertions=10,
            seed=seed,
        ),
        FixedPeriod(20.0),
    )


def test_durable_run_charges_index_io_identically(tmp_path):
    """Acceptance criterion at the runner level.

    The same workload replayed on a simulated and a durable tree must
    report identical search/update averages; WAL traffic appears only
    in ``auxiliary_io``.
    """
    workload = small_workload()
    simulated = run_workload(TreeAdapter("sim", CONFIG), workload)
    durable = run_workload(
        TreeAdapter("dur", CONFIG), workload,
        durability=str(tmp_path / "t"),
    )
    assert durable.avg_search_io == simulated.avg_search_io
    assert durable.avg_update_io == simulated.avg_update_io
    assert durable.page_count == simulated.page_count
    assert simulated.auxiliary_io == 0
    assert durable.auxiliary_io > 0
    assert durable.avg_update_io_with_aux > durable.avg_update_io


def test_durable_run_with_prepopulation(tmp_path):
    workload = small_workload(seed=1)
    result = run_workload(
        TreeAdapter("dur", CONFIG), workload,
        prepopulate=True, durability=str(tmp_path / "t"),
        verify=True,
    )
    assert result.prepopulated > 0
    assert result.oracle_mismatches == 0
    assert result.auxiliary_io > 0


def test_durable_forest_run(tmp_path):
    workload = small_workload(seed=2)
    config = ForestConfig(tree=CONFIG, partitions=2)
    simulated = run_workload(ForestAdapter("sim", config), workload)
    durable = run_workload(
        ForestAdapter("dur", config), workload,
        durability=str(tmp_path / "f"),
    )
    assert durable.avg_search_io == simulated.avg_search_io
    assert durable.avg_update_io == simulated.avg_update_io
    assert durable.auxiliary_io > 0


def test_enable_durability_rejects_used_adapter(tmp_path):
    adapter = TreeAdapter("t", CONFIG)
    adapter.insert(1, MovingPoint((1.0, 1.0), (0.0, 0.0), 0.0, 50.0))
    with pytest.raises(ValueError):
        adapter.enable_durability(str(tmp_path / "t"))


def test_base_adapter_has_no_durable_backend(tmp_path):
    # The scheduled-deletion adapter supplies no _create_durable, so it
    # gets the base class's answer.
    adapter = ScheduledAdapter("bare", CONFIG)
    assert "_create_durable" not in vars(ScheduledAdapter)
    with pytest.raises(NotImplementedError):
        adapter.enable_durability(str(tmp_path / "x"))
    adapter.close()  # closing a simulated index is a harmless no-op


def test_runner_closes_durable_store_for_reopen(tmp_path):
    """After a durable run the store must be cleanly closed on disk."""
    from repro.core.tree import MovingObjectTree

    workload = small_workload(seed=3)
    run_workload(
        TreeAdapter("dur", CONFIG), workload,
        durability=str(tmp_path / "t"),
    )
    reopened = MovingObjectTree.open_from(str(tmp_path / "t"), CONFIG)
    audit = reopened.audit()
    assert audit.leaf_entries > 0
    reopened.close()
