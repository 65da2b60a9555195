"""The public API surface: everything README/examples rely on."""

import importlib

import pytest

import repro


def test_version():
    assert repro.__version__ == "1.0.0"


def test_top_level_exports():
    for name in repro.__all__:
        assert hasattr(repro, name), f"repro.{name} missing"


@pytest.mark.parametrize("module", [
    "repro.storage",
    "repro.geometry",
    "repro.rstar",
    "repro.btree",
    "repro.core",
    "repro.workloads",
    "repro.experiments",
    "repro.serve",
    "repro.obs",
    "repro.shard",
    "repro.replication",
])
def test_subpackage_all_exports_resolve(module):
    mod = importlib.import_module(module)
    for name in getattr(mod, "__all__", []):
        assert hasattr(mod, name), f"{module}.{name} missing"


def test_readme_quickstart_snippet():
    from repro import (
        MovingObjectTree,
        MovingPoint,
        Rect,
        SimulationClock,
        TimesliceQuery,
        rexp_config,
    )

    clock = SimulationClock()
    tree = MovingObjectTree(rexp_config(), clock)
    tree.insert(
        1,
        MovingPoint(pos=(100.0, 100.0), vel=(1.0, 0.0), t_ref=0.0, t_exp=120.0),
    )
    hits = tree.query(
        TimesliceQuery(Rect((90.0, 90.0), (120.0, 110.0)), t=10.0)
    )
    assert hits == [1]


def test_default_tree_constructs_without_arguments():
    tree = repro.MovingObjectTree()
    assert tree.page_count == 1
    assert tree.leaf_capacity == 170       # paper's 4 KB leaf fan-out
    assert tree.internal_capacity == 113   # w/o stored TPBR expiry


def test_docstrings_on_public_entry_points():
    for name in repro.__all__:
        obj = getattr(repro, name)
        if name.startswith("__") or isinstance(obj, str):
            continue
        assert getattr(obj, "__doc__", None), f"repro.{name} lacks a docstring"


def test_index_contract_is_exported_and_written_once():
    """Every shape derives update / query_knn / now from the one base."""
    from repro.core import (
        MovingObjectIndex,
        MovingObjectTree,
        PartitionedMovingObjectForest,
        ScheduledDeletionIndex,
    )
    from repro.experiments.adapters import IndexAdapter
    from repro.replication import Replica
    from repro.shard import ShardedForest

    shapes = (
        MovingObjectTree, PartitionedMovingObjectForest,
        ScheduledDeletionIndex, ShardedForest, Replica, IndexAdapter,
    )
    for shape in shapes:
        assert issubclass(shape, MovingObjectIndex)
        assert shape.query_knn is MovingObjectIndex.query_knn
        assert shape.now is MovingObjectIndex.now
        if not issubclass(shape, PartitionedMovingObjectForest):
            assert shape.update is MovingObjectIndex.update
    # A sharded forest *is* the forest, its members in worker processes;
    # the forest routes an update as one member record when it can.
    assert issubclass(ShardedForest, PartitionedMovingObjectForest)
    for name in ("update", "query", "query_batch", "knn_entries",
                 "apply_ops", "bulk_load", "snapshot", "audit"):
        assert getattr(ShardedForest, name) is getattr(
            PartitionedMovingObjectForest, name
        )
    # The frontend is handed duck-typed proxies around a tree, so what
    # it asks of an index must exist on the tree itself.
    for name in ("insert", "delete", "query", "query_batch", "snapshot",
                 "checkpoint", "local_stores"):
        assert callable(getattr(MovingObjectTree, name))


def test_each_idea_exists_once():
    """The grep gates: no second spelling of a derived operation."""
    import pathlib
    import re

    root = pathlib.Path(repro.__file__).resolve().parent
    sources = {
        path.relative_to(root).as_posix(): path.read_text(encoding="utf-8")
        for path in root.rglob("*.py")
    }

    def files_with(pattern):
        return sorted(
            name for name, text in sources.items()
            if re.search(pattern, text)
        )

    assert files_with(r"def update\(") == ["core/forest.py", "core/index.py"]
    assert files_with(r"def query_knn\(") == ["core/index.py"]
    assert files_with(r"def knn\(") == []
    assert files_with(
        r"_atoms_of|_atomic_ops|_MemberTreeAdapter|_query_batch_impl"
        r"|_apply_ops_impl"
    ) == []
    assert not re.search(
        r"(has|get)attr\(self\.index", sources["serve/frontend.py"]
    )
    for generator in ("generate_uniform_workload(",
                      "generate_network_workload("):
        assert sources["cli.py"].count(generator) <= 2
    # Scatter, merge and kNN bound-threading have one caller: the forest.
    for shared in (r"(?<!def )merge_knn\(", r"\.scatter\(",
                   r"(?<!def )\bgather\("):
        assert files_with(shared) == ["core/forest.py"], shared
    # A replica is a tree: it reads by the tree's descents, not a
    # private mirror and brute force; a log is grouped, encoded and
    # checkpointed by the storage layer; a follower is assembled once.
    assert files_with(r"_mirror") == []
    assert files_with(r"brute_force_knn\(") == ["cli.py", "geometry/knn.py"]
    assert files_with(r"CHECKPOINT_RECORD") == ["storage/wal.py"]
    assert files_with(r"Replica\.bootstrap\(") == ["replication/link.py"]
