"""Tests for the command-line interface."""

import pytest

from repro.cli import main


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))


def test_table1(capsys):
    assert main(["table1"]) == 0
    out = capsys.readouterr().out
    assert "ExpT" in out and "*120*" in out
    assert "NewOb" in out


def test_layout_prints_paper_fanouts(capsys):
    assert main(["layout", "--page-size", "4096"]) == 0
    out = capsys.readouterr().out
    assert "102" in out  # internal fan-out with velocities + expiry
    assert "170" in out  # leaf fan-out


def test_workload_summary(capsys):
    code = main([
        "workload", "--kind", "network", "--expt", "40",
        "--scale", "tiny", "--population", "80", "--insertions", "800",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "insertions" in out
    assert "800" in out
    assert "ExpT=40" in out


def test_workload_uniform(capsys):
    code = main([
        "workload", "--kind", "uniform", "--expd", "90",
        "--population", "60", "--insertions", "400",
    ])
    assert code == 0
    assert "ExpD=90" in capsys.readouterr().out


def test_compare(capsys):
    code = main([
        "compare", "--expt", "40",
        "--population", "60", "--insertions", "600",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "Rexp-tree" in out and "TPR-tree" in out
    assert "advantage" in out


def test_figures_micro(capsys):
    code = main([
        "figures", "fig16",
        "--population", "50", "--insertions", "400",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "fig16" in out
    assert "Rexp-tree" in out


def test_figures_unknown_id(capsys):
    assert main(["figures", "fig99"]) == 2
    assert "unknown figures" in capsys.readouterr().err


def test_figures_all_resolves(monkeypatch):
    """'all' expands to every known figure (checked without running)."""
    import repro.cli as cli

    seen = []

    def fake(name):
        def run(scale, seed=0):
            seen.append(name)
            from repro.experiments.figures import FigureResult
            # A figure id without shape checks keeps the fake minimal.
            fig = FigureResult(f"fake-{name}", "t", "x", "y", [1.0])
            fig.series = {"s": [1.0]}
            return fig
        return run

    monkeypatch.setattr(
        cli, "ALL_FIGURES", {f"fig{i}": fake(f"fig{i}") for i in (9, 10)}
    )
    assert cli.main(["figures", "all"]) == 0
    assert seen == ["fig10", "fig9"]


def test_forest(capsys):
    code = main([
        "forest", "--expt", "40", "--partitions", "2", "--verify",
        "--population", "60", "--insertions", "500",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "Rexp-tree" in out
    assert "forest/2 (speed)" in out
    assert "oracle mismatches: 0" in out
    assert "speed" in out  # per-partition labels


def test_persist_then_recover(tmp_path, capsys):
    directory = str(tmp_path / "store")
    code = main([
        "persist", directory,
        "--population", "40", "--insertions", "300",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "durable store:" in out
    assert "auxiliary" in out

    code = main(["recover", directory])
    assert code == 0
    out = capsys.readouterr().out
    assert "recovered" in out
    assert "audit:" in out
    assert "op-seq=" in out


def test_persist_forest_and_checkpoint(tmp_path, capsys):
    directory = str(tmp_path / "forest")
    code = main([
        "persist", directory, "--index", "forest", "--partitions", "2",
        "--prepopulate", "--population", "40", "--insertions", "300",
    ])
    assert code == 0
    capsys.readouterr()

    code = main(["recover", directory, "--checkpoint"])
    assert code == 0
    out = capsys.readouterr().out
    assert "member0:" in out and "member1:" in out
    assert "checkpointed" in out


def test_faultcheck_cli_sampled(capsys):
    code = main([
        "faultcheck", "--insertions", "10", "--stride", "25",
        "--modes", "kill",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "faultcheck PASS" in out


def test_compare_durability(tmp_path, capsys):
    code = main([
        "compare", "--population", "40", "--insertions", "300",
        "--durability", str(tmp_path / "stores"),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "aux=" in out


def test_soak_cli_scripted(tmp_path, capsys):
    import json

    # A tiny no-fault script with pinned-zero breaker counts keeps the
    # CLI test fast while still exercising the full SLO pipeline.
    script = {
        "expected_trips": 0,
        "expected_probes": 0,
        "expected_recoveries": 0,
    }
    script_path = tmp_path / "script.json"
    script_path.write_text(json.dumps(script))
    out_path = tmp_path / "BENCH_soak.json"
    trace_path = tmp_path / "soak_trace.jsonl"
    code = main([
        "soak", "--insertions", "300",
        "--script", str(script_path),
        "--out", str(out_path),
        "--trace", str(trace_path),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "soak PASS" in out
    payload = json.loads(out_path.read_text())
    assert payload["passed"] is True
    assert trace_path.exists()


def test_batch_queries_identical(capsys):
    code = main([
        "batch", "--scale", "tiny", "--queries", "120",
        "--population", "80", "--insertions", "400",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "tree" in out and "forest" in out
    assert "identical to sequential" in out


def test_top_live_run_and_artifact_replay(tmp_path, capsys):
    snapshots = str(tmp_path / "m.jsonl")
    trace = str(tmp_path / "t.jsonl")
    code = main([
        "top", "--workers", "2", "--once",
        "--insertions", "200", "--batch-ops", "64",
        "--snapshots", snapshots, "--trace-out", trace,
    ])
    live = capsys.readouterr().out
    assert code == 0
    assert "round 1/1" in live
    assert "shard load share" in live
    assert "latency breakdown" in live
    for stage in ("queue", "router", "wire", "worker-cpu", "worker-io"):
        assert stage in live
    assert "SLO availability" in live and "SLO freshness" in live

    code = main(["top", "--from-trace", trace, "--from-metrics", snapshots])
    offline = capsys.readouterr().out
    assert code == 0
    assert "from artifacts" in offline
    assert "shard load share" in offline
    # The artifact render reproduces the live run's load shares.
    live_shares = [ln.split()[-1] for ln in live.splitlines()
                   if ln.strip().startswith("shard ")]
    offline_shares = [ln.split()[-1] for ln in offline.splitlines()
                      if ln.strip().startswith("shard ")]
    assert live_shares == offline_shares


def test_knn_cli_matches_oracle(capsys):
    code = main([
        "knn", "--scale", "tiny", "--queries", "30", "--k", "5",
        "--population", "80", "--insertions", "400",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "exact" in out
    assert "mismatch" not in out


def test_soak_cli_reports_subscription_stats(tmp_path, capsys):
    import json

    script = {
        "expected_trips": 0,
        "expected_probes": 0,
        "expected_recoveries": 0,
    }
    script_path = tmp_path / "script.json"
    script_path.write_text(json.dumps(script))
    out_path = tmp_path / "BENCH_soak.json"
    code = main([
        "soak", "--insertions", "300",
        "--subscriptions", "20",
        "--script", str(script_path),
        "--out", str(out_path),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "soak PASS" in out
    assert "standing queries: 20 subs" in out
    payload = json.loads(out_path.read_text())
    assert payload["passed"] is True
    assert payload["subscriptions"]["dropped"] == 0


def test_replicate_cli_parity_and_promotion(capsys):
    code = main([
        "replicate", "--insertions", "150",
        "--poll-every", "4",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "0 mismatches" in out
    assert "promoted" in out
    assert "0 committed batches lost" in out


def test_soak_cli_replica(tmp_path, capsys):
    import json

    out_path = tmp_path / "BENCH_soak.json"
    code = main([
        "soak", "--replica",
        "--out", str(out_path),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "soak PASS" in out
    assert "replication" in out
    payload = json.loads(out_path.read_text())
    assert payload["passed"] is True
    assert payload["replication"]["promotions"] == 1


def test_top_from_metrics_renders_replication_health(tmp_path, capsys):
    from repro.obs import MetricsRegistry
    from repro.obs.export import MetricsSnapshotter

    registry = MetricsRegistry()
    registry.counter("replication.polls").inc(12)
    registry.counter("replication.promotions").inc(1)
    registry.gauge("replication.staleness_seconds").set(2.5)
    registry.gauge("replication.cursor_lag_batches").set(3)
    registry.gauge("replication.last_promotion_time").set(41.0)
    snapshots = str(tmp_path / "m.jsonl")
    MetricsSnapshotter(registry, snapshots, interval_s=1e-9).snapshot()

    code = main(["top", "--from-metrics", snapshots])
    assert code == 0
    out = capsys.readouterr().out
    assert "replication: staleness 2.50s" in out
    assert "cursor lag 3 batches" in out
    assert "promotions 1" in out
    assert "last promoted at t=41.0" in out


def test_recover_opens_a_sharded_directory(tmp_path, capsys):
    """``recover`` opens a worker-written forest through the one manifest."""
    from repro.core.config import TreeConfig
    from repro.geometry.kinematics import MovingPoint
    from repro.shard import ShardConfig, ShardedForest
    from repro.workloads.base import InsertOp

    directory = str(tmp_path / "sharded")
    config = ShardConfig(
        workers=2, tree=TreeConfig(page_size=512, buffer_pages=8),
        space=100.0, join_timeout=10.0,
    )
    with ShardedForest.create(directory, config) as forest:
        forest.apply_ops([
            InsertOp(
                float(i), i,
                MovingPoint((8.0 * i, 90.0 - 7.0 * i), (1.0, 0.5),
                            float(i), 200.0),
            )
            for i in range(12)
        ])

    assert main(["recover", directory, "--checkpoint"]) == 0
    captured = capsys.readouterr()
    assert "recovered" in captured.out and "(clock 11)" in captured.out
    assert "12 leaf entries" in captured.out
    assert "checkpointed" in captured.out
    # One manifest, one open: the members recover in-process.
    assert "member0:" in captured.out and "member1:" in captured.out
    assert captured.err == ""


def test_recover_rejects_a_directory_without_a_store(tmp_path, capsys):
    assert main(["recover", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1
    assert str(tmp_path) in captured.err


def test_bulkload_micro(capsys):
    code = main([
        "bulkload", "--population", "40", "--insertions", "300",
        "--queries", "5",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "insert-built" in out and "bulk-loaded" in out
    assert "5 timeslice queries, identical answers" in out


@pytest.mark.parametrize("index", ["rexp", "forest"])
def test_profile_micro(index, tmp_path, capsys):
    trace, metrics = tmp_path / "trace.jsonl", tmp_path / "metrics.json"
    code = main([
        "profile", "--index", index, "--partitions", "2", "--prepopulate",
        "--population", "40", "--insertions", "300", "--top", "3",
        "--trace-out", str(trace), "--metrics-out", str(metrics),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "per-operation cost" in out and "search latency (ms)" in out
    assert "buffer pool: hits=" in out
    assert "slowest operations (top 3):" in out
    assert "node occupancy by level:" in out and "level 0 (leaf" in out
    assert trace.stat().st_size and metrics.stat().st_size


def _documented_commands(text):
    """Every ``python -m repro ...`` command line in ``text``, tokenized."""
    import re
    import shlex

    commands = []
    for match in re.finditer(r"python -m repro ([^`\n]*)", text):
        line = match.group(1).split("#")[0].strip()
        commands.append(shlex.split(line))
    return commands


def test_documented_commands_parse_and_cover_every_verb():
    """README and the CLI docstring cannot drift from the parser."""
    import pathlib

    import repro.cli as cli

    parser = cli.build_parser()
    subparsers = next(
        action for action in parser._actions
        if hasattr(action, "choices") and action.choices
    )
    verbs = set(subparsers.choices)
    readme = pathlib.Path(cli.__file__).resolve().parents[2] / "README.md"
    sources = {
        "README.md": readme.read_text(encoding="utf-8"),
        "repro.cli docstring": cli.__doc__,
    }
    for name, text in sources.items():
        commands = _documented_commands(text)
        assert commands, f"{name} documents no commands"
        for argv in commands:
            try:
                parser.parse_args(argv)
            except SystemExit:
                pytest.fail(f"{name}: `python -m repro {' '.join(argv)}` "
                            f"does not parse")
        documented = {argv[0] for argv in commands}
        assert verbs <= documented, (
            f"{name} never shows: {sorted(verbs - documented)}"
        )
