"""BENCHMARK.json, the catalogue, the README and the command agree."""

import json
import os
import re
import subprocess
import sys

import pytest

from bench import catalogue, run
from bench.harness import run_untraced
from bench.workloads import SCENARIOS, IngestDurable, Sizing

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")
SMALL = ["--population", "300", "--reps", "2"]


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def test_benchmark_json_is_the_catalogue():
    assert _benchmark_json() == catalogue.benchmark_json()


def test_benchmark_json_meets_the_contract():
    spec = _benchmark_json()
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    names = (
        [w["name"] for w in spec["workloads"]]
        + [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    )
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_every_metric_is_documented_with_its_target():
    with open(os.path.join(ROOT, "bench", "README.md"), encoding="utf-8") as handle:
        readme = handle.read()
    for metric in catalogue.END_TO_END + catalogue.PER_LAYER:
        assert f"`{metric.name}`" in readme, metric.name
    for metric in catalogue.PER_LAYER:
        assert metric.moves, f"{metric.name} names nothing it should move"
    for workload in catalogue.WORKLOADS:
        assert f"`{workload}`" in readme


def _run(*extra):
    done = subprocess.run(
        [sys.executable, "-m", "bench.run", "--workload", "ingest_durable",
         "--seed", "7", *SMALL, *extra],
        cwd=ROOT, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout.strip().splitlines()[-1]), done.stderr


@pytest.mark.parametrize("trace, catalogued", [
    ("0", catalogue.END_TO_END), ("1", catalogue.PER_LAYER),
])
def test_a_smoke_run_prints_exactly_the_catalogued_names(trace, catalogued):
    result, table = _run("--trace", trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    units = {metric.name: metric.unit for metric in catalogued}
    assert set(result["metrics"]) == set(units)
    for name, entry in result["metrics"].items():
        assert set(entry) == {"value", "unit"} and entry["unit"] == units[name]
        assert isinstance(entry["value"], (int, float))
    assert "NONSTANDARD SIZING" in table
    with open(os.path.join(ROOT, "bench", "out", "result-ingest_durable"
                           + ("-trace" if trace == "1" else "") + ".json")) as handle:
        stamped = json.load(handle)
    assert stamped["nonstandard"] is True and stamped["seed"] == 7
    for key in ("nproc", "python", "numpy", "git_sha"):
        assert stamped[key]
    if trace == "0":
        assert all(entry["value"] > 0 for entry in result["metrics"].values())


class _Corrupting(IngestDurable):
    """Every query answer gains an object that does not exist."""

    def execute(self, dep, step, rec=None):
        answer = super().execute(dep, step, rec)
        return answer + [10**9] if step.kind == "query" else answer


def test_a_corrupted_answer_fails_the_run(monkeypatch, capsys):
    sizing = Sizing(population=300, reps=2, min_reps=2)
    result = run_untraced(_Corrupting(), 7, sizing, 60.0)
    assert result["failed"] > 0 and result["correct"] is False
    monkeypatch.setitem(SCENARIOS, "ingest_durable", _Corrupting)
    code = run.main(["--workload", "ingest_durable", "--seed", "7", *SMALL])
    assert code == 1
    assert json.loads(capsys.readouterr().out.strip().splitlines()[-1])["correct"] is False


def _session_members(session: int):
    members = []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{pid}/stat", encoding="utf-8") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue  # gone between the listing and the read
        if int(fields[3]) == session:
            members.append(int(pid))
    return members


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs procfs")
def test_the_sharded_run_leaves_no_process_behind():
    # multiprocessing's resource tracker used to end a moment after the
    # command did: whoever looked right then found a process still running.
    done = subprocess.Popen(
        [sys.executable, "-m", "bench.run", "--workload", "sharded_stream",
         "--seed", "7", *SMALL],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, start_new_session=True,
    )
    out, _ = done.communicate()
    assert _session_members(done.pid) == []
    assert done.returncode == 0
    assert json.loads(out.strip().splitlines()[-1])["correct"] is True
