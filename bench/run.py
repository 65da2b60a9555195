"""``python -m bench.run``: one workload, the whole suite, or the self-check.

With ``--workload`` the run happens in this process — a fresh interpreter,
so ``peak_rss_mb`` is the workload's own — and the last line of standard
output is the result object the driver's contract names.  Without it,
every workload runs in its own child interpreter, one after the other.
Heavy imports wait until :func:`main`: shard workers are spawned from
this module and re-import it.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(_HERE)
for _path in (os.path.join(_ROOT, "src"), _ROOT):
    if _path not in sys.path:
        sys.path.insert(0, _path)


def _stamp(args, sizing, nonstandard: bool) -> dict:
    """Where and how a result was measured."""
    import platform

    import numpy

    try:
        sha = subprocess.run(
            ["git", "-C", _ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"  # the driver's checkout is not a git repository
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "population": sizing.population,
        "reps": sizing.reps,
        "nonstandard": nonstandard,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": sha,
    }


def _table(result: dict, units: dict, stamp: dict) -> str:
    """The human view: every metric by name, with unit and sample count."""
    diagnostics = result.get("diagnostics", {})
    lines = [
        "# {workload} seed={seed} trace={trace} population={population} "
        "reps={reps} nproc={nproc} python={python} numpy={numpy} "
        "sha={git_sha}".format(**stamp)
        + ("  NONSTANDARD SIZING" if stamp["nonstandard"] else ""),
    ]
    samples = diagnostics.get("timed_samples")
    for name, value in result["metrics"].items():
        n = f"  n={samples}" if samples and name.startswith("op") else ""
        lines.append(f"{name:<48} {value:>14.6g} {units[name]}{n}")
    lines.append(
        f"failed {result['failed']} of {result['attempted']} attempted"
    )
    for key, value in diagnostics.items():
        lines.append(f"  {key}: {value}")
    return "\n".join(lines)


def run_workload(args) -> int:
    """One workload in this interpreter; prints the contract's last line."""
    from bench import catalogue
    from bench.harness import OUT_DIR, run_traced, run_untraced
    from bench.workloads import SCENARIOS, Sizing

    standard = Sizing()
    sizing = Sizing(
        population=args.population or standard.population,
        reps=args.reps or standard.reps,
        min_reps=min(args.reps or standard.min_reps, standard.min_reps),
    )
    scenario = SCENARIOS[args.workload]()
    if args.trace:
        result = run_traced(scenario, args.seed, sizing)
        catalogued = catalogue.PER_LAYER
    else:
        result = run_untraced(scenario, args.seed, sizing, args.seconds)
        catalogued = catalogue.END_TO_END
    units = {metric.name: metric.unit for metric in catalogued}
    if set(result["metrics"]) != set(units):
        raise SystemExit(
            "metrics out of step with the catalogue: "
            f"{sorted(set(result['metrics']) ^ set(units))}"
        )
    stamp = _stamp(args, sizing, sizing != standard)
    print(_table(result, units, stamp), file=sys.stderr)
    os.makedirs(OUT_DIR, exist_ok=True)
    suffix = "-trace" if args.trace else ""
    record = os.path.join(OUT_DIR, f"result-{args.workload}{suffix}.json")
    with open(record, "w", encoding="utf-8") as handle:
        json.dump({**stamp, **result}, handle, indent=1)
        handle.write("\n")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in result["metrics"].items()
        },
    }))
    return 0 if result["correct"] else 1


def run_suite(args) -> dict:
    """Every workload, each in a fresh interpreter; results by workload."""
    from bench import catalogue

    results = {}
    for name in catalogue.WORKLOADS:
        command = [
            sys.executable, "-m", "bench.run", "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        for flag in ("population", "reps"):
            if getattr(args, flag):
                command += [f"--{flag}", str(getattr(args, flag))]
        done = subprocess.run(
            command, cwd=_ROOT, stdout=subprocess.PIPE, text=True
        )
        lines = done.stdout.strip().splitlines()
        if not lines:
            raise SystemExit(f"{name} printed no result (exit {done.returncode})")
        results[name] = json.loads(lines[-1])
    return results


def selfcheck(args) -> int:
    """Two untraced suites of the same code, compared under the bounds."""
    from bench import catalogue

    first, second = run_suite(args), run_suite(args)
    breaches = 0
    print(f"{'workload':<20} {'metric':<22} {'first':>12} {'second':>12} "
          f"{'diff':>8} {'bound':>6}")
    for name in catalogue.WORKLOADS:
        for metric in catalogue.END_TO_END:
            a = first[name]["metrics"][metric.name]["value"]
            b = second[name]["metrics"][metric.name]["value"]
            diff = abs(b - a) / a
            # A count is a property of the seed: it repeats bit for bit.
            limit = 0.0 if metric.count else metric.bound
            verdict = "" if diff <= limit else "  BREACH"
            breaches += bool(verdict)
            print(f"{name:<20} {metric.name:<22} {a:>12.6g} {b:>12.6g} "
                  f"{diff:>8.2%} {limit:>6.0%}{verdict}")
        for run in (first, second):
            if not run[name]["correct"]:
                breaches += 1
                print(f"{name}: {run[name]['failed']} failed operations")
    print(f"selfcheck: {breaches} breaches")
    return 1 if breaches else 0


def stop_children() -> None:
    """End, and wait for, every process this interpreter started.

    The shard workers come from ``multiprocessing``'s spawn context,
    which also starts a resource-tracker process.  The tracker ends only
    once every holder of its pipe is gone — on its own that is some
    milliseconds *after* this interpreter exits, so a caller that looks
    right then still finds it.  Closing the pipe here and waiting for
    the tracker leaves nothing behind, on the error paths too.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.kill()  # a worker still up here outlived a failed run
        child.join()
    tracker = resource_tracker._resource_tracker
    fd, pid = getattr(tracker, "_fd", None), getattr(tracker, "_pid", None)
    if fd is None or pid is None:
        return  # no worker was ever spawned
    os.close(fd)
    tracker._fd = None
    os.waitpid(pid, 0)
    tracker._pid = None


def main(argv=None) -> int:
    """Parse the command line, dispatch, and leave no process behind."""
    try:
        return _main(argv)
    finally:
        stop_children()


def _main(argv=None) -> int:
    from bench import catalogue

    parser = argparse.ArgumentParser(
        prog="python -m bench.run", description=__doc__.splitlines()[0]
    )
    parser.add_argument("--workload", choices=list(catalogue.WORKLOADS))
    parser.add_argument(
        "--seed", type=int, default=catalogue.DEFAULT_SEED,
        help=f"default {catalogue.DEFAULT_SEED}; validate claims on "
             f"{catalogue.CLAIM_SEED} too",
    )
    parser.add_argument(
        "--seconds", type=float, default=catalogue.RUN_SECONDS,
        help="measured-phase budget: no new rep starts once it is spent",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="the per-layer pass (spans, counts, profile) instead of the "
             "end-to-end one",
    )
    parser.add_argument(
        "--selfcheck", action="store_true",
        help="run the untraced suite twice and compare under the bounds",
    )
    parser.add_argument(
        "--population", type=int, help="sizing escape hatch (nonstandard)"
    )
    parser.add_argument(
        "--reps", type=int, help="sizing escape hatch (nonstandard)"
    )
    args = parser.parse_args(argv)
    if args.selfcheck:
        return selfcheck(args)
    if args.workload:
        return run_workload(args)
    results = run_suite(args)
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
