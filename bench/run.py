"""Benchmark of the markov-redaction package: one workload, one seed, one run.

    python3 bench/run.py --workload paper-sweep --seed 1 --seconds 30 --trace 0

Run from the repository root.  Each measurement runs in a fresh,
single-threaded Python process (``worker.py``) that imports the package
from ``src/``.  With ``--trace 0`` the workload is set up SETUP_REPEATS
times (once in the measured process, the rest in set-up-only processes)
and measured once, untraced; the end-to-end metrics are printed.  With
``--trace 1`` the time is split between an untraced and a traced process
and the per-layer metrics of the traced one are printed, with the tracing
overhead.  Every run writes ``.bench_results/<workload>-seed<seed>-trace<t>.json``
with the metrics, their context and the versions.  The last line of stdout
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
See README.md beside this file for the metrics, layers and workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS_DIR = ROOT / ".bench_results"

WORKLOAD_NAMES = ("paper-sweep", "audit-files", "long-chain")

#: Set-ups per untraced run; setup_s is their median.
SETUP_REPEATS = 3

#: The whole run, every worker included, ends within this many seconds
#: (or twice --seconds plus a minute, when that is longer).
RUN_LIMIT_S = 170.0

THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

E2E_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def git_sha(root: Path = ROOT) -> str:
    """Commit of the checkout, read from .git without running git; else 'unknown'."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    for name in THREAD_VARIABLES:
        env[name] = "1"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def run_worker(workload: str, seed: int, seconds: float, trace: int, deadline: float,
               setup_only: bool = False) -> dict:
    """Run one worker process to completion; its parsed result and setup_s.

    A worker still running at ``deadline`` (CLOCK_MONOTONIC) is killed.
    """
    argv = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(trace)]
    if setup_only:
        argv.append("--setup-only")
    spawned = time.monotonic()
    try:
        done = subprocess.run(argv, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE,
                              text=True, timeout=max(deadline - spawned, 0.0))
    except subprocess.TimeoutExpired:  # run() has killed and reaped the worker
        raise BenchError(f"{workload} worker was still running at the run's time limit") from None
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchError(f"{workload} worker exited with code {done.returncode}")
    result = json.loads(lines[-1])
    result["setup_s"] = result["ready"] - spawned
    return result


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least 10 samples beyond it: (value, percentile, beyond).

    With N samples in ascending order that is the nearest-rank percentile
    100 * (N - 10) / N, whose value is the 11th largest sample.  Fewer than
    11 samples have no such percentile; the maximum is reported instead.
    """
    ordered = sorted(latencies)
    count = len(ordered)
    if count <= 10:
        return ordered[-1], 100.0, 0
    return ordered[count - 11], 100.0 * (count - 10) / count, 10


def ops_per_s(measured: dict) -> float:
    """Ops completed per second of op time (the output checks between ops excluded)."""
    return len(measured["latencies"]) / sum(measured["latencies"])


def end_to_end(measured: dict, setups: list[float]) -> dict[str, float]:
    latencies = measured["latencies"]
    value, _, _ = tail(latencies)
    return {
        "ops_per_s": ops_per_s(measured),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_tail_ms": value * 1e3,
        "peak_rss_mb": measured["rss_kb"] / 1024.0,
        "setup_s": statistics.median(setups),
    }


def per_layer(untraced: dict, traced: dict) -> dict[str, float]:
    metrics = dict(traced["layers"])
    plain, with_spans = ops_per_s(untraced), ops_per_s(traced)
    metrics["trace.untraced_ops_per_s"] = plain
    metrics["trace.traced_ops_per_s"] = with_spans
    metrics["trace.overhead_ops_per_s"] = plain - with_spans
    return metrics


def layer_units() -> dict[str, str]:
    from tracing import metric_names

    units = dict(metric_names())
    units.update({
        "trace.untraced_ops_per_s": "1/s",
        "trace.traced_ops_per_s": "1/s",
        "trace.overhead_ops_per_s": "1/s",
    })
    return units


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "markov_redaction" / "__init__.py").is_file():
        sys.stderr.write(f"error: no package source under {ROOT / 'src'}\n")
        return 2
    if args.seconds <= 0:
        sys.stderr.write("error: --seconds must be positive\n")
        return 2

    deadline = time.monotonic() + max(RUN_LIMIT_S, 2.0 * args.seconds + 60.0)
    try:
        if args.trace:
            half = args.seconds / 2.0
            runs = [run_worker(args.workload, args.seed, half, 0, deadline),
                    run_worker(args.workload, args.seed, half, 1, deadline)]
            metrics = per_layer(*runs)
            units = layer_units()
            setups: list[float] = []
        else:
            setups = [
                run_worker(args.workload, args.seed, 0.0, 0, deadline, setup_only=True)["setup_s"]
                for _ in range(SETUP_REPEATS - 1)
            ]
            runs = [run_worker(args.workload, args.seed, args.seconds, 0, deadline)]
            setups.append(runs[0]["setup_s"])
            metrics = end_to_end(runs[0], setups)
            units = E2E_UNITS
    except (BenchError, json.JSONDecodeError, KeyError, ZeroDivisionError) as err:
        sys.stderr.write(f"error: {err}\n")
        return 1

    attempted = sum(len(run["latencies"]) for run in runs)
    failed = sum(run["failed"] for run in runs)
    measured = runs[-1]
    tail_ms, percentile, beyond = tail(measured["latencies"])
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "python": measured["python"],
        "numpy": measured["numpy"],
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {name: "1" for name in THREAD_VARIABLES},
        "ops": attempted,
        "rounds": [run["rounds"] for run in runs],
        "repeats": {"setups": len(setups), "measured_processes": len(runs)},
        "setup_s_samples": setups,
        "error_rate": failed / attempted,
        "op_tail": {"ms": tail_ms * 1e3, "percentile": percentile,
                    "samples_beyond": beyond, "samples": len(measured["latencies"])},
        "failures": [line for run in runs for line in run["failures"]],
        "latencies_s": measured["latencies"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    for name, entry in record["metrics"].items():
        sys.stderr.write(f"{name:44s} {entry['value']:.6g} {entry['unit']}\n")
    sys.stderr.write(
        f"{'error_rate':44s} {record['error_rate']:.6g} ({failed} of {attempted} ops)\n"
        f"op_tail is p{percentile:.2f} of {len(measured['latencies'])} ops "
        f"({beyond} beyond); results in {path.relative_to(ROOT)}\n"
    )
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
