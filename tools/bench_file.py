"""Paired benchmark runs of two commits, summarised in ``BENCH_<label>.json``.

    python3 tools/bench_file.py --label parser-once --base HEAD~1 --head HEAD --pairs 10

Run from anywhere inside the repository.  Both commits are exported with
``git archive`` into fresh temporary directories (``TMPDIR`` picks where),
so each side runs its committed files only, as a new checkout would.  Pair
i runs the unchanged ``python3 bench/run.py --workload W --seed i --seconds
S --trace 0`` once on each side for every workload, the base first in odd
pairs and the head first in even ones; S is ``run_seconds`` from
``BENCHMARK.json``.  Each run's ``.bench_results/<W>-seed<i>-trace0.json``
is read back.  The file at the repository root holds, per workload, side
and end-to-end metric, the median, quartiles, minimum and maximum of the
runs with their repeat count and every pair's value, how many pairs the
head won, each pair's head/base ratio and their median, a verdict
("improved", "worse", "unresolved" or "unchanged", see :func:`verdict`),
the Python and numpy versions and both git shas.  It is rewritten after every pair, so an
interrupted run keeps what it measured.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "head")


def spread(values: list[float]) -> dict:
    """Median, quartiles (inclusive method), minimum, maximum and count of values."""
    q1, median, q3 = (
        statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    )
    return {"median": median, "q1": q1, "q3": q3, "min": min(values), "max": max(values),
            "repeats": len(values), "values": values}


def summarize(records: dict[str, list[dict]], metrics: list[dict]) -> dict:
    """One workload's summary from its run results, keyed by side, in pair order.

    ``records`` maps "base" and "head" to equally long lists of the dicts
    ``bench/run.py`` writes; ``metrics`` are the ``end_to_end`` entries of
    ``BENCHMARK.json``.  A pair is won by the side whose value is better in
    the metric's direction; ties count for neither.  Each metric also gets
    a :func:`verdict`.  Each pair's head/base
    ratio, and their median, compare two runs made minutes apart, so a
    host that drifts between pairs moves them less than the sides' medians.
    """
    summary: dict = {}
    for side in SIDES:
        runs = records[side]
        summary[side] = {
            "python": sorted({run["python"] for run in runs}),
            "numpy": sorted({run["numpy"] for run in runs}),
            "nproc": sorted({run["nproc"] for run in runs}),
            "ops": sum(run["ops"] for run in runs),
            "failed_ops": sum(round(run["error_rate"] * run["ops"]) for run in runs),
            "metrics": {
                metric["name"]: spread([run["metrics"][metric["name"]]["value"] for run in runs])
                for metric in metrics
            },
        }
    summary["head_won_pairs"] = {}
    summary["head_over_base"] = {}
    summary["verdicts"] = {}
    for metric in metrics:
        sign = 1.0 if metric["better"] == "higher" else -1.0
        stats = [summary[side]["metrics"][metric["name"]] for side in SIDES]
        base, head = (side_stats["values"] for side_stats in stats)
        summary["head_won_pairs"][metric["name"]] = sum(
            sign * (h - b) > 0 for b, h in zip(base, head)
        )
        ratios = [h / b for b, h in zip(base, head)]
        summary["head_over_base"][metric["name"]] = {
            "median": statistics.median(ratios), "values": ratios,
        }
        summary["verdicts"][metric["name"]] = verdict(*stats, metric["better"], metric["bound"])
    return summary


def verdict(base: dict, head: dict, better: str, bound: float) -> str:
    """"improved", "worse", "unresolved" or "unchanged": the head against the base on one metric.

    ``base`` and ``head`` are :func:`spread` results with their values in
    pair order.  The head improved when it wins at least 9 in 10 pairs and
    the medians differ in its favour by more than the base's interquartile
    range; "worse" is the mirror case.  When the base's interquartile range
    relative to its median exceeds the metric's ``bound``, the runs cannot
    resolve a change of that size, so the verdict is "unresolved" unless
    every head run beats every base run.
    """
    sign = 1.0 if better == "higher" else -1.0
    good_base, good_head = ([sign * value for value in side["values"]] for side in (base, head))
    iqr = base["q3"] - base["q1"]
    if iqr > bound * abs(base["median"]) and not min(good_head) > max(good_base):
        return "unresolved"
    gain = sign * (head["median"] - base["median"])
    pairs = list(zip(good_base, good_head))
    if 10 * sum(h > b for b, h in pairs) >= 9 * len(pairs) and gain > iqr:
        return "improved"
    if 10 * sum(h < b for b, h in pairs) >= 9 * len(pairs) and -gain > iqr:
        return "worse"
    return "unchanged"


def _git(*argv: str) -> str:
    return subprocess.run(["git", *argv], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def _export(sha: str, into: Path) -> Path:
    """The files of commit sha, extracted into a new directory under into."""
    archive = into / f"{sha}.tar"
    _git("archive", "--output", str(archive), sha)
    checkout = into / sha
    with tarfile.open(archive) as tar:
        tar.extractall(checkout, filter="data")
    return checkout


def _run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", repr(seconds), "--trace", "0"]
    subprocess.run(argv, cwd=checkout, check=True, stdout=subprocess.DEVNULL)
    path = checkout / ".bench_results" / f"{workload}-seed{seed}-trace0.json"
    return json.loads(path.read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="the file is BENCH_<label>.json")
    parser.add_argument("--base", required=True, help="commit measured as the base")
    parser.add_argument("--head", default="HEAD", help="commit measured as the change")
    parser.add_argument("--pairs", type=int, default=10, help="pairs of runs per workload")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be positive")

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [workload["name"] for workload in benchmark["workloads"]]
    seconds = float(benchmark["run_seconds"])
    shas = {side: _git("rev-parse", "--verify", f"{rev}^{{commit}}")
            for side, rev in zip(SIDES, (args.base, args.head))}
    out = ROOT / f"BENCH_{args.label}.json"
    records = {workload: {side: [] for side in SIDES} for workload in workloads}
    with tempfile.TemporaryDirectory(prefix="bench-file-") as scratch:
        checkouts = {side: _export(sha, Path(scratch)) for side, sha in shas.items()}
        for seed in range(1, args.pairs + 1):
            order = SIDES if seed % 2 else SIDES[::-1]
            for workload in workloads:
                for side in order:
                    records[workload][side].append(_run(checkouts[side], workload, seed, seconds))
                    sys.stderr.write(f"pair {seed} {workload} {side} done\n")
            out.write_text(json.dumps({
                "label": args.label,
                "command": f"python3 bench/run.py --workload W --seed S --seconds {seconds:g} "
                "--trace 0",
                "shas": shas,
                "seeds": list(range(1, seed + 1)),
                "first_side": [SIDES[0] if s % 2 else SIDES[1] for s in range(1, seed + 1)],
                "workloads": {
                    workload: summarize(records[workload], benchmark["end_to_end"])
                    for workload in workloads
                },
            }, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
