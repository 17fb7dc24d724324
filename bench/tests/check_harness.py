"""Self-tests of the benchmark harness.

    python3 -m pytest bench/tests/check_harness.py -q

Run from the repository root.  The file name keeps the repository's own
test run from collecting it, since the last tests start full benchmark runs.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402

ALL = sorted(workloads.WORKLOADS)


def _build(name: str, seed: int, workdir: Path):
    return workloads.WORKLOADS[name](seed, workdir)


@pytest.mark.parametrize("name", ALL)
def test_same_seed_same_inputs_other_seed_other_inputs(name, tmp_path):
    first = _build(name, 5, tmp_path / "a").inputs()
    again = _build(name, 5, tmp_path / "b").inputs()
    other = _build(name, 6, tmp_path / "c").inputs()
    assert first == again
    assert first != other


def test_audit_files_written_bytes_repeat(tmp_path):
    paths = []
    for sub in ("a", "b"):
        work = _build("audit-files", 9, tmp_path / sub)
        paths.append([path for _, path in work.files])
    for a, b in zip(*paths):
        assert a.name == b.name and a.read_bytes() == b.read_bytes()


def _first_op(name: str, workdir: Path):
    return next(_build(name, 2, workdir).rounds())[0]


def test_paper_sweep_checker_flags_corruption(tmp_path):
    op = _first_op("paper-sweep", tmp_path)
    code, out, err = op.run()
    assert op.check((code, out, err)) is None
    header, row = out.splitlines()
    cells = row.split(",")
    utility = header.split(",").index("nu_3r_numerical")
    cells[utility] = repr(float(cells[utility]) + 1e-12)
    assert op.check((code, header + "\n" + ",".join(cells) + "\n", err)) is not None
    leak = header.split(",").index("leak_3r_numerical")
    cells = row.split(",")
    cells[leak] = repr(float(cells[leak]) + 1e-6)
    assert op.check((code, header + "\n" + ",".join(cells) + "\n", err)) is not None
    assert op.check((2, out, "error: boom")) is not None


def test_audit_files_checker_flags_corruption(tmp_path):
    work = _build("audit-files", 2, tmp_path)
    finite = next(
        op for op in next(work.rounds())
        if op.check(out := op.run()) is None and "leakage: inf" not in out[1]
    )
    code, out, err = finite.run()
    fields = workloads.parse_audit_report(out)
    shifted = out.replace(f"leakage: {fields['leakage']}",
                          f"leakage: {float(fields['leakage']) + 1e-6!r}", 1)
    assert finite.check((code, shifted, err)) is not None
    flipped = 1 - code
    assert finite.check((flipped, out, err)) is not None
    other = fields["witness"].translate(str.maketrans("01", "10"))
    assert finite.check((code, out.replace(fields["witness"], other), err)) is not None


def test_long_chain_checker_flags_corruption():
    point = workloads.draw_point(np.random.default_rng(0), 1_000)
    out = workloads.long_chain_op(point)
    assert workloads.check_long_chain(point, out) is None
    broken = dict(out, dim_ub=out["mq_exact"] - 1e-6)
    assert workloads.check_long_chain(point, broken) is not None
    code, text, err = out["profile"]
    rows = text.splitlines()
    private = next(i for i, r in enumerate(rows) if r.startswith(f"{point.p},"))
    t, kind, _, r1 = rows[private].split(",")
    rows[private] = ",".join((t, kind, "0.5", r1))
    broken = dict(out, profile=(code, "\n".join(rows) + "\n", err))
    assert workloads.check_long_chain(point, broken) is not None


def test_tail_is_the_eleventh_largest_sample():
    samples = [float(i) for i in range(1, 101)]
    value, percentile, beyond = run.tail(samples)
    assert value == 90.0 and beyond == 10 and math.isclose(percentile, 90.0)
    assert run.tail([3.0, 1.0]) == (3.0, 100.0, 0)


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("name", ALL)
def test_workload_reports_every_metric_with_no_errors(name):
    done = _bench("--workload", name, "--seed", "3", "--seconds", "1", "--trace", "0")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(run.E2E_UNITS)
    assert all(entry["value"] > 0 for entry in result["metrics"].values())
    record = json.loads((ROOT / ".bench_results" / f"{name}-seed3-trace0.json").read_text())
    assert record["error_rate"] == 0
    for key in ("python", "numpy", "git_sha", "nproc", "seed", "ops", "repeats"):
        assert key in record


@pytest.mark.parametrize("name", ALL)
def test_traced_run_reports_every_layer_metric(name):
    done = _bench("--workload", name, "--seed", "3", "--seconds", "2", "--trace", "1")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(run.layer_units())
    audits = result["metrics"]["audit.exact_leakage.calls"]["value"]
    assert (audits == 0) if name == "long-chain" else (audits > 0)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench("--workload", "paper-sweep", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.layer_units()
