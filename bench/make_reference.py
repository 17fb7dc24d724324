"""Record the reference outputs the benchmark's checks compare against.

    PYTHONPATH=src python3 bench/make_reference.py

Run from the repository root, on the commit whose outputs are the
reference.  It writes

* ``reference/paper_sweep.csv``: the 60-row default ``utility-curve`` sweep
  of the paper point (alpha 0.01, beta 0.8, n 10, p 1), as the CLI prints it;
* ``reference/audit_files.json``: for every mechanism an ``audit-files`` batch
  can contain, its input fingerprint, the audited leakage, left and right
  leakage, witness, and the exit code of ``audit FILE --eps E`` for each
  budget the workload may ask.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import markov_redaction as mr

from run import ROOT, git_sha
from workloads import (
    AUDIT_FILES_JSON,
    PAPER_ARGV,
    PAPER_SWEEP_CSV,
    all_specs,
    fingerprint,
    parse_audit_report,
    run_cli,
)

COMMAND = "PYTHONPATH=src python3 bench/make_reference.py"


def main() -> int:
    code, sweep, err = run_cli(PAPER_ARGV)
    if code != 0:
        sys.stderr.write(f"utility-curve failed: {err}")
        return 1
    PAPER_SWEEP_CSV.write_text(sweep, encoding="utf-8")

    workdir = ROOT / ".bench_work" / "reference"
    workdir.mkdir(parents=True, exist_ok=True)
    entries = {}
    try:
        for spec in all_specs():
            path = workdir / f"{spec.key}.json"
            mr.write_mechanism(path, spec.model, spec.mechanism, spec.kind)
            exits = {}
            for eps in spec.budgets:
                code, out, err = run_cli(["audit", str(path), "--eps", repr(eps)])
                if code not in (0, 1):
                    sys.stderr.write(f"audit of {spec.key} failed: {err}")
                    return 1
                exits[repr(eps)] = code
            fields = parse_audit_report(out)
            entries[spec.key] = {
                "fingerprint": fingerprint(spec),
                "leakage": fields["leakage"],
                "left_leakage": fields["left_leakage"],
                "right_leakage": fields["right_leakage"],
                "witness": fields["witness"],
                "exit": exits,
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    document = {"recorded_from": git_sha(), "command": COMMAND, "entries": entries}
    AUDIT_FILES_JSON.write_text(
        json.dumps(document, indent=1, sort_keys=True, ensure_ascii=False) + "\n", encoding="utf-8"
    )
    print(f"wrote {PAPER_SWEEP_CSV.relative_to(ROOT)} and "
          f"{AUDIT_FILES_JSON.relative_to(ROOT)} ({len(entries)} mechanisms)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
