"""One workload run in a fresh process: set up, issue ops back to back, check each.

Started by ``run.py`` (never imported).  The set-up is the interpreter start,
the package import and the workload's input generation; the moment it ends
is printed as ``ready`` on the CLOCK_MONOTONIC time base, which the parent
shares.  Then one client issues ops in a closed loop until ``--seconds``
have passed, finishing the round in progress.  Each op is timed on its own;
its output check runs afterwards, untimed and untraced.  The last line of
stdout is one JSON object with the raw results.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import sys
import time
from run import RESULTS_DIR, ROOT


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import numpy

    import markov_redaction  # noqa: F401  (the import is part of set-up)

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    import workloads

    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        work = workloads.WORKLOADS[args.workload](args.seed, workdir)
        ready = time.monotonic()
        result = {"ready": ready}
        if not args.setup_only:
            if tracer is not None:
                tracer.mark_setup_end()
            result.update(measure(work, ready + args.seconds, tracer))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if tracer is not None:
        tracer.enabled = False
        result["layers"] = tracer.layer_metrics(len(result.get("latencies", ())))
        RESULTS_DIR.mkdir(exist_ok=True)
        tracer.save(RESULTS_DIR / f"spans-{args.workload}.npz")
    result.update(
        python=platform.python_version(),
        numpy=numpy.__version__,
        rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    )
    print(json.dumps(result))


def measure(work, deadline: float, tracer) -> dict:
    latencies: list[float] = []
    failures: list[str] = []
    rounds = 0
    quiet = tracer.paused if tracer is not None else contextlib.nullcontext
    for ops in work.rounds():
        for op in ops:
            start = time.perf_counter()
            try:
                output = op.run()
            except Exception as err:  # a raising op is a failed op; keep measuring
                latencies.append(time.perf_counter() - start)
                failures.append(f"{op.label}: raised {type(err).__name__}: {err}")
                continue
            latencies.append(time.perf_counter() - start)
            with quiet():
                try:
                    problem = op.check(output)
                except Exception as err:  # malformed output the checker cannot parse
                    problem = f"check raised {type(err).__name__}: {err}"
            if problem is not None:
                failures.append(f"{op.label}: {problem}")
        rounds += 1
        if time.monotonic() >= deadline:
            break
    for line in failures[:5]:
        sys.stderr.write(f"FAILED {line}\n")
    return {
        "latencies": latencies,
        "failed": len(failures),
        "failures": failures[:20],
        "rounds": rounds,
    }


if __name__ == "__main__":
    main()
