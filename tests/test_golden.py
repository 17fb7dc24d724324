"""CLI stdout must stay byte-identical to the recorded outputs in tests/golden/.

The files were recorded before the audit and the numerical search were
restructured, ``example1.txt`` before the set influence became the
nearest-pair closed form, and the last three cases before the regions, the
sampler and the CSV writer stopped looping over records, so any change in a
design, an audited leakage, a set influence or a Monte-Carlo estimate shows
up here as a differing byte.  The audited leakages (the ``leak_`` columns
and the audited-leakage line of ``example1.txt``) were re-recorded when the
audit began to report its class arithmetic instead of re-evaluating the
witness; every other byte was kept.  Regenerate one by running its command
line below and redirecting stdout into the file.  ``PYTHONPATH=src python
tests/test_golden.py moved`` lists each cell that differs from the recorded
files (file, line, column, recorded, new, |Δ|) and writes nothing.

Outputs of n = 10^5 records are pinned by their sha256 instead, recorded
before the CSV writer built the whole table as one byte array; regenerate
one with ``markov-redaction <command line> | sha256sum``.

``designs.sha256`` pins the library below the CLI: every builder, bound and
audit on about 400 seeded random points.  It was last recorded when the
audit began to report its class arithmetic and the default split at p = n
began to put the whole budget on the left; regenerate it with
``PYTHONPATH=src python tests/test_golden.py > tests/golden/designs.sha256``.

``audits.sha256`` pins the audit bit for bit on about 1,500 seeded random
tables the builders never make: fractional, sprinkled 0/1 and coin entries,
broken private rows, and long sides with and without an always-released
row.  It was last recorded when the audit began to report its class
arithmetic instead of re-evaluating the witness; regenerate it with
``PYTHONPATH=src python tests/test_golden.py audits >
tests/golden/audits.sha256``.
"""

import contextlib
import hashlib
import io
import itertools
import math
import random
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from markov_redaction import (
    MarkovModel,
    RedactionMechanism,
    build_3r_numerical,
    build_3r_relaxation,
    build_mq,
    delta_star,
    dim_upper_bound,
    exact_leakage,
    mq_utility_bounds,
    three_r_utility,
)
from markov_redaction.audit import side_leakage
from markov_redaction.cli import main

GOLDEN = Path(__file__).parent / "golden"

PAPER = ["--alpha", "0.01", "--beta", "0.8", "--n", "10", "--p", "1"]

CASES = {
    "influence_curve_paper.csv": ["influence-curve", *PAPER],
    "utility_curve_paper.csv": ["utility-curve", *PAPER],
    "utility_curve_a0.1_b0.5_n12_p5.csv": [
        "utility-curve", "--alpha", "0.1", "--beta", "0.5", "--n", "12", "--p", "5",
        "--eps-points", "20",
    ],
    "utility_curve_a0.05_b0.6_n300_p150_mc.csv": [
        "utility-curve", "--alpha", "0.05", "--beta", "0.6", "--n", "300", "--p", "150",
        "--eps-points", "8", "--trials", "200",
    ],
    "redaction_profile_paper.csv": ["redaction-profile", *PAPER, "--eps", "1"],
    "redaction_profile_a0.05_b0.6_n400_p200.csv": [
        "redaction-profile", "--alpha", "0.05", "--beta", "0.6", "--n", "400", "--p", "200",
        "--eps", "0.8",
    ],
    "example1.txt": ["example1"],
    # The closed forms rise by an ulp in places near 1e-16 before their zero tail.
    "influence_curve_a0.8_b0.9_n300_p120.csv": [
        "influence-curve", "--alpha", "0.8", "--beta", "0.9", "--n", "300", "--p", "120",
    ],
    # Both sides end in long runs of records with influence exactly 0.0.
    "redaction_profile_a0.05_b0.6_n1200_p400_split.csv": [
        "redaction-profile", "--alpha", "0.05", "--beta", "0.6", "--n", "1200", "--p", "400",
        "--eps", "1", "--eps-left", "0.2", "--eps-right", "0.8",
    ],
    # 70,000 trials: 16,384-row chunks at n = 4, and past the old 2^16-trial block edge.
    "utility_curve_a0.1_b0.5_n4_p2_mc70000.csv": [
        "utility-curve", "--alpha", "0.1", "--beta", "0.5", "--n", "4", "--p", "2",
        "--eps", "0.5", "--eps", "2", "--trials", "70000",
    ],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(capsys, name):
    assert main(CASES[name]) == 0
    expected = (GOLDEN / name).read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected


LONG = ["--alpha", "0.001", "--beta", "0.004", "--n", "100000", "--p", "30000"]
LONG_PROFILE = ["redaction-profile", *LONG, "--eps", "1", "--mechanism", "mq", "--mechanism", "3r-relaxation"]

DIGESTS = {
    # 6,362 distinct i_low values and 6,648 distinct i_high values.
    "influence_curve_a0.001_b0.004_n100000_p30000.csv.sha256": ["influence-curve", *LONG],
    "redaction_profile_a0.001_b0.004_n100000_p30000_mq_relax.csv.sha256": LONG_PROFILE,
    "redaction_profile_a0.001_b0.004_n100000_p30000_mq_relax_split.csv.sha256": [
        *LONG_PROFILE, "--eps-left", "0.4", "--eps-right", "0.6",
    ],
}


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_long_cli_output_matches_recorded_digest(capsys, name):
    assert main(DIGESTS[name]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
    assert digest == (GOLDEN / name).read_text(encoding="utf-8").strip()


def _log_uniform(rng: random.Random, low: float, high: float) -> float:
    return math.exp(rng.uniform(math.log(low), math.log(high)))


def designs_digest(points: int = 400, seed: int = 18) -> str:
    """sha256 over every builder's output, the bounds and the audits on seeded random points."""
    rng = random.Random(seed)
    digest = hashlib.sha256()

    def put(*values) -> None:
        digest.update(repr(values).encode("utf-8"))

    def audit(mechanism) -> None:
        report = exact_leakage(model, mechanism)
        put(report.leakage, report.witness, report.outputs_enumerated, report.per_side)

    for _ in range(points):
        n = rng.randint(2, 59)
        p = rng.randint(1, n)
        alpha = _log_uniform(rng, 1e-3, 0.9)
        beta = rng.uniform(alpha, 0.99)
        eps = _log_uniform(rng, 0.01, 8.0)
        split = None
        if rng.random() < 0.3:
            eps_left = eps * rng.random()
            split = (eps_left, eps - eps_left)
        grid_steps = rng.choice((10, 49, 99, 999))
        model = MarkovModel(n, alpha, beta)
        put(n, p, alpha, beta, eps, split, grid_steps)
        builders = (
            lambda: build_3r_relaxation(model, p, eps, split),
            lambda: build_3r_numerical(model, p, eps, split, grid_steps),
        )
        for build in builders:
            try:
                design, mechanism = build()
            except ValueError as err:
                put(str(err))
                continue
            put(mechanism.redact_prob.tobytes(), sorted(design.q.items()))
            put(design.relaxed_leakage_bound, three_r_utility(design, model))
            audit(mechanism)
        plan, mechanism = build_mq(model, p, eps)
        put(plan, mechanism.redact_prob.tobytes())
        audit(mechanism)
        put(dim_upper_bound(model, p, eps), mq_utility_bounds(model, p, eps))
        put(delta_star(model, eps), delta_star(model, eps / 1000.0))
        coins = np.array([rng.random() < 0.5 for _ in range(2 * n)], dtype=float)
        audit(RedactionMechanism(n, p, coins.reshape(n, 2), enforce_private_redaction=False))
    return digest.hexdigest()


def test_designs_match_recorded_digest():
    assert designs_digest() == (GOLDEN / "designs.sha256").read_text(encoding="utf-8").strip()


def audits_digest(tables: int = 1492, seed: int = 23) -> str:
    """sha256 over the audit reports and side scores of seeded random tables.

    Tables of n = 1 to 13 cycle through four kinds: entries in (0, 1),
    entries with sprinkled 0/1, 0/1 coins, and sprinkled entries with a
    broken private row.  Then come 8 tables of n = 500 to 3,000, half with
    entries in (0, 1) (no always-released row) and half with sprinkled 0/1
    and one (0, 0) row.  Wherever row p always redacts, both outward sides'
    ``side_leakage`` is hashed too.
    """
    rng = np.random.default_rng(seed)
    digest = hashlib.sha256()
    long_sizes = (500, 800, 1200, 1500, 2000, 2400, 2800, 3000)
    for trial in range(tables + len(long_sizes)):
        long = trial >= tables
        kind = (trial - tables) % 2 if long else trial % 4
        n = long_sizes[trial - tables] if long else int(rng.integers(1, 14))
        p = int(rng.integers(1, n + 1))
        alpha = float(np.exp(rng.uniform(math.log(1e-3), math.log(0.9))))
        model = MarkovModel(n, alpha, float(rng.uniform(alpha, 0.99)))
        table = rng.random((n, 2))
        if kind == 2:
            table = np.round(table)
        elif kind != 0:
            table[rng.random((n, 2)) < 0.3] = 1.0
            table[rng.random((n, 2)) < 0.2] = 0.0
        if kind != 3:
            table[p - 1] = 1.0
        if long and kind == 1:
            table[(p - 1 + int(rng.integers(1, n))) % n] = 0.0
        mechanism = RedactionMechanism(n, p, table, enforce_private_redaction=kind != 3)
        report = exact_leakage(model, mechanism)
        values = [n, p, model.alpha, model.beta, table.tobytes(), report.leakage,
                  report.witness, report.outputs_enumerated, report.per_side]
        if kind != 3:
            values += [side_leakage(model, table[: p - 1][::-1]), side_leakage(model, table[p:])]
        digest.update(repr(values).encode("utf-8"))
    return digest.hexdigest()


def test_audits_match_recorded_digest():
    assert audits_digest() == (GOLDEN / "audits.sha256").read_text(encoding="utf-8").strip()


def moved_cells():
    """(file, line, column, recorded, new, |Δ|) for each cell where a CLI golden differs.

    A CSV cell is named by its header, a text token by its place in the
    line; |Δ| is "-" unless both values are numbers.
    """
    for name in sorted(CASES):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            main(CASES[name])
        recorded = (GOLDEN / name).read_text(encoding="utf-8").splitlines()
        csv = name.endswith(".csv")
        split = (lambda line: line.split(",")) if csv else re.compile(r",?\s+").split
        header = recorded[0].split(",") if csv else []
        lines = itertools.zip_longest(recorded, out.getvalue().splitlines(), fillvalue="")
        for number, (old_line, new_line) in enumerate(lines, 1):
            cells = itertools.zip_longest(split(old_line), split(new_line), fillvalue="")
            for column, (old, new) in enumerate(cells):
                if old != new:
                    try:
                        delta = repr(abs(float(new) - float(old)))
                    except ValueError:
                        delta = "-"
                    label = header[column] if column < len(header) else column + 1
                    yield name, number, label, old, new, delta


if __name__ == "__main__":
    if sys.argv[1:] == ["moved"]:
        for cell in moved_cells():
            print(*cell, sep="\t")
    else:
        print(audits_digest() if sys.argv[1:] == ["audits"] else designs_digest())
