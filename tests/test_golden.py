"""CLI stdout must stay byte-identical to the recorded outputs in tests/golden/.

The files were recorded before the audit and the numerical search were
restructured, and ``example1.txt`` before the set influence became the
nearest-pair closed form, so any change in a design, an audited leakage, a
set influence or a Monte-Carlo estimate shows up here as a differing byte.
Regenerate one by running its command line below and redirecting stdout
into the file.
"""

from pathlib import Path

import pytest

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
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(capsys, name):
    assert main(CASES[name]) == 0
    expected = (GOLDEN / name).read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected
