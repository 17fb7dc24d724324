import math

import pytest

from markov_redaction import (
    MarkovModel,
    RedactionMechanism,
    build_3r_numerical,
    build_3r_relaxation,
    influence_high,
    influence_low,
    write_mechanism,
)
from markov_redaction.cli import main

from oracles import enumerated_leakage


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def test_influence_curve_columns_and_values(capsys):
    code, out, _ = run_cli(
        capsys, "influence-curve", "--alpha", "0.25", "--beta", "0.5", "--n", "5", "--p", "3"
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["t", "delta", "i_low", "i_high"]
    assert len(rows) == 5
    model = MarkovModel(5, 0.25, 0.5)
    by_t = {int(r[0]): r for r in rows}
    # the p row serializes infinities
    assert by_t[3][1:] == ["0", "inf", "inf"]
    # distance-1 row matches the module closed forms through repr round-trip
    assert float(by_t[4][2]) == influence_low(model, 1)
    assert float(by_t[4][3]) == influence_high(model, 1)
    assert float(by_t[4][2]) == pytest.approx(math.log(1.5), abs=1e-12)
    assert float(by_t[1][3]) == influence_high(model, 2)


def test_influence_curve_deterministic_and_atomic(capsys, tmp_path):
    args = ["influence-curve", "--alpha", "0.01", "--beta", "0.8", "--n", "8", "--p", "1"]
    code, first, _ = run_cli(capsys, *args)
    code2, second, _ = run_cli(capsys, *args)
    assert code == code2 == 0
    assert first == second
    target = tmp_path / "curve.csv"
    code3, out3, _ = run_cli(capsys, *args, "--out", str(target))
    assert code3 == 0 and out3 == ""
    assert target.read_text(encoding="utf-8") == first
    assert not list(tmp_path.glob(".tmp-*"))


def test_influence_curve_range_validation(capsys):
    code, _, err = run_cli(
        capsys, "influence-curve", "--alpha", "0.25", "--beta", "0.5",
        "--n", "5", "--p", "3", "--t-min", "4", "--t-max", "2",
    )
    assert code == 2
    assert "t-min" in err


def test_utility_curve_small_sweep(capsys):
    code, out, _ = run_cli(
        capsys, "utility-curve", "--alpha", "0.01", "--beta", "0.8",
        "--n", "6", "--p", "1", "--eps", "0.25", "--eps", "1.0", "--eps", "4.0",
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == [
        "eps", "dim_ub", "nu_mq_exact", "nu_mq_lb", "nu_3r_relax", "nu_3r_numerical",
        "leak_3r_relax", "pass_3r_relax", "leak_3r_numerical", "pass_3r_numerical",
    ]
    assert [float(r[0]) for r in rows] == [0.25, 1.0, 4.0]
    for row in rows:
        record = dict(zip(header, row))
        assert record["pass_3r_relax"] == "1"
        assert record["pass_3r_numerical"] == "1"
        assert float(record["nu_mq_lb"]) <= float(record["nu_mq_exact"]) + 1e-12
        assert float(record["nu_mq_exact"]) <= float(record["dim_ub"]) + 1e-12
        assert float(record["nu_3r_relax"]) <= float(record["nu_3r_numerical"]) + 1e-12


def test_utility_curve_columns_follow_mechanism_subset(capsys):
    code, out, _ = run_cli(
        capsys, "utility-curve", "--alpha", "0.25", "--beta", "0.5",
        "--n", "4", "--p", "1", "--eps", "0.5", "--eps", "1.0",
        "--mechanism", "mq", "--mechanism", "dim-ub",
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["eps", "dim_ub", "nu_mq_exact"]
    assert len(rows) == 2


def test_utility_curve_values_rederivable(capsys):
    code, out, _ = run_cli(
        capsys, "utility-curve", "--alpha", "0.01", "--beta", "0.8",
        "--n", "6", "--p", "1", "--eps", "0.5", "--mechanism", "3r-relaxation",
    )
    assert code == 0
    header, rows = parse_csv(out)
    record = dict(zip(header, rows[0]))
    from markov_redaction import exact_leakage, exact_utility

    model = MarkovModel(6, 0.01, 0.8)
    _, mech = build_3r_relaxation(model, 1, 0.5)
    assert float(record["nu_3r_relax"]) == exact_utility(model, mech).exact
    assert float(record["leak_3r_relax"]) == exact_leakage(model, mech).leakage


def test_utility_curve_default_grid_monotone_columns(capsys):
    # p = 1: the deterministic-mechanism columns are monotone in the budget;
    # the numerically optimized design is not (region discontinuities), so it
    # is checked for validity, not order
    code, out, _ = run_cli(
        capsys, "utility-curve", "--alpha", "0.01", "--beta", "0.8",
        "--n", "6", "--p", "1", "--eps-points", "20",
        "--mechanism", "dim-ub", "--mechanism", "mq", "--mechanism", "mq-lb",
        "--mechanism", "3r-relaxation",
    )
    assert code == 0
    header, rows = parse_csv(out)
    grid = [float(r[0]) for r in rows]
    assert grid[0] == pytest.approx(0.05) and grid[-1] == pytest.approx(6.0)
    assert all(b > a for a, b in zip(grid, grid[1:]))
    for column in ("dim_ub", "nu_mq_exact", "nu_mq_lb", "nu_3r_relax"):
        values = [float(dict(zip(header, r))[column]) for r in rows]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


def test_utility_curve_monte_carlo_column(capsys):
    code, out, _ = run_cli(
        capsys, "utility-curve", "--alpha", "0.25", "--beta", "0.5",
        "--n", "4", "--p", "1", "--eps", "1.0",
        "--mechanism", "3r-relaxation", "--trials", "20000", "--seed", "9",
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header[-1] == "mc_3r-relaxation"
    record = dict(zip(header, rows[0]))
    assert abs(float(record["mc_3r-relaxation"]) - float(record["nu_3r_relax"])) < 0.02


def test_utility_curve_guards(capsys):
    code, _, err = run_cli(
        capsys, "utility-curve", "--alpha", "0.25", "--beta", "0.5",
        "--n", "4", "--p", "1", "--eps", "1.0", "--eps", "0.5",
    )
    assert code == 2 and "increasing" in err
    # n = 13 is past the old enumeration cap: the sweep runs and its audits are exact
    code, out, _ = run_cli(
        capsys, "utility-curve", "--alpha", "0.25", "--beta", "0.5",
        "--n", "13", "--p", "1", "--eps", "1.0",
    )
    assert code == 0
    header, rows = parse_csv(out)
    record = dict(zip(header, rows[0]))
    model = MarkovModel(13, 0.25, 0.5)
    for kind, builder in (("relax", build_3r_relaxation), ("numerical", build_3r_numerical)):
        _, mech = builder(model, 1, 1.0)
        want = enumerated_leakage(model, mech, per_side=False).leakage
        assert float(record[f"leak_3r_{kind}"]) == pytest.approx(want, abs=1e-12)
        assert record[f"pass_3r_{kind}"] == "1"


def test_redaction_profile_published_values(capsys):
    code, out, _ = run_cli(
        capsys, "redaction-profile", "--alpha", "0.01", "--beta", "0.8",
        "--n", "10", "--p", "1", "--eps", "1.0",
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["t", "mechanism", "r_t0", "r_t1"]
    table = {(r[1], int(r[0])): (float(r[2]), float(r[3])) for r in rows}
    assert table[("mq", 1)] == (1.0, 1.0)
    assert table[("3r-relaxation", 1)] == (1.0, 1.0)
    assert table[("3r-numerical", 1)] == (1.0, 1.0)
    assert table[("3r-relaxation", 2)][0] == pytest.approx(0.757414764826369, abs=1e-5)
    assert table[("3r-relaxation", 3)][0] == pytest.approx(0.757414764826369, abs=1e-5)
    assert table[("3r-numerical", 2)][0] == pytest.approx(0.547547547547548, abs=1e-12)
    assert table[("mq", 4)] == (1.0, 1.0)
    assert table[("mq", 5)] == (0.0, 0.0)
    assert table[("3r-relaxation", 2)][1] == 1.0


def test_redaction_profile_rejects_bound_kinds(capsys):
    with pytest.raises(SystemExit) as excinfo:
        run_cli(
            capsys, "redaction-profile", "--alpha", "0.25", "--beta", "0.5",
            "--n", "4", "--p", "1", "--eps", "1.0", "--mechanism", "dim-ub",
        )
    assert excinfo.value.code == 2


def test_audit_command_pass_and_fail(capsys, tmp_path):
    model = MarkovModel(2, 0.25, 0.5)
    mech = RedactionMechanism(n=2, p=1, redact_prob=[[1.0, 1.0], [0.125, 1.0]])
    path = tmp_path / "example.json"
    write_mechanism(path, model, mech, "hand-tuned")

    code, out, _ = run_cli(capsys, "audit", str(path), "--eps", "0.5")
    assert code == 0
    assert "result: PASS" in out
    assert "leakage: 0.4924764850977943" in out
    assert "witness: ⊥⊥" in out
    assert "left_leakage: 0.0" in out

    code, out, _ = run_cli(capsys, "audit", str(path), "--eps", "0.4")
    assert code == 1
    assert "result: FAIL" in out


def test_audit_command_error_codes(capsys, tmp_path):
    missing = tmp_path / "nope.json"
    code, _, err = run_cli(capsys, "audit", str(missing), "--eps", "0.5")
    assert code == 2

    bad = tmp_path / "bad.json"
    bad.write_text("{", encoding="utf-8")
    code, _, err = run_cli(capsys, "audit", str(bad), "--eps", "0.5")
    assert code == 2 and "line" in err

    # n = 13 is past the old enumeration cap: the audit passes with exact leakages
    big_model = MarkovModel(13, 0.25, 0.5)
    _, big = build_3r_relaxation(big_model, 3, 1.0)
    path = tmp_path / "big.json"
    write_mechanism(path, big_model, big, "3r-relaxation")
    code, out, _ = run_cli(capsys, "audit", str(path), "--eps", "1.0")
    assert code == 0 and "result: PASS" in out
    fields = dict(line.split(": ", 1) for line in out.splitlines())
    want = enumerated_leakage(big_model, big)
    assert float(fields["leakage"]) == pytest.approx(want.leakage, abs=1e-12)
    sides = (float(fields["left_leakage"]), float(fields["right_leakage"]))
    assert sides == pytest.approx(want.per_side, abs=1e-12)


def test_example1_command(capsys):
    code, out, _ = run_cli(capsys, "example1")
    assert code == 0
    assert "result: PASS" in out
    assert out.count("ok   ") == 9


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["utility-curve", "--alpha", "0.25"])
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit) as excinfo:
        main(["no-such-command"])
    assert excinfo.value.code == 2
