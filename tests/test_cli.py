import argparse
import itertools
import math
import os
import stat

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from markov_redaction import (
    MarkovModel,
    RedactionMechanism,
    build_3r_numerical,
    build_3r_relaxation,
    influence_high,
    influence_low,
    write_mechanism,
)
from markov_redaction.audit import side_leakage
from markov_redaction.cli import _build_parser, _csv, _fmt, main

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


def test_out_files_honour_the_umask(capsys, tmp_path):
    args = ["influence-curve", "--alpha", "0.01", "--beta", "0.8", "--n", "8", "--p", "1"]
    previous = os.umask(0o022)
    try:
        code, _, _ = run_cli(capsys, *args, "--out", str(tmp_path / "curve.csv"))
    finally:
        os.umask(previous)
    assert code == 0
    assert stat.S_IMODE((tmp_path / "curve.csv").stat().st_mode) == 0o644


def test_failed_out_write_leaves_no_temp_file(capsys, tmp_path):
    target = tmp_path / "taken"
    target.mkdir()
    code, out, err = run_cli(
        capsys, "influence-curve", "--alpha", "0.01", "--beta", "0.8",
        "--n", "8", "--p", "1", "--out", str(target),
    )
    assert code == 2 and out == "" and "cannot write" in err
    assert sorted(tmp_path.iterdir()) == [target]


def test_influence_curve_range_validation(capsys):
    code, _, err = run_cli(
        capsys, "influence-curve", "--alpha", "0.25", "--beta", "0.5",
        "--n", "5", "--p", "3", "--t-min", "4", "--t-max", "2",
    )
    assert code == 2
    assert "t-min" in err


def test_influence_curve_alpha_plus_beta_below_float_resolution_exits_two(capsys):
    code, out, err = run_cli(
        capsys, "influence-curve", "--alpha", "1e-17", "--beta", "1e-17", "--n", "3", "--p", "1"
    )
    assert code == 2 and out == ""
    assert "alpha + beta = 2e-17" in err


def test_redaction_profile_below_float_resolution_exits_two(capsys):
    code, out, err = run_cli(
        capsys, "redaction-profile", "--alpha", "0.8695656882018187",
        "--beta", "0.9934615290459773", "--n", "300", "--p", "1", "--eps", "4e-16",
        "--mechanism", "3r-relaxation",
    )
    assert code == 2
    assert out == ""
    assert "float resolution" in err and "Traceback" not in err


def test_csv_writer_keeps_signed_zeros_and_integer_types_apart():
    text = _csv(
        ["x", "k", "y"],
        [np.array([0.0, -0.0, 0.0, 1.0]), ["a", "b", "a", "b"], np.array([1, 1, 0, 1])],
    )
    assert text == "x,k,y\n0.0,a,1\n-0.0,b,1\n0.0,a,0\n1.0,b,1\n"
    assert _csv(["v"], [np.array([math.inf, -math.inf, 0.1, 1e-300])]) == "v\ninf\n-inf\n0.1\n1e-300\n"
    assert [
        _fmt(v)
        for v in (
            1, True, 1.0, -0.0, math.inf, np.int64(7), np.float64(0.1),
            np.True_, np.bool_(False), np.float32(0.1), np.uint64(2**64 - 1),
        )
    ] == ["1", "1", "1.0", "-0.0", "inf", "7", "0.1", "1", "0", "0.10000000149011612",
          "18446744073709551615"]
    with pytest.raises(TypeError, match="complex"):
        _csv(["z"], [np.array([1j, 2.0])])


def reference_csv(header, columns):
    """The CSV writer cell by cell: ``_fmt`` of each Python value, one join per row."""
    cells = [
        [cell.decode("ascii") if isinstance(cell, bytes) else cell if isinstance(cell, str) else _fmt(cell)
         for cell in np.asarray(column).tolist()]
        for column in columns
    ]
    return "\n".join([",".join(header), *map(",".join, zip(*cells))]) + "\n"


def first_difference(header, columns):
    """(line number, writer's line, reference line) of the first line where
    ``_csv`` and :func:`reference_csv` differ, or None; cheaper to report
    than a diff of two long texts."""
    got, want = _csv(header, columns).split("\n"), reference_csv(header, columns).split("\n")
    return next(
        ((k, a, b) for k, (a, b) in enumerate(itertools.zip_longest(got, want)) if a != b), None
    )


SPECIAL_CELLS = {
    "float64": [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1e-310,
                2.2250738585072014e-308, 1e-300, -1e-300, 1e300, -1e300, 1.7976931348623157e308,
                0.1, 1.0, -1.5, 1e16, 1e-5, 123456789.125],
    "float32": [0.0, -0.0, math.inf, -math.inf, math.nan, 1e-45, 1e-40, 1.1754944e-38,
                3.4028235e38, 0.1, -2.5],
    "int64": [0, 1, -1, 9, -9, 10, -10, 99, -100, 2**63 - 1, -(2**63)],
    "int8": [0, -1, 127, -128],
    "uint64": [0, 1, 9, 10, 2**63 - 1, 2**63, 2**64 - 1],
    "bool": [False, True],
    "bytes": [b"", b"a", b"mq", b"3r-relaxation", b"x y"],
    "str": ["", "mq", "3r-numerical"],
}

CELL_STRATEGIES = {
    "float64": st.floats(),
    "float32": st.floats(width=32),
    "int64": st.integers(-(2**63), 2**63 - 1),
    "int8": st.integers(-128, 127),
    "uint64": st.integers(0, 2**64 - 1),
    "bool": st.booleans(),
    "bytes": st.text(st.characters(min_codepoint=1, max_codepoint=127), max_size=6).map(str.encode),
    "str": st.text(st.characters(min_codepoint=1, max_codepoint=127), max_size=6),
}


@st.composite
def csv_tables(draw):
    """Header and columns of 0, 1 or up to 2,000 rows, each column's cells
    picked by a seeded generator from a drawn pool of up to 12 values."""
    rows = draw(st.one_of(st.just(0), st.just(1), st.integers(2, 2000)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = []
    for kind in draw(st.lists(st.sampled_from(sorted(CELL_STRATEGIES)), min_size=1, max_size=6)):
        cell = st.one_of(st.sampled_from(SPECIAL_CELLS[kind]), CELL_STRATEGIES[kind])
        pool = draw(st.lists(cell, min_size=1, max_size=12))
        column = np.array([pool[k] for k in rng.integers(len(pool), size=rows)], dtype=kind)
        if draw(st.booleans()):
            column = np.repeat(column, 2)[::2]  # a strided view, as table[:, k] is
        columns.append(column)
    return [f"c{k}" for k in range(len(columns))], columns


@settings(max_examples=200, deadline=None, derandomize=True)
@given(table=csv_tables())
def test_csv_writer_equals_the_cell_writer(table):
    assert first_difference(*table) is None


def test_csv_writer_equals_the_cell_writer_on_special_values():
    rng = np.random.default_rng(7)
    header = list(SPECIAL_CELLS)
    for rows in (1, 1000):
        columns = [
            np.array([cells[k] for k in rng.integers(len(cells), size=rows)], dtype=kind)
            for kind, cells in SPECIAL_CELLS.items()
        ]
        assert first_difference(header, columns) is None
    # Every special value of each kind, in one table.
    rows = max(map(len, SPECIAL_CELLS.values()))
    columns = [np.resize(np.array(cells, dtype=kind), rows) for kind, cells in SPECIAL_CELLS.items()]
    assert first_difference(header, columns) is None


def test_csv_writer_writes_the_header_alone_for_zero_rows():
    assert _csv(["a"], [np.array([])]) == "a\n"
    assert _csv(["t", "kind", "x"], [np.array([], dtype=int), np.array([], dtype=bytes), np.array([])]) == (
        "t,kind,x\n"
    )


def test_nan_budgets_exit_two(capsys, tmp_path):
    model_args = ["--alpha", "0.25", "--beta", "0.5", "--n", "4", "--p", "2"]
    code, out, err = run_cli(
        capsys, "redaction-profile", *model_args, "--eps", "1",
        "--eps-left", "nan", "--eps-right", "0.5",
    )
    assert (code, out) == (2, "") and "nonnegative" in err
    code, out, err = run_cli(capsys, "redaction-profile", *model_args, "--eps", "nan")
    assert (code, out) == (2, "") and "positive" in err
    for grid in (["--eps", "nan"], ["--eps", "0.5", "--eps", "nan"]):
        code, out, err = run_cli(capsys, "utility-curve", *model_args, *grid)
        assert (code, out) == (2, "") and "strictly increasing and positive" in err
    path = tmp_path / "mech.json"
    write_mechanism(
        path, MarkovModel(2, 0.25, 0.5),
        RedactionMechanism(n=2, p=1, redact_prob=[[1.0, 1.0], [0.125, 1.0]]), "hand-tuned",
    )
    for eps in ("nan", "-0.5"):
        code, out, err = run_cli(capsys, "audit", str(path), "--eps", eps)
        assert (code, out) == (2, "") and "nonnegative" in err
    code, out, _ = run_cli(capsys, "audit", str(path), "--eps", "inf")
    assert code == 0 and "result: PASS" in out


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
    code, out, _ = run_cli(
        capsys, "utility-curve", "--alpha", "0.01", "--beta", "0.8",
        "--n", "6", "--p", "2", "--eps", "0.5", "--eps", "1.0",
        "--mechanism", "3r-numerical", "--mechanism", "mq-lb", "--mechanism", "mq",
        "--trials", "100",
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == [
        "eps", "nu_mq_exact", "nu_mq_lb", "nu_3r_numerical", "leak_3r_numerical",
        "pass_3r_numerical", "mc_mq", "mc_3r-numerical",
    ]
    assert len(rows) == 2 and all(len(row) == len(header) for row in rows)
    assert [row[5] for row in rows] == ["1", "1"]


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


def test_a_printed_pass_flag_implies_leakage_within_the_budget(capsys):
    # At a tiny budget any absolute slack in the search would buy leakage of many eps.
    alpha, beta, n, p, eps = 0.03457191603076751, 0.8751447155108873, 29, 14, 6.30606677987069e-14
    code, out, _ = run_cli(
        capsys, "utility-curve", "--alpha", repr(alpha), "--beta", repr(beta), "--n", str(n),
        "--p", str(p), "--eps", repr(eps), "--mechanism", "3r-numerical", "--grid-steps", "99",
    )
    assert code == 0
    header, rows = parse_csv(out)
    record = dict(zip(header, rows[0]))
    passed = record["pass_3r_numerical"] == "1"
    assert not passed or float(record["leak_3r_numerical"]) <= float(record["eps"])
    model = MarkovModel(n, alpha, beta)
    design, mech = build_3r_numerical(model, p, eps, grid_steps=99)
    table = mech.redact_prob
    for side, eps_side in ((table[: p - 1][::-1], design.eps_left), (table[p:], design.eps_right)):
        assert side_leakage(model, side) <= eps_side


def test_utility_curve_guards(capsys):
    code, _, err = run_cli(
        capsys, "utility-curve", "--alpha", "0.25", "--beta", "0.5",
        "--n", "4", "--p", "1", "--eps", "1.0", "--eps", "0.5",
    )
    assert code == 2 and "increasing" in err
    for flags, named in (
        (("--eps", "1.0", "--trials", "-5"), "--trials"),
        (("--eps-min", "0"), "--eps-min"),
        (("--eps-max", "-1"), "--eps-max"),
        (("--eps-points", "0"), "--eps-points"),
        (("--eps-points", "-3"), "--eps-points"),
        (("--eps", "1", "--trials", "5", "--seed", "-1"), "--seed"),
        (("--eps-min", "2", "--eps-max", "1"), "increasing"),
    ):
        code, out, err = run_cli(
            capsys, "utility-curve", "--alpha", "0.25", "--beta", "0.5",
            "--n", "4", "--p", "1", *flags,
        )
        assert code == 2 and named in err and out == ""
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


def test_flags_are_checked_whatever_the_mechanism(capsys):
    model_args = ("--alpha", "0.01", "--beta", "0.8", "--n", "4", "--p", "2")
    split = ("--eps", "1", "--eps-left", "5", "--eps-right", "7")
    errors = {}
    for kind in ("mq", "3r-relaxation", "3r-numerical"):
        code, out, errors[kind] = run_cli(
            capsys, "redaction-profile", *model_args, *split, "--mechanism", kind
        )
        assert code == 2 and out == "" and "side budgets" in errors[kind]
    assert len(set(errors.values())) == 1  # the builders' own message, whatever the mechanism
    code, out, err = run_cli(capsys, "redaction-profile", *model_args, "--eps", "1", "--eps-left", "0.5")
    assert code == 2 and out == "" and "--eps-left" in err and "--eps-right" in err
    for argv in (
        ("utility-curve", *model_args, "--eps", "1", "--grid-steps", "0", "--mechanism", "mq"),
        ("redaction-profile", *model_args, "--eps", "1", "--grid-steps", "-5", "--mechanism", "mq"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "" and "--grid-steps" in err


def _first_ever_output(capsys, *argv):
    """What ``main`` prints for argv with a newly built parser."""
    _build_parser.cache_clear()
    return run_cli(capsys, *argv)


def test_reused_parser_keeps_no_appended_flags(capsys):
    model_args = ("--alpha", "0.25", "--beta", "0.5", "--n", "4", "--p", "1")
    first = _first_ever_output(capsys, "utility-curve", *model_args, "--eps-points", "3")
    appended = run_cli(
        capsys, "utility-curve", *model_args,
        "--mechanism", "mq", "--mechanism", "dim-ub", "--eps", "0.5", "--eps", "1",
    )
    assert appended[0] == 0 and appended[1].startswith("eps,dim_ub,nu_mq_exact\n")
    again = run_cli(capsys, "utility-curve", *model_args, "--eps-points", "3")
    assert again == first and first[0] == 0


def test_reused_parser_recovers_from_a_rejected_call(capsys):
    argv = ("influence-curve", "--alpha", "0.25", "--beta", "0.5", "--n", "4", "--p", "2")
    first = _first_ever_output(capsys, *argv)
    with pytest.raises(SystemExit) as excinfo:
        main([*argv, "--t-min", "one"])
    assert excinfo.value.code == 2
    capsys.readouterr()
    assert run_cli(capsys, *argv) == first and first[0] == 0


def test_reused_parser_prints_the_same_help(capsys):
    helps = []
    _build_parser.cache_clear()
    for _ in range(2):
        for argv in (["--help"], ["utility-curve", "--help"]):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 0
            helps.append(capsys.readouterr().out)
    assert helps[:2] == helps[2:] and "--grid-steps" in helps[1]


def test_parser_is_built_once_per_process(capsys, monkeypatch):
    constructed = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        constructed.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    run_cli(capsys, "example1")
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for _ in range(3):
        assert run_cli(capsys, "example1")[0] == 0
    assert constructed == []


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
    assert "leakage: 0.4924764850977942" in out
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
