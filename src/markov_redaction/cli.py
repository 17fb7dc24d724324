"""Command-line driver: design, audit, sweep, and export as CSV.

Subcommands
-----------
influence-curve    per-record influence values around the private index
utility-curve      utility-versus-budget sweep across mechanisms
redaction-profile  per-record redaction probabilities of the mechanisms
audit              exact leakage audit of a mechanism file
example1           self-check on the two-record worked example

Exit codes: 0 success/pass, 1 audit fail, 2 usage error, 3 a distance search
that finds no answer within its limit of 10^6 records.
All output is deterministic byte-for-byte given identical flags and seed;
files are written atomically (temp file + rename).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import tempfile
from dataclasses import dataclass

import numpy as np

from .audit import exact_leakage
from .chain import MarkovModel, multi_step
from .errors import EnumerationCapError
from .influence import influence_high, influence_low, max_influence_set, pointwise_influence
from .mechanisms import (
    DEFAULT_GRID_STEPS,
    RedactionMechanism,
    build_3r_numerical,
    build_3r_relaxation,
    build_mq,
    dim_upper_bound,
    mq_utility_bounds,
)
from .mechfile import read_mechanism
from .utility import exact_utility, monte_carlo_utility

__all__ = ["main", "SweepSpec", "run_utility_curve"]

EXIT_OK = 0
EXIT_AUDIT_FAIL = 1
EXIT_USAGE = 2
EXIT_CAP = 3

#: Certification tolerance for audited-leakage pass flags.
PASS_SLACK = 1e-9

KIND_MQ = "mq"
KIND_RELAX = "3r-relaxation"
KIND_NUMERICAL = "3r-numerical"
KIND_DIM = "dim-ub"
KIND_MQLB = "mq-lb"
CURVE_KINDS = (KIND_MQ, KIND_RELAX, KIND_NUMERICAL, KIND_DIM, KIND_MQLB)
TABLE_KINDS = (KIND_MQ, KIND_RELAX, KIND_NUMERICAL)


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    value = float(value)
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return repr(value)


def _csv(rows) -> str:
    return "\n".join(",".join(_fmt(cell) if not isinstance(cell, str) else cell for cell in row) for row in rows) + "\n"


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    target = os.path.abspath(out)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target), prefix=".tmp-csv-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        os.replace(tmp, target)
    except OSError as err:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise ValueError(f"cannot write {out}: {err}") from None


def _model_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--alpha", type=float, required=True, help="transition probability 0 -> 1")
    parser.add_argument("--beta", type=float, required=True, help="transition probability 1 -> 0")
    parser.add_argument("--n", type=int, required=True, help="number of records")
    parser.add_argument("--p", type=int, required=True, help="private record index (1-based)")


def _split_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--eps-left", type=float, default=None, help="left side budget (with --eps-right)")
    parser.add_argument("--eps-right", type=float, default=None, help="right side budget (with --eps-left)")


def _split_of(args) -> tuple[float, float] | None:
    if (args.eps_left is None) != (args.eps_right is None):
        raise ValueError("--eps-left and --eps-right must be given together")
    if args.eps_left is None:
        return None
    return (args.eps_left, args.eps_right)


@dataclass(frozen=True)
class SweepSpec:
    """Parameters of one utility-curve sweep."""

    model: MarkovModel
    p: int
    eps_grid: tuple[float, ...]
    mechanisms: tuple[str, ...]
    grid_steps: int = DEFAULT_GRID_STEPS
    trials: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.mechanisms:
            raise ValueError("at least one mechanism is required")
        unknown = set(self.mechanisms) - set(CURVE_KINDS)
        if unknown:
            raise ValueError(f"unknown mechanism(s): {sorted(unknown)}")
        if not self.eps_grid:
            raise ValueError("the budget grid is empty")
        if self.eps_grid[0] <= 0 or any(
            b <= a for a, b in zip(self.eps_grid, self.eps_grid[1:])
        ):
            raise ValueError("the budget grid must be strictly increasing and positive")


def run_utility_curve(spec: SweepSpec) -> str:
    """CSV text of the sweep; every 3R row carries its audited leakage and pass flag."""
    model, p = spec.model, spec.p
    header = ["eps"]
    if KIND_DIM in spec.mechanisms:
        header.append("dim_ub")
    if KIND_MQ in spec.mechanisms:
        header.append("nu_mq_exact")
    if KIND_MQLB in spec.mechanisms:
        header.append("nu_mq_lb")
    if KIND_RELAX in spec.mechanisms:
        header.append("nu_3r_relax")
    if KIND_NUMERICAL in spec.mechanisms:
        header.append("nu_3r_numerical")
    if KIND_RELAX in spec.mechanisms:
        header += ["leak_3r_relax", "pass_3r_relax"]
    if KIND_NUMERICAL in spec.mechanisms:
        header += ["leak_3r_numerical", "pass_3r_numerical"]
    if spec.trials > 0:
        header += [f"mc_{kind}" for kind in TABLE_KINDS if kind in spec.mechanisms]

    rows: list[list] = [header]
    for eps in spec.eps_grid:
        row: list = [eps]
        tables: dict[str, RedactionMechanism] = {}
        if KIND_DIM in spec.mechanisms:
            row.append(dim_upper_bound(model, p, eps).value)
        if KIND_MQ in spec.mechanisms or KIND_MQLB in spec.mechanisms:
            lower, exact = mq_utility_bounds(model, p, eps)
            if KIND_MQ in spec.mechanisms:
                row.append(exact)
                tables[KIND_MQ] = build_mq(model, p, eps)[1]
            if KIND_MQLB in spec.mechanisms:
                row.append(lower)
        audits: list = []
        if KIND_RELAX in spec.mechanisms:
            _, mech = build_3r_relaxation(model, p, eps)
            tables[KIND_RELAX] = mech
            row.append(exact_utility(model, mech).exact)
            leak = exact_leakage(model, mech).leakage
            audits += [leak, int(leak <= eps + PASS_SLACK)]
        if KIND_NUMERICAL in spec.mechanisms:
            _, mech = build_3r_numerical(model, p, eps, grid_steps=spec.grid_steps)
            tables[KIND_NUMERICAL] = mech
            row.append(exact_utility(model, mech).exact)
            leak = exact_leakage(model, mech).leakage
            audits += [leak, int(leak <= eps + PASS_SLACK)]
        row += audits
        if spec.trials > 0:
            for kind in TABLE_KINDS:
                if kind in spec.mechanisms:
                    report = monte_carlo_utility(model, tables[kind], spec.trials, spec.seed)
                    row.append(report.monte_carlo.estimate)
        rows.append(row)
    return _csv(rows)


def _cmd_influence_curve(args) -> int:
    model = MarkovModel(n=args.n, alpha=args.alpha, beta=args.beta)
    t_min = 1 if args.t_min is None else args.t_min
    t_max = model.n if args.t_max is None else args.t_max
    if not (1 <= t_min <= t_max <= model.n):
        raise ValueError(f"need 1 <= t-min <= t-max <= {model.n}")
    if not (1 <= args.p <= model.n):
        raise ValueError(f"private index p must lie in [1, {model.n}]")
    rows: list[list] = [["t", "delta", "i_low", "i_high"]]
    for t in range(t_min, t_max + 1):
        delta = abs(t - args.p)
        rows.append([t, delta, influence_low(model, delta), influence_high(model, delta)])
    _emit(_csv(rows), args.out)
    return EXIT_OK


def _cmd_utility_curve(args) -> int:
    model = MarkovModel(n=args.n, alpha=args.alpha, beta=args.beta)
    if args.eps:
        grid = tuple(args.eps)
    else:
        grid = tuple(
            float(x)
            for x in np.logspace(
                math.log10(args.eps_min), math.log10(args.eps_max), args.eps_points
            )
        )
    mechanisms = tuple(dict.fromkeys(args.mechanism)) if args.mechanism else CURVE_KINDS
    spec = SweepSpec(
        model=model,
        p=args.p,
        eps_grid=grid,
        mechanisms=mechanisms,
        grid_steps=args.grid_steps,
        trials=args.trials,
        seed=args.seed,
    )
    _emit(run_utility_curve(spec), args.out)
    return EXIT_OK


def _cmd_redaction_profile(args) -> int:
    model = MarkovModel(n=args.n, alpha=args.alpha, beta=args.beta)
    requested = tuple(dict.fromkeys(args.mechanism)) if args.mechanism else TABLE_KINDS
    unknown = set(requested) - set(TABLE_KINDS)
    if unknown:
        raise ValueError(
            f"redaction profiles exist only for {list(TABLE_KINDS)}; got {sorted(unknown)}"
        )
    split = _split_of(args)
    rows: list[list] = [["t", "mechanism", "r_t0", "r_t1"]]
    for kind in TABLE_KINDS:
        if kind not in requested:
            continue
        if kind == KIND_MQ:
            _, mech = build_mq(model, args.p, args.eps)
        elif kind == KIND_RELAX:
            _, mech = build_3r_relaxation(model, args.p, args.eps, split)
        else:
            _, mech = build_3r_numerical(model, args.p, args.eps, split, grid_steps=args.grid_steps)
        for t in range(1, model.n + 1):
            rows.append([t, kind, mech.redact_prob[t - 1, 0], mech.redact_prob[t - 1, 1]])
    _emit(_csv(rows), args.out)
    return EXIT_OK


def _cmd_audit(args) -> int:
    model, mechanism, kind = read_mechanism(args.mechanism_file)
    report = exact_leakage(model, mechanism)
    passed = report.leakage <= args.eps + PASS_SLACK
    left, right = report.per_side
    lines = [
        f"file: {args.mechanism_file}",
        f"kind: {kind}",
        f"n: {model.n}",
        f"p: {mechanism.p}",
        f"alpha: {_fmt(model.alpha)}",
        f"beta: {_fmt(model.beta)}",
        f"outputs_enumerated: {report.outputs_enumerated}",
        f"leakage: {_fmt(report.leakage)}",
        f"witness: {report.witness}",
        f"left_leakage: {_fmt(left)}",
        f"right_leakage: {_fmt(right)}",
        f"budget: {_fmt(args.eps)}",
        f"result: {'PASS' if passed else 'FAIL'}",
    ]
    sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK if passed else EXIT_AUDIT_FAIL


def _cmd_example1(args) -> int:
    """Recompute the two-record worked example and verify every quoted value."""
    del args
    model = MarkovModel(n=2, alpha=0.25, beta=0.5)
    tolerance = 1e-9
    failures = []

    def check(label: str, got: float, want: float, tol: float = tolerance) -> None:
        ok = abs(got - want) <= tol
        sys.stdout.write(f"{'ok   ' if ok else 'FAIL '}{label}: got {_fmt(got)}, want {_fmt(want)}\n")
        if not ok:
            failures.append(label)

    step = multi_step(model, 1).matrix()
    check("likelihood ratio x=0, x2=0", step[0, 0] / step[1, 0], 1.5)
    check("likelihood ratio x=0, x2=1", step[0, 1] / step[1, 1], 0.5)
    check("likelihood ratio x=1, x2=0", step[1, 0] / step[0, 0], 2.0 / 3.0)
    check("likelihood ratio x=1, x2=1", step[1, 1] / step[0, 1], 2.0)
    check("influence of observing 0", pointwise_influence(model, 1, 2, 0), math.log(1.5))
    check("max influence", max_influence_set(model, 1, {2}), math.log(2.0))

    mechanism = RedactionMechanism(n=2, p=1, redact_prob=[[1.0, 1.0], [0.125, 1.0]])
    report = exact_leakage(model, mechanism)
    check("audited leakage", report.leakage, math.log(18.0 / 11.0))
    if report.leakage > 0.5:
        sys.stdout.write("FAIL leakage exceeds the 0.5 budget\n")
        failures.append("budget")
    else:
        sys.stdout.write(f"ok   leakage fits the 0.5 budget (witness {report.witness})\n")
    check("exact utility", exact_utility(model, mechanism).exact, 7.0 / 24.0, 1e-12)

    sys.stdout.write("result: " + ("PASS" if not failures else "FAIL") + "\n")
    return EXIT_OK if not failures else EXIT_AUDIT_FAIL


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="markov-redaction",
        description="Design and exactly audit local redaction mechanisms for "
        "Markov-correlated binary records.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    influence = commands.add_parser(
        "influence-curve", help="CSV of per-record influence values around p"
    )
    _model_args(influence)
    influence.add_argument("--t-min", type=int, default=None, help="first record index (default 1)")
    influence.add_argument("--t-max", type=int, default=None, help="last record index (default n)")
    influence.add_argument("--out", default=None, help="output CSV path (default stdout)")
    influence.set_defaults(handler=_cmd_influence_curve)

    curve = commands.add_parser(
        "utility-curve", help="CSV utility sweep over a privacy-budget grid"
    )
    _model_args(curve)
    curve.add_argument(
        "--eps", type=float, action="append", default=None,
        help="explicit budget grid point (repeatable, strictly increasing); "
        "default is a log-spaced grid",
    )
    curve.add_argument("--eps-min", type=float, default=0.05, help="default grid start")
    curve.add_argument("--eps-max", type=float, default=6.0, help="default grid end")
    curve.add_argument("--eps-points", type=int, default=60, help="default grid size")
    curve.add_argument(
        "--mechanism", action="append", choices=CURVE_KINDS, default=None,
        help="mechanism to sweep (repeatable; default all)",
    )
    curve.add_argument("--grid-steps", type=int, default=DEFAULT_GRID_STEPS)
    curve.add_argument("--trials", type=int, default=0, help="Monte-Carlo trials per row (0 = off)")
    curve.add_argument("--seed", type=int, default=0)
    curve.add_argument("--out", default=None)
    curve.set_defaults(handler=_cmd_utility_curve)

    profile = commands.add_parser(
        "redaction-profile", help="CSV of per-record redaction probabilities"
    )
    _model_args(profile)
    profile.add_argument("--eps", type=float, required=True, help="total privacy budget")
    _split_args(profile)
    profile.add_argument(
        "--mechanism", action="append", choices=TABLE_KINDS, default=None,
        help="mechanism to include (repeatable; default all three)",
    )
    profile.add_argument("--grid-steps", type=int, default=DEFAULT_GRID_STEPS)
    profile.add_argument("--out", default=None)
    profile.set_defaults(handler=_cmd_redaction_profile)

    audit = commands.add_parser(
        "audit", help="exact leakage audit of a mechanism file"
    )
    audit.add_argument("mechanism_file", help="mechanism file path")
    audit.add_argument("--eps", type=float, required=True, help="privacy budget to certify")
    audit.set_defaults(handler=_cmd_audit)

    example = commands.add_parser(
        "example1", help="recompute the two-record worked example and self-check"
    )
    example.set_defaults(handler=_cmd_example1)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except EnumerationCapError as err:
        sys.stderr.write(f"error: {err}\n")
        return EXIT_CAP
    except (ValueError, OSError) as err:
        sys.stderr.write(f"error: {err}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
