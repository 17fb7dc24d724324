"""Command-line driver: design, audit, sweep, and export as CSV.

Subcommands
-----------
influence-curve    per-record influence values around the private index
utility-curve      utility-versus-budget sweep across mechanisms
redaction-profile  per-record redaction probabilities of the mechanisms
audit              exact leakage audit of a mechanism file
example1           self-check on the two-record worked example

Exit codes: 0 success/pass, 1 audit fail, 2 usage error.
All output is deterministic byte-for-byte given identical flags and seed;
files are written atomically (temp file + rename), with the umask's mode.

The argument parser is built once per process, on the first call of
:func:`main`, and reused by every later call; argparse keeps no state
between parses, so each call gets a fresh namespace and the same output
as a first-ever call.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

import numpy as np

from .audit import exact_leakage
from .chain import MarkovModel, check_integer, multi_step
from .influence import _influence_prefix, check_index, max_influence_set, pointwise_influence
from .mechanisms import (
    DEFAULT_GRID_STEPS,
    RedactionMechanism,
    _check_budget,
    build_3r_numerical,
    build_3r_relaxation,
    build_mq,
    dim_upper_bound,
    mq_utility_bounds,
)
from .mechfile import read_mechanism
from .utility import exact_utility, monte_carlo_utility

__all__ = ["main"]

EXIT_OK = 0
EXIT_AUDIT_FAIL = 1
EXIT_USAGE = 2

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
    """How every number the CLI writes is formatted, by its type.

    Integers and bools (Python or numpy) in decimal, everything else as the
    repr of its float value, which writes infinities as ``inf`` and ``-inf``.
    :func:`_csv` writes the same text a whole column at a time.
    """
    if isinstance(value, (int, np.integer, np.bool_)):
        return str(int(value))
    return repr(float(value))


def _float_cells(columns: list[np.ndarray]) -> list[np.ndarray]:
    """Text of float columns, each distinct float64 bit pattern formatted once.

    The cells of all columns are cast to float64 (exactly) and found by
    their bits, which keeps 0.0 apart from -0.0 although the two compare
    equal.  Each column comes back as a ``(rows, width)`` uint8 array of
    left-aligned, zero-padded text, gathered from one table of the texts.
    """
    bits = np.concatenate(columns, dtype=np.float64).view(np.uint64)
    ordered = np.sort(bits)
    first = np.ones(ordered.size, dtype=bool)
    first[1:] = ordered[1:] != ordered[:-1]
    distinct = ordered[first]
    texts = np.array(list(map(float.__repr__, distinct.view(np.float64).tolist())), dtype=bytes)
    table = texts.view(np.uint8).reshape(distinct.size, texts.itemsize)
    at = np.searchsorted(distinct, bits).reshape(len(columns), -1)
    widths = np.count_nonzero(table, axis=1)[at].max(axis=1).tolist()
    return [cells[:, :width] for cells, width in zip(np.take(table, at, axis=0), widths)]


def _integer_cells(values: np.ndarray) -> np.ndarray:
    """Decimal text of an integer or bool column, right-aligned and zero-padded.

    The magnitude is taken in uint64 (two's complement negation), so every
    int64 and uint64 value is exact; the digits come from repeated
    division by 10, and the places left of a number's first digit stay zero.
    """
    magnitude = values.astype(np.uint64)
    negative = values < 0
    np.negative(magnitude, out=magnitude, where=negative)
    largest = int(magnitude.max())
    digits = len(str(largest))
    cells = np.zeros((values.size, digits + int(negative.any())), dtype=np.uint8)
    cells[negative, 0] = ord("-")
    rest = magnitude.astype(np.min_scalar_type(largest))  # narrower divides faster
    for place in range(1, digits + 1):
        shown = rest != 0 if place > 1 else True
        rest, digit = np.divmod(rest, 10)
        digit += ord("0")
        np.copyto(cells[:, -place], digit, casting="unsafe", where=shown)
    return cells


def _csv(header: list[str], columns) -> str:
    """CSV text of a header and equally long columns, one line per row.

    A column is a numpy array (or what :func:`numpy.asarray` makes one of)
    of floats, integers, bools or ASCII text.  A number reads as
    :func:`_fmt` writes the cell's Python value (``tolist()``), so
    the dtype keeps 1 apart from 1.0.  The body is one zero-filled
    ``uint8`` array with a line per row: a slot per column, each followed
    by a comma or the newline.  Each column's text is copied into its slot
    at once, and the zero bytes left over are dropped at the end.
    """
    columns = [np.asarray(column) for column in columns]
    head = ",".join(header) + "\n"
    rows = len(columns[0])
    if rows == 0:
        return head
    float_columns = [column for column in columns if column.dtype.kind == "f"]
    floats = iter(_float_cells(float_columns) if float_columns else ())
    blocks = []
    for column in columns:
        kind = column.dtype.kind
        if kind == "f":
            blocks.append(next(floats))
        elif kind in "biu":
            blocks.append(_integer_cells(column))
        elif kind in "SU":
            text = np.ascontiguousarray(column, dtype=bytes)
            blocks.append(text.view(np.uint8).reshape(rows, text.itemsize))
        else:
            raise TypeError(f"cannot write a column of dtype {column.dtype}")
    body = np.zeros((rows, sum(block.shape[1] + 1 for block in blocks)), dtype=np.uint8)
    start = 0
    while blocks:
        block = blocks.pop(0)  # freed once copied, which keeps the peak heap lower
        end = start + block.shape[1]
        body[:, start:end] = block
        body[:, end] = ord(",")
        start = end + 1
    body[:, -1] = ord("\n")
    return head + body[body != 0].tobytes().decode("ascii")


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    target = os.path.abspath(out)
    tmp = os.path.join(os.path.dirname(target), f".tmp-csv-{os.urandom(8).hex()}")
    try:
        # Mode "x" creates the file as a plain open does, honouring the umask.
        with open(tmp, "x", encoding="utf-8", newline="") as handle:
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


#: Builder of each of :data:`TABLE_KINDS`, called as
#: ``build(model, p, eps, split, grid_steps)``; the MQ window has no split.
_TABLE_BUILDERS = {
    KIND_MQ: lambda model, p, eps, split, steps: build_mq(model, p, eps)[1],
    KIND_RELAX: lambda model, p, eps, split, steps: build_3r_relaxation(model, p, eps, split)[1],
    KIND_NUMERICAL: lambda model, p, eps, split, steps: build_3r_numerical(
        model, p, eps, split, grid_steps=steps
    )[1],
}


#: utility-curve columns after ``eps``, in output order, each with the
#: mechanism it belongs to; the ``mc_`` columns need Monte-Carlo trials.
_CURVE_COLUMNS = (
    ("dim_ub", KIND_DIM),
    ("nu_mq_exact", KIND_MQ),
    ("nu_mq_lb", KIND_MQLB),
    ("nu_3r_relax", KIND_RELAX),
    ("nu_3r_numerical", KIND_NUMERICAL),
    ("leak_3r_relax", KIND_RELAX),
    ("pass_3r_relax", KIND_RELAX),
    ("leak_3r_numerical", KIND_NUMERICAL),
    ("pass_3r_numerical", KIND_NUMERICAL),
    *((f"mc_{kind}", kind) for kind in TABLE_KINDS),
)

#: Column suffix (after ``nu_3r_``, ``leak_3r_``, ``pass_3r_``) of each
#: 3R design the sweep audits.
_AUDITED_TAGS = {KIND_RELAX: "relax", KIND_NUMERICAL: "numerical"}


def _utility_curve(
    model: MarkovModel, p: int, grid: list[float], kinds: set[str],
    grid_steps: int, trials: int, seed: int,
) -> str:
    """CSV text of the sweep; every 3R row carries its audited leakage and pass flag."""
    header = ["eps"] + [
        name
        for name, kind in _CURVE_COLUMNS
        if kind in kinds and (trials > 0 or not name.startswith("mc_"))
    ]
    rows: list[list] = []
    for eps in grid:
        cells: dict[str, object] = {"eps": eps}
        if KIND_DIM in kinds:
            cells["dim_ub"] = dim_upper_bound(model, p, eps).value
        if KIND_MQ in kinds or KIND_MQLB in kinds:
            cells["nu_mq_lb"], cells["nu_mq_exact"] = mq_utility_bounds(model, p, eps)
        for kind in TABLE_KINDS:
            if kind not in kinds or (kind == KIND_MQ and trials == 0):
                continue  # the MQ window's table is needed only for Monte-Carlo
            mech = _TABLE_BUILDERS[kind](model, p, eps, None, grid_steps)
            tag = _AUDITED_TAGS.get(kind)
            if tag:
                leak = exact_leakage(model, mech).leakage
                cells[f"nu_3r_{tag}"] = exact_utility(model, mech).exact
                cells[f"leak_3r_{tag}"] = leak
                cells[f"pass_3r_{tag}"] = int(leak <= eps + PASS_SLACK)
            if trials > 0:
                report = monte_carlo_utility(model, mech, trials, seed)
                cells[f"mc_{kind}"] = report.monte_carlo.estimate
        rows.append([cells[name] for name in header])
    return _csv(header, [np.array(column) for column in zip(*rows)])


def _cmd_influence_curve(args) -> int:
    model = MarkovModel(n=args.n, alpha=args.alpha, beta=args.beta)
    t_min = 1 if args.t_min is None else args.t_min
    t_max = model.n if args.t_max is None else args.t_max
    if not (1 <= t_min <= t_max <= model.n):
        raise ValueError(f"need 1 <= t-min <= t-max <= {model.n}")
    check_index(model.n, args.p)
    t = np.arange(t_min, t_max + 1)
    delta = np.abs(t - args.p)
    lows, highs = _influence_prefix(model, int(delta.max()))
    # Distance 0 is infinite; past the prefix both forms are exactly 0.0.
    at = np.minimum(delta, len(lows) + 1)
    i_low = np.array([math.inf, *lows, 0.0])[at]
    i_high = np.array([math.inf, *highs, 0.0])[at]
    _emit(_csv(["t", "delta", "i_low", "i_high"], [t, delta, i_low, i_high]), args.out)
    return EXIT_OK


def _cmd_utility_curve(args) -> int:
    model = MarkovModel(n=args.n, alpha=args.alpha, beta=args.beta)
    check_integer("--grid-steps", args.grid_steps)
    check_integer("--trials", args.trials, 0)
    check_integer("--seed", args.seed, 0)
    if args.eps:
        grid = args.eps
    else:
        for flag, value in (
            ("--eps-min", args.eps_min),
            ("--eps-max", args.eps_max),
            ("--eps-points", args.eps_points),
        ):
            if not value > 0:
                raise ValueError(f"{flag} must be positive, got {value!r}")
        grid = np.logspace(
            math.log10(args.eps_min), math.log10(args.eps_max), args.eps_points
        ).tolist()
    if any(not b > a for a, b in zip((0.0, *grid), grid)):
        raise ValueError("the budget grid must be strictly increasing and positive")
    kinds = set(args.mechanism or CURVE_KINDS)
    curve = _utility_curve(model, args.p, grid, kinds, args.grid_steps, args.trials, args.seed)
    _emit(curve, args.out)
    return EXIT_OK


def _cmd_redaction_profile(args) -> int:
    model = MarkovModel(n=args.n, alpha=args.alpha, beta=args.beta)
    split = _split_of(args)
    _check_budget(model, args.p, args.eps, split)
    check_integer("--grid-steps", args.grid_steps)
    kinds = [kind for kind in TABLE_KINDS if kind in (args.mechanism or TABLE_KINDS)]
    table = np.concatenate([
        _TABLE_BUILDERS[kind](model, args.p, args.eps, split, args.grid_steps).redact_prob
        for kind in kinds
    ])
    t = np.tile(np.arange(1, model.n + 1), len(kinds))
    names = np.repeat(np.array(kinds, dtype=bytes), model.n)
    _emit(_csv(["t", "mechanism", "r_t0", "r_t1"], [t, names, table[:, 0], table[:, 1]]), args.out)
    return EXIT_OK


def _cmd_audit(args) -> int:
    if not args.eps >= 0:
        raise ValueError(f"--eps must be nonnegative, got {args.eps!r}")
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

    step = multi_step(model, 1)
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


@functools.cache
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
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, OSError) as err:
        sys.stderr.write(f"error: {err}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
