"""Seeded inputs, ops and output checks of the three benchmark workloads.

A workload is built from ``(seed, workdir)``: building it is the set-up
(input generation, and for ``audit-files`` writing the mechanism files).
``rounds()`` then yields the ops forever, in balanced rounds; the runner
stops after the round during which its time ran out.  An op's ``run``
does the measured work and returns its raw output; ``check`` returns None
when the output is correct and a message otherwise.

Package functions are always looked up through their module at call time
(``cli.main``, ``mr.dim_upper_bound``), so the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
from pathlib import Path
from typing import Callable, Iterator, NamedTuple

import numpy as np

import markov_redaction as mr
from markov_redaction import cli

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
PAPER_SWEEP_CSV = REFERENCE_DIR / "paper_sweep.csv"
AUDIT_FILES_JSON = REFERENCE_DIR / "audit_files.json"

#: Leakages are compared to the reference within this absolute tolerance.
LEAK_TOL = 1e-9

#: Float slack on the long-chain inequalities, whose two sides are computed
#: along different arithmetic paths (observed excess: a few ulps, < 2e-15).
PROPERTY_TOL = 1e-12


class Op(NamedTuple):
    label: str
    run: Callable[[], object]
    check: Callable[[object], "str | None"]


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """``markov-redaction <argv>`` in this process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _leak_matches(got: float, want: float) -> bool:
    if math.isinf(want) or math.isinf(got):
        return got == want
    return abs(got - want) <= LEAK_TOL


def _cli_failure(code: int, err: str) -> str:
    return f"exit code {code}: {err.strip()[:200]}"


# ---------------------------------------------------------------- paper-sweep

PAPER_MODEL = ["--alpha", "0.01", "--beta", "0.8", "--n", "10", "--p", "1"]
PAPER_ARGV = ["utility-curve", *PAPER_MODEL]

#: Ops per round; each round takes one grid point from each of this many
#: contiguous strata of the budget grid, so every round has the same mix.
PAPER_STRATA = 6

#: Order in which each stratum's 10 points are visited.  Every seed visits
#: them in this order, so a run that stops part-way through a pass still
#: times the same budgets whatever its seed; the seed orders each round.
PAPER_STRATUM_ORDER = (0, 3, 6, 9, 2, 5, 8, 1, 4, 7)


def paper_grid() -> list[float]:
    """The CLI's default budget grid: 60 log-spaced points in [0.05, 6]."""
    return [float(x) for x in np.logspace(math.log10(0.05), math.log10(6.0), 60)]


def compare_sweep_row(header: list[str], got: list[str], want: list[str]) -> str | None:
    """Leakage columns within LEAK_TOL (inf exactly); every other cell exactly."""
    if len(got) != len(want):
        return f"row has {len(got)} cells, reference {len(want)}"
    for column, g, w in zip(header, got, want):
        if column.startswith("leak_"):
            if not _leak_matches(float(g), float(w)):
                return f"{column} = {g}, reference {w}"
        elif g != w:
            return f"{column} = {g}, reference {w}"
    return None


class PaperSweep:
    """The paper's utility-versus-budget sweep, one budget per op."""

    name = "paper-sweep"

    def __init__(self, seed: int, workdir: Path) -> None:
        del workdir
        rows = PAPER_SWEEP_CSV.read_text(encoding="utf-8").splitlines()
        self.header = rows[0].split(",")
        self.reference = {row.split(",")[0]: row.split(",") for row in rows[1:]}
        grid = paper_grid()
        size = len(grid) // PAPER_STRATA
        rng = np.random.default_rng(seed)
        self.order: list[float] = []
        for k in PAPER_STRATUM_ORDER:
            for stratum in rng.permutation(PAPER_STRATA):
                self.order.append(grid[stratum * size + k])

    def inputs(self) -> bytes:
        return json.dumps([repr(eps) for eps in self.order]).encode()

    def rounds(self) -> Iterator[list[Op]]:
        ops = [self._op(eps) for eps in self.order]
        while True:
            for start in range(0, len(ops), PAPER_STRATA):
                yield ops[start : start + PAPER_STRATA]

    def _op(self, eps: float) -> Op:
        argv = [*PAPER_ARGV, "--eps", repr(eps)]
        return Op(f"utility-curve --eps {eps!r}", lambda: run_cli(argv), self._check)

    def _check(self, output) -> str | None:
        code, out, err = output
        if code != 0:
            return _cli_failure(code, err)
        lines = out.splitlines()
        if len(lines) != 2 or lines[0].split(",") != self.header:
            return "output is not the reference header plus one row"
        row = lines[1].split(",")
        want = self.reference.get(row[0])
        if want is None:
            return f"budget {row[0]} is not in the reference sweep"
        return compare_sweep_row(self.header, row, want)


# ---------------------------------------------------------------- audit-files

AUDIT_NS = (8, 9, 10, 11, 12)

#: Random-table slots per chain length, and the variants of each slot.  A
#: slot fixes what sets an audit's cost (the private index and which table
#: entries are 0 or 1); its variants differ only in the chain parameters and
#: the other entries.  A batch takes one seeded variant of every slot, so
#: every seed's batch costs the same to audit.
SLOTS = {"interior": 6, "zero-one": 6, "broken": 2}
VARIANTS = 4
POOL_SEED = 20250124

#: Each builder designs one mechanism per point: (n, p, alpha, beta, eps).
BUILDER_KINDS = ("3r-relaxation", "3r-numerical", "mq")
BUILDER_POINTS = (
    (8, 2, 0.01, 0.25, 1.0),
    (9, 3, 0.1, 0.35, 0.2),
    (10, 1, 0.01, 0.8, 1.0),
    (11, 9, 0.03, 0.5, 0.6),
    (12, 4, 0.02, 0.6, 0.8),
)

#: Budgets an audit op draws from (builder files also use their design budget).
AUDIT_BUDGETS = (0.1, 0.5, 1.0, 2.0, 5.0)


class MechanismSpec(NamedTuple):
    key: str
    model: mr.MarkovModel
    mechanism: mr.RedactionMechanism
    kind: str
    budgets: tuple[float, ...]


def random_spec(category: str, n: int, slot: int, variant: int) -> MechanismSpec:
    """Variant ``variant`` of random-table slot ``slot`` at chain length n."""
    stream = [POOL_SEED, list(SLOTS).index(category), n, slot]
    shape = np.random.default_rng(stream)
    p = int(shape.integers(1, n + 1))
    pinned = shape.integers(0, 3, size=(n, 2))  # zero-one: 0 -> 0.0, 1 -> 1.0, 2 -> free
    released = int(shape.integers(0, 3))  # broken: which private entries fall below 1
    values = np.random.default_rng([*stream, variant])
    alpha = float(math.exp(values.uniform(math.log(0.01), math.log(0.3))))
    beta = float(values.uniform(alpha, 0.9))
    table = values.uniform(0.05, 0.95, size=(n, 2))
    if category == "zero-one":
        table = np.where(pinned == 0, 0.0, np.where(pinned == 1, 1.0, table))
    table[p - 1] = 1.0
    if category == "broken":  # the private record is sometimes released
        leak = values.uniform(0.0, 0.9, size=2)
        table[p - 1] = [leak[0] if released != 1 else 1.0, leak[1] if released != 0 else 1.0]
    mechanism = mr.RedactionMechanism(
        n=n, p=p, redact_prob=table, enforce_private_redaction=False
    )
    model = mr.MarkovModel(n=n, alpha=alpha, beta=beta)
    key = f"{category}-n{n}-s{slot}-v{variant}"
    return MechanismSpec(key, model, mechanism, category, AUDIT_BUDGETS)


def builder_spec(kind: str, point: tuple) -> MechanismSpec:
    n, p, alpha, beta, eps = point
    model = mr.MarkovModel(n=n, alpha=alpha, beta=beta)
    if kind == "mq":
        _, mechanism = mr.build_mq(model, p, eps)
    elif kind == "3r-relaxation":
        _, mechanism = mr.build_3r_relaxation(model, p, eps)
    else:
        _, mechanism = mr.build_3r_numerical(model, p, eps)
    return MechanismSpec(f"{kind}-n{n}", model, mechanism, kind, (eps, *AUDIT_BUDGETS))


def all_specs() -> Iterator[MechanismSpec]:
    """Every mechanism any batch can contain (the reference covers these)."""
    for n in AUDIT_NS:
        for category, slots in SLOTS.items():
            for slot in range(slots):
                for variant in range(VARIANTS):
                    yield random_spec(category, n, slot, variant)
    for kind in BUILDER_KINDS:
        for point in BUILDER_POINTS:
            yield builder_spec(kind, point)


def fingerprint(spec: MechanismSpec) -> str:
    """Digest of the audited input: chain parameters and the exact table."""
    digest = hashlib.sha256()
    digest.update(repr((spec.model.n, spec.model.alpha, spec.model.beta, spec.mechanism.p)).encode())
    digest.update(np.ascontiguousarray(spec.mechanism.redact_prob).tobytes())
    return digest.hexdigest()


def parse_audit_report(out: str) -> dict[str, str]:
    fields = {}
    for line in out.splitlines():
        key, _, value = line.partition(": ")
        fields[key] = value
    return fields


class AuditFiles:
    """Exact audits of stored mechanism files: ``audit FILE --eps E`` per op."""

    name = "audit-files"

    def __init__(self, seed: int, workdir: Path) -> None:
        self.reference = json.loads(AUDIT_FILES_JSON.read_text(encoding="utf-8"))["entries"]
        rng = np.random.default_rng(seed)
        specs = []
        for n in AUDIT_NS:
            for category, slots in SLOTS.items():
                for slot in range(slots):
                    specs.append(random_spec(category, n, slot, int(rng.integers(VARIANTS))))
        specs += [builder_spec(kind, point) for kind in BUILDER_KINDS for point in BUILDER_POINTS]
        workdir.mkdir(parents=True, exist_ok=True)
        self.files = []
        for spec in specs:
            path = workdir / f"{spec.key}.json"
            mr.write_mechanism(path, spec.model, spec.mechanism, spec.kind)
            self.files.append((spec, path))
        self.seed = seed

    def inputs(self) -> bytes:
        digest = hashlib.sha256()
        for _, path in self.files:
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
        schedule = self.rounds()
        for _ in range(2):
            digest.update("\n".join(op.label for op in next(schedule)).encode())
        return digest.hexdigest().encode()

    def rounds(self) -> Iterator[list[Op]]:
        rng = np.random.default_rng([self.seed, 1])
        while True:
            ops = []
            for i in rng.permutation(len(self.files)):
                spec, path = self.files[i]
                eps = spec.budgets[int(rng.integers(len(spec.budgets)))]
                ops.append(self._op(spec, path, eps))
            yield ops

    def _op(self, spec: MechanismSpec, path: Path, eps: float) -> Op:
        argv = ["audit", str(path), "--eps", repr(eps)]
        return Op(
            f"audit {path.name} --eps {eps!r}",
            lambda: run_cli(argv),
            lambda output: self._check(spec, eps, output),
        )

    def _check(self, spec: MechanismSpec, eps: float, output) -> str | None:
        code, out, err = output
        want = self.reference.get(spec.key)
        if want is None:
            return f"{spec.key} has no reference entry"
        if want["fingerprint"] != fingerprint(spec):
            return f"{spec.key}: the audited table differs from the reference input"
        if code != want["exit"][repr(eps)]:
            return f"exit code {code}, reference {want['exit'][repr(eps)]}; {err.strip()[:200]}"
        fields = parse_audit_report(out)
        if fields.get("result") != ("PASS" if code == 0 else "FAIL"):
            return f"result {fields.get('result')!r} disagrees with exit code {code}"
        for field in ("leakage", "left_leakage", "right_leakage"):
            if not _leak_matches(float(fields[field]), float(want[field])):
                return f"{field} = {fields[field]}, reference {want[field]}"
        return check_witness(spec, fields["witness"], float(fields["leakage"]))


def check_witness(spec: MechanismSpec, witness: str, leakage: float) -> str | None:
    """The witness must re-evaluate through output_probability to the leakage."""
    log_0 = mr.output_probability(spec.model, spec.mechanism, witness, 0)
    log_1 = mr.output_probability(spec.model, spec.mechanism, witness, 1)
    if math.isinf(log_0) and math.isinf(log_1):
        return f"witness {witness} is impossible under both private values"
    value = math.inf if math.isinf(log_0) or math.isinf(log_1) else abs(log_0 - log_1)
    if not _leak_matches(value, leakage):
        return f"witness {witness} re-evaluates to {value!r}, reported {leakage!r}"
    return None


# ---------------------------------------------------------------- long-chain

#: Chain lengths of one round, interleaved; the long chains dominate its time.
LONG_ROUND = (1_000, 10_000, 1_000, 100_000, 1_000, 10_000, 1_000)

#: Monte-Carlo draws per op: trials * n, keeping the sampler's arrays
#: (about 26 bytes per record) near 26 MB.
MC_RECORDS = 1_000_000


class ChainPoint(NamedTuple):
    n: int
    alpha: float
    beta: float
    p: int
    eps: float
    mc_seed: int


def draw_point(rng: np.random.Generator, n: int) -> ChainPoint:
    alpha = float(math.exp(rng.uniform(math.log(0.01), math.log(0.3))))
    beta = float(rng.uniform(alpha, 0.9))
    p = int(rng.integers(1, n + 1))
    eps = float(math.exp(rng.uniform(math.log(0.1), math.log(4.0))))
    return ChainPoint(n, alpha, beta, p, eps, int(rng.integers(2**31)))


class LongChain:
    """Closed forms, builders, bounds, sampler and CSV writer at n = 10^3..10^5."""

    name = "long-chain"

    def __init__(self, seed: int, workdir: Path) -> None:
        del workdir
        self.seed = seed

    def inputs(self) -> bytes:
        schedule = self.rounds()
        return "\n".join(op.label for _ in range(2) for op in next(schedule)).encode()

    def rounds(self) -> Iterator[list[Op]]:
        rng = np.random.default_rng(self.seed)
        while True:
            yield [self._op(draw_point(rng, n)) for n in LONG_ROUND]

    def _op(self, point: ChainPoint) -> Op:
        return Op(repr(point), lambda: long_chain_op(point), lambda out: check_long_chain(point, out))


def long_chain_op(point: ChainPoint) -> dict:
    n, alpha, beta, p, eps, mc_seed = point
    model_args = ["--alpha", repr(alpha), "--beta", repr(beta), "--n", str(n), "--p", str(p)]
    profile = run_cli(
        ["redaction-profile", *model_args, "--eps", repr(eps),
         "--mechanism", "mq", "--mechanism", "3r-relaxation"]
    )
    influence = run_cli(["influence-curve", *model_args])
    model = mr.MarkovModel(n=n, alpha=alpha, beta=beta)
    dim = mr.dim_upper_bound(model, p, eps)
    mq_lb, mq_exact = mr.mq_utility_bounds(model, p, eps)
    design, relaxation = mr.build_3r_relaxation(model, p, eps)
    _, window = mr.build_mq(model, p, eps)
    utility = mr.exact_utility(model, relaxation)
    # The window's per-path utility is deterministic, so the standard-error
    # test below cannot fail by chance; the sampler does its full work anyway.
    sampled = mr.monte_carlo_utility(model, window, max(1, MC_RECORDS // n), mc_seed)
    return {
        "profile": profile,
        "influence": influence,
        "dim_ub": dim.value,
        "mq_lb": mq_lb,
        "mq_exact": mq_exact,
        "relaxed_bound": design.relaxed_leakage_bound,
        "three_r_utility": mr.three_r_utility(design, model),
        "exact_utility": utility.exact,
        "mc": sampled,
    }


def check_long_chain(point: ChainPoint, out: dict) -> str | None:
    n, p, eps = point.n, point.p, point.eps
    for name in ("profile", "influence"):
        code, _, err = out[name]
        if code != 0:
            return f"{name}: " + _cli_failure(code, err)
    rows = list(csv.reader(io.StringIO(out["profile"][1])))
    if rows[0] != ["t", "mechanism", "r_t0", "r_t1"] or len(rows) != 2 * n + 1:
        return f"redaction profile has {len(rows) - 1} rows, expected {2 * n}"
    for t, kind, r0, r1 in rows[1:]:
        values = (float(r0), float(r1))
        if not all(0.0 <= v <= 1.0 for v in values):
            return f"profile {kind} row {t} leaves [0, 1]: {values}"
        if int(t) == p and values != (1.0, 1.0):
            return f"profile {kind}: the private row {t} is {values}, not all ones"
    if out["influence"][1].count("\n") != n + 1:
        return "influence curve does not have n rows"
    if not out["mq_lb"] <= out["mq_exact"] + PROPERTY_TOL:
        return f"mq_lb {out['mq_lb']!r} > mq_exact {out['mq_exact']!r}"
    if not out["mq_exact"] <= out["dim_ub"] + PROPERTY_TOL:
        return f"mq_exact {out['mq_exact']!r} > dim_ub {out['dim_ub']!r}"
    if not out["relaxed_bound"] <= eps + PROPERTY_TOL:
        return f"relaxed leakage bound {out['relaxed_bound']!r} > eps {eps!r}"
    if abs(out["three_r_utility"] - out["exact_utility"]) > PROPERTY_TOL:
        return f"three_r_utility {out['three_r_utility']!r} != exact {out['exact_utility']!r}"
    mc = out["mc"]
    gap = abs(mc.monte_carlo.estimate - mc.exact)
    if not gap <= 4.0 * mc.monte_carlo.standard_error + PROPERTY_TOL:
        return f"Monte-Carlo {mc.monte_carlo.estimate!r} is {gap!r} from exact {mc.exact!r}"
    return None


WORKLOADS = {w.name: w for w in (PaperSweep, AuditFiles, LongChain)}
