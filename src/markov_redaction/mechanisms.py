"""Construction of redaction mechanisms and their closed-form utility bounds.

Every mechanism is a per-record redaction probability table: entry (t, x)
gives Pr[Y_t = redacted | X_t = x].  Three constructions are provided.

* Three-region (3R) mechanisms split a total privacy budget between the
  two sides of the private record, classify indices into large/medium/small
  leakage regions per side, always redact large, always release small, and
  randomize medium: a medium record showing the high-influence value 1 is
  always redacted, while the value 0 is redacted with probability q_t.
  ``build_3r_relaxation`` picks the side-constant q from a closed-form
  relaxation of the leakage; ``build_3r_numerical`` grid-searches the
  smallest side-constant q that the exact leakage audit certifies.

* The Markov-quilt (MQ) baseline deterministically redacts a contiguous
  window around the private record, sized from the distances at which the
  max influence drops under the budget (one-sided or symmetric depending
  on the budget and the record's position).

``dim_upper_bound`` evaluates the utility ceiling for *any* data-independent
local redaction mechanism, and ``mq_utility_bounds`` the closed-form lower
bound that shows the MQ window sits within O(1/n) of that ceiling.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass
from typing import Mapping

import numpy as np

from .chain import MarkovModel, stationary_marginal
from .errors import EnumerationCapError
from .influence import Regions, compute_regions, delta_star, influence_high, influence_low

__all__ = [
    "RedactionMechanism",
    "ThreeRDesign",
    "MqPlan",
    "DimBound",
    "build_3r_relaxation",
    "build_3r_numerical",
    "build_mq",
    "dim_upper_bound",
    "mq_utility_bounds",
    "three_r_utility",
]

DEFAULT_GRID_STEPS = 999

#: Slack absorbing float noise when the grid search compares audited leakage
#: against the side budget; well under every documented tolerance.
_FEASIBILITY_SLACK = 1e-12


@dataclass(frozen=True, eq=False)
class RedactionMechanism:
    """Local redaction mechanism as an n x 2 probability table.

    ``redact_prob[t-1, x]`` is Pr[Y_t = redacted | X_t = x]; locality is
    structural because the table is indexed by (t, x_t) only.  Row p must
    be all ones (the private record is always redacted — its self-influence
    is infinite).  Audit code may need to evaluate deliberately broken
    tables; pass ``enforce_private_redaction=False`` to skip that one check.
    """

    n: int
    p: int
    redact_prob: np.ndarray
    enforce_private_redaction: InitVar[bool] = True

    def __post_init__(self, enforce_private_redaction: bool) -> None:
        if not isinstance(self.n, int) or isinstance(self.n, bool) or self.n < 1:
            raise ValueError(f"n must be a positive integer, got {self.n!r}")
        if not (1 <= self.p <= self.n):
            raise ValueError(f"private index p must lie in [1, {self.n}], got {self.p!r}")
        table = np.array(self.redact_prob, dtype=float)
        if table.shape != (self.n, 2):
            raise ValueError(
                f"redaction table must have shape ({self.n}, 2), got {table.shape}"
            )
        if not np.isfinite(table).all() or (table < 0).any() or (table > 1).any():
            raise ValueError("redaction probabilities must lie in [0, 1]")
        if enforce_private_redaction and not (table[self.p - 1] == 1.0).all():
            raise ValueError(
                f"row {self.p} (the private record) must redact with probability 1"
            )
        table.setflags(write=False)
        object.__setattr__(self, "redact_prob", table)

    def check_model(self, model: MarkovModel) -> None:
        """Raise ValueError unless ``model`` covers exactly this table's records."""
        if model.n != self.n:
            raise ValueError(
                f"model covers {model.n} records but the mechanism table has {self.n} rows"
            )

    @property
    def released_indices(self) -> frozenset[int]:
        """Indices with any chance of release: min_x r_t(x) < 1."""
        table = self.redact_prob
        return frozenset(
            t for t in range(1, self.n + 1) if table[t - 1].min() < 1.0
        )

    def restrict(self, lo: int, hi: int, p: int) -> "RedactionMechanism":
        """Sub-mechanism on the index window [lo, hi], re-indexed from 1."""
        if not (1 <= lo <= p <= hi <= self.n):
            raise ValueError("window must satisfy 1 <= lo <= p <= hi <= n")
        return RedactionMechanism(
            n=hi - lo + 1,
            p=p - lo + 1,
            redact_prob=self.redact_prob[lo - 1 : hi],
            enforce_private_redaction=False,
        )

    def mirrored(self) -> "RedactionMechanism":
        """The same mechanism on the index-reversed chain (t -> n + 1 - t)."""
        return RedactionMechanism(
            n=self.n,
            p=self.n + 1 - self.p,
            redact_prob=self.redact_prob[::-1],
            enforce_private_redaction=False,
        )


@dataclass(frozen=True)
class ThreeRDesign:
    """A concrete three-region design: budget split, regions, and the q map.

    ``q`` maps every medium index to its value-0 redaction probability.
    ``relaxed_leakage_bound`` is the relaxation bound evaluated at the
    chosen q (summed over the two sides, each at its side budget); for
    relaxation designs the exact audited leakage never exceeds it.
    """

    eps: float
    eps_left: float
    eps_right: float
    regions: Regions
    q: Mapping[int, float]
    relaxed_leakage_bound: float


@dataclass(frozen=True)
class MqPlan:
    """Window choice of the Markov-quilt mechanism.

    ``threshold`` records p + delta*(eps) - 2*delta*(eps/2), the sign test
    that separates the one-sided from the symmetric branch; it is -inf when
    the distance searches exceed their cap (then it is negative anyway).
    """

    delta_left: int
    delta_right: int
    window: tuple[int, int]
    branch: str  # "one_sided" | "symmetric"
    threshold: float


@dataclass(frozen=True)
class DimBound:
    """Utility upper bound for data-independent mechanisms at one budget.

    ``case`` is "zero" (budget below the farthest record's influence, no
    release possible), "two_sided" (budget covers both chain ends), or
    "one_sided" (everything between).  ``r1``/``r2`` are the redaction
    counts entering the bound; they are None when the case does not need
    them and the underlying distance search would not terminate.
    """

    eps: float
    case: str  # "zero" | "one_sided" | "two_sided"
    r1: int | None
    r2: int | None
    value: float


def _default_split(p: int, eps: float) -> tuple[float, float]:
    # p = 1: everything rides on the right side; otherwise split evenly.
    return (0.0, eps) if p == 1 else (eps / 2.0, eps / 2.0)


def _check_budget(model: MarkovModel, p: int, eps: float, split) -> tuple[float, float]:
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps!r}")
    if not (1 <= p <= model.n):
        raise ValueError(f"private index p must lie in [1, {model.n}], got {p!r}")
    if split is None:
        return _default_split(p, eps)
    eps_left, eps_right = split
    if eps_left < 0 or eps_right < 0:
        raise ValueError("side budgets must be nonnegative")
    if eps_left + eps_right > eps:
        raise ValueError(
            f"side budgets exceed the total: {eps_left} + {eps_right} > {eps}"
        )
    return float(eps_left), float(eps_right)


def _side_deltas(
    model: MarkovModel, regions: Regions, side: int
) -> tuple[list[int], list[float]]:
    """Medium indices on one side (nearest first) and their delta_t terms.

    delta_t looks one step further out, to t+ = t + sign(t - p): zero when
    t+ falls off the chain, the value-0 influence when t+ is still medium,
    the value-1 influence when t+ is already small.  t+ cannot be large
    because influence decreases with distance.
    """
    p = regions.p
    medium = regions.medium_by_distance(side)
    deltas: list[float] = []
    for t in medium:
        t_next = t + side
        if not (1 <= t_next <= model.n):
            deltas.append(0.0)
        elif t_next in regions.medium:
            deltas.append(influence_low(model, abs(p - t_next)))
        elif t_next in regions.small:
            deltas.append(influence_high(model, abs(p - t_next)))
        else:  # pragma: no cover - influence monotonicity makes this unreachable
            raise AssertionError("outward neighbour of a medium index cannot be large")
    return medium, deltas


def _side_relaxed_bound(
    model: MarkovModel,
    regions: Regions,
    side: int,
    q: Mapping[int, float],
) -> float:
    """Relaxation bound of one side's leakage, evaluated at the chosen q.

    With medium indices present this is max_t (delta_t - sum of log q over
    medium indices at distance <= |t - p|).  With an empty medium region
    the released side is a pure small-region suffix whose leakage is
    exactly the max influence of its nearest index (0 if nothing is
    released), which keeps the recorded bound sound in every case.
    """
    medium, deltas = _side_deltas(model, regions, side)
    if medium:
        bound = -math.inf
        log_sum = 0.0
        for t, delta_t in zip(medium, deltas):
            q_t = q[t]
            log_sum += math.log(q_t) if q_t > 0 else -math.inf
            bound = max(bound, delta_t - log_sum)
        return bound
    p = regions.p
    small_side = [t for t in regions.small if (t - p) * side > 0]
    if not small_side:
        return 0.0
    nearest = min(abs(t - p) for t in small_side)
    return influence_high(model, nearest)


def _relaxed_bound(
    model: MarkovModel, regions: Regions, q: Mapping[int, float]
) -> float:
    return _side_relaxed_bound(model, regions, -1, q) + _side_relaxed_bound(
        model, regions, 1, q
    )


def _assemble_table(
    model: MarkovModel, p: int, regions: Regions, q: Mapping[int, float]
) -> RedactionMechanism:
    table = np.empty((model.n, 2))
    for t in range(1, model.n + 1):
        if t in regions.small:
            table[t - 1] = (0.0, 0.0)
        elif t in regions.medium:
            table[t - 1] = (q[t], 1.0)
        else:
            table[t - 1] = (1.0, 1.0)
    return RedactionMechanism(n=model.n, p=p, redact_prob=table)


def build_3r_relaxation(
    model: MarkovModel,
    p: int,
    eps: float,
    split: tuple[float, float] | None = None,
) -> tuple[ThreeRDesign, RedactionMechanism]:
    """Three-region mechanism with the closed-form side-constant q.

    Per side, q is the largest of exp(-(eps_side - delta_i) / |M_i|) over
    that side's medium indices, where |M_i| counts the medium indices at
    distance at most |i - p| on the same side.  Region membership
    guarantees delta_i <= eps_side, hence 0 < q <= 1.  The default split
    puts the whole budget on the right side for p = 1 and splits it evenly
    otherwise.
    """
    eps_left, eps_right = _check_budget(model, p, eps, split)
    regions = compute_regions(model, p, eps_left, eps_right)
    q: dict[int, float] = {}
    for side, eps_side in ((-1, eps_left), (1, eps_right)):
        medium, deltas = _side_deltas(model, regions, side)
        if not medium:
            continue
        q_side = max(
            math.exp(-(eps_side - delta_i) / size)
            for size, delta_i in zip(range(1, len(medium) + 1), deltas)
        )
        for t in medium:
            q[t] = q_side
    design = ThreeRDesign(
        eps=eps,
        eps_left=eps_left,
        eps_right=eps_right,
        regions=regions,
        q=q,
        relaxed_leakage_bound=_relaxed_bound(model, regions, q),
    )
    return design, _assemble_table(model, p, regions, q)


def _side_leakage(
    model: MarkovModel,
    p: int,
    regions: Regions,
    side: int,
    q_side: float,
) -> float:
    """Exact leakage of the chain restricted to one side of p, at constant q."""
    from .audit import exact_leakage  # deferred: audit depends on this module

    lo, hi = (1, p) if side == -1 else (p, model.n)
    q = {t: q_side for t in regions.medium_by_distance(side)}
    full = _assemble_table(model, p, regions, {**{t: 1.0 for t in regions.medium}, **q})
    side_model = MarkovModel(n=hi - lo + 1, alpha=model.alpha, beta=model.beta)
    side_mech = full.restrict(lo, hi, p)
    return exact_leakage(side_model, side_mech).leakage


def build_3r_numerical(
    model: MarkovModel,
    p: int,
    eps: float,
    split: tuple[float, float] | None = None,
    grid_steps: int = DEFAULT_GRID_STEPS,
) -> tuple[ThreeRDesign, RedactionMechanism]:
    """Three-region mechanism with the smallest exactly-audited side-constant q.

    Scans q over {i / grid_steps} upward per side and keeps the first value
    whose restricted-chain exact leakage fits the side budget; the
    relaxation's closed-form q joins the candidate set so the result never
    does worse than :func:`build_3r_relaxation` even when the grid straddles
    it.  A final joint audit re-checks the total budget and, if side
    composition ever left slack, nudges the smaller side upward until it
    passes (redacting all of medium always passes, so the scan cannot
    come up empty without an internal inconsistency).
    """
    if grid_steps < 1:
        raise ValueError(f"grid_steps must be positive, got {grid_steps!r}")
    from .audit import exact_leakage  # deferred: audit depends on this module

    eps_left, eps_right = _check_budget(model, p, eps, split)
    relax_design, _ = build_3r_relaxation(model, p, eps, (eps_left, eps_right))
    regions = relax_design.regions

    side_q: dict[int, float] = {}
    for side, eps_side in ((-1, eps_left), (1, eps_right)):
        medium = regions.medium_by_distance(side)
        if not medium:
            continue
        found = None
        for i in range(grid_steps + 1):
            candidate = i / grid_steps
            leak = _side_leakage(model, p, regions, side, candidate)
            if leak <= eps_side + _FEASIBILITY_SLACK:
                found = candidate
                break
        if found is None:
            raise RuntimeError(
                "no feasible grid value for the side-constant redaction "
                "probability; redacting the whole medium region is always "
                "feasible, so this indicates an internal inconsistency"
            )
        q_relax = relax_design.q[medium[0]]
        if q_relax < found:
            leak = _side_leakage(model, p, regions, side, q_relax)
            if leak <= eps_side + _FEASIBILITY_SLACK:
                found = q_relax
        side_q[side] = found

    q = {
        t: side_q[-1 if t < p else 1]
        for t in regions.medium
    }
    mechanism = _assemble_table(model, p, regions, q)
    step = 1.0 / grid_steps
    while exact_leakage(model, mechanism).leakage > eps + _FEASIBILITY_SLACK:
        # Safety net only: per-side budgets compose additively, so the joint
        # audit is expected to pass on the first try.
        sides = sorted(side_q, key=lambda s: side_q[s])
        if not sides:
            raise RuntimeError("joint audit failed for a fully deterministic table")
        bump = sides[0]
        if side_q[bump] >= 1.0:
            bump = sides[-1]
        if side_q[bump] >= 1.0:
            raise RuntimeError("joint audit failed with all of medium redacted")
        side_q[bump] = min(1.0, side_q[bump] + step)
        q = {t: side_q[-1 if t < p else 1] for t in regions.medium}
        mechanism = _assemble_table(model, p, regions, q)

    design = ThreeRDesign(
        eps=eps,
        eps_left=eps_left,
        eps_right=eps_right,
        regions=regions,
        q=q,
        relaxed_leakage_bound=_relaxed_bound(model, regions, q),
    )
    return design, mechanism


def _delta_star_or_none(model: MarkovModel, eps: float, cap: int = 10**6) -> int | None:
    try:
        return delta_star(model, eps, cap=cap)
    except EnumerationCapError:
        return None


def build_mq(
    model: MarkovModel, p: int, eps: float
) -> tuple[MqPlan, RedactionMechanism]:
    """Markov-quilt baseline: deterministically redact a window around p.

    With d* = delta_star, the window is one-sided ([1, p + min(d*(eps),
    n-p)]) when p = 1, when the budget cannot cover both chain ends, or
    when p + d*(eps) - 2 d*(eps/2) < 0; otherwise it extends d*(eps/2)
    symmetrically to both sides.  For p in the right half of the chain the
    construction runs on the mirrored chain and the table is mirrored back.
    """
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps!r}")
    if not (1 <= p <= model.n):
        raise ValueError(f"private index p must lie in [1, {model.n}], got {p!r}")
    if p > model.n + 1 - p:  # strictly right of center: run on the mirrored chain
        plan, mechanism = build_mq(model, model.n + 1 - p, eps)
        mirrored = MqPlan(
            delta_left=plan.delta_right,
            delta_right=plan.delta_left,
            window=(model.n + 1 - plan.window[1], model.n + 1 - plan.window[0]),
            branch=plan.branch,
            threshold=plan.threshold,
        )
        return mirrored, mechanism.mirrored()

    n = model.n
    d_eps = _delta_star_or_none(model, eps)
    d_half = _delta_star_or_none(model, eps / 2.0)
    if d_eps is None or d_half is None:
        # d*(eps/2) >= d*(eps), so a capped-out search forces the threshold
        # below zero regardless of its exact value.
        threshold = -math.inf
    else:
        threshold = float(p + d_eps - 2 * d_half)

    edge_budget = influence_high(model, n + 1 - p) + influence_high(model, p - 1)
    if p == 1 or eps < edge_budget or threshold < 0:
        branch = "one_sided"
        delta_left = p - 1
        if influence_high(model, n - p) <= eps:
            # delta_star terminates within n - p here.
            delta_right = min(delta_star(model, eps), n - p)
        else:
            delta_right = n - p
    else:
        branch = "symmetric"
        delta_left = delta_right = d_half

    window = (p - delta_left, p + delta_right)
    table = np.zeros((n, 2))
    table[window[0] - 1 : window[1]] = 1.0
    mechanism = RedactionMechanism(n=n, p=p, redact_prob=table)
    plan = MqPlan(
        delta_left=delta_left,
        delta_right=delta_right,
        window=window,
        branch=branch,
        threshold=threshold,
    )
    return plan, mechanism


def _dim_delta_star(model: MarkovModel, eps: float) -> int:
    # eps = 0 only reaches this point for independent records, where every
    # positive distance already has zero influence.
    if eps == 0 and model.alpha + model.beta == 1.0:
        return 1
    return delta_star(model, eps)


def dim_upper_bound(model: MarkovModel, p: int, eps: float) -> DimBound:
    """Utility ceiling of any eps-private data-independent local redaction mechanism.

    Zero when the budget is below the farthest record's max influence;
    1 - R2/n when it covers the influences of both chain ends; 1 - R1/n in
    between, with R1 = delta*(eps) + p - 1 and R2 = min(R1,
    2*delta*(eps/2) - 1).  Accepts eps = 0.  p is mirrored into the left
    half of the chain first.
    """
    if eps < 0:
        raise ValueError(f"eps must be nonnegative, got {eps!r}")
    if not (1 <= p <= model.n):
        raise ValueError(f"private index p must lie in [1, {model.n}], got {p!r}")
    p = min(p, model.n + 1 - p)
    n = model.n
    if eps < influence_high(model, n - p):
        return DimBound(eps=eps, case="zero", r1=None, r2=None, value=0.0)
    r1 = _dim_delta_star(model, eps) + p - 1
    r2 = min(r1, 2 * _dim_delta_star(model, eps / 2.0) - 1)
    if eps >= influence_high(model, p - 1) + influence_high(model, n - p):
        return DimBound(eps=eps, case="two_sided", r1=r1, r2=r2, value=1.0 - r2 / n)
    return DimBound(eps=eps, case="one_sided", r1=r1, r2=r2, value=1.0 - r1 / n)


def mq_utility_bounds(model: MarkovModel, p: int, eps: float) -> tuple[float, float]:
    """Closed-form lower bound and exact utility of the Markov-quilt window.

    The lower bound mirrors the data-independent ceiling with a 1/n (one
    extra redaction, one-sided case) or 2/n (symmetric case) slack; the
    exact value is 1 - (window size) / n from the plan actually built.
    """
    plan, _ = build_mq(model, p, eps)
    n = model.n
    exact = 1.0 - (plan.delta_left + plan.delta_right + 1) / n
    p_mirrored = min(p, n + 1 - p)
    if eps < influence_high(model, n - p_mirrored):
        lower = 0.0
    else:
        r1 = delta_star(model, eps) + p_mirrored - 1
        edges = influence_high(model, p_mirrored - 1) + influence_high(model, n - p_mirrored)
        if eps >= edges:
            r2 = 2 * delta_star(model, eps / 2.0) - 1
            lower = 1.0 - min(r1, r2) / n - 2.0 / n
        else:
            lower = 1.0 - r1 / n - 1.0 / n
    return lower, exact


def three_r_utility(design: ThreeRDesign, model: MarkovModel) -> float:
    """Exact utility of a three-region design from its regions and q map.

    (1/n) * [ |small| + Pr[X = 0] * sum over medium of (1 - q_t) ]: small
    records always release, and a medium record releases exactly when it
    holds the value 0 and the redaction coin fails.
    """
    pi0, _ = stationary_marginal(model)
    released_mass = sum(1.0 - design.q[t] for t in design.regions.medium)
    return (len(design.regions.small) + pi0 * released_mass) / model.n
