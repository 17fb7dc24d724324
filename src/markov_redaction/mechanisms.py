"""Construction of redaction mechanisms and their closed-form utility bounds.

Every mechanism is a per-record redaction probability table: entry (t, x)
gives Pr[Y_t = redacted | X_t = x].  A side is the view of a table's rows
walked outward from p (``table[:p-1][::-1]`` and ``table[p:]``), the shape
the audit's side pass reads.  Three constructions are provided.

* Three-region (3R) mechanisms split a total privacy budget between the
  two sides of the private record, classify indices into large/medium/small
  leakage regions per side, always redact large, always release small, and
  randomize medium: a medium record showing the high-influence value 1 is
  always redacted, while the value 0 is redacted with probability q_t.
  The builders write the whole table's large and medium rows at once, then
  work side by side, and differ only in how a side picks its constant q
  from the delta_t terms of its medium rows: ``build_3r_relaxation`` by the
  closed-form relaxation, ``build_3r_numerical`` by bisecting a grid for
  the smallest q whose exact side leakage (the audit's first-release pass
  up to the row past the last medium one) fits the side budget, or q = 1,
  which the regions prove, when no grid value below 1 does.

* The Markov-quilt (MQ) baseline deterministically redacts a contiguous
  window around the private record, sized from the distances at which the
  max influence drops under the budget: one-sided when p ends the chain,
  the budget cannot cover both chain ends, or the threshold is negative.

``dim_upper_bound`` evaluates the utility ceiling for *any* data-independent
local redaction mechanism, and ``mq_utility_bounds`` the closed-form lower
bound, that ceiling less one or two records, which shows the MQ window sits
within O(1/n) of it.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import InitVar, dataclass
from typing import Callable, Mapping

import numpy as np

from .audit import side_leakage
from .chain import MarkovModel, check_integer, stationary_marginal
from .influence import (
    Regions,
    _influence_prefix,
    check_index,
    compute_regions,
    delta_star,
    influence_high,
    influence_low,
)

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
        check_integer("n", self.n)
        check_index(self.n, self.p)
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
    that separates the one-sided from the symmetric branch.
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
    counts entering the bound; they are None exactly in the "zero" case.
    """

    eps: float
    case: str  # "zero" | "one_sided" | "two_sided"
    r1: int | None
    r2: int | None
    value: float


def _check_budget(model: MarkovModel, p: int, eps: float, split) -> tuple[float, float]:
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps!r}")
    check_index(model.n, p)
    if split is None:
        # An end record spends everything on its one side; otherwise split evenly.
        return (0.0, eps) if p == 1 else (eps, 0.0) if p == model.n else (eps / 2.0, eps / 2.0)
    eps_left, eps_right = split
    if not (eps_left >= 0 and eps_right >= 0):
        raise ValueError("side budgets must be nonnegative")
    if eps_left + eps_right > eps:
        raise ValueError(
            f"side budgets exceed the total: {eps_left} + {eps_right} > {eps}"
        )
    return float(eps_left), float(eps_right)


def _build_3r(
    model: MarkovModel,
    p: int,
    eps: float,
    split: tuple[float, float] | None,
    choose_q: Callable[[np.ndarray, list[int], float, float], float],
) -> tuple[ThreeRDesign, RedactionMechanism]:
    """Three-region design whose side-constant q comes from ``choose_q``.

    Every large row (row p among them) redacts both values and every medium
    row the value 1, written over the whole table at once.  Then each side,
    its rows walked outward from p (row d - 1 holds distance d), takes its
    medium rows nearest first and their delta_t terms.  delta_t looks one
    record further out: zero off the chain, the value-0 influence when that
    record is still medium, the value-1 influence when it is already small.
    It can be large only where the computed forms rise by an ulp from one
    distance to the next, near 1e-16; until their log1p/expm1 rewrite
    (planned in ROADMAP.md), such a side budget is refused with a ValueError.

    ``choose_q(window, medium_rows, eps_side, q_relax)`` picks the q of a
    side with medium records, given the relaxation's closed-form q_relax.
    The window ends at the row past the last medium one, released or off
    the chain; no first-release class is supported past it, so a search
    pass reads a few rows however long the side is.  A side's relaxed
    bound is max_t (delta_t - sum of log q over its medium records up to
    t); without medium records, a side releases a small-region suffix past
    its large run, whose leakage is exactly the max influence of its
    nearest released record (0 if none), so the bound is always sound.
    """
    eps_left, eps_right = _check_budget(model, p, eps, split)
    regions = compute_regions(model, p, eps_left, eps_right)
    table = np.zeros((model.n, 2))
    table[[t - 1 for t in regions.large]] = 1.0
    table[[t - 1 for t in regions.medium], 1] = 1.0
    q: dict[int, float] = {}
    bounds: list[float] = []
    for side, eps_side, rows in ((-1, eps_left, table[: p - 1][::-1]), (1, eps_right, table[p:])):
        medium = [abs(t - p) - 1 for t in regions.medium_by_distance(side)]
        if not medium:
            nearest = 0  # walk the large run to the nearest released row
            while nearest < len(rows) and rows[nearest, 0] == 1.0:
                nearest += 1
            bounds.append(influence_high(model, nearest + 1) if nearest < len(rows) else 0.0)
            continue
        deltas: list[float] = []
        for row in medium:
            distance = row + 2  # of the next record outward
            t_next = p + side * distance
            if distance > len(rows):
                deltas.append(0.0)
            elif t_next in regions.medium:
                deltas.append(influence_low(model, distance))
            elif t_next not in regions.large:
                deltas.append(influence_high(model, distance))
            else:
                raise ValueError(
                    f"side budget {eps_side!r} is below the float resolution of the "
                    f"influence closed forms: record {t_next} is large although "
                    f"the nearer record {t_next - side} is medium"
                )
        q_relax = max(
            math.exp(-(eps_side - delta_t) / size) for size, delta_t in enumerate(deltas, 1)
        )
        q_side = choose_q(rows[: medium[-1] + 2], medium, eps_side, q_relax)
        rows[medium, 0] = q_side
        q.update((p + side * (row + 1), q_side) for row in medium)
        bound, log_sum = -math.inf, 0.0
        for delta_t in deltas:
            log_sum += math.log(q_side) if q_side > 0 else -math.inf
            bound = max(bound, delta_t - log_sum)
        bounds.append(bound)
    design = ThreeRDesign(
        eps=eps,
        eps_left=eps_left,
        eps_right=eps_right,
        regions=regions,
        q=q,
        relaxed_leakage_bound=bounds[0] + bounds[1],
    )
    return design, RedactionMechanism(n=model.n, p=p, redact_prob=table)


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
    puts the whole budget on the right side for p = 1, on the left side for
    p = n > 1, and splits it evenly otherwise.
    """
    return _build_3r(model, p, eps, split, lambda rows, medium, eps_side, q_relax: q_relax)


def build_3r_numerical(
    model: MarkovModel,
    p: int,
    eps: float,
    split: tuple[float, float] | None = None,
    grid_steps: int = DEFAULT_GRID_STEPS,
) -> tuple[ThreeRDesign, RedactionMechanism]:
    """Three-region mechanism with the smallest exactly-audited side-constant q.

    Per side, bisects the grid {i / grid_steps : i < grid_steps} for the
    smallest value whose exact side leakage (:func:`audit.side_leakage` of
    the side's rows up to the window end of :func:`_build_3r`) is at most
    the side budget; the audited leakage does not rise as q rises.  If no
    grid value fits, q = 1, unaudited: it redacts all of large and medium,
    so the side's first release is its nearest small record, whose max
    influence the regions put within the side budget.  The relaxation's
    closed-form q, computed from the same side pass, joins the candidate
    set, so the result never does worse than :func:`build_3r_relaxation`
    even when the grid straddles it.

    No joint audit is needed: row p redacts with probability 1, so its
    emission log-ratio is 0 and the total leakage max(|min L + min R|,
    |max L + max R|) is at most the sum of the two side leakages, hence at
    most eps_left + eps_right <= eps.
    """
    check_integer("grid_steps", grid_steps)

    def smallest_fitting_q(rows, medium, eps_side, q_relax):
        def fits(q_side: float) -> bool:
            rows[medium, 0] = q_side
            return side_leakage(model, rows) <= eps_side

        index = bisect.bisect_left(range(grid_steps), True, key=lambda i: fits(i / grid_steps))
        found = index / grid_steps  # 1.0 when no grid value below 1 fits
        if q_relax < found and fits(q_relax):
            found = q_relax
        return found

    return _build_3r(model, p, eps, split, smallest_fitting_q)


def _covers_both_ends(model: MarkovModel, near: int, eps: float) -> bool:
    """Whether eps covers the max influences of both chain ends, at distances
    near - 1 and n - near from the private index ``near`` <= n + 1 - near.
    False at near = 1, which has no left end (the sum alone lets eps = inf pass).

    Taking the far end one record further, at n + 1 - near, moves no MQ
    window.  With H = influence_high, a = near - 1 >= 1 and b = n - near >= a,
    the two tests differ only when H(b + 1) + H(a) <= eps < H(b) + H(a).  Then
    H(a) <= eps, so delta*(eps) <= a, and eps/2 < H(a), so delta*(eps/2) >=
    a + 1: the threshold near + delta*(eps) - 2 delta*(eps/2) is at most -1.
    """
    return near > 1 and eps >= (
        influence_high(model, near - 1) + influence_high(model, model.n - near)
    )


def build_mq(
    model: MarkovModel, p: int, eps: float
) -> tuple[MqPlan, RedactionMechanism]:
    """Markov-quilt baseline: deterministically redact a window around p.

    With d* = delta_star and p' = min(p, n + 1 - p) the index mirrored into
    the left half, the window is one-sided ([1, p' + min(d*(eps), n - p')])
    when p' = 1, when the budget cannot cover both chain ends (see
    :func:`_covers_both_ends`), or when p' + d*(eps) - 2 d*(eps/2) < 0;
    otherwise it extends d*(eps/2) symmetrically to both sides.  For p in
    the right half of the chain the two extents swap, so the one-sided
    window runs from p to record n.
    """
    _check_budget(model, p, eps, None)
    n = model.n
    near = min(p, n + 1 - p)
    d_eps = delta_star(model, eps)
    d_half = delta_star(model, eps / 2.0)
    threshold = float(near + d_eps - 2 * d_half)

    if not _covers_both_ends(model, near, eps) or threshold < 0:
        branch = "one_sided"
        extents = (near - 1, min(d_eps, n - near))
    else:
        branch = "symmetric"
        extents = (d_half, d_half)
    delta_left, delta_right = extents if near == p else extents[::-1]

    window = (p - delta_left, p + delta_right)
    table = np.zeros((n, 2))
    table[window[0] - 1 : window[1]] = 1.0
    plan = MqPlan(delta_left, delta_right, window, branch, threshold)
    return plan, RedactionMechanism(n=n, p=p, redact_prob=table)


def _dim_delta_star(model: MarkovModel, eps: float) -> int:
    # eps = 0 only reaches this point when the far end's influence is exactly
    # 0.0; every distance past the last nonzero influence then has zero
    # influence too.
    if eps == 0:
        _, highs = _influence_prefix(model, model.n - 1)
        return 1 + max((d for d, high in enumerate(highs, 1) if high != 0.0), default=0)
    return delta_star(model, eps)


def dim_upper_bound(model: MarkovModel, p: int, eps: float) -> DimBound:
    """Utility ceiling of any eps-private data-independent local redaction mechanism.

    Zero when the budget is below the farthest record's max influence;
    1 - R2/n when it covers the influences of both chain ends; 1 - R1/n in
    between, with R1 = delta*(eps) + p - 1 and R2 = min(R1,
    2*delta*(eps/2) - 1).  Accepts eps = 0.  p is mirrored into the left
    half of the chain first.
    """
    if not eps >= 0:
        raise ValueError(f"eps must be nonnegative, got {eps!r}")
    check_index(model.n, p)
    p = min(p, model.n + 1 - p)
    n = model.n
    if eps < influence_high(model, n - p):
        return DimBound(eps=eps, case="zero", r1=None, r2=None, value=0.0)
    r1 = _dim_delta_star(model, eps) + p - 1
    r2 = min(r1, 2 * _dim_delta_star(model, eps / 2.0) - 1)
    case, removed = ("two_sided", r2) if _covers_both_ends(model, p, eps) else ("one_sided", r1)
    return DimBound(eps=eps, case=case, r1=r1, r2=r2, value=1.0 - removed / n)


def mq_utility_bounds(model: MarkovModel, p: int, eps: float) -> tuple[float, float]:
    """Closed-form lower bound and exact utility of the Markov-quilt window.

    The lower bound is the data-independent ceiling of :func:`dim_upper_bound`
    less a 1/n (one extra redaction, one-sided case) or 2/n (symmetric case)
    slack, and 0 where that ceiling is 0; the exact value is
    1 - (window size) / n from the plan actually built.
    """
    plan, _ = build_mq(model, p, eps)
    n = model.n
    exact = 1.0 - (plan.delta_left + plan.delta_right + 1) / n
    dim = dim_upper_bound(model, p, eps)
    if dim.case == "zero":
        return 0.0, exact
    return dim.value - (1.0 if dim.case == "one_sided" else 2.0) / n, exact


def three_r_utility(design: ThreeRDesign, model: MarkovModel) -> float:
    """Exact utility of a three-region design from its regions and q map.

    (1/n) * [ |small| + Pr[X = 0] * sum over medium of (1 - q_t) ]: small
    records always release, and a medium record releases exactly when it
    holds the value 0 and the redaction coin fails.  |small| is counted as
    n - |medium| - |large|.
    """
    regions = design.regions
    if regions.n != model.n:
        raise ValueError(f"model covers {model.n} records but the design covers {regions.n}")
    pi0, _ = stationary_marginal(model)
    released_mass = sum(1.0 - design.q[t] for t in regions.medium)
    small = model.n - len(regions.medium) - len(regions.large)
    return (small + pi0 * released_mass) / model.n
