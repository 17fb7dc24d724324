"""Influence measures over the chain and the small/medium/large region split.

The pointwise influence of record p on an observed value x_t of record t is
the log of the worst-case likelihood ratio

    I(X_p ~> X_t = x_t) = log max_x Pr[X_t = x_t | X_p = x] / Pr[X_t = x_t | X_p = 1-x],

a data-dependent leakage measure; maximizing it over x_t gives the
data-independent max influence.  Both depend only on the distance
delta = |p - t| and have closed forms in terms of s = 1 - alpha - beta:

    influence_low(delta)  = | log (1 + (alpha/beta) s^delta) / (1 - s^delta) |
    influence_high(delta) = | log (1 + (beta/alpha) s^delta) / (1 - s^delta) |

Under alpha <= beta the low form is the influence of observing x_t = 0, the
high form of observing x_t = 1, and the high form equals the max influence.
Self-influence (delta = 0) is infinite.  On a record set, the Markov
property leaves only the nearest set index on each side of p, so the set
influence is |l_L + l_R| of their two signed log-ratios; the empty record
set has influence 0.

Comparing both pointwise influences of a record against a budget eps splits
the indices into three regions: large (both above eps, always redact),
medium (straddling eps, value-dependent redaction), small (both at most
eps, always releasable).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

from .chain import MarkovModel

__all__ = [
    "Regions",
    "influence_low",
    "influence_high",
    "pointwise_influence",
    "pointwise_set_influence",
    "max_influence_set",
    "delta_star",
    "compute_regions",
]

#: |budget - influence| below this is flagged as a region-boundary near miss.
BOUNDARY_TOLERANCE = 1e-12


def _decay(model: MarkovModel, delta: int) -> float:
    """s^delta for s = 1 - alpha - beta, the factor every influence form shares.

    Raises ValueError when alpha + beta is so small that s rounds to 1, where
    the forms would divide by 1 - s^delta = 0.  Rewriting them with
    log1p/expm1, s^delta = exp(delta * log1p(-(alpha + beta))), will lift
    this limit.
    """
    decay = 1.0 - model.alpha - model.beta
    if decay == 1.0:
        raise ValueError(
            f"alpha + beta = {model.alpha + model.beta!r} is too small: "
            "1 - alpha - beta rounds to 1"
        )
    return decay**delta


def influence_low(model: MarkovModel, delta: int) -> float:
    """Pointwise influence of observing the value 0 at distance ``delta``.

    Returns ``math.inf`` for ``delta = 0`` (self-influence).
    """
    if delta < 0:
        raise ValueError(f"distance must be nonnegative, got {delta!r}")
    if delta == 0:
        return math.inf
    decay = _decay(model, delta)
    return abs(math.log((1.0 + model.alpha / model.beta * decay) / (1.0 - decay)))


def influence_high(model: MarkovModel, delta: int) -> float:
    """Pointwise influence of observing the value 1 at distance ``delta``.

    For ``alpha <= beta`` this is also the max influence at that distance.
    Returns ``math.inf`` for ``delta = 0``.
    """
    if delta < 0:
        raise ValueError(f"distance must be nonnegative, got {delta!r}")
    if delta == 0:
        return math.inf
    decay = _decay(model, delta)
    return abs(math.log((1.0 + model.beta / model.alpha * decay) / (1.0 - decay)))


def _log_ratios(model: MarkovModel, delta: int) -> tuple[float, float]:
    """Signed log-ratios l(delta, x) = log P^delta[0, x] - log P^delta[1, x], x = 0, 1.

    Their magnitudes are the low and high forms; l(delta, 0) carries the
    sign of s^delta and l(delta, 1) the opposite one.  ``delta >= 1``.
    """
    sign = math.copysign(1.0, _decay(model, delta))
    return sign * influence_low(model, delta), -sign * influence_high(model, delta)


def check_index(n: int, index: int, name: str = "private index p") -> None:
    """Raise ValueError unless the record index lies in [1, n]."""
    if not (1 <= index <= n):
        raise ValueError(f"{name} must lie in [1, {n}], got {index!r}")


def pointwise_influence(model: MarkovModel, p: int, t: int, x_t: int) -> float:
    """Pointwise influence of record p on the observation ``X_t = x_t``.

    Infinite when ``t == p``; otherwise the low/high closed form at
    distance ``|p - t|`` depending on the observed value.
    """
    check_index(model.n, p)
    check_index(model.n, t, "t")
    if x_t not in (0, 1):
        raise ValueError(f"record value must be 0 or 1, got {x_t!r}")
    if t == p:
        return math.inf
    delta = abs(p - t)
    return influence_low(model, delta) if x_t == 0 else influence_high(model, delta)


def _nearest_pair(model: MarkovModel, p: int, indices) -> list[int]:
    """The nearest index of a record set on each side of p that has one.

    Given X_p, the chain walked outward from p makes every factor of
    Pr[X_S = x_S | X_p = x] beyond these indices independent of x, so they
    alone decide the set influence.
    """
    check_index(model.n, p)
    if p in indices:
        raise ValueError("the private index cannot be part of the observed set")
    for t in indices:
        check_index(model.n, t, "set index")
    left = [t for t in indices if t < p]
    right = [t for t in indices if t > p]
    return ([max(left)] if left else []) + ([min(right)] if right else [])


def pointwise_set_influence(model: MarkovModel, p: int, realization: dict[int, int]) -> float:
    """Pointwise influence of record p on one joint realization ``{t: x_t}``.

    Equals |l_L(x_l) + l_R(x_r)| over the nearest set index on each side
    (see :func:`_log_ratios`).  The empty realization has influence 0; any
    set containing p itself is rejected (its influence is infinite by
    convention and never needed here).
    """
    for value in realization.values():
        if value not in (0, 1):
            raise ValueError(f"record value must be 0 or 1, got {value!r}")
    nearest = _nearest_pair(model, p, realization)
    return abs(sum((_log_ratios(model, abs(t - p))[realization[t]] for t in nearest), 0.0))


def max_influence_set(model: MarkovModel, p: int, indices) -> float:
    """Max influence of record p on a record set: the largest of four value pairs.

    The pointwise influence depends only on the values at the nearest set
    index on each side, so the max is taken over those at most four pairs.
    The empty set has influence 0.
    """
    nearest = _nearest_pair(model, p, set(indices))
    ratios = [_log_ratios(model, abs(t - p)) for t in nearest]
    return max(abs(sum(pair, 0.0)) for pair in product(*ratios))


def delta_star(model: MarkovModel, eps: float) -> int:
    """Smallest distance at which the max influence drops to ``eps`` or below.

    Exploits the strict monotone decrease of ``influence_high`` (doubling
    search plus bisection).  The search always ends: |1 - alpha - beta| < 1
    in floats, so s^delta underflows to 0, and the influence with it,
    before delta reaches about 2^63.  A budget that is not positive (NaN
    included) is rejected: the max influence is strictly positive at every
    finite distance unless the records are independent, in which case
    distance 1 already suffices for any positive budget.
    """
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps!r}")
    if influence_high(model, 1) <= eps:
        return 1
    low, high = 1, 2
    while influence_high(model, high) > eps:
        low, high = high, high * 2
    while high - low > 1:
        mid = (low + high) // 2
        if influence_high(model, mid) > eps:
            low = mid
        else:
            high = mid
    return high


@dataclass(frozen=True)
class Regions:
    """Partition of [1, n] into small/medium/large leakage sets around record p.

    Indices left of p are classified against ``eps_left``, indices right of
    p against ``eps_right``; p sits on both sides and lands in ``large``
    either way (its self-influence is infinite).  ``near_boundary`` lists
    indices whose classification sat within ``BOUNDARY_TOLERANCE`` of the
    budget: the comparisons themselves are exact, so this is a diagnostic,
    not a fuzz band.
    """

    p: int
    eps_left: float
    eps_right: float
    small: frozenset[int]
    medium: frozenset[int]
    large: frozenset[int]
    near_boundary: tuple[int, ...] = ()

    def medium_by_distance(self, side: int) -> list[int]:
        """Medium indices on one side of p (side=-1 left, +1 right), nearest first."""
        if side not in (-1, 1):
            raise ValueError("side must be -1 (left) or +1 (right)")
        picked = [t for t in self.medium if (t - self.p) * side > 0]
        return sorted(picked, key=lambda t: abs(t - self.p))


def compute_regions(
    model: MarkovModel, p: int, eps_left: float, eps_right: float
) -> Regions:
    """Classify every record index by its pointwise influences against the side budget.

    An index lands in large when even the value-0 influence exceeds the
    budget, in medium when only the value-1 influence does, and in small
    when both fit.  Zero budgets are allowed (then nothing with positive
    influence can be small).
    """
    check_index(model.n, p)
    if not (eps_left >= 0 and eps_right >= 0):
        raise ValueError("region budgets must be nonnegative")
    small: set[int] = set()
    medium: set[int] = set()
    large: set[int] = {p}
    near: list[int] = []
    for t in range(1, model.n + 1):
        if t == p:
            continue
        budget = eps_left if t < p else eps_right
        delta = abs(p - t)
        low = influence_low(model, delta)
        high = influence_high(model, delta)
        if low > budget:
            large.add(t)
        elif high > budget:
            medium.add(t)
        else:
            small.add(t)
        if (
            abs(low - budget) <= BOUNDARY_TOLERANCE
            or abs(high - budget) <= BOUNDARY_TOLERANCE
        ):
            near.append(t)
    return Regions(
        p=p,
        eps_left=eps_left,
        eps_right=eps_right,
        small=frozenset(small),
        medium=frozenset(medium),
        large=frozenset(large),
        near_boundary=tuple(near),
    )
