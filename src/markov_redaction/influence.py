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
    return abs(_log_ratios(model, delta)[0])


def influence_high(model: MarkovModel, delta: int) -> float:
    """Pointwise influence of observing the value 1 at distance ``delta``.

    For ``alpha <= beta`` this is also the max influence at that distance.
    Returns ``math.inf`` for ``delta = 0``.
    """
    if delta < 0:
        raise ValueError(f"distance must be nonnegative, got {delta!r}")
    if delta == 0:
        return math.inf
    return abs(_log_ratios(model, delta)[1])


def _log_ratios(model: MarkovModel, delta: int) -> tuple[float, float]:
    """Signed log-ratios l(delta, x) = log P^delta[0, x] - log P^delta[1, x], x = 0, 1.

    Both logs of the closed forms share one s^delta and carry its sign, so
    l(delta, 0) is the low log and l(delta, 1) the high log negated; their
    magnitudes are the low and high forms.  ``delta >= 1``.
    """
    decay = _decay(model, delta)
    low = math.log((1.0 + model.alpha / model.beta * decay) / (1.0 - decay))
    high = math.log((1.0 + model.beta / model.alpha * decay) / (1.0 - decay))
    return low, -high


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
    low, high = 0, 1
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
    either way (its self-influence is infinite).

    Only ``medium`` and ``large`` are stored.  Both lie within the distance
    at which the closed forms reach their exact zero tail (see
    :func:`_influence_prefix`), so their size does not grow with n on a
    long chain; ``small`` is everything else and is built on demand, an
    O(n) set meant for tests and demos, not for the builders.
    """

    n: int
    p: int
    eps_left: float
    eps_right: float
    medium: frozenset[int]
    large: frozenset[int]

    @property
    def small(self) -> frozenset[int]:
        """Indices released always: neither medium nor large."""
        return frozenset(range(1, self.n + 1)) - self.medium - self.large

    def medium_by_distance(self, side: int) -> list[int]:
        """Medium indices on one side of p (side=-1 left, +1 right), nearest first."""
        if side not in (-1, 1):
            raise ValueError("side must be -1 (left) or +1 (right)")
        picked = [t for t in self.medium if (t - self.p) * side > 0]
        return sorted(picked, key=lambda t: abs(t - self.p))


def _influence_prefix(model: MarkovModel, max_delta: int) -> tuple[list[float], list[float]]:
    """``influence_low`` and ``influence_high`` at distances 1, 2, ... before their zero tail.

    Entry delta - 1 of each list is the closed form at distance delta.  The
    lists stop at ``max_delta`` or at the first distance where
    c * |s^delta|, with c = max(beta/alpha, 1) the larger coefficient of the
    two forms, is so small that 1 + c * |s^delta| and 1 - c * |s^delta| both
    round to 1, whichever comes first.  From there on both forms are
    exactly log(1 / 1) = 0.0 at every distance up to ``max_delta``: the
    computed |s|^delta never grows with delta (float ``pow`` is monotone in
    its exponent for a base inside (-1, 1)), and rounding is monotone, so
    every later numerator 1 + c' * s^delta and denominator 1 - s^delta
    (c' <= c) also rounds to 1.  The lists are not monotone near the tail:
    the float values can rise by an ulp from one distance to the next.
    """
    lows: list[float] = []
    highs: list[float] = []
    ratio = model.beta / model.alpha
    for delta in range(1, max_delta + 1):
        term = abs(ratio * _decay(model, delta))
        if 1.0 + term == 1.0 and 1.0 - term == 1.0:
            break
        low, high = _log_ratios(model, delta)
        lows.append(abs(low))
        highs.append(abs(high))
    return lows, highs


def compute_regions(
    model: MarkovModel, p: int, eps_left: float, eps_right: float
) -> Regions:
    """Classify every record index by its pointwise influences against the side budget.

    An index lands in large when even the value-0 influence exceeds the
    budget, in medium when only the value-1 influence does, and in small
    when both fit.  Zero budgets are allowed (then nothing with positive
    influence can be small).  Each side compares the closed forms of
    :func:`_influence_prefix` distance by distance; past that prefix both
    forms are exactly 0.0, so the rest of the side is small.  The cost is
    set by the prefix, not by n.
    """
    check_index(model.n, p)
    if not (eps_left >= 0 and eps_right >= 0):
        raise ValueError("region budgets must be nonnegative")
    n = model.n
    lows, highs = _influence_prefix(model, max(p - 1, n - p))
    medium: list[int] = []
    large: list[int] = [p]
    for side, budget, length in ((-1, eps_left, p - 1), (1, eps_right, n - p)):
        for delta, low, high in zip(range(1, length + 1), lows, highs):
            t = p + side * delta
            if low > budget:
                large.append(t)
            elif high > budget:
                medium.append(t)
    return Regions(
        n=n,
        p=p,
        eps_left=eps_left,
        eps_right=eps_right,
        # Inserted in index order, as a scan over t would, so that sums over
        # the set iterate in the same order.
        medium=frozenset(set(sorted(medium))),
        large=frozenset(large),
    )
