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
Self-influence (delta = 0) is infinite; the empty record set has influence 0.

Comparing both pointwise influences of a record against a budget eps splits
the indices into three regions: large (both above eps, always redact),
medium (straddling eps, value-dependent redaction), small (both at most
eps, always releasable).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chain import MarkovModel, multi_step
from .errors import EnumerationCapError

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

#: Largest record set that max_influence_set will enumerate (2^cap realizations).
SET_ENUMERATION_CAP = 20


def influence_low(model: MarkovModel, delta: int) -> float:
    """Pointwise influence of observing the value 0 at distance ``delta``.

    Returns ``math.inf`` for ``delta = 0`` (self-influence).
    """
    if delta < 0:
        raise ValueError(f"distance must be nonnegative, got {delta!r}")
    if delta == 0:
        return math.inf
    decay = (1.0 - model.alpha - model.beta) ** delta
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
    decay = (1.0 - model.alpha - model.beta) ** delta
    return abs(math.log((1.0 + model.beta / model.alpha * decay) / (1.0 - decay)))


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


def _set_influence_rows(
    model: MarkovModel, p: int, indices: list[int]
) -> tuple[np.ndarray, np.ndarray]:
    """Pointwise set influence of every joint realization of ``indices``.

    Returns ``(bits, influence)`` where ``bits`` has shape ``(2^k, k)`` with
    column j holding the value assigned to ``indices[j]`` (indices sorted
    ascending), and ``influence[r]`` is ``|log ratio|`` of row r's realization.

    The joint conditional ``Pr[X_S = x_S | X_p = x]`` is a product of
    multi-step transition factors walked outward from p on each side
    (backward steps reuse the forward matrix by stationarity), so the cost
    is ``O(2^k * k)`` rather than requiring the full joint table.
    """
    k = len(indices)
    rows = 1 << k
    bits = (np.arange(rows)[:, None] >> np.arange(k)[None, :]) & 1
    log_joint = np.zeros((2, rows))
    column = {t: j for j, t in enumerate(indices)}
    right = [t for t in indices if t > p]
    left = [t for t in indices if t < p][::-1]
    for side in (right, left):
        previous = p
        prev_values = None  # None marks the conditioning record itself
        for t in side:
            log_step = np.log(multi_step(model, abs(t - previous)).matrix())
            values = bits[:, column[t]]
            if prev_values is None:
                log_joint[0] += log_step[0, values]
                log_joint[1] += log_step[1, values]
            else:
                log_joint += log_step[prev_values, values][None, :]
            previous, prev_values = t, values
    return bits, np.abs(log_joint[0] - log_joint[1])


def pointwise_set_influence(model: MarkovModel, p: int, realization: dict[int, int]) -> float:
    """Pointwise influence of record p on one joint realization ``{t: x_t}``.

    The empty realization has influence 0; any set containing p itself is
    rejected (its influence is infinite by convention and never needed here).
    """
    check_index(model.n, p)
    if not realization:
        return 0.0
    indices = sorted(realization)
    if p in realization:
        raise ValueError("the private index cannot be part of the observed set")
    for t in indices:
        check_index(model.n, t, "set index")
        if realization[t] not in (0, 1):
            raise ValueError(f"record value must be 0 or 1, got {realization[t]!r}")
    bits, influence = _set_influence_rows(model, p, indices)
    row = sum(realization[t] << j for j, t in enumerate(indices))
    return float(influence[row])


def max_influence_set(model: MarkovModel, p: int, indices) -> float:
    """Max influence of record p on a record set, by exhausting 2^|set| realizations.

    The empty set has influence 0.  Sets larger than
    ``SET_ENUMERATION_CAP`` raise :class:`EnumerationCapError` so the
    brute-force stays a usable oracle.
    """
    check_index(model.n, p)
    ordered = sorted(set(indices))
    if not ordered:
        return 0.0
    if p in ordered:
        raise ValueError("the private index cannot be part of the observed set")
    for t in ordered:
        check_index(model.n, t, "set index")
    if len(ordered) > SET_ENUMERATION_CAP:
        raise EnumerationCapError(
            f"max influence over {len(ordered)} records needs 2^{len(ordered)} "
            f"realizations; the cap is {SET_ENUMERATION_CAP}"
        )
    _, influence = _set_influence_rows(model, p, ordered)
    return float(influence.max())


def delta_star(model: MarkovModel, eps: float, cap: int = 10**6) -> int:
    """Smallest distance at which the max influence drops to ``eps`` or below.

    Exploits the strict monotone decrease of ``influence_high`` (doubling
    search plus bisection).  ``eps <= 0`` is rejected: the max influence is
    strictly positive at every finite distance unless the records are
    independent, in which case distance 1 already suffices for any positive
    budget.  Raises :class:`EnumerationCapError` if the answer exceeds ``cap``.
    """
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps!r}")
    if influence_high(model, 1) <= eps:
        return 1
    low, high = 1, 2
    while influence_high(model, high) > eps:
        low, high = high, high * 2
        if low > cap:
            raise EnumerationCapError(
                f"max influence stays above eps={eps} at every distance up to {cap}"
            )
    while high - low > 1:
        mid = (low + high) // 2
        if influence_high(model, mid) > eps:
            low = mid
        else:
            high = mid
    if high > cap:
        raise EnumerationCapError(
            f"max influence stays above eps={eps} at every distance up to {cap}"
        )
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
    if eps_left < 0 or eps_right < 0:
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
