"""Exact leakage verification by one first-release pass over each side of p.

The leakage of a mechanism about the private record is

    log  sup  Pr[Y = y | X_p = x] / Pr[Y = y | X_p = 1 - x]

over supported outputs y and both values x; the mechanism is eps-private
when this is at most eps.  Given X_p, the left and right chain segments are
independent (backward transition probabilities equal forward ones under
stationarity), so an output's log-ratio is the emission term of its symbol
at p plus one term per side.  Walking a side outward from p, the Markov
property cancels everything after the first released record: the side's
term depends only on that record's position and value, or on the whole
side being redacted.  One forward pass per side evaluates these
2 * (side length) + 1 first-release classes under both conditionings, and
the supremum over all outputs reduces to the extremes of each side's
log-ratios.  A pass stops at the first record released whatever its value,
past which no class is supported, so an audit costs its window; only an
O(n) ``np.where`` builds the witness string.  :func:`side_leakage` is one
side's pass alone, the score the numerical three-region search compares
against a budget.

An output supported under exactly one conditioning certifies infinite
leakage: it occurs with positive marginal probability yet pins the
private value.  The reported leakage is the class arithmetic itself, the
sum the search compares with each side budget; float rounding is
monotone, so two sides within their budgets give a total within their
sum.  The witness is the lexicographically smallest output (0 < 1 < ⊥) of
a class combination attaining it; :func:`output_probability` re-evaluates
it to the report up to rounding.

Every pass runs on plain Python floats and takes one batched ``np.log`` of
the masses it collected.  ``np.log`` is elementwise, so a log does not
depend on its batch and every result keeps the bits of an array-at-a-time
evaluation.  ``math.log`` is not used: it differs from numpy's SIMD
``np.log`` in the last bit on 0.35% of uniform inputs (numpy 2.4, AVX-512).

The module imports no construction code.  At run time it needs only
:mod:`.chain`, and it reads a table through ``redact_prob``, ``p`` and
``check_model`` alone, so it certifies a table however it was built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .chain import MarkovModel

if TYPE_CHECKING:
    from .mechanisms import RedactionMechanism

__all__ = ["LeakageReport", "REDACTED", "output_probability", "exact_leakage"]

#: Symbol used for a redacted record in output strings.
REDACTED = "⊥"

_SYMBOLS = ("0", "1", REDACTED)
_CODES = {symbol: code for code, symbol in enumerate(_SYMBOLS)}


@dataclass(frozen=True)
class LeakageReport:
    """Result of an exact audit.

    ``leakage`` is in nats and may be ``math.inf``; ``witness`` is an output
    string over {0, 1, ⊥} attaining it; ``outputs_enumerated`` counts the
    output classes compared (supported first-release classes on the left,
    times feasible symbols at p, times classes on the right).  ``per_side``
    is the leakage restricted to [1, p] and to [p, n]; when row p always
    redacts, ``leakage`` is at most their float sum.
    """

    leakage: float
    witness: str
    outputs_enumerated: int
    per_side: tuple[float, float]


def output_probability(model: MarkovModel, mechanism: RedactionMechanism, y, x_p: int) -> float:
    """log Pr[Y = y | X_p = x_p], exactly; -inf for impossible outputs.

    ``y`` is a string (or sequence) over {0, 1, ⊥}.  Cost is linear in n:
    one pass rightward and one leftward from p folds each position's
    emission factor into the chain transition, renormalising at every step
    and summing the logs of the step masses exactly, so no chain length or
    tiny entry underflows it.
    """
    mechanism.check_model(model)
    if x_p not in (0, 1):
        raise ValueError(f"x_p must be 0 or 1, got {x_p!r}")
    if len(y) != model.n:
        raise ValueError(f"output must have length {model.n}, got {len(y)}")
    try:
        codes = np.array([_CODES[symbol] for symbol in y])[:, None]
    except KeyError as err:
        raise ValueError(f"output symbols must be one of {_SYMBOLS}, got {err.args[0]!r}") from None
    table, p = mechanism.redact_prob, mechanism.p
    # emit[t - 1, x] = Pr[Y_t = y_t | X_t = x]
    emit = np.where(codes == 2, table, np.where(codes == np.arange(2), 1.0 - table, 0.0))
    (p00, p01), (p10, p11) = model.transition_matrix().tolist()
    masses = [emit[p - 1, x_p].item()]
    if masses[0] <= 0.0:
        return -math.inf
    for side in (emit[p:], emit[: p - 1][::-1]):
        s0, s1 = (1.0, 0.0) if x_p == 0 else (0.0, 1.0)
        for e0, e1 in zip(side[:, 0].tolist(), side[:, 1].tolist()):
            s0, s1 = (s0 * p00 + s1 * p10) * e0, (s0 * p01 + s1 * p11) * e1
            total = s0 + s1
            if total <= 0.0:
                return -math.inf
            s0, s1 = s0 / total, s1 / total
            masses.append(total)
    return math.fsum(np.log(masses).tolist())


def _log_ratios(masses: list) -> list:
    """log u - log w for each consecutive (u, w) in ``masses`` by one ``np.log``; log 0 = -inf."""
    if 0.0 in masses:  # log 0 without numpy's divide-by-zero warning
        kept = iter(np.log([mass for mass in masses if mass != 0.0]).tolist())
        logs = [-math.inf if mass == 0.0 else next(kept) for mass in masses]
    else:
        logs = np.log(masses).tolist()
    return [u - w for u, w in zip(logs[::2], logs[1::2])]


def _side_log_ratios(transition: list, rows: np.ndarray) -> list:
    """log Pr[c | X_p = 0] - log Pr[c | X_p = 1] for each first-release class c.

    ``rows`` are one side's redaction rows, walked outward from p.  Class
    2(k - 1) + v is "the k-th record is the first released, showing v", and
    the last is "every record redacted": the lexicographic order of their
    smallest outputs.  Unsupported classes are nan; one supported under one
    conditioning only is +-inf.  Both conditionings' ⊥-prefix states share
    one rescaling per step, which cancels in every ratio.  A side whose
    every row redacts both values has all-redacted masses of exactly 1
    under both conditionings, so its ratio is exactly 0.
    """
    (p00, p01), (p10, p11) = transition
    a0, a1, b0, b1 = 1.0, 0.0, 0.0, 1.0  # prefix state under X_p = 0 (a), X_p = 1 (b)
    reached, unseen = [], (math.nan, math.nan)  # class masses under X_p = 0, then X_p = 1
    start = 0  # rows go to floats in slices of 64, 128, 256, ...: an early stop converts few
    while start < len(rows):
        for r0, r1 in rows[start : 2 * start + 64].tolist():
            u0, u1 = a0 * p00 + a1 * p10, a0 * p01 + a1 * p11
            w0, w1 = b0 * p00 + b1 * p10, b0 * p01 + b1 * p11
            reached += (u0, w0) if r0 < 1.0 else unseen  # a value never released has no class
            reached += (u1, w1) if r1 < 1.0 else unseen
            a0, a1, b0, b1 = u0 * r0, u1 * r1, w0 * r0, w1 * r1
            scale = max(a0, a1, b0, b1)
            if scale == 0.0:  # released whatever its value, or both states underflow:
                # every later class, the all-redacted one too, is unsupported
                return _log_ratios(reached + [math.nan, math.nan])
            a0, a1, b0, b1 = a0 / scale, a1 / scale, b0 / scale, b1 / scale
        start = 2 * start + 64
    if (rows == 1.0).all():  # surely all redacted: a0 + a1 and b0 + b1 are 1 up to rounding
        return _log_ratios(reached + [1.0, 1.0])
    return _log_ratios(reached + [a0 + a1, b0 + b1])  # the last class: all redacted


def _extremes(values) -> tuple[float, float]:
    """(min, max) of the values that are not nan (unsupported classes, inf - inf); nan if none."""
    kept = [value for value in values if value == value]
    return min(kept, default=math.nan), max(kept, default=math.nan)


def side_leakage(model: MarkovModel, rows: np.ndarray) -> float:
    """Exact leakage of one side of p, from its redaction rows walked outward from p.

    This is max(|min L|, |max L|) over the side's first-release log-ratios
    L, which equals the matching ``per_side`` entry of :func:`exact_leakage`
    when row p always redacts.  It skips the other side and the witness.
    """
    return max(map(abs, _extremes(_side_log_ratios(model.transition_matrix().tolist(), rows))))


def exact_leakage(model: MarkovModel, mechanism: RedactionMechanism) -> LeakageReport:
    """Exact leakage of a mechanism, by first-release classes on each side of p.

    The total is the max over feasible symbols s at p of
    max(|e_s + min L + min R|, |e_s + max L + max R|), where e_s is the
    emission log-ratio of s and L, R are the class log-ratios of the left
    and right sides; each per-side leakage drops the other side.  That
    total is the reported leakage, and the witness is its argmax.  Ties
    break to the lexicographically smallest witness (0 < 1 < ⊥): the
    ⊥-prefix, the released value, then the smallest feasible symbol at
    every other position, possible because every transition is.
    """
    mechanism.check_model(model)
    table, p = mechanism.redact_prob, mechanism.p
    transition = model.transition_matrix().tolist()
    left = _side_log_ratios(transition, table[: p - 1][::-1])
    right = _side_log_ratios(transition, table[p:])
    r0, r1 = table[p - 1].tolist()
    # symbols 0, 1, ⊥ at p; a released value pins X_p, so its ratio is +-inf where feasible
    at_p = [math.inf if r0 < 1.0 else math.nan, -math.inf if r1 < 1.0 else math.nan]
    at_p += _log_ratios([r0, r1])
    left_ends, right_ends = _extremes(left), _extremes(right)
    # (L + e) + R never falls as L or R rises, rounding included, so only the ends can bind
    sums = ((end + e) + r for e in at_p for end in left_ends for r in right_ends)
    leakage = max(map(abs, _extremes(sums)))
    per_side = tuple(max(map(abs, _extremes(e + end for e in at_p for end in ends)))
                     for ends in (left_ends, right_ends))
    # the first (left class, symbol) in C order reaching the leakage, then the first right class;
    # both exist: every side and row p have a non-nan ratio, so the scans recompute the leakage
    left_class, symbol = next((i, s) for i, ratio in enumerate(left) for s, e in enumerate(at_p)
                              if any(abs((ratio + e) + r) == leakage for r in right_ends))
    inner = left[left_class] + at_p[symbol]
    right_class = next(j for j, r in enumerate(right) if abs(inner + r) == leakage)
    codes = np.where(table[:, 0] < 1.0, 0, np.where(table[:, 1] < 1.0, 1, 2))
    codes[p - 1] = symbol
    for outward, cls in ((codes[: p - 1][::-1], left_class), (codes[p:], right_class)):
        k, value = divmod(cls, 2)  # the ⊥-prefix, then the released value if any
        outward[:k], outward[k : k + 1] = 2, value
    witness = "".join(np.array(_SYMBOLS)[codes].tolist())
    supported = [sum(ratio == ratio for ratio in ratios) for ratios in (left, at_p, right)]
    return LeakageReport(leakage, witness, math.prod(supported), per_side)
