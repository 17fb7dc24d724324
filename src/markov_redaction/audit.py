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
log-ratios.  A pass stops at the first record released whatever its
value, past which no class is supported; only the witness re-evaluation
stays linear in n, and there is no size limit.
:func:`side_leakage` is that pass alone for one side, the score the
numerical three-region search compares against a side budget.

An output supported under exactly one conditioning certifies infinite
leakage: it occurs with positive marginal probability yet pins the
private value.  The witness is the lexicographically smallest output
(0 < 1 < ⊥) of a binding class combination, and the reported leakage is
that witness re-evaluated through :func:`output_probability`.

The module imports no construction code.  At run time it needs only
:mod:`.chain`, and it reads a table through ``redact_prob``, ``p`` and
``check_model`` alone, so it certifies a table however it was built.
"""

from __future__ import annotations

import math
from array import array
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
    holds the leakages of the mechanism restricted to [1, p] and [p, n] (in
    that order) — the two compose additively to bound the total.
    """

    leakage: float
    witness: str
    outputs_enumerated: int
    per_side: tuple[float, float]


def _parse_output(y, n: int) -> list[int]:
    if len(y) != n:
        raise ValueError(f"output must have length {n}, got {len(y)}")
    try:
        return [_CODES[symbol] for symbol in y]
    except KeyError as err:
        raise ValueError(
            f"output symbols must be one of {_SYMBOLS}, got {err.args[0]!r}"
        ) from None


def output_probability(
    model: MarkovModel, mechanism: RedactionMechanism, y, x_p: int
) -> float:
    """log Pr[Y = y | X_p = x_p], exactly; -inf for impossible outputs.

    ``y`` is a string (or sequence) over {0, 1, ⊥}.  Cost is linear in n:
    one pass rightward and one leftward from p, folding the local emission
    factor of each position into the chain transition.  The state is
    renormalised at every step and the logs of the step masses are summed
    exactly, so no chain length or tiny table entry underflows it.
    """
    mechanism.check_model(model)
    if x_p not in (0, 1):
        raise ValueError(f"x_p must be 0 or 1, got {x_p!r}")
    codes = np.array(_parse_output(y, model.n))[:, None]
    table = mechanism.redact_prob
    # emit[t - 1, x] = Pr[Y_t = y_t | X_t = x]
    emit = np.where(codes == 2, table, np.where(codes == np.arange(2), 1.0 - table, 0.0))
    p = mechanism.p
    (p00, p01), (p10, p11) = model.transition_matrix().tolist()

    if emit[p - 1, x_p] <= 0.0:
        return -math.inf
    masses = array("d", [emit[p - 1, x_p]])
    for side in (emit[p:], emit[: p - 1][::-1]):
        s0, s1 = (1.0, 0.0) if x_p == 0 else (0.0, 1.0)
        for e0, e1 in zip(side[:, 0].tolist(), side[:, 1].tolist()):
            s0, s1 = (s0 * p00 + s1 * p10) * e0, (s0 * p01 + s1 * p11) * e1
            total = s0 + s1
            if total <= 0.0:
                return -math.inf
            s0, s1 = s0 / total, s1 / total
            masses.append(total)
    return math.fsum(np.log(np.frombuffer(masses)))


def _side_log_ratios(transition: list, rows: np.ndarray) -> np.ndarray:
    """log Pr[c | X_p = 0] - log Pr[c | X_p = 1] for each first-release class c.

    ``rows`` are one side's redaction rows, walked outward from p.  Class
    2(k - 1) + v is "the k-th record is the first released, showing v"; the
    last class is "every record redacted".  This order is also the
    lexicographic order of the classes' smallest outputs.  Unsupported
    classes are nan; a class supported under one conditioning only is
    +-inf.  The ⊥-prefix states of both conditionings share one rescaling
    per step, which cancels in every ratio.  The pass stops at the first
    record released whatever its value (or where both states underflow),
    past which every class, the all-redacted one too, would be nan.
    """
    (p00, p01), (p10, p11) = transition
    a0, a1, b0, b1 = 1.0, 0.0, 0.0, 1.0  # prefix state under X_p = 0 (a), X_p = 1 (b)
    reached = array("d")
    for r0, r1 in zip(rows[:, 0].tolist(), rows[:, 1].tolist()):
        u0, u1 = a0 * p00 + a1 * p10, a0 * p01 + a1 * p11
        w0, w1 = b0 * p00 + b1 * p10, b0 * p01 + b1 * p11
        reached.extend((u0, u1, w0, w1))
        a0, a1, b0, b1 = u0 * r0, u1 * r1, w0 * r0, w1 * r1
        scale = max(a0, a1, b0, b1)
        if scale == 0.0:
            break  # every later class is unsupported under both conditionings
        a0, a1, b0, b1 = a0 / scale, a1 / scale, b0 / scale, b1 / scale
    reached = np.frombuffer(reached).reshape(-1, 2, 2)  # (record, conditioning, value)
    with np.errstate(divide="ignore", invalid="ignore"):
        released = np.log(reached[:, 0]) - np.log(reached[:, 1])
        redacted = np.log(a0 + a1) - np.log(b0 + b1)
    released[rows[: len(released)] >= 1.0] = np.nan  # that value is never released there
    return np.append(released.ravel(), redacted)


def side_leakage(model: MarkovModel, rows: np.ndarray) -> float:
    """Exact leakage of one side of p, from its redaction rows walked outward from p.

    This is max(|min L|, |max L|) over the side's first-release log-ratios
    L, which equals the matching ``per_side`` entry of :func:`exact_leakage`
    when row p always redacts.  It skips the witness and its re-evaluation.
    """
    ratios = _side_log_ratios(model.transition_matrix().tolist(), rows)
    return float(max(abs(np.fmin.reduce(ratios)), abs(np.fmax.reduce(ratios))))


def _reach(base, side_extremes: tuple[float, float]):
    """max over a side's classes c of |base + L_c|, from that side's (min L, max L)."""
    low, high = side_extremes
    return np.fmax(np.abs(base + low), np.abs(base + high))


def exact_leakage(model: MarkovModel, mechanism: RedactionMechanism) -> LeakageReport:
    """Exact leakage of a mechanism, by first-release classes on each side of p.

    The total is the max over feasible symbols s at p of
    max(|e_s + min L + min R|, |e_s + max L + max R|), where e_s is the
    emission log-ratio of s and L, R are the class log-ratios of the left
    and right sides; each per-side leakage is the same with the other side
    dropped.  Ties break to the lexicographically smallest witness (symbol
    order 0 < 1 < ⊥): the ⊥-prefix, the released value, then the smallest
    feasible symbol at every remaining position, each of which has positive
    probability because every transition does.
    """
    mechanism.check_model(model)
    table = mechanism.redact_prob
    p = mechanism.p
    transition = model.transition_matrix().tolist()
    left = _side_log_ratios(transition, table[: p - 1][::-1])
    right = _side_log_ratios(transition, table[p:])
    r0, r1 = table[p - 1]
    emit_p = np.array([[1.0 - r0, 0.0], [0.0, 1.0 - r1], [r0, r1]])  # symbols 0, 1, ⊥ at p
    with np.errstate(divide="ignore", invalid="ignore"):
        at_p = np.log(emit_p[:, 0]) - np.log(emit_p[:, 1])
        # fmin/fmax skip nan: the extremes over supported classes only
        left_extremes = np.fmin.reduce(left), np.fmax.reduce(left)
        right_extremes = np.fmin.reduce(right), np.fmax.reduce(right)
        inner = left[:, None] + at_p  # (left class, symbol at p)
        reach = _reach(inner, right_extremes)
        bound = np.fmax.reduce(reach, axis=None)
        left_class, symbol = np.unravel_index(np.argmax(reach == bound), reach.shape)
        right_class = np.argmax(np.abs(inner[left_class, symbol] + right) == bound)
        per_side = tuple(
            float(np.fmax.reduce(_reach(at_p, extremes)))
            for extremes in (left_extremes, right_extremes)
        )

    codes = np.where(table[:, 0] < 1.0, 0, np.where(table[:, 1] < 1.0, 1, 2))
    codes[p - 1] = symbol
    for outward, cls in ((codes[: p - 1][::-1], left_class), (codes[p:], right_class)):
        k, value = divmod(int(cls), 2)  # the ⊥-prefix, then the released value if any
        outward[:k], outward[k : k + 1] = 2, value
    witness = "".join(np.array(_SYMBOLS)[codes])

    log_0 = output_probability(model, mechanism, witness, 0)
    log_1 = output_probability(model, mechanism, witness, 1)
    leakage = math.inf if math.isinf(log_0) or math.isinf(log_1) else abs(log_0 - log_1)
    supported = [int(np.count_nonzero(~np.isnan(v))) for v in (left, at_p, right)]
    return LeakageReport(
        leakage=leakage,
        witness=witness,
        outputs_enumerated=math.prod(supported),
        per_side=per_side,
    )
