"""Independent brute-force oracles the tests check the package against.

Everything here recomputes quantities from first principles (explicit
matrix powers, full joint tables over 2^n realizations, output sums over
3^n strings) without touching the package's closed forms or its
first-release audit, so agreement is meaningful.  ``enumerated_leakage``
is a second, vectorised audit oracle that exhausts all 3^n outputs (practical
up to n of about 13); it re-evaluates its witness through the package's
``output_probability``, which the joint-table oracle checks in turn.
``leakage_lower_bound_check`` tests the audit against the influence lower
bounds.
"""

import math
from itertools import product

import numpy as np

from markov_redaction import (
    EnumerationCapError,
    LeakageReport,
    MarkovModel,
    exact_leakage,
    output_probability,
    stationary_marginal,
)
from markov_redaction.influence import SET_ENUMERATION_CAP, _set_influence_rows

#: Six (alpha, beta) points including an oscillating 1 - alpha - beta < 0 case
#: and the independent case alpha + beta = 1.
MODEL_GRID = [
    (0.25, 0.5),
    (0.01, 0.8),
    (0.1, 0.5),
    (0.3, 0.7),
    (0.4, 0.9),
    (0.05, 0.6),
]

REDACTED = "⊥"


def matrix_power_ratios(model: MarkovModel, delta: int) -> tuple[float, float]:
    """(low, high) influence at distance delta from an explicit delta-fold product."""
    step = np.linalg.matrix_power(model.transition_matrix(), delta)
    low = abs(math.log(step[0, 0] / step[1, 0]))
    high = abs(math.log(step[1, 1] / step[0, 1]))
    return low, high


def joint_distribution(model: MarkovModel) -> dict[tuple[int, ...], float]:
    """Full joint pmf over all 2^n realizations of the chain."""
    pi = stationary_marginal(model)
    transition = model.transition_matrix()
    joint = {}
    for x in product((0, 1), repeat=model.n):
        probability = pi[x[0]]
        for a, b in zip(x, x[1:]):
            probability *= transition[a, b]
        joint[x] = probability
    return joint


def conditional_set_probability(model, p, realization, x_p) -> float:
    """Pr[X_S = x_S | X_p = x_p] by summing the full joint table."""
    numerator = denominator = 0.0
    for x, probability in joint_distribution(model).items():
        if x[p - 1] != x_p:
            continue
        denominator += probability
        if all(x[t - 1] == value for t, value in realization.items()):
            numerator += probability
    return numerator / denominator


def brute_pointwise_set_influence(model, p, realization) -> float:
    """|log ratio| of one realization, straight from the joint table."""
    p0 = conditional_set_probability(model, p, realization, 0)
    p1 = conditional_set_probability(model, p, realization, 1)
    return abs(math.log(p0) - math.log(p1))


def brute_max_influence(model, p, indices) -> float:
    """Max influence by looping over every realization of the set."""
    indices = sorted(indices)
    best = 0.0
    for values in product((0, 1), repeat=len(indices)):
        realization = dict(zip(indices, values))
        best = max(best, brute_pointwise_set_influence(model, p, realization))
    return best


def _emission(table_row, symbol: str, state: int) -> float:
    if symbol == REDACTED:
        return table_row[state]
    return 1.0 - table_row[state] if int(symbol) == state else 0.0


def brute_output_probability(model, mechanism, y: str, x_p: int) -> float:
    """Pr[Y = y | X_p = x_p] from the full joint table (linear, not log)."""
    table = mechanism.redact_prob
    p = mechanism.p
    conditional_mass = 0.0
    output_mass = 0.0
    for x, probability in joint_distribution(model).items():
        if x[p - 1] != x_p:
            continue
        conditional_mass += probability
        emit = probability
        for t, symbol in enumerate(y):
            emit *= _emission(table[t], symbol, x[t])
        output_mass += emit
    return output_mass / conditional_mass


def all_outputs(n: int):
    for symbols in product(("0", "1", REDACTED), repeat=n):
        yield "".join(symbols)


def brute_exact_leakage(model, mechanism) -> float:
    """Definition-level leakage: sup over all 3^n outputs and both conditionings."""
    best = 0.0
    for y in all_outputs(model.n):
        p0 = brute_output_probability(model, mechanism, y, 0)
        p1 = brute_output_probability(model, mechanism, y, 1)
        if p0 <= 0.0 and p1 <= 0.0:
            continue
        if p0 <= 0.0 or p1 <= 0.0:
            return math.inf
        best = max(best, abs(math.log(p0) - math.log(p1)))
    return best


# ------------------------------------------------ exhaustive 3^n audit oracle

_SYMBOLS = ("0", "1", REDACTED)


def _weights(mechanism) -> np.ndarray:
    """W[t-1, symbol, state] = Pr[Y_t = symbol | X_t = state]."""
    r = mechanism.redact_prob
    w = np.zeros((mechanism.n, 3, 2))
    w[:, 0, 0] = 1.0 - r[:, 0]
    w[:, 1, 1] = 1.0 - r[:, 1]
    w[:, 2, :] = r
    return w


def _feasible_symbols(mechanism) -> list[list[int]]:
    """Symbol codes with nonzero emission probability at each position."""
    feasible = []
    for row in mechanism.redact_prob:
        symbols = [x for x in (0, 1) if row[x] < 1.0]
        if row.max() > 0.0:
            symbols.append(2)
        feasible.append(symbols)
    return feasible


def _chain_output_probs(model, weights, feasible, positions) -> np.ndarray:
    """Probabilities of every feasible partial output along ``positions``.

    Positions are walked outward from p.  Returns shape (2, K) indexed by
    the conditioning value of X_p and the mixed-radix combination index
    (first walked position most significant).
    """
    transition = model.transition_matrix()
    state = np.zeros((2, 1, 2))
    state[0, 0, 0] = 1.0
    state[1, 0, 1] = 1.0
    for t in positions:
        stepped = state @ transition
        emit = weights[t - 1][feasible[t - 1], :]  # (symbols, 2)
        state = (stepped[:, :, None, :] * emit[None, None, :, :]).reshape(2, -1, 2)
    return state.sum(axis=2)


def _lexicographic_min(rows: np.ndarray) -> np.ndarray:
    """Lexicographically smallest row of an integer matrix."""
    keep = np.arange(rows.shape[0])
    for j in range(rows.shape[1]):
        col = rows[keep, j]
        keep = keep[col == col.min()]
        if keep.size == 1:
            break
    return rows[keep[0]]


def _decode_outputs(indices, feasible, left_positions, right_positions, p, n) -> np.ndarray:
    """Symbol codes (m, n) for flat combination indices of the full product."""
    m = indices.shape[0]
    codes = np.empty((m, n), dtype=np.int8)
    rest = indices
    for t in reversed(right_positions):
        options = np.array(feasible[t - 1], dtype=np.int8)
        rest, digit = np.divmod(rest, len(options))
        codes[:, t - 1] = options[digit]
    options = np.array(feasible[p - 1], dtype=np.int8)
    rest, digit = np.divmod(rest, len(options))
    codes[:, p - 1] = options[digit]
    for t in reversed(left_positions):
        options = np.array(feasible[t - 1], dtype=np.int8)
        rest, digit = np.divmod(rest, len(options))
        codes[:, t - 1] = options[digit]
    return codes


def enumerated_leakage(model, mechanism, per_side: bool = True) -> LeakageReport:
    """Exact leakage by exhausting every feasible output string.

    Skips outputs unsupported under both conditionings and maximizes the
    absolute log-probability difference; any output supported on one side
    only yields infinite leakage.  Ties break to the lexicographically
    smallest witness (symbol order 0 < 1 < ⊥), whose re-evaluation through
    ``output_probability`` is the reported leakage.  With ``per_side`` the
    report also carries the leakages of the mechanism restricted to [1, p]
    and [p, n], each audited again from scratch.
    """
    weights = _weights(mechanism)
    feasible = _feasible_symbols(mechanism)
    p = mechanism.p
    left_positions = list(range(p - 1, 0, -1))
    right_positions = list(range(p + 1, model.n + 1))
    left = _chain_output_probs(model, weights, feasible, left_positions)
    right = _chain_output_probs(model, weights, feasible, right_positions)
    emit_p = weights[p - 1][feasible[p - 1], :].T  # (2, symbols at p)
    probs = (
        left[:, :, None, None] * emit_p[:, None, :, None] * right[:, None, None, :]
    ).reshape(2, -1)
    count = probs.shape[1]

    positive_0 = probs[0] > 0.0
    positive_1 = probs[1] > 0.0
    one_sided = positive_0 ^ positive_1
    if one_sided.any():
        candidates = np.flatnonzero(one_sided)
    else:
        both = positive_0 & positive_1
        with np.errstate(divide="ignore"):
            gaps = np.abs(np.log(probs[0, both]) - np.log(probs[1, both]))
        supported_indices = np.flatnonzero(both)
        candidates = supported_indices[gaps == gaps.max()]
    witness_codes = _lexicographic_min(
        _decode_outputs(candidates, feasible, left_positions, right_positions, p, model.n)
    )
    witness = "".join(_SYMBOLS[code] for code in witness_codes)

    log_0 = output_probability(model, mechanism, witness, 0)
    log_1 = output_probability(model, mechanism, witness, 1)
    leakage = math.inf if math.isinf(log_0) or math.isinf(log_1) else abs(log_0 - log_1)

    sides = None
    if per_side:
        left_model = MarkovModel(n=p, alpha=model.alpha, beta=model.beta)
        right_model = MarkovModel(n=model.n - p + 1, alpha=model.alpha, beta=model.beta)
        sides = (
            enumerated_leakage(left_model, mechanism.restrict(1, p, p), False).leakage,
            enumerated_leakage(right_model, mechanism.restrict(p, model.n, p), False).leakage,
        )
    return LeakageReport(
        leakage=leakage, witness=witness, outputs_enumerated=count, per_side=sides
    )


# ------------------------------------------------ influence lower bounds


def leakage_lower_bound_check(model, mechanism, released, slack: float = 1e-9) -> bool:
    """Check the influence lower bounds on the audited leakage.

    For any local redaction mechanism, every releasable joint realization
    of ``released`` lower-bounds the leakage by its pointwise set
    influence; when the mechanism is data-independent on ``released``
    (r_t(0) = r_t(1) < 1 there), the max influence of the whole set is a
    lower bound too.  Returns True when the exact audit respects both
    bounds within ``slack``.
    """
    indices = sorted(set(released))
    table = mechanism.redact_prob
    for t in indices:
        if not (1 <= t <= mechanism.n):
            raise ValueError(f"released index {t} outside [1, {mechanism.n}]")
        if t == mechanism.p:
            raise ValueError("the private record can never be released")
        if table[t - 1].min() >= 1.0:
            raise ValueError(f"record {t} is always redacted, never released")
    if len(indices) > SET_ENUMERATION_CAP:
        raise EnumerationCapError(
            f"lower-bound check over {len(indices)} records needs "
            f"2^{len(indices)} realizations; the cap is {SET_ENUMERATION_CAP}"
        )
    exact = exact_leakage(model, mechanism).leakage
    if not indices:
        return exact + slack >= 0.0
    bits, influence = _set_influence_rows(model, mechanism.p, indices)
    releasable = np.ones(bits.shape[0], dtype=bool)
    for j, t in enumerate(indices):
        allowed = [x for x in (0, 1) if table[t - 1, x] < 1.0]
        releasable &= np.isin(bits[:, j], allowed)
    pointwise_bound = float(influence[releasable].max())
    if exact + slack < pointwise_bound:
        return False
    data_independent = all(
        table[t - 1, 0] == table[t - 1, 1] and table[t - 1, 0] < 1.0 for t in indices
    )
    if data_independent and exact + slack < float(influence.max()):
        return False
    return True
