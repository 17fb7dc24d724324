"""Independent brute-force oracles the tests check the package against.

Everything here recomputes quantities from first principles (explicit
matrix powers, full joint tables over 2^n realizations, output sums over
3^n strings) without touching the package's closed forms or its
first-release audit, so agreement is meaningful.  ``enumerated_leakage``
is a second, vectorised audit oracle that exhausts all 3^n outputs (practical
up to n of about 13); it re-evaluates its witness through the package's
``output_probability``, which the joint-table oracle checks in turn.
``set_influence_rows`` enumerates the set influence of every joint
realization of a record set, and ``leakage_lower_bound_check`` tests the
audit against those influence lower bounds.  ``side_chain`` cuts a
mechanism to one side of p, and ``linear_scan_design`` is the numerical 3R
search as a plain upward scan of the grid, scoring each candidate by the
full audit of that restricted side chain: the reference for the package's
bisection and its side pass; it writes its tables from whole index sets
with ``_assemble_table``, not from the package's per-side pass.
``mirrored`` reverses a mechanism's chain for the symmetry checks.
``reference_mq_lower_bound`` derives the Markov-quilt lower bound without
``dim_upper_bound``.  ``reference_regions`` classifies every record with
its own two closed-form calls, and ``loop_states``, ``loop_sample_path``
and ``loop_monte_carlo`` step the chain one record at a time: the
per-record references for the package's zero-tail regions and its
bit-packed sampler.
"""

import math
from itertools import product

import numpy as np

from markov_redaction import (
    LeakageReport,
    MarkovModel,
    RedactionMechanism,
    delta_star,
    exact_leakage,
    influence_high,
    influence_low,
    multi_step,
    output_probability,
    stationary_marginal,
)
from markov_redaction.mechanisms import _check_budget, build_3r_relaxation

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


# ------------------------------------------------ side chains


def released_indices(mechanism) -> frozenset[int]:
    """Indices with any chance of release: min_x r_t(x) < 1."""
    table = mechanism.redact_prob
    return frozenset(t for t in range(1, mechanism.n + 1) if table[t - 1].min() < 1.0)


def restrict(mechanism, lo: int, hi: int, p: int) -> RedactionMechanism:
    """Sub-mechanism on the index window [lo, hi], re-indexed from 1."""
    if not (1 <= lo <= p <= hi <= mechanism.n):
        raise ValueError("window must satisfy 1 <= lo <= p <= hi <= n")
    return RedactionMechanism(
        n=hi - lo + 1,
        p=p - lo + 1,
        redact_prob=mechanism.redact_prob[lo - 1 : hi],
        enforce_private_redaction=False,
    )


def mirrored(mechanism) -> RedactionMechanism:
    """The same mechanism on the index-reversed chain (t -> n + 1 - t)."""
    return RedactionMechanism(
        n=mechanism.n,
        p=mechanism.n + 1 - mechanism.p,
        redact_prob=mechanism.redact_prob[::-1],
        enforce_private_redaction=False,
    )


def side_chain(model, mechanism, side: int) -> tuple[MarkovModel, RedactionMechanism]:
    """(model, mechanism) of the chain cut to [1, p] (side -1) or [p, n] (side +1)."""
    p = mechanism.p
    lo, hi = (1, p) if side == -1 else (p, model.n)
    return MarkovModel(hi - lo + 1, model.alpha, model.beta), restrict(mechanism, lo, hi, p)


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
        sides = tuple(
            enumerated_leakage(*side_chain(model, mechanism, side), False).leakage
            for side in (-1, 1)
        )
    return LeakageReport(
        leakage=leakage, witness=witness, outputs_enumerated=count, per_side=sides
    )


# ------------------------------------------------ influence lower bounds

#: Largest record set that set_influence_rows will enumerate (2^cap realizations).
SET_ENUMERATION_CAP = 20


def set_influence_rows(model, p: int, indices: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """Pointwise set influence of every joint realization of ``indices``.

    Returns ``(bits, influence)`` where ``bits`` has shape ``(2^k, k)`` with
    column j holding the value assigned to ``indices[j]`` (indices sorted
    ascending), and ``influence[r]`` is ``|log ratio|`` of row r's realization.

    The joint conditional ``Pr[X_S = x_S | X_p = x]`` is a product of
    multi-step transition factors walked outward from p on each side
    (backward steps reuse the forward matrix by stationarity), every factor
    kept, so the cost is ``O(2^k * k)`` rather than requiring the full joint
    table.  Sets larger than ``SET_ENUMERATION_CAP`` raise ValueError.
    """
    k = len(indices)
    if k > SET_ENUMERATION_CAP:
        raise ValueError(
            f"{k} records need 2^{k} realizations; the cap is {SET_ENUMERATION_CAP}"
        )
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
            log_step = np.log(multi_step(model, abs(t - previous)))
            values = bits[:, column[t]]
            if prev_values is None:
                log_joint[0] += log_step[0, values]
                log_joint[1] += log_step[1, values]
            else:
                log_joint += log_step[prev_values, values][None, :]
            previous, prev_values = t, values
    return bits, np.abs(log_joint[0] - log_joint[1])


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
    exact = exact_leakage(model, mechanism).leakage
    if not indices:
        return exact + slack >= 0.0
    bits, influence = set_influence_rows(model, mechanism.p, indices)
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


def reference_mq_lower_bound(model, p, eps) -> float:
    """The MQ window's utility lower bound, derived without ``dim_upper_bound``.

    Zero below the farthest record's max influence; otherwise
    1 - R1/n - 1/n, or 1 - min(R1, R2)/n - 2/n when the budget covers the
    influences of both chain ends, with p mirrored into the left half,
    R1 = delta*(eps) + p - 1 and R2 = 2 delta*(eps/2) - 1.
    """
    n = model.n
    p = min(p, n + 1 - p)
    if eps < influence_high(model, n - p):
        return 0.0
    r1 = delta_star(model, eps) + p - 1
    if eps >= influence_high(model, p - 1) + influence_high(model, n - p):
        r2 = 2 * delta_star(model, eps / 2.0) - 1
        return 1.0 - min(r1, r2) / n - 2.0 / n
    return 1.0 - r1 / n - 1.0 / n


def _assemble_table(model, p, regions, q) -> RedactionMechanism:
    """The 3R table written from whole index sets: large redacts, medium takes q."""
    table = np.zeros((model.n, 2))
    table[[t - 1 for t in regions.large]] = 1.0
    medium = sorted(regions.medium)
    table[[t - 1 for t in medium], 0] = [q[t] for t in medium]
    table[[t - 1 for t in medium], 1] = 1.0
    return RedactionMechanism(n=model.n, p=p, redact_prob=table)


def linear_scan_design(model, p, eps, grid_steps):
    """(q map, mechanism) of the numerical 3R design found by a linear scan.

    Per side, audits q = i / grid_steps for i = 0, 1, ..., grid_steps - 1
    and keeps the first value whose restricted-chain leakage is at most the
    side budget, compared exactly, or 1.0 when none is; then takes the
    relaxation's q instead when it is smaller and also fits.  The default
    budget split is the package's.  Each candidate is scored by the full
    ``exact_leakage`` of the side chain cut from the whole table, not by
    the package's side pass.
    """
    eps_left, eps_right = _check_budget(model, p, eps, None)
    relax_design, _ = build_3r_relaxation(model, p, eps)
    regions = relax_design.regions

    def fits(side, eps_side, q_side):
        q = {t: 1.0 for t in regions.medium}
        q.update((t, q_side) for t in regions.medium_by_distance(side))
        full = _assemble_table(model, p, regions, q)
        leak = exact_leakage(*side_chain(model, full, side)).leakage
        return leak <= eps_side

    side_q = {}
    for side, eps_side in ((-1, eps_left), (1, eps_right)):
        medium = regions.medium_by_distance(side)
        if not medium:
            continue
        grid = (i / grid_steps for i in range(grid_steps))
        found = next((q_side for q_side in grid if fits(side, eps_side, q_side)), 1.0)
        q_relax = relax_design.q[medium[0]]
        if q_relax < found and fits(side, eps_side, q_relax):
            found = q_relax
        side_q[side] = found
    q = {t: side_q[-1 if t < p else 1] for t in regions.medium}
    return q, _assemble_table(model, p, regions, q)


def reference_regions(model, p, eps_left, eps_right):
    """(small, medium, large) from one closed-form pair per record.

    The per-record loop the package's ``compute_regions`` replaced: every
    index t != p is compared against its side budget with its own
    ``influence_low`` and ``influence_high`` calls.
    """
    small, medium, large = set(), set(), {p}
    for t in range(1, model.n + 1):
        if t == p:
            continue
        budget = eps_left if t < p else eps_right
        low = influence_low(model, abs(p - t))
        high = influence_high(model, abs(p - t))
        if low > budget:
            large.add(t)
        elif high > budget:
            medium.add(t)
        else:
            small.add(t)
    return frozenset(small), frozenset(medium), frozenset(large)


def loop_states(model, uniforms):
    """Chain states stepped record by record through P from the given uniforms."""
    _, pi1 = stationary_marginal(model)
    states = np.empty(uniforms.shape, dtype=np.int8)
    states[..., 0] = uniforms[..., 0] < pi1
    for t in range(1, model.n):
        states[..., t] = np.where(
            states[..., t - 1] == 0, uniforms[..., t] < model.alpha, uniforms[..., t] >= model.beta
        )
    return states


def loop_sample_path(model, seed: int) -> np.ndarray:
    """The states ``chain_states`` must return on the first n uniforms of
    ``default_rng(seed)``, from a loop over records."""
    return loop_states(model, np.random.default_rng(seed).random(model.n))


def loop_monte_carlo(model, mechanism, trials: int, seed: int) -> tuple[float, float]:
    """(estimate, standard error) ``monte_carlo_utility`` must return, from a loop over records.

    Same streams as the package, each drawn as one array: the paths as
    (trials, n), the coins as (trials, k) for the k rows with an entry
    strictly between 0 and 1, in record order.  Any other row redacts its
    record exactly when the state's entry is 1.
    """
    path_stream, redact_stream = [
        np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(2)
    ]
    n = model.n
    table = mechanism.redact_prob
    states = loop_states(model, path_stream.random((trials, n)))
    entries = table[np.arange(n)[None, :], states]
    random_rows = [t for t in range(n) if any(0.0 < r < 1.0 for r in table[t])]
    redacted = entries == 1.0
    if random_rows:
        coins = redact_stream.random((trials, len(random_rows)))
        redacted[:, random_rows] = coins < entries[:, random_rows]
    per_path = 1.0 - redacted.mean(axis=1)
    standard_error = float(per_path.std(ddof=1) / math.sqrt(trials)) if trials > 1 else math.nan
    return float(per_path.mean()), standard_error
