import math
import tracemalloc

import numpy as np
import pytest

from markov_redaction import (
    MarkovModel,
    RedactionMechanism,
    build_3r_relaxation,
    build_mq,
    exact_utility,
    monte_carlo_utility,
    stationary_marginal,
)

from oracles import loop_monte_carlo

EXAMPLE_MODEL = MarkovModel(2, 0.25, 0.5)
EXAMPLE_MECH = RedactionMechanism(n=2, p=1, redact_prob=[[1.0, 1.0], [0.125, 1.0]])


def test_worked_example_utility():
    report = exact_utility(EXAMPLE_MODEL, EXAMPLE_MECH)
    assert report.exact == pytest.approx(7 / 24, abs=1e-12)
    assert report.per_record[0] == 0.0
    assert report.per_record[1] == pytest.approx((2 / 3) * (1 - 0.125), abs=1e-15)


def test_boundary_mechanisms():
    model = MarkovModel(5, 0.1, 0.5)
    full = RedactionMechanism(n=5, p=2, redact_prob=np.ones((5, 2)))
    assert exact_utility(model, full).exact == 0.0
    open_table = np.zeros((5, 2))
    open_table[1] = 1.0
    released = RedactionMechanism(n=5, p=2, redact_prob=open_table)
    assert exact_utility(model, released).exact == pytest.approx(4 / 5, abs=1e-15)


def test_mq_window_utility():
    model = MarkovModel(10, 0.01, 0.8)
    _, mech = build_mq(model, 1, 1.0)
    assert exact_utility(model, mech).exact == pytest.approx(0.6, abs=1e-15)


def test_per_record_structure_of_three_region_tables():
    model = MarkovModel(10, 0.01, 0.8)
    design, mech = build_3r_relaxation(model, 1, 1.0)
    report = exact_utility(model, mech)
    pi0, _ = stationary_marginal(model)
    for t in range(1, 11):
        value = report.per_record[t - 1]
        if t in design.regions.small:
            assert value == 1.0
        elif t in design.regions.medium:
            assert value == pytest.approx(pi0 * (1 - design.q[t]), abs=1e-15)
        else:
            assert value == 0.0
    assert report.exact == pytest.approx(report.per_record.mean(), abs=1e-15)


def test_utility_monotone_in_redaction_probabilities():
    model = MarkovModel(6, 0.1, 0.5)
    rng = np.random.default_rng(2)
    table = rng.random((6, 2))
    table[2] = 1.0
    base = exact_utility(model, RedactionMechanism(n=6, p=3, redact_prob=table)).exact
    for t in range(6):
        for x in (0, 1):
            bumped = np.array(table)
            bumped[t, x] = min(1.0, bumped[t, x] + 0.25)
            value = exact_utility(
                model, RedactionMechanism(n=6, p=3, redact_prob=bumped)
            ).exact
            assert value <= base + 1e-15


def test_monte_carlo_reproducible_and_consistent():
    model = MarkovModel(10, 0.01, 0.8)
    _, mech = build_3r_relaxation(model, 1, 1.0)
    first = monte_carlo_utility(model, mech, trials=20_000, seed=42)
    second = monte_carlo_utility(model, mech, trials=20_000, seed=42)
    assert first.monte_carlo == second.monte_carlo
    assert first.monte_carlo.trials == 20_000
    assert first.monte_carlo.seed == 42
    other = monte_carlo_utility(model, mech, trials=20_000, seed=43)
    assert other.monte_carlo.estimate != first.monte_carlo.estimate


def test_monte_carlo_four_sigma_agreement():
    cases = []
    model10 = MarkovModel(10, 0.01, 0.8)
    cases.append((model10, build_3r_relaxation(model10, 1, 1.0)[1]))
    cases.append((model10, build_mq(model10, 3, 0.5)[1]))
    model6 = MarkovModel(6, 0.25, 0.5)
    cases.append((model6, build_3r_relaxation(model6, 3, 0.7)[1]))
    for seed, (model, mech) in enumerate(cases):
        report = monte_carlo_utility(model, mech, trials=100_000, seed=seed)
        mc = report.monte_carlo
        # the 1e-12 floor covers deterministic mechanisms, where the standard
        # error is zero and only float accumulation noise remains
        assert abs(mc.estimate - report.exact) <= 4 * mc.standard_error + 1e-12


@pytest.mark.parametrize(
    "n,alpha,beta,p,trials",
    [
        (1, 0.25, 0.5, 1, 1),
        (1, 0.25, 0.5, 1, 3),
        (2, 0.25, 0.5, 1, 1000),
        (2, 0.25, 0.5, 2, 1000),
        (4, 0.1, 0.5, 2, 65_537),  # past the old 2^16-trial block edge, in five 16,384-row chunks
        (6, 0.3, 0.3, 1, 5000),  # alpha = beta
        (6, 0.3, 0.3, 6, 5000),
        (50, 0.9, 0.95, 50, 300),
        (2000, 0.05, 0.6, 1000, 40),
        (1000, 0.05, 0.6, 500, 70),  # crosses the edge of a 65-row chunk
        (70_000, 0.05, 0.6, 35_000, 3),  # each chunk is one row
    ],
)
def test_monte_carlo_equals_the_record_loop(n, alpha, beta, p, trials):
    model = MarkovModel(n, alpha, beta)
    table = np.random.default_rng(n + trials).random((n, 2))
    table[p - 1] = 1.0
    mech = RedactionMechanism(n=n, p=p, redact_prob=table)
    for seed in (0, 9):
        mc = monte_carlo_utility(model, mech, trials=trials, seed=seed).monte_carlo
        estimate, standard_error = loop_monte_carlo(model, mech, trials, seed)
        assert mc.estimate == estimate
        if trials == 1:
            assert math.isnan(mc.standard_error) and math.isnan(standard_error)
        else:
            assert mc.standard_error == standard_error


@pytest.mark.parametrize("n", [7, 8, 9, 15, 16, 17, 63, 64, 65, 2**16 + 1])
@pytest.mark.parametrize(
    "alpha,beta,entries",
    [
        (0.05, 0.6, "r0 > r1"),
        (0.3, 0.3, "0/1"),  # alpha = beta: the entry state crosses every byte
        (0.7, 0.9, "r0 > r1"),  # alpha + beta > 1
        (1e-9, 0.5, "0/1"),
    ],
)
def test_monte_carlo_equals_the_record_loop_at_byte_edges(n, alpha, beta, entries):
    """Chains whose ends fall on, before and after a byte edge, on tables
    that redact 0 more often than 1 or hold only 0, 1 and 0.5."""
    model = MarkovModel(n, alpha, beta)
    rng = np.random.default_rng(n)
    if entries == "0/1":
        table = rng.choice([0.0, 1.0, 0.5], size=(n, 2))
    else:
        table = -np.sort(-rng.random((n, 2)), axis=1)  # r_t(0) >= r_t(1)
    p = (n + 1) // 2
    table[p - 1] = 1.0
    mech = RedactionMechanism(n=n, p=p, redact_prob=table)
    trials = max(2, 20_000 // n)
    mc = monte_carlo_utility(model, mech, trials=trials, seed=5).monte_carlo
    assert (mc.estimate, mc.standard_error) == loop_monte_carlo(model, mech, trials, 5)


def test_monte_carlo_full_redaction_exact_zero():
    model = MarkovModel(4, 0.25, 0.5)
    mech = RedactionMechanism(n=4, p=1, redact_prob=np.ones((4, 2)))
    report = monte_carlo_utility(model, mech, trials=1000, seed=0)
    assert report.monte_carlo.estimate == 0.0
    assert report.monte_carlo.standard_error == 0.0


def test_monte_carlo_example_mechanism_large_sample():
    report = monte_carlo_utility(EXAMPLE_MODEL, EXAMPLE_MECH, trials=1_000_000, seed=7)
    assert abs(report.monte_carlo.estimate - 7 / 24) < 0.002


def test_input_validation():
    with pytest.raises(ValueError, match="rows"):
        exact_utility(MarkovModel(3, 0.25, 0.5), EXAMPLE_MECH)
    for trials in (0, -3, True, 2.5, "10"):
        with pytest.raises(ValueError, match="trials"):
            monte_carlo_utility(EXAMPLE_MODEL, EXAMPLE_MECH, trials=trials, seed=0)
    for seed in (-1, True, False, 1.0, None):
        with pytest.raises(ValueError, match="seed"):
            monte_carlo_utility(EXAMPLE_MODEL, EXAMPLE_MECH, trials=10, seed=seed)
    report = monte_carlo_utility(EXAMPLE_MODEL, EXAMPLE_MECH, trials=np.int64(10), seed=np.uint8(3))
    assert report.monte_carlo == monte_carlo_utility(EXAMPLE_MODEL, EXAMPLE_MECH, 10, 3).monte_carlo


@pytest.mark.parametrize("n,trials,limit_mb", [(1_000, 1_000, 4), (100_000, 10, 8)])
def test_monte_carlo_memory_stays_in_chunks(n, trials, limit_mb):
    """The sampler's traced peak stays near one chunk's arrays, not the whole (trials, n) draw."""
    model = MarkovModel(n, 0.05, 0.6)
    _, window = build_mq(model, n // 2, 1.0)
    tracemalloc.start()
    try:
        monte_carlo_utility(model, window, trials=trials, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= limit_mb * 1e6
