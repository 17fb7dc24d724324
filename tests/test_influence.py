import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from markov_redaction import (
    MarkovModel,
    compute_regions,
    delta_star,
    influence_high,
    influence_low,
    max_influence_set,
    pointwise_influence,
    pointwise_set_influence,
)
from markov_redaction.influence import _influence_prefix

from oracles import (
    MODEL_GRID,
    reference_regions,
    brute_max_influence,
    brute_pointwise_set_influence,
    matrix_power_ratios,
    set_influence_rows,
)


@pytest.mark.parametrize("alpha,beta", MODEL_GRID)
def test_closed_forms_match_matrix_power(alpha, beta):
    model = MarkovModel(2, alpha, beta)
    for delta in range(1, 21):
        low, high = matrix_power_ratios(model, delta)
        assert influence_low(model, delta) == pytest.approx(low, abs=1e-10)
        assert influence_high(model, delta) == pytest.approx(high, abs=1e-10)


def test_worked_example_values():
    model = MarkovModel(2, 0.25, 0.5)
    assert influence_low(model, 1) == pytest.approx(math.log(1.5), abs=1e-12)
    assert influence_high(model, 1) == pytest.approx(math.log(2.0), abs=1e-12)


def test_derived_values_frozen_from_matrix_oracle():
    model = MarkovModel(4, 0.01, 0.8)
    # frozen from matrix_power_ratios; the spec quotes i_low(2) as 0.037222
    # but the two-step matrix ratio evaluates to 0.0372189
    assert influence_low(model, 2) == pytest.approx(0.037218872409551886, abs=1e-12)
    assert influence_high(model, 3) == pytest.approx(0.4443114143730049, abs=1e-12)
    low2, _ = matrix_power_ratios(model, 2)
    assert low2 == pytest.approx(0.037218872409551886, abs=1e-12)


def test_independent_records_have_zero_influence():
    model = MarkovModel(4, 0.3, 0.7)
    for delta in range(1, 10):
        assert influence_low(model, delta) == 0.0
        assert influence_high(model, delta) == 0.0


def test_distance_zero_is_infinite():
    model = MarkovModel(4, 0.25, 0.5)
    assert influence_low(model, 0) == math.inf
    assert influence_high(model, 0) == math.inf
    for form in (influence_low, influence_high):
        with pytest.raises(ValueError, match="nonnegative"):
            form(model, -1)
    assert pointwise_influence(model, 2, 2, 0) == math.inf
    assert pointwise_influence(model, 2, 2, 1) == math.inf


def test_pointwise_influence_maps_to_closed_forms():
    model = MarkovModel(3, 0.25, 0.5)
    assert pointwise_influence(model, 1, 2, 1) == pytest.approx(math.log(2.0), abs=1e-12)
    # backward two-step ratio: matrix square gives 0.6875 / 0.625 = 1.1
    low2, _ = matrix_power_ratios(model, 2)
    assert low2 == pytest.approx(math.log(1.1), abs=1e-12)
    assert pointwise_influence(model, 3, 1, 0) == pytest.approx(low2, abs=1e-12)
    with pytest.raises(ValueError):
        pointwise_influence(model, 0, 1, 0)
    with pytest.raises(ValueError):
        pointwise_influence(model, 1, 4, 0)
    with pytest.raises(ValueError):
        pointwise_influence(model, 1, 2, 2)


@pytest.mark.parametrize("alpha,beta", MODEL_GRID)
def test_ordering_low_below_high(alpha, beta):
    model = MarkovModel(2, alpha, beta)
    for delta in range(1, 21):
        assert influence_low(model, delta) <= influence_high(model, delta) + 1e-15


@pytest.mark.parametrize("alpha,beta", MODEL_GRID)
def test_strict_monotone_decrease(alpha, beta):
    if alpha + beta == 1.0:
        return  # identically zero
    model = MarkovModel(2, alpha, beta)
    for fn in (influence_low, influence_high):
        values = [fn(model, delta) for delta in range(1, 21)]
        assert all(b < a for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("alpha,beta", MODEL_GRID)
def test_convex_second_differences(alpha, beta):
    model = MarkovModel(2, alpha, beta)
    for fn in (influence_low, influence_high):
        values = [fn(model, delta) for delta in range(1, 21)]
        seconds = [a - 2 * b + c for a, b, c in zip(values, values[1:], values[2:])]
        assert all(s >= -1e-10 for s in seconds)


def test_max_influence_set_basics():
    model = MarkovModel(3, 0.25, 0.5)
    assert max_influence_set(model, 1, set()) == 0.0
    assert max_influence_set(model, 1, {2}) == pytest.approx(math.log(2.0), abs=1e-12)
    # even span around p: influences of the two sides add
    assert max_influence_set(model, 2, {1, 3}) == pytest.approx(
        2 * influence_high(model, 1), abs=1e-10
    )


def test_max_influence_set_against_joint_enumeration():
    model = MarkovModel(6, 0.25, 0.5)
    for p, indices in [(1, {2}), (2, {1, 3}), (4, {1, 2, 6}), (3, {1, 5, 6}), (2, {4, 5, 6})]:
        assert max_influence_set(model, p, indices) == pytest.approx(
            brute_max_influence(model, p, indices), abs=1e-10
        )


def test_pointwise_set_influence_against_joint_enumeration():
    model = MarkovModel(5, 0.1, 0.5)
    cases = [
        (2, {1: 0, 3: 1}),
        (3, {1: 1, 2: 0, 5: 1}),
        (1, {4: 0}),
        (5, {1: 0, 2: 1, 3: 0, 4: 1}),
    ]
    for p, realization in cases:
        assert pointwise_set_influence(model, p, realization) == pytest.approx(
            brute_pointwise_set_influence(model, p, realization), abs=1e-10
        )
    assert pointwise_set_influence(model, 2, {}) == 0.0


@pytest.mark.parametrize("alpha,beta", MODEL_GRID)
def test_set_influence_against_enumerated_rows(alpha, beta):
    # random sets, every factor of the joint kept; 20 indices in the guards test
    rng = np.random.default_rng(17)
    for k in [*range(1, 13), 16]:
        n = int(rng.integers(k + 1, 41))
        p = int(rng.integers(1, n + 1))
        others = [t for t in range(1, n + 1) if t != p]
        indices = sorted(int(t) for t in rng.choice(others, size=k, replace=False))
        model = MarkovModel(n, alpha, beta)
        bits, influence = set_influence_rows(model, p, indices)
        assert max_influence_set(model, p, indices) == pytest.approx(
            float(influence.max()), abs=1e-13
        )
        for row in rng.integers(0, bits.shape[0], size=4):
            realization = dict(zip(indices, (int(x) for x in bits[row])))
            assert pointwise_set_influence(model, p, realization) == pytest.approx(
                float(influence[row]), abs=1e-13
            )


def test_max_influence_set_guards():
    model = MarkovModel(30, 0.25, 0.5)
    with pytest.raises(ValueError, match="private index"):
        max_influence_set(model, 3, {3, 4})
    with pytest.raises(ValueError, match="set index"):
        max_influence_set(model, 3, {4, 31})
    with pytest.raises(ValueError, match="0 or 1"):
        pointwise_set_influence(model, 3, {4: 2})
    # 20 indices, the enumeration oracle's largest set
    indices = [1, *range(7, 26)]
    _, influence = set_influence_rows(model, 3, indices)
    assert max_influence_set(model, 3, indices) == pytest.approx(float(influence.max()), abs=1e-13)
    # a 10^5-index set: only the nearest index on each side of p counts, and
    # the influence depends on distances alone, so a 3-record joint table
    # (p = 2 between indices 1 and 3) is the reference
    big = MarkovModel(200_001, 0.01, 0.8)
    p = 100_000
    indices = range(1, big.n + 1, 2)
    assert len(indices) > 10**5
    small = MarkovModel(3, 0.01, 0.8)
    assert max_influence_set(big, p, indices) == max_influence_set(big, p, {p - 1, p + 1})
    assert max_influence_set(big, p, indices) == pytest.approx(
        brute_max_influence(small, 2, {1, 3}), abs=1e-13
    )
    realization = {t: t % 4 // 2 for t in indices}
    assert pointwise_set_influence(big, p, realization) == pytest.approx(
        brute_pointwise_set_influence(small, 2, {1: realization[p - 1], 3: realization[p + 1]}),
        abs=1e-13,
    )


@pytest.mark.parametrize("alpha,beta", MODEL_GRID)
def test_remark_composition_even_and_odd_spans(alpha, beta):
    model = MarkovModel(12, alpha, beta)
    for p, left, right in [(3, 1, 5), (4, 2, 6), (5, 1, 9), (6, 2, 8)]:
        value = max_influence_set(model, p, {left, right})
        expected = influence_high(model, p - left) + influence_high(model, right - p)
        if (right - left) % 2 == 0:
            assert value == pytest.approx(expected, abs=1e-10)
        else:
            assert value <= expected + 1e-10
    for p, left, right in [(3, 2, 6), (5, 2, 7)]:  # odd spans
        value = max_influence_set(model, p, {left, right})
        expected = influence_high(model, p - left) + influence_high(model, right - p)
        assert value <= expected + 1e-10


def test_delta_star_examples():
    assert delta_star(MarkovModel(2, 0.25, 0.5), 0.7) == 1
    model = MarkovModel(2, 0.01, 0.8)
    assert delta_star(model, 1.0) == 3
    assert delta_star(model, 0.5) == 3


def test_delta_star_properties():
    model = MarkovModel(2, 0.01, 0.8)
    previous = None
    for eps in (0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 4.0):
        star = delta_star(model, eps)
        assert influence_high(model, star) <= eps
        above = influence_high(model, star - 1) if star > 1 else math.inf
        assert above > eps
        if previous is not None:
            assert star <= previous
        previous = star
    # independent records: distance one suffices for any positive budget
    assert delta_star(MarkovModel(2, 0.3, 0.7), 1e-12) == 1


def test_delta_star_guards():
    model = MarkovModel(2, 0.01, 0.8)
    with pytest.raises(ValueError):
        delta_star(model, 0.0)
    with pytest.raises(ValueError):
        delta_star(model, -1.0)
    with pytest.raises(ValueError):
        delta_star(model, math.nan)
    assert delta_star(model, math.inf) == 1
    # far past the old 10^6 search limit: the doubling search has no cap
    slow = MarkovModel(2, 1e-9, 1e-9)
    for eps in (1.0, 1e-3):
        star = delta_star(slow, eps)
        assert star > 10**6
        assert influence_high(slow, star) <= eps < influence_high(slow, star - 1)


def test_alpha_plus_beta_below_float_resolution_is_a_value_error():
    # 1 - alpha - beta rounds to 1, so every closed form would divide by zero
    model = MarkovModel(3, 1e-17, 1e-17)
    for call in (
        lambda: influence_low(model, 1),
        lambda: influence_high(model, 2),
        lambda: max_influence_set(model, 1, {2, 3}),
        lambda: pointwise_set_influence(model, 2, {1: 0}),
        lambda: compute_regions(model, 1, 0.5, 0.5),
    ):
        with pytest.raises(ValueError, match="alpha \\+ beta = 2e-17"):
            call()


def test_compute_regions_one_sided_example():
    model = MarkovModel(10, 0.01, 0.8)
    regions = compute_regions(model, 1, 0.0, 1.0)
    assert regions.large == frozenset({1})
    assert regions.medium == frozenset({2, 3})
    assert regions.small == frozenset(range(4, 11))


def test_compute_regions_independence():
    model = MarkovModel(7, 0.3, 0.7)
    regions = compute_regions(model, 4, 0.5, 0.5)
    assert regions.large == frozenset({4})
    assert regions.medium == frozenset()
    assert regions.small == frozenset(range(1, 8)) - {4}


def test_compute_regions_two_record_example():
    regions = compute_regions(MarkovModel(2, 0.25, 0.5), 1, 0.0, 0.5)
    assert regions.large == frozenset({1})
    assert regions.medium == frozenset({2})
    assert regions.small == frozenset()


def test_compute_regions_partition_and_membership():
    model = MarkovModel(9, 0.1, 0.5)
    for p in (1, 3, 5):
        for eps_left, eps_right in [(0.0, 1.0), (0.5, 0.5), (0.2, 1.7)]:
            regions = compute_regions(model, p, eps_left, eps_right)
            union = regions.small | regions.medium | regions.large
            assert union == frozenset(range(1, 10))
            assert not (regions.small & regions.medium)
            assert not (regions.small & regions.large)
            assert not (regions.medium & regions.large)
            assert p in regions.large
            for t in range(1, 10):
                if t == p:
                    continue
                budget = eps_left if t < p else eps_right
                low = pointwise_influence(model, p, t, 0)
                high = pointwise_influence(model, p, t, 1)
                if low > budget:
                    assert t in regions.large
                elif high > budget:
                    assert t in regions.medium
                else:
                    assert t in regions.small


def test_compute_regions_rejects_negative_and_nan_budgets():
    model = MarkovModel(6, 0.25, 0.5)
    for budgets in [(-0.1, 1.0), (1.0, math.nan), (math.nan, math.nan)]:
        with pytest.raises(ValueError, match="nonnegative"):
            compute_regions(model, 3, *budgets)
    assert compute_regions(model, 3, math.inf, math.inf).large == frozenset({3})


def test_compute_regions_boundary_diagnostic():
    model = MarkovModel(6, 0.25, 0.5)
    exact_boundary = influence_high(model, 2)
    regions = compute_regions(model, 1, 0.0, exact_boundary)
    # an index exactly at the budget is small (comparison is exact <=)
    assert 3 in regions.small


def test_medium_by_distance_sides():
    model = MarkovModel(10, 0.01, 0.8)
    regions = compute_regions(model, 5, 1.0, 1.0)
    assert regions.medium_by_distance(1) == [6, 7]
    assert regions.medium_by_distance(-1) == [4, 3]
    with pytest.raises(ValueError):
        regions.medium_by_distance(0)


@settings(max_examples=60, deadline=None)
@given(
    alpha=st.floats(0.01, 0.98),
    spread=st.floats(0.0, 0.98),
    n=st.integers(1, 9),
    seed=st.integers(0, 2**16),
    eps_left=st.floats(0.0, 3.0),
    eps_right=st.floats(0.0, 3.0),
)
def test_regions_partition_hypothesis(alpha, spread, n, seed, eps_left, eps_right):
    beta = min(0.99, alpha + spread * (0.99 - alpha))
    model = MarkovModel(n, alpha, beta)
    p = seed % n + 1
    regions = compute_regions(model, p, eps_left, eps_right)
    union = regions.small | regions.medium | regions.large
    assert union == frozenset(range(1, n + 1))
    assert len(regions.small) + len(regions.medium) + len(regions.large) == n
    assert p in regions.large


#: Side budgets the closed forms' float values sit on: 0, one and two ulps
#: of 1 below 1e-15, a tiny budget, and ordinary budgets.
SPECIAL_BUDGETS = (0.0, 1.1102230246251565e-16, 2.220446049250313e-16, 4e-16, 1e-12, 0.5, 3.0)


@st.composite
def region_cases(draw):
    """(model, p, eps_left, eps_right) with log-uniform alpha and beta down to 1e-15."""
    alpha = 10.0 ** draw(st.floats(-15.0, math.log10(0.999)))
    beta = alpha + draw(st.floats(0.0, 1.0)) * (0.9999 - alpha)
    n = draw(st.integers(1, 2000))
    model = MarkovModel(n, alpha, beta)
    p = draw(st.integers(1, n))

    def budget():
        kind = draw(st.sampled_from(["special", "uniform", "on a form"]))
        if kind == "special":
            return draw(st.sampled_from(SPECIAL_BUDGETS))
        if kind == "uniform":
            return draw(st.floats(0.0, 5.0))
        form = draw(st.sampled_from([influence_low, influence_high]))
        return form(model, draw(st.integers(1, max(1, n - 1))))

    return model, p, budget(), budget()


def _assert_regions_match_the_record_loop(model, p, eps_left, eps_right):
    regions = compute_regions(model, p, eps_left, eps_right)
    small, medium, large = reference_regions(model, p, eps_left, eps_right)
    assert regions.medium == medium
    assert regions.large == large
    assert regions.small == small


@settings(max_examples=150, deadline=None)
@given(case=region_cases())
@example(case=(MarkovModel(300, 0.8, 0.9), 120, 1.1102230246251565e-16, 1.1102230246251565e-16))
@example(case=(MarkovModel(300, 0.8, 0.9), 120, 2.220446049250313e-16, 0.0))
@example(case=(MarkovModel(300, 0.8695656882018187, 0.9934615290459773), 1, 0.0, 4e-16))
@example(case=(MarkovModel(2000, 0.999, 0.9999), 700, 1e-12, 0.5))  # s near -1
@example(case=(MarkovModel(2000, 5e-16, 5e-16), 1000, 3.0, 40.0))  # alpha + beta = 1e-15
@example(case=(MarkovModel(2000, 0.05, 0.6), 400, 0.0, 0.0))
@example(case=(MarkovModel(1200, 0.05, 0.6), 400, 0.2, 0.8))
def test_regions_equal_the_record_loop(case):
    _assert_regions_match_the_record_loop(*case)


def test_regions_on_budgets_equal_to_an_influence_value():
    model = MarkovModel(60, 0.1, 0.5)
    for delta in (1, 5, 20):
        for form in (influence_low, influence_high):
            budget = form(model, delta)
            _assert_regions_match_the_record_loop(model, 30, budget, budget)


def test_zero_tail_is_exact_where_the_forms_are_not_monotone():
    model = MarkovModel(300, 0.8, 0.9)
    # the float values rise by an ulp from distance 103 to 104
    assert influence_high(model, 104) > influence_high(model, 103) > 0.0
    lows, highs = _influence_prefix(model, 299)
    assert highs[102:104] == [influence_high(model, 103), influence_high(model, 104)]
    tail = range(len(highs) + 1, 300)
    assert len(tail) > 0
    assert all(influence_low(model, d) == influence_high(model, d) == 0.0 for d in tail)
