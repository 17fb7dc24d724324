import math

import numpy as np
import pytest

from markov_redaction import (
    MarkovModel,
    RedactionMechanism,
    ThreeRDesign,
    build_3r_numerical,
    build_3r_relaxation,
    build_mq,
    compute_regions,
    dim_upper_bound,
    exact_leakage,
    exact_utility,
    influence_high,
    influence_low,
    mq_utility_bounds,
    three_r_utility,
)

FIG_MODEL = MarkovModel(10, 0.01, 0.8)


def test_mechanism_validation():
    with pytest.raises(ValueError, match="shape"):
        RedactionMechanism(n=3, p=1, redact_prob=np.ones((2, 2)))
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        RedactionMechanism(n=2, p=1, redact_prob=[[1.0, 1.0], [1.2, 0.0]])
    with pytest.raises(ValueError, match="private record"):
        RedactionMechanism(n=2, p=1, redact_prob=[[0.5, 1.0], [0.0, 0.0]])
    # explicit opt-out admits broken tables for auditing
    broken = RedactionMechanism(
        n=2, p=1, redact_prob=[[0.0, 0.0], [0.0, 0.0]], enforce_private_redaction=False
    )
    assert broken.released_indices == frozenset({1, 2})
    with pytest.raises(ValueError, match="private index"):
        RedactionMechanism(n=2, p=3, redact_prob=np.ones((2, 2)))


def test_mechanism_released_indices_and_views():
    _, mech = build_mq(FIG_MODEL, 1, 1.0)
    assert mech.released_indices == frozenset(range(5, 11))
    mirrored = mech.mirrored()
    assert mirrored.p == 10
    assert np.array_equal(mirrored.redact_prob, mech.redact_prob[::-1])
    sub = mech.restrict(1, 4, 1)
    assert sub.n == 4 and sub.p == 1
    assert (sub.redact_prob == 1.0).all()


def test_relaxation_reproduces_published_profile():
    design, mech = build_3r_relaxation(FIG_MODEL, 1, 1.0)
    assert set(design.q) == {2, 3}
    assert design.q[2] == design.q[3]
    assert design.q[2] == pytest.approx(0.757414764826369, abs=1e-5)
    assert (design.eps_left, design.eps_right) == (0.0, 1.0)
    # table shape: redact p, randomize medium zeros, release small
    assert (mech.redact_prob[0] == 1.0).all()
    assert mech.redact_prob[1, 0] == design.q[2] and mech.redact_prob[1, 1] == 1.0
    assert (mech.redact_prob[3:] == 0.0).all()
    assert exact_leakage(FIG_MODEL, mech).leakage <= 1.0 + 1e-9


def test_relaxation_relaxed_bound_saturates_budget():
    design, mech = build_3r_relaxation(FIG_MODEL, 1, 1.0)
    assert design.relaxed_leakage_bound == pytest.approx(1.0, abs=1e-9)
    leak = exact_leakage(FIG_MODEL, mech).leakage
    assert leak <= design.relaxed_leakage_bound + 1e-9


def test_relaxation_two_record_closed_form():
    model = MarkovModel(2, 0.25, 0.5)
    design, _ = build_3r_relaxation(model, 1, 0.5)
    # medium = {2}, its outward neighbour falls off the chain, so delta = 0
    assert design.q == {2: pytest.approx(math.exp(-0.5), abs=1e-12)}


def test_relaxation_independence_redacts_only_p():
    model = MarkovModel(6, 0.3, 0.7)
    design, mech = build_3r_relaxation(model, 3, 1.0)
    assert design.q == {}
    assert design.regions.medium == frozenset()
    expected = np.zeros((6, 2))
    expected[2] = 1.0
    assert np.array_equal(mech.redact_prob, expected)


def test_relaxation_budget_guards():
    with pytest.raises(ValueError, match="exceed"):
        build_3r_relaxation(FIG_MODEL, 1, 1.0, split=(0.6, 0.5))
    with pytest.raises(ValueError, match="positive"):
        build_3r_relaxation(FIG_MODEL, 1, 0.0)
    with pytest.raises(ValueError, match="nonnegative"):
        build_3r_relaxation(FIG_MODEL, 1, 1.0, split=(-0.1, 0.5))


def test_relaxation_q_always_in_unit_interval():
    for alpha, beta in [(0.01, 0.8), (0.1, 0.5), (0.25, 0.5)]:
        for n in (2, 5, 9):
            model = MarkovModel(n, alpha, beta)
            for p in range(1, n + 1):
                for eps in (0.25, 1.0, 4.0):
                    design, _ = build_3r_relaxation(model, p, eps)
                    for value in design.q.values():
                        assert 0.0 < value <= 1.0


def test_numerical_reproduces_published_profile():
    design, mech = build_3r_numerical(FIG_MODEL, 1, 1.0)
    assert design.q[2] == design.q[3] == pytest.approx(547 / 999, abs=1e-12)
    assert abs(design.q[2] - 0.547547547547548) <= 1 / 999
    assert exact_leakage(FIG_MODEL, mech).leakage <= 1.0 + 1e-9


def test_numerical_two_record_grid_minimum():
    design, _ = build_3r_numerical(MarkovModel(2, 0.25, 0.5), 1, 0.5)
    assert design.q == {2: pytest.approx(120 / 999, abs=1e-12)}


def test_numerical_weakly_improves_on_relaxation():
    for p, eps in [(1, 0.25), (1, 1.0), (3, 0.5), (5, 2.0)]:
        relax, _ = build_3r_relaxation(FIG_MODEL, p, eps)
        numerical, _ = build_3r_numerical(FIG_MODEL, p, eps)
        assert three_r_utility(numerical, FIG_MODEL) >= three_r_utility(relax, FIG_MODEL) - 1e-12


def test_numerical_huge_budget_releases_everything_but_p():
    model = MarkovModel(6, 0.25, 0.5)
    eps = 10 * influence_high(model, 1) * model.n
    design, mech = build_3r_numerical(model, 2, eps)
    assert design.regions.medium == frozenset()
    expected = np.zeros((6, 2))
    expected[1] = 1.0
    assert np.array_equal(mech.redact_prob, expected)
    assert exact_leakage(model, mech).leakage <= eps


def test_numerical_respects_custom_grid():
    design, _ = build_3r_numerical(MarkovModel(2, 0.25, 0.5), 1, 0.5, grid_steps=10)
    # exact feasibility threshold is ~0.11923, so a 10-step grid lands on 0.2
    assert design.q == {2: pytest.approx(0.2, abs=1e-12)}
    with pytest.raises(ValueError):
        build_3r_numerical(MarkovModel(2, 0.25, 0.5), 1, 0.5, grid_steps=0)


def test_mq_one_sided_window():
    plan, mech = build_mq(FIG_MODEL, 1, 1.0)
    assert plan.branch == "one_sided"
    assert (plan.delta_left, plan.delta_right) == (0, 3)
    assert plan.window == (1, 4)
    assert exact_utility(FIG_MODEL, mech).exact == pytest.approx(0.6, abs=1e-12)
    assert exact_leakage(FIG_MODEL, mech).leakage <= 1.0 + 1e-9


def test_mq_symmetric_window():
    plan, mech = build_mq(FIG_MODEL, 5, 2.0)
    assert plan.branch == "symmetric"
    assert plan.delta_left == plan.delta_right == 3
    assert plan.window == (2, 8)
    assert plan.threshold == 1.0
    assert exact_utility(FIG_MODEL, mech).exact == pytest.approx(0.3, abs=1e-12)


def test_mq_tiny_budget_redacts_everything():
    model = MarkovModel(8, 0.01, 0.8)
    eps = influence_high(model, model.n - 1) / 2
    plan, mech = build_mq(model, 1, eps)
    assert plan.window == (1, 8)
    assert exact_utility(model, mech).exact == 0.0


def test_mq_mirrors_right_half():
    for n, p in [(10, 8), (9, 7), (9, 5), (2, 2)]:
        model = MarkovModel(n, 0.01, 0.8)
        plan, mech = build_mq(model, p, 1.0)
        mirror_plan, mirror_mech = build_mq(model, n + 1 - p, 1.0)
        assert np.array_equal(mech.redact_prob, mirror_mech.redact_prob[::-1])
        assert plan.delta_left == mirror_plan.delta_right
        assert plan.window[0] == n + 1 - mirror_plan.window[1]
        assert mech.p == p
        assert (mech.redact_prob[p - 1] == 1.0).all()


def test_mq_single_record_chain():
    model = MarkovModel(1, 0.25, 0.5)
    plan, mech = build_mq(model, 1, 0.5)
    assert plan.window == (1, 1)
    assert exact_utility(model, mech).exact == 0.0


def test_mq_guards():
    with pytest.raises(ValueError):
        build_mq(FIG_MODEL, 1, 0.0)
    with pytest.raises(ValueError):
        build_mq(FIG_MODEL, 11, 1.0)


def test_dim_bound_one_sided_example():
    bound = dim_upper_bound(FIG_MODEL, 1, 1.0)
    assert bound.case == "one_sided"
    assert bound.r1 == 3
    assert bound.value == pytest.approx(0.7, abs=1e-12)


def test_dim_bound_zero_case():
    model = MarkovModel(8, 0.01, 0.8)
    eps = influence_high(model, model.n - 1) / 2
    bound = dim_upper_bound(model, 1, eps)
    assert bound.case == "zero"
    assert bound.value == 0.0
    assert bound.r1 is None and bound.r2 is None


def test_dim_bound_two_sided_example():
    bound = dim_upper_bound(FIG_MODEL, 5, 2.0)
    assert bound.case == "two_sided"
    assert (bound.r1, bound.r2) == (6, 5)
    assert bound.value == pytest.approx(0.5, abs=1e-12)


def test_dim_bound_mirrors_and_edge_budgets():
    assert dim_upper_bound(FIG_MODEL, 10, 1.0).value == dim_upper_bound(FIG_MODEL, 1, 1.0).value
    # eps = 0 with correlated records: nothing can be released
    assert dim_upper_bound(FIG_MODEL, 1, 0.0).value == 0.0
    # eps = 0 with independent records: everything but p can be
    independent = MarkovModel(5, 0.3, 0.7)
    assert dim_upper_bound(independent, 2, 0.0).value == pytest.approx(0.8, abs=1e-12)
    with pytest.raises(ValueError):
        dim_upper_bound(FIG_MODEL, 1, -0.5)


def test_mq_bounds_examples():
    lower, exact = mq_utility_bounds(FIG_MODEL, 1, 1.0)
    assert (lower, exact) == (pytest.approx(0.6, abs=1e-12), pytest.approx(0.6, abs=1e-12))
    model = MarkovModel(8, 0.01, 0.8)
    eps = influence_high(model, model.n - 1) / 2
    assert mq_utility_bounds(model, 1, eps) == (0.0, 0.0)
    lower, exact = mq_utility_bounds(FIG_MODEL, 5, 2.0)
    assert lower == pytest.approx(0.3, abs=1e-12)
    assert exact == pytest.approx(0.3, abs=1e-12)


def test_mq_bounds_sandwich():
    for alpha, beta in [(0.01, 0.8), (0.1, 0.5)]:
        for n in (3, 6, 9):
            model = MarkovModel(n, alpha, beta)
            for p in range(1, (n + 1) // 2 + 1):
                for eps in (0.25, 1.0, 4.0):
                    lower, exact = mq_utility_bounds(model, p, eps)
                    dim = dim_upper_bound(model, p, eps).value
                    assert lower <= exact + 1e-12
                    assert exact <= dim + 1e-12


def test_three_r_utility_worked_example():
    model = MarkovModel(2, 0.25, 0.5)
    regions = compute_regions(model, 1, 0.0, 0.5)
    design = ThreeRDesign(
        eps=0.5, eps_left=0.0, eps_right=0.5, regions=regions,
        q={2: 0.125}, relaxed_leakage_bound=math.nan,
    )
    assert three_r_utility(design, model) == pytest.approx(7 / 24, abs=1e-12)


def test_three_r_utility_published_level_and_degenerate_q():
    design, mech = build_3r_relaxation(FIG_MODEL, 1, 1.0)
    value = three_r_utility(design, FIG_MODEL)
    assert value == pytest.approx(0.74792, abs=1e-4)
    assert value == pytest.approx(exact_utility(FIG_MODEL, mech).exact, abs=1e-12)
    all_redacted = ThreeRDesign(
        eps=1.0, eps_left=0.0, eps_right=1.0, regions=design.regions,
        q={t: 1.0 for t in design.regions.medium}, relaxed_leakage_bound=math.nan,
    )
    assert three_r_utility(all_redacted, FIG_MODEL) == pytest.approx(
        len(design.regions.small) / 10, abs=1e-15
    )


def test_eq3_matches_exact_utility_on_grid():
    for alpha, beta in [(0.01, 0.8), (0.25, 0.5)]:
        for n in (2, 4, 7, 10):
            model = MarkovModel(n, alpha, beta)
            for p in range(1, (n + 1) // 2 + 1):
                for eps in (0.25, 1.0, 4.0):
                    design, mech = build_3r_relaxation(model, p, eps)
                    assert three_r_utility(design, model) == pytest.approx(
                        exact_utility(model, mech).exact, abs=1e-12
                    )


def test_delta_terms_follow_outward_neighbour():
    # regions at eps_r = 1: medium = {2, 3}; delta_2 = i_low(2), delta_3 = i_high(3)
    design, _ = build_3r_relaxation(FIG_MODEL, 1, 1.0)
    q2 = math.exp(-(1.0 - influence_low(FIG_MODEL, 2)) / 1)
    q3 = math.exp(-(1.0 - influence_high(FIG_MODEL, 3)) / 2)
    assert design.q[2] == pytest.approx(max(q2, q3), abs=1e-15)
