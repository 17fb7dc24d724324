import math
import re

import numpy as np
import pytest

import markov_redaction.audit
import markov_redaction.influence
import markov_redaction.mechanisms
from markov_redaction import (
    MarkovModel,
    RedactionMechanism,
    ThreeRDesign,
    build_3r_numerical,
    build_3r_relaxation,
    build_mq,
    compute_regions,
    delta_star,
    dim_upper_bound,
    exact_leakage,
    exact_utility,
    influence_high,
    influence_low,
    mq_utility_bounds,
    three_r_utility,
)

from oracles import linear_scan_design, mirrored, reference_mq_lower_bound, released_indices
from test_acceptance import _grid_points

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
    assert released_indices(broken) == frozenset({1, 2})
    with pytest.raises(ValueError, match="private index"):
        RedactionMechanism(n=2, p=3, redact_prob=np.ones((2, 2)))
    for n in (0, True, 2.5):
        message = f"n must be a positive integer, got {n!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            RedactionMechanism(n=n, p=1, redact_prob=np.ones((1, 2)))
    assert RedactionMechanism(n=np.int64(1), p=1, redact_prob=np.ones((1, 2))).n == 1


def test_mechanism_released_indices_and_views():
    _, mech = build_mq(FIG_MODEL, 1, 1.0)
    assert released_indices(mech) == frozenset(range(5, 11))
    mirror = mirrored(mech)
    assert mirror.p == 10
    assert np.array_equal(mirror.redact_prob, mech.redact_prob[::-1])


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
    # NaN budgets fail every comparison, so each guard is written positively
    nan = math.nan
    model = MarkovModel(12, 0.1, 0.5)
    for build in (build_3r_relaxation, build_3r_numerical):
        with pytest.raises(ValueError, match="nonnegative"):
            build(model, 6, 1.0, (nan, nan))
        with pytest.raises(ValueError, match="nonnegative"):
            build(model, 6, 1.0, (nan, 0.5))
        with pytest.raises(ValueError, match="positive"):
            build(model, 6, nan)


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
    for bad in (0, -3, True, 2.5, 10.0, "10", None):
        message = f"grid_steps must be a positive integer, got {bad!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            build_3r_numerical(MarkovModel(2, 0.25, 0.5), 1, 0.5, grid_steps=bad)
    numpy_steps, _ = build_3r_numerical(MarkovModel(2, 0.25, 0.5), 1, 0.5, grid_steps=np.int64(10))
    assert numpy_steps == design


def assert_matches_linear_scan(model, p, eps, grid_steps):
    design, mech = build_3r_numerical(model, p, eps, grid_steps=grid_steps)
    q, scanned = linear_scan_design(model, p, eps, grid_steps)
    assert design.q == q
    assert np.array_equal(mech.redact_prob, scanned.redact_prob)


def test_numerical_bisection_matches_linear_scan_on_acceptance_grid():
    for model, p, eps in _grid_points():
        assert_matches_linear_scan(model, p, eps, grid_steps=49)


def paper_sweep_searched_budgets():
    """The budgets of the paper's 60-point sweep whose 3R design has medium records."""
    grid = [float(x) for x in np.logspace(math.log10(0.05), math.log10(6.0), 60)]
    return [eps for eps in grid if build_3r_relaxation(FIG_MODEL, 1, eps)[0].regions.medium]


def test_numerical_bisection_matches_linear_scan_on_paper_sweep():
    budgets = paper_sweep_searched_budgets()[::5]
    assert len(budgets) >= 10
    for eps in budgets:
        assert_matches_linear_scan(FIG_MODEL, 1, eps, grid_steps=999)


def side_curves(model, p, eps, grid_steps):
    """Each searched side's exact leakage at every grid value of q, over the
    window the search reads: its rows up to the one past the last medium one."""
    design, mech = build_3r_relaxation(model, p, eps)
    table = mech.redact_prob.copy()
    curves = []
    for side, rows in ((-1, table[: p - 1][::-1]), (1, table[p:])):
        medium = [abs(t - p) - 1 for t in design.regions.medium_by_distance(side)]
        if medium:
            window, curve = rows[: medium[-1] + 2], []
            for i in range(grid_steps + 1):
                window[medium, 0] = i / grid_steps
                curve.append(markov_redaction.audit.side_leakage(model, window))
            curves.append(curve)
    return curves


def test_side_leakage_never_rises_with_q_where_the_search_bisects():
    # The bisection takes the first fitting grid value only if the side's
    # leakage never rises as q rises; check that on every searched curve of
    # the paper sweep and of the acceptance grid, at their grid resolutions.
    curves = [curve for eps in paper_sweep_searched_budgets()
              for curve in side_curves(FIG_MODEL, 1, eps, 999)]
    assert len(curves) == 51
    curves += [curve for model, p, eps in _grid_points() for curve in side_curves(model, p, eps, 49)]
    assert len(curves) == 51 + 818
    assert all(later <= earlier for curve in curves for earlier, later in zip(curve, curve[1:]))


def test_numerical_audit_count_is_logarithmic(monkeypatch):
    audited = []  # the builder looks the side pass up in its own module, so this wraps it there
    real_side_leakage = markov_redaction.mechanisms.side_leakage

    def counting_side_leakage(model, rows):
        audited.append(len(rows))
        return real_side_leakage(model, rows)

    monkeypatch.setattr(markov_redaction.mechanisms, "side_leakage", counting_side_leakage)
    p = 1
    design, _ = build_3r_numerical(FIG_MODEL, p, 1.0)
    assert design.regions.medium == {2, 3}
    # A bisection of the 999 grid values below 1, then the relaxation's q,
    # each over the window of the two medium records and the released record 4.
    passes = math.ceil(math.log2(999 + 1)) + 1
    assert 0 < len(audited) <= passes
    assert set(audited) == {3}
    # Far from both chain ends of a long chain, the window, and with it the
    # cost of a pass, stays as short, and the design is the short chain's.
    audited.clear()
    n, p = 1_000_000, 500_000
    _, mech = build_3r_numerical(MarkovModel(n, 0.01, 0.8), p, 1.0)
    assert 0 < len(audited) <= 2 * passes and max(audited) <= 8
    _, short = build_3r_numerical(MarkovModel(1_000, 0.01, 0.8), 500, 1.0)
    assert np.array_equal(mech.redact_prob[p - 500 : p + 500], short.redact_prob)
    assert mech.redact_prob.sum() == short.redact_prob.sum()


def test_numerical_search_fits_exactly_and_takes_q_one_from_the_regions(monkeypatch):
    # Boundary budgets eps = influence_high(d) and log-uniform budgets down to 1e-15.
    passes_at_one = []  # per side pass: does it run with every medium row at q = 1?
    real_side_leakage = markov_redaction.mechanisms.side_leakage

    def counting_side_leakage(model, rows):
        passes_at_one.append(not ((rows[:, 0] < 1.0) & (rows[:, 1] == 1.0)).any())
        return real_side_leakage(model, rows)

    monkeypatch.setattr(markov_redaction.mechanisms, "side_leakage", counting_side_leakage)
    rng = np.random.default_rng(25)
    settled = {"searched": 0, "q = 1": 0}
    for k in range(200):
        n = int(rng.integers(3, 30))
        alpha = math.exp(rng.uniform(math.log(0.005), math.log(0.9)))
        model = MarkovModel(n, alpha, rng.uniform(alpha, 0.99))
        p = int(rng.integers(1, n + 1))
        if k % 2:
            eps = math.exp(rng.uniform(math.log(1e-15), math.log(8.0)))
        else:
            distances = [d for d in range(1, n) if influence_high(model, d) > 0]  # eps = 0 is refused
            eps = influence_high(model, int(rng.choice(distances)))
        passes_at_one.clear()
        design, mech = build_3r_numerical(model, p, eps)
        table, regions = mech.redact_prob, design.regions
        sides = ((-1, table[: p - 1][::-1], design.eps_left), (1, table[p:], design.eps_right))
        for side, rows, eps_side in sides:
            medium = regions.medium_by_distance(side)
            if not medium:
                continue
            leak = real_side_leakage(model, rows)
            if design.q[medium[0]] < 1.0:
                settled["searched"] += 1
                assert leak <= eps_side
                continue
            settled["q = 1"] += 1
            assert not any(passes_at_one)
            released = [d for d in range(1, len(rows) + 1)
                        if p + side * d not in regions.medium | regions.large]
            nearest = influence_high(model, released[0]) if released else 0.0
            assert leak == pytest.approx(nearest, abs=1e-14)
    assert settled["searched"] >= 100 and settled["q = 1"] >= 3, settled


def test_default_split_is_mirror_symmetric():
    # A stationary two-state chain is reversible, so p and n + 1 - p are one problem.
    rng = np.random.default_rng(26)
    points = [(MarkovModel(12, 0.180265924121619, 0.5545561415020169), 12, 0.18905786568201352)]
    for _ in range(60):
        n = int(rng.integers(1, 30))
        alpha = float(np.exp(rng.uniform(math.log(1e-3), math.log(0.9))))
        model = MarkovModel(n, alpha, float(rng.uniform(alpha, 0.99)))
        eps = float(np.exp(rng.uniform(math.log(0.01), math.log(8.0))))
        points += [(model, n, eps), (model, int(rng.integers(1, n + 1)), eps)]
    for model, p, eps in points:
        for build in (build_3r_relaxation, build_3r_numerical):
            near, far = (exact_utility(model, build(model, t, eps)[1]).exact
                         for t in (p, model.n + 1 - p))
            assert near == pytest.approx(far, abs=1e-12)
    example, n, eps = points[0]
    assert exact_utility(example, build_3r_numerical(example, n, eps)[1]).exact == pytest.approx(
        0.7975, abs=5e-5
    )


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
    branches = set()
    for n in (1, 2, 9, 10):
        model = MarkovModel(n, 0.01, 0.8)
        for eps in (0.25, 1.0, 2.0, 4.0):
            for p in range(1, n + 1):
                plan, mech = build_mq(model, p, eps)
                mirror_plan, mirror_mech = build_mq(model, n + 1 - p, eps)
                assert plan.branch == mirror_plan.branch
                assert plan.threshold == mirror_plan.threshold
                assert (plan.delta_left, plan.delta_right) == (
                    mirror_plan.delta_right,
                    mirror_plan.delta_left,
                )
                assert plan.window == (n + 1 - mirror_plan.window[1], n + 1 - mirror_plan.window[0])
                assert np.array_equal(mech.redact_prob, mirror_mech.redact_prob[::-1])
                assert mech.p == p
                assert (mech.redact_prob[p - 1] == 1.0).all()
                branches.add((plan.branch, p <= n + 1 - p))
    # both branches occur on both halves of the chain
    assert branches == {(b, left) for b in ("one_sided", "symmetric") for left in (True, False)}


def test_mq_single_record_chain():
    model = MarkovModel(1, 0.25, 0.5)
    plan, mech = build_mq(model, 1, 0.5)
    assert plan.window == (1, 1)
    assert exact_utility(model, mech).exact == 0.0


def test_mq_guards():
    with pytest.raises(ValueError):
        build_mq(FIG_MODEL, 1, 0.0)
    with pytest.raises(ValueError, match="positive"):
        build_mq(FIG_MODEL, 1, math.nan)
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
    with pytest.raises(ValueError, match="nonnegative"):
        dim_upper_bound(FIG_MODEL, 1, math.nan)
    with pytest.raises(ValueError, match="positive"):
        mq_utility_bounds(FIG_MODEL, 1, math.nan)


def test_dim_bound_at_zero_budget_when_the_far_influence_is_exactly_zero():
    # s = -1e-10: influence_high is nonzero at distance 1 and exactly 0.0 from 2 on
    model = MarkovModel(40, 0.3, 0.7000000001)
    assert influence_high(model, 1) > 0.0 == influence_high(model, 2) == influence_high(model, 39)
    bound = dim_upper_bound(model, 1, 0.0)
    assert (bound.case, bound.r1, bound.r2, bound.value) == ("one_sided", 2, 2, 0.95)
    assert dim_upper_bound(model, 40, 0.0) == bound
    # The zero-tail prefix can end in zeros: here influence_high is 2.2e-16
    # at distance 37 and 0.0 from 38 on, so R1 = 38.
    model = MarkovModel(40, 0.05, 0.6)
    assert influence_high(model, 37) > 0.0 == influence_high(model, 38)
    bound = dim_upper_bound(model, 1, 0.0)
    assert (bound.case, bound.r1, bound.r2) == ("one_sided", 38, 38)


def test_relaxation_below_float_resolution_is_a_value_error():
    # Record 248 is medium (low 3.33e-16 <= eps < high 4.44e-16) and record
    # 249 is large (its low form is 4.44e-16): the float forms rise by an ulp.
    model = MarkovModel(300, 0.8695656882018187, 0.9934615290459773)
    regions = compute_regions(model, 1, 0.0, 4e-16)
    assert 248 in regions.medium and 249 in regions.large
    with pytest.raises(ValueError, match="float resolution"):
        build_3r_relaxation(model, 1, 4e-16)
    with pytest.raises(ValueError, match="float resolution"):
        build_3r_numerical(model, 1, 4e-16)


def test_relaxation_closed_form_calls_do_not_grow_with_n(monkeypatch):
    calls = []
    targets = [(markov_redaction.influence, "_log_ratios")] + [
        (module, name)
        for module in (markov_redaction.influence, markov_redaction.mechanisms)
        for name in ("influence_low", "influence_high")
    ]
    for module, name in targets:
        real = getattr(module, name)

        def counting(model, delta, real=real):
            calls.append(delta)
            return real(model, delta)

        monkeypatch.setattr(module, name, counting)
    n = 1_000_000
    model = MarkovModel(n, 0.05, 0.6)
    design, mech = build_3r_relaxation(model, n // 2, 1.0)
    assert design.regions.medium and len(calls) <= 2_000
    assert abs(three_r_utility(design, model) - exact_utility(model, mech).exact) <= 1e-12


@pytest.mark.parametrize("p, eps, medium_count", [(1, 1.0, 2), (5, 2.0, 4)])
def test_numerical_build_makes_one_closed_form_call_per_medium_record(
    monkeypatch, p, eps, medium_count
):
    calls, tables = [], []
    module = markov_redaction.mechanisms
    for name in ("influence_low", "influence_high"):
        real = getattr(module, name)

        def counting(model, delta, real=real):
            calls.append(delta)
            return real(model, delta)

        monkeypatch.setattr(module, name, counting)
    real_mechanism = module.RedactionMechanism

    def constructing(*args, **kwargs):
        tables.append(1)
        return real_mechanism(*args, **kwargs)

    monkeypatch.setattr(module, "RedactionMechanism", constructing)
    design, _ = build_3r_numerical(FIG_MODEL, p, eps)
    assert len(design.regions.medium) == medium_count
    assert len(calls) <= medium_count
    assert len(tables) == 1


def test_three_r_utility_checks_the_chain_length():
    design, _ = build_3r_relaxation(FIG_MODEL, 1, 1.0)
    with pytest.raises(ValueError, match="5 records.*10"):
        three_r_utility(design, MarkovModel(5, 0.01, 0.8))


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
                # the both-ends sums at the far end's distance and one past it, +-1 ulp
                near_end = influence_high(model, p - 1)
                edges = [near_end + influence_high(model, far) for far in (n - p, n + 1 - p)]
                near_edges = [math.nextafter(e, to) for e in edges for to in (0.0, math.inf)]
                for eps in (0.25, 1.0, 4.0, math.inf, *edges, *near_edges):
                    lower, exact = mq_utility_bounds(model, p, eps)
                    dim = dim_upper_bound(model, p, eps)
                    assert p > 1 or dim.case != "two_sided"  # p = 1 has no left end
                    assert lower <= exact + 1e-12
                    assert exact <= dim.value + 1e-12
                    # MQ widens both ways exactly where DIM's ceiling is two-sided,
                    # unless its threshold is negative or p is a chain end
                    plan, _ = build_mq(model, p, eps)
                    symmetric = p > 1 and dim.case == "two_sided" and plan.threshold >= 0
                    assert (plan.branch == "symmetric") == symmetric
    # at p = 1 even eps = inf leaves DIM one-sided: one extra redaction, not two
    assert mq_utility_bounds(MarkovModel(6, 0.2, 0.5), 1, math.inf) == (
        pytest.approx(2 / 3), pytest.approx(2 / 3)
    )


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


def test_mq_lower_bound_matches_reference_derivation():
    cases = set()
    for alpha, beta in [(0.01, 0.8), (0.1, 0.5), (0.3, 0.7)]:
        for n in (1, 2, 7, 10, 100, 10**5):
            model = MarkovModel(n, alpha, beta)
            for p in sorted({1, 2, (n + 1) // 2, n} & set(range(1, n + 1))):
                for eps in (0.01, 0.1, 0.5, 1.0, 2.0, 4.0, 8.0):
                    lower, _ = mq_utility_bounds(model, p, eps)
                    assert lower == reference_mq_lower_bound(model, p, eps)
                    cases.add(dim_upper_bound(model, p, eps).case)
    assert cases == {"zero", "one_sided", "two_sided"}


def test_dim_bound_one_sided_with_a_long_half_budget_search():
    # delta*(eps/2) lies past 10^6 here; the one-sided bound needs only
    # delta*(eps), yet r2 is still reported
    model = MarkovModel(10, 1e-12, 1e-12)
    eps = influence_high(model, 9) * 1.01
    half = delta_star(model, eps / 2.0)
    assert half > 10**6
    bound = dim_upper_bound(model, 1, eps)
    assert bound.case == "one_sided"
    assert bound.r2 == min(bound.r1, 2 * half - 1)
    assert bound.value == 1.0 - bound.r1 / model.n
    assert mq_utility_bounds(model, 1, eps)[0] == reference_mq_lower_bound(model, 1, eps)


def test_mq_and_dim_bound_past_a_million_record_distance():
    # delta*(eps/2) = 1,051,132 > 10^6: the symmetric window and the
    # two-sided bound both need it
    model = MarkovModel(2_400_000, 2.85e-6, 2.85e-6)
    p, eps = 1_200_000, 0.01
    plan, mech = build_mq(model, p, eps)
    assert plan.branch == "symmetric"
    assert plan.window == (148_868, 2_251_132)
    assert plan.threshold == p + delta_star(model, eps) - 2 * 1_051_132
    assert mech.redact_prob.sum() == 2 * (plan.window[1] - plan.window[0] + 1)
    bound = dim_upper_bound(model, p, eps)
    assert bound.case == "two_sided" and bound.r2 == 2_102_263
    assert bound.value == 1.0 - 2_102_263 / model.n
    lower, exact = mq_utility_bounds(model, p, eps)
    assert lower == reference_mq_lower_bound(model, p, eps)
    assert lower <= exact <= bound.value
