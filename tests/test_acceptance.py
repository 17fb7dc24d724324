"""Acceptance suite: one criterion per test, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines inline.
"""

import itertools
import math
import time
from functools import lru_cache

import numpy as np
import pytest

from markov_redaction import (
    MarkovModel,
    RedactionMechanism,
    build_3r_numerical,
    build_3r_relaxation,
    build_mq,
    dim_upper_bound,
    exact_leakage,
    exact_utility,
    influence_high,
    influence_low,
    max_influence_set,
    monte_carlo_utility,
    multi_step,
    pointwise_influence,
    three_r_utility,
)

from oracles import MODEL_GRID, leakage_lower_bound_check, matrix_power_ratios

AUDIT_SLACK = 1e-9


class _criterion:
    """Prints `acceptance criterion k (<name>): PASS|FAIL [elapsed]` on exit."""

    def __init__(self, number: int, name: str, budget_seconds: float):
        self.number = number
        self.name = name
        self.budget = budget_seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(
            f"\nacceptance criterion {self.number} ({self.name}): {status} "
            f"[{self.elapsed:.2f}s / budget {self.budget:.0f}s]"
        )
        return False

    def assert_in_budget(self):
        assert self.elapsed < self.budget, (
            f"criterion {self.number} took {self.elapsed:.1f}s, budget {self.budget}s"
        )


GRID_ALPHAS = (0.01, 0.1, 0.25)
GRID_BETAS = (0.5, 0.8)
GRID_EPS = (0.25, 0.5, 1.0, 2.0, 4.0)


def _grid_points():
    for alpha, beta in itertools.product(GRID_ALPHAS, GRID_BETAS):
        for n in range(2, 11):
            model = MarkovModel(n, alpha, beta)
            for p in range(1, (n + 1) // 2 + 1):
                for eps in GRID_EPS:
                    yield model, p, eps


@lru_cache(maxsize=1)
def _grid_builds():
    """Every mechanism the certification grid constructs, built once."""
    builds = []
    for model, p, eps in _grid_points():
        relax_design, relax_mech = build_3r_relaxation(model, p, eps)
        numerical_design, numerical_mech = build_3r_numerical(model, p, eps)
        _, mq_mech = build_mq(model, p, eps)
        builds.append(
            (model, p, eps, relax_design, relax_mech, numerical_design, numerical_mech, mq_mech)
        )
    return builds


def test_criterion_1_worked_example_end_to_end():
    with _criterion(1, "worked example end-to-end", 1.0) as crit:
        model = MarkovModel(2, 0.25, 0.5)
        step = multi_step(model, 1).matrix()
        assert step[0, 0] / step[1, 0] == 1.5
        assert step[0, 1] / step[1, 1] == 0.5
        assert step[1, 0] / step[0, 0] == 2 / 3
        assert step[1, 1] / step[0, 1] == 2.0
        assert pointwise_influence(model, 1, 2, 0) == pytest.approx(math.log(1.5), abs=1e-12)
        assert max_influence_set(model, 1, {2}) == pytest.approx(math.log(2.0), abs=1e-12)
        mechanism = RedactionMechanism(n=2, p=1, redact_prob=[[1.0, 1.0], [0.125, 1.0]])
        report = exact_leakage(model, mechanism)
        assert report.leakage <= 0.5
        assert report.leakage == pytest.approx(0.492476, abs=1e-6)
        assert exact_utility(model, mechanism).exact == pytest.approx(7 / 24, abs=1e-12)
    crit.assert_in_budget()


def test_criterion_2_redaction_profile_reproduction():
    with _criterion(2, "published redaction profile at eps=1", 30.0) as crit:
        model = MarkovModel(10, 0.01, 0.8)
        relax_design, relax_mech = build_3r_relaxation(model, 1, 1.0)
        assert relax_design.q[2] == pytest.approx(0.757414764826369, abs=1e-5)
        assert relax_design.q[3] == pytest.approx(0.757414764826369, abs=1e-5)
        numerical_design, numerical_mech = build_3r_numerical(model, 1, 1.0)
        assert abs(numerical_design.q[2] - 0.547547547547548) <= 1 / 999
        assert abs(numerical_design.q[3] - 0.547547547547548) <= 1 / 999
        assert exact_leakage(model, relax_mech).leakage <= 1.0 + AUDIT_SLACK
        assert exact_leakage(model, numerical_mech).leakage <= 1.0 + AUDIT_SLACK
    crit.assert_in_budget()


def test_criterion_3_utility_ordering_over_budget_sweep():
    with _criterion(3, "utility ordering over the 60-point sweep", 600.0) as crit:
        model = MarkovModel(10, 0.01, 0.8)
        p = 1
        grid = [float(x) for x in np.logspace(math.log10(0.05), math.log10(6.0), 60)]
        seen_relax_above_dim = False
        for eps in grid:
            dim = dim_upper_bound(model, p, eps).value
            _, mq_mech = build_mq(model, p, eps)
            mq_utility = exact_utility(model, mq_mech).exact
            relax_design, relax_mech = build_3r_relaxation(model, p, eps)
            numerical_design, numerical_mech = build_3r_numerical(model, p, eps)
            relax_utility = exact_utility(model, relax_mech).exact
            numerical_utility = exact_utility(model, numerical_mech).exact
            assert numerical_utility >= relax_utility - 1e-9
            assert relax_utility >= mq_utility - 1e-9
            assert mq_utility <= dim + 1e-9
            assert exact_leakage(model, relax_mech).leakage <= eps + AUDIT_SLACK
            assert (
                exact_leakage(model, numerical_mech).leakage
                <= eps + AUDIT_SLACK
            )
            if relax_utility > dim:
                seen_relax_above_dim = True
        # data-dependent designs may beat the data-independent ceiling; at
        # eps = 1 the published values are 0.748 vs 0.7
        assert dim_upper_bound(model, p, 1.0).value == pytest.approx(0.7, abs=1e-12)
        relax_design, relax_mech = build_3r_relaxation(model, p, 1.0)
        assert exact_utility(model, relax_mech).exact == pytest.approx(0.748, abs=1e-3)
        assert exact_utility(model, relax_mech).exact > 0.7
        assert seen_relax_above_dim
    crit.assert_in_budget()


def test_criterion_4_influence_oracle_suite():
    with _criterion(4, "influence oracle suite", 5.0) as crit:
        assert any(1.0 - a - b < 0 for a, b in MODEL_GRID)
        for alpha, beta in MODEL_GRID:
            model = MarkovModel(12, alpha, beta)
            lows, highs = [], []
            for delta in range(1, 21):
                low, high = matrix_power_ratios(model, delta)
                assert influence_low(model, delta) == pytest.approx(low, abs=1e-10)
                assert influence_high(model, delta) == pytest.approx(high, abs=1e-10)
                lows.append(influence_low(model, delta))
                highs.append(influence_high(model, delta))
            for series in (lows, highs):
                seconds = [a - 2 * b + c for a, b, c in zip(series, series[1:], series[2:])]
                assert all(s >= -1e-10 for s in seconds)
            # even-span two-point sets compose additively around p
            for p, left, right in [(3, 1, 5), (5, 2, 8), (6, 2, 10), (4, 2, 6)]:
                expected = influence_high(model, p - left) + influence_high(model, right - p)
                assert max_influence_set(model, p, {left, right}) == pytest.approx(
                    expected, abs=1e-10
                )
    crit.assert_in_budget()


def test_criterion_5_privacy_certification_grid():
    with _criterion(5, "privacy certification grid", 900.0) as crit:
        for (
            model, p, eps,
            relax_design, relax_mech,
            numerical_design, numerical_mech,
            mq_mech,
        ) in _grid_builds():
            relax_leak = exact_leakage(model, relax_mech).leakage
            assert relax_leak <= eps + AUDIT_SLACK
            assert relax_leak <= relax_design.relaxed_leakage_bound + AUDIT_SLACK
            assert exact_leakage(model, numerical_mech).leakage <= eps + AUDIT_SLACK
            assert exact_leakage(model, mq_mech).leakage <= eps + AUDIT_SLACK
            for mech in (relax_mech, numerical_mech, mq_mech):
                released = sorted(mech.released_indices)
                assert leakage_lower_bound_check(model, mech, released)
    crit.assert_in_budget()


def test_criterion_6_utility_cross_checks():
    with _criterion(6, "utility cross-checks", 900.0) as crit:
        builds = _grid_builds()
        for model, p, eps, relax_design, relax_mech, numerical_design, numerical_mech, _ in builds:
            assert three_r_utility(relax_design, model) == pytest.approx(
                exact_utility(model, relax_mech).exact, abs=1e-12
            )
            assert three_r_utility(numerical_design, model) == pytest.approx(
                exact_utility(model, numerical_mech).exact, abs=1e-12
            )
        # 20 mechanisms sampled evenly across the grid, 10^5 trials each
        stride = max(1, len(builds) // 20)
        sampled = [builds[i] for i in range(0, len(builds), stride)][:20]
        assert len(sampled) == 20
        for seed, (model, p, eps, _, relax_mech, _, numerical_mech, mq_mech) in enumerate(sampled):
            mech = (relax_mech, numerical_mech, mq_mech)[seed % 3]
            report = monte_carlo_utility(model, mech, trials=100_000, seed=seed)
            mc = report.monte_carlo
            # 1e-12 floor: deterministic tables have zero standard error
            assert abs(mc.estimate - report.exact) <= 4 * mc.standard_error + 1e-12
    crit.assert_in_budget()
