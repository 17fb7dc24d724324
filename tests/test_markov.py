import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from markov_redaction import (
    MarkovModel,
    multi_step,
    stationary_marginal,
)
from markov_redaction.chain import chain_states

from oracles import MODEL_GRID, loop_sample_path, loop_states


def test_stationary_marginal_values():
    assert stationary_marginal(MarkovModel(2, 0.25, 0.5)) == (2 / 3, 1 / 3)
    assert stationary_marginal(MarkovModel(5, 0.5, 0.5)) == (0.5, 0.5)
    pi0, pi1 = stationary_marginal(MarkovModel(3, 0.01, 0.8))
    assert pi0 == pytest.approx(0.8 / 0.81, abs=1e-15)
    assert pi1 == pytest.approx(0.01 / 0.81, abs=1e-15)
    assert pi0 + pi1 == pytest.approx(1.0, abs=1e-15)


def test_model_validation():
    with pytest.raises(ValueError, match="alpha <= beta"):
        MarkovModel(3, 0.6, 0.5)
    for n in (True, 2.5, 0):
        message = f"chain length n must be a positive integer, got {n!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            MarkovModel(n, 0.25, 0.5)
    assert MarkovModel(np.int64(4), 0.25, 0.5).n == 4
    with pytest.raises(ValueError, match="strictly inside"):
        MarkovModel(3, 0.0, 0.5)
    with pytest.raises(ValueError, match="strictly inside"):
        MarkovModel(3, 0.25, 1.0)
    # independent records are a legal corner
    MarkovModel(3, 0.3, 0.7)


def test_multi_step_single_step_returns_parameters():
    step = multi_step(MarkovModel(4, 0.25, 0.5), 1)
    assert (step[0, 1], step[1, 0]) == (0.25, 0.5)


def test_multi_step_two_steps_hand_squared():
    # squaring P = [[.75, .25], [.5, .5]] by hand gives alpha_2 = 0.3125, beta_2 = 0.625
    step = multi_step(MarkovModel(4, 0.25, 0.5), 2)
    assert step[0, 1] == pytest.approx(0.3125, abs=1e-15)
    assert step[1, 0] == pytest.approx(0.625, abs=1e-15)
    by_hand = np.array([[0.6875, 0.3125], [0.625, 0.375]])
    assert np.allclose(step, by_hand, atol=1e-15)


def test_multi_step_decay_identity():
    step = multi_step(MarkovModel(4, 0.01, 0.8), 3)
    assert 1.0 - step[0, 1] - step[1, 0] == pytest.approx(0.19**3, abs=1e-12)


@pytest.mark.parametrize("alpha", [1e-17, 1e-13])
def test_multi_step_keeps_alpha_near_float_resolution(alpha):
    # 1 - alpha - beta rounds to 1 (or loses most digits) at these values,
    # so the decay must not be formed as 1 - (1 - alpha - beta)^delta.
    step = multi_step(MarkovModel(3, alpha, alpha), 1)
    assert step[0, 1] == pytest.approx(alpha, rel=1e-15, abs=0.0)
    assert step[1, 0] == pytest.approx(alpha, rel=1e-15, abs=0.0)


def test_multi_step_rejects_zero():
    model = MarkovModel(4, 0.25, 0.5)
    for delta in (True, 2.5, 0):
        message = f"delta must be a positive integer, got {delta!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            multi_step(model, delta)
    assert np.array_equal(multi_step(model, np.int64(3)), multi_step(model, 3))


@pytest.mark.parametrize("alpha,beta", MODEL_GRID)
def test_multi_step_matches_matrix_power(alpha, beta):
    model = MarkovModel(2, alpha, beta)
    transition = model.transition_matrix()
    for delta in range(1, 21):
        explicit = np.linalg.matrix_power(transition, delta)
        step = multi_step(model, delta)
        assert np.abs(step - explicit).max() < 1e-12


@pytest.mark.parametrize("alpha,beta", MODEL_GRID)
def test_multi_step_invariants(alpha, beta):
    model = MarkovModel(2, alpha, beta)
    pi0, pi1 = stationary_marginal(model)
    for delta in range(1, 21):
        step = multi_step(model, delta)
        assert step[0, 1] / step[1, 0] == pytest.approx(alpha / beta, abs=1e-12)
        assert 1.0 - step[0, 1] - step[1, 0] == pytest.approx(
            (1.0 - alpha - beta) ** delta, abs=1e-12
        )
        # detailed balance: forward and backward transitions agree under stationarity
        assert pi0 * step[0, 1] == pytest.approx(pi1 * step[1, 0], abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(
    alpha=st.floats(0.01, 0.98),
    spread=st.floats(0.0, 0.98),
    delta=st.integers(1, 20),
)
def test_multi_step_matches_matrix_power_hypothesis(alpha, spread, delta):
    beta = min(0.99, alpha + spread * (0.99 - alpha))
    model = MarkovModel(1, alpha, beta)
    explicit = np.linalg.matrix_power(model.transition_matrix(), delta)
    assert np.abs(multi_step(model, delta) - explicit).max() < 1e-12


def unpacked(states, n):
    """The first n records of bit-packed states, one int8 per record."""
    return np.unpackbits(states, axis=-1, count=n, bitorder="little").view(np.int8)


def sampled(model, seed):
    return unpacked(chain_states(model, np.random.default_rng(seed).random(model.n)), model.n)


def test_chain_states_deterministic_and_valid():
    model = MarkovModel(200, 0.25, 0.5)
    first = sampled(model, seed=7)
    assert np.array_equal(first, sampled(model, seed=7))
    assert set(np.unique(first)) <= {0, 1}
    assert not np.array_equal(first, sampled(model, seed=8))


@pytest.mark.parametrize(
    "n,alpha,beta",
    [
        (1, 0.25, 0.5),
        (2, 0.25, 0.5),
        (2, 0.3, 0.3),  # alpha = beta: no uniform resets the state
        (500, 0.3, 0.3),
        (500, 0.01, 0.8),
        (500, 0.9, 0.95),  # 1 - alpha - beta < 0
        (300, 1e-9, 1e-9),
        (5_000, 0.05, 0.6),
    ],
)
def test_sample_path_equals_the_record_loop(n, alpha, beta):
    model = MarkovModel(n, alpha, beta)
    for seed in (0, 1, 12345):
        packed = chain_states(model, np.random.default_rng(seed).random(n))
        expected = loop_sample_path(model, seed)
        assert packed.dtype == np.uint8 and packed.shape == (-(-n // 8),)
        assert np.array_equal(unpacked(packed, n), expected)


@pytest.mark.parametrize("n", [7, 8, 9, 15, 16, 17, 63, 64, 65])  # 2^16 + 1: in test_utility
@pytest.mark.parametrize(
    "alpha,beta",
    [
        (0.05, 0.6),
        (0.3, 0.3),  # alpha = beta: no reset, the entry state crosses every byte
        (0.7, 0.9),  # alpha + beta > 1
        (1e-9, 0.5),  # almost no flips: long runs of 0 entered from resets
        (0.5, 0.99),
    ],
)
def test_sample_path_equals_the_record_loop_at_byte_edges(n, alpha, beta):
    model = MarkovModel(n, alpha, beta)
    packed = chain_states(model, np.random.default_rng(n).random(n))
    assert packed.shape == (-(-n // 8),)
    assert np.array_equal(unpacked(packed, n), loop_sample_path(model, n))


@pytest.mark.parametrize("n", [8, 9, 17, 64, 65, 200])
def test_packed_states_on_chosen_flips_resets_and_keeps(n):
    """Each record flips (u < alpha), resets (alpha <= u < beta) or keeps the
    state; rows force a reset, a flip or a keep on every byte's first or last
    record, so every entry state meets each of them at a byte edge."""
    model = MarkovModel(n, 0.2, 0.6)  # Pr[X = 1] = 0.25
    flip, reset, keep = 0.1, 0.4, 0.9
    uniforms = np.random.default_rng(n).choice([flip, reset, keep], size=(9, n))
    for row, value in enumerate((flip, reset, keep)):
        uniforms[row, 8::8] = value  # a byte's first record
        uniforms[3 + row, 7::8] = value  # a byte's last record
    uniforms[6:8] = keep
    uniforms[6:8, 0] = flip  # record 1 is 1, and row 6 carries it through every byte
    uniforms[7, 8::8] = reset  # every later byte is entered in state 1 and resets at once
    uniforms[7, 9::8] = flip
    uniforms[8] = flip  # a flip on every record
    packed = chain_states(model, uniforms)
    assert packed.shape == (9, -(-n // 8))
    expected = loop_states(model, uniforms)
    assert np.array_equal(unpacked(packed, n), expected)
    assert expected[6].all() and expected[7, 7::8].all() and not expected[7, 8::8].any()


def test_chain_states_matches_stationary_and_transitions():
    n = 100_000
    model = MarkovModel(n, 0.25, 0.5)
    values = sampled(model, seed=123)
    pi0, _ = stationary_marginal(model)

    # 4-sigma binomial bands, all narrower than the 0.01 coarse bound
    share0 = np.mean(values == 0)
    sigma = math.sqrt(pi0 * (1 - pi0) / n)
    assert abs(share0 - pi0) < max(4 * sigma, 1e-9)
    assert abs(share0 - 2 / 3) < 0.01

    from0 = values[1:][values[:-1] == 0]
    rate01 = np.mean(from0 == 1)
    sigma01 = math.sqrt(0.25 * 0.75 / from0.size)
    assert abs(rate01 - 0.25) < max(4 * sigma01, 1e-9)
    assert abs(rate01 - 0.25) < 0.01

    from1 = values[1:][values[:-1] == 1]
    rate10 = np.mean(from1 == 0)
    sigma10 = math.sqrt(0.5 * 0.5 / from1.size)
    assert abs(rate10 - 0.5) < max(4 * sigma10, 1e-9)
