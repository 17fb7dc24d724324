"""Exact and Monte-Carlo utility of a redaction mechanism.

Utility is the expected fraction of records released unchanged.  Because
the chain is stationary, every record has the same marginal and the exact
value is a one-line sum over the table; the Monte-Carlo estimator exists
to cross-check that closed form end to end (sample a path, flip the
redaction coins, count survivors).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chain import MarkovModel, chain_states, stationary_marginal
from .mechanisms import RedactionMechanism

__all__ = ["MonteCarloEstimate", "UtilityReport", "exact_utility", "monte_carlo_utility"]

_TRIALS_PER_BLOCK = 1 << 16


@dataclass(frozen=True)
class MonteCarloEstimate:
    estimate: float
    standard_error: float
    trials: int
    seed: int


@dataclass(frozen=True, eq=False)
class UtilityReport:
    """Exact utility, per-record release probabilities, optional sampled estimate.

    ``per_record[t-1]`` is Pr[Y_t = X_t] under the stationary marginal;
    ``exact`` is their mean.  The private record always contributes 0.
    """

    exact: float
    per_record: np.ndarray
    monte_carlo: MonteCarloEstimate | None = None


def _release_probabilities(
    model: MarkovModel, mechanism: RedactionMechanism
) -> np.ndarray:
    pi0, pi1 = stationary_marginal(model)
    table = mechanism.redact_prob
    return pi0 * (1.0 - table[:, 0]) + pi1 * (1.0 - table[:, 1])


def exact_utility(model: MarkovModel, mechanism: RedactionMechanism) -> UtilityReport:
    """Closed-form utility from the stationary marginal; no sampling."""
    mechanism.check_model(model)
    per_record = _release_probabilities(model, mechanism)
    per_record.setflags(write=False)
    return UtilityReport(exact=float(per_record.mean()), per_record=per_record)


def monte_carlo_utility(
    model: MarkovModel, mechanism: RedactionMechanism, trials: int, seed: int
) -> UtilityReport:
    """Unbiased sampled estimate of the exact utility, reproducible by seed.

    Path sampling and redaction coin flips draw from two independent
    streams derived from the seed, so either half can be reproduced in
    isolation.  Paths are drawn in blocks of 2^16 trials, each block's
    states in one pass of :func:`chain.chain_states` with no loop over
    records.  The standard error is the sample standard deviation of the
    per-path utilities divided by sqrt(trials).
    """
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials!r}")
    exact = exact_utility(model, mechanism)
    path_stream, redact_stream = [
        np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(2)
    ]
    table = mechanism.redact_prob
    n = model.n

    per_path = np.empty(trials)
    done = 0
    while done < trials:
        block = min(_TRIALS_PER_BLOCK, trials - done)
        states = chain_states(model, path_stream.random((block, n)))
        coins = redact_stream.random((block, n))
        redacted = np.where(states, coins < table[:, 1], coins < table[:, 0])
        per_path[done : done + block] = 1.0 - redacted.mean(axis=1)
        done += block

    estimate = float(per_path.mean())
    if trials > 1:
        standard_error = float(per_path.std(ddof=1) / math.sqrt(trials))
    else:
        standard_error = math.nan
    return UtilityReport(
        exact=exact.exact,
        per_record=exact.per_record,
        monte_carlo=MonteCarloEstimate(
            estimate=estimate,
            standard_error=standard_error,
            trials=trials,
            seed=seed,
        ),
    )
