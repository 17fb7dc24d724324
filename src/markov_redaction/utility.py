"""Exact and Monte-Carlo utility of a redaction mechanism.

Utility is the expected fraction of records released unchanged.  Because
the chain is stationary, every record has the same marginal and the exact
value is a one-line sum over the table; the Monte-Carlo estimator exists
to cross-check that closed form end to end (sample a path, flip the
redaction coins, count survivors).  The sampler works on bit-packed
states and coin outcomes, eight records to a byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chain import MarkovModel, chain_states, check_integer, stationary_marginal
from .mechanisms import RedactionMechanism

__all__ = ["MonteCarloEstimate", "UtilityReport", "exact_utility", "monte_carlo_utility"]

#: Records drawn per chunk of trials: a chunk's uniforms, coins and masks
#: (about 1.2 MB) fit a 2 MiB L2 cache.
_RECORDS_PER_CHUNK = 1 << 16


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


def exact_utility(model: MarkovModel, mechanism: RedactionMechanism) -> UtilityReport:
    """Closed-form utility from the stationary marginal; no sampling."""
    mechanism.check_model(model)
    pi0, pi1 = stationary_marginal(model)
    table = mechanism.redact_prob
    per_record = pi0 * (1.0 - table[:, 0]) + pi1 * (1.0 - table[:, 1])
    per_record.setflags(write=False)
    return UtilityReport(exact=float(per_record.mean()), per_record=per_record)


def monte_carlo_utility(
    model: MarkovModel, mechanism: RedactionMechanism, trials: int, seed: int
) -> UtilityReport:
    """Unbiased sampled estimate of the exact utility, reproducible by seed.

    Path sampling and redaction coin flips draw from two independent
    streams derived from the seed, so either half can be reproduced in
    isolation.  Trials are drawn and processed in chunks of whole rows of
    about 2^16 records (at least one row), so a chunk's working arrays stay
    in a core's L2 cache, each chunk's states in one pass of
    :func:`chain.chain_states` with no loop over records.  Both streams
    fill their arrays row-major, so drawing (a, n) and then (b, n) uniforms
    gives the same numbers as drawing (a + b, n) at once: the chunk size
    cannot change the estimate.  Redactions are counted on bits packed as
    the states are, eight records to a byte: a record is redacted when its
    coin falls below its state's column, the two columns' outcomes packed
    and merged by the state bits, and the set bits of each row counted
    through a 256-entry table.  Padding bits past record n are 0 in both
    columns, so they never count.  The standard error is the sample
    standard deviation of the per-path utilities divided by sqrt(trials).
    """
    check_integer("trials", trials)
    check_integer("seed", seed, 0)
    exact = exact_utility(model, mechanism)
    path_stream, redact_stream = [
        np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(2)
    ]
    n = model.n
    low, high = (np.ascontiguousarray(column) for column in mechanism.redact_prob.T)
    rows = min(trials, max(1, _RECORDS_PER_CHUNK // n))
    uniforms, coins = np.empty((rows, n)), np.empty((rows, n))  # reused by every chunk

    byte_values = np.arange(256, dtype=np.uint8)[:, None]
    set_bits = np.unpackbits(byte_values, axis=1).sum(axis=1, dtype=np.uint8)  # per byte value

    per_path = np.empty(trials)
    for done in range(0, trials, rows):
        chunk = min(rows, trials - done)
        states = chain_states(model, path_stream.random(out=uniforms[:chunk]))
        drawn = redact_stream.random(out=coins[:chunk])
        redacted = np.packbits(drawn < low, axis=-1, bitorder="little")
        flip = np.packbits(drawn < high, axis=-1, bitorder="little")
        flip ^= redacted
        flip &= states
        redacted ^= flip  # low ^ (state & (low ^ high)): the state's column; padding stays 0
        counts = np.take(set_bits, redacted).sum(axis=1, dtype=np.int64)
        per_path[done : done + chunk] = 1.0 - counts / n

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
