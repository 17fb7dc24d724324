"""Stationary two-state Markov chain: model, multi-step transitions, states.

Records are binary, X_t in {0, 1}.  The chain X_1 - X_2 - ... - X_n has a
stationary one-step transition matrix

    P = [[1 - alpha, alpha],
         [beta,      1 - beta]]

and is started in its stationary distribution, so every record has marginal
Pr[X_t = 0] = beta / (alpha + beta).  Under stationarity the backward
transition probabilities equal the forward ones, which the rest of the
package relies on when it walks the chain away from a conditioning record
in both directions.  Every power P^delta keeps the same two-parameter form
[[1 - a_d, a_d], [b_d, 1 - b_d]], with a_d / b_d = alpha / beta and
1 - a_d - b_d = (1 - alpha - beta)^delta; :func:`multi_step` returns it.
:func:`chain_states` turns uniforms into sampled paths, eight records to a
byte, by bitwise scans with no loop over records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["MarkovModel", "stationary_marginal", "multi_step"]


def check_integer(name: str, value, minimum: int = 1) -> None:
    """Raise ValueError unless ``value`` is an int or numpy integer, not a bool, >= ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        kind = "positive" if minimum else "nonnegative"
        raise ValueError(f"{name} must be a {kind} integer, got {value!r}")


@dataclass(frozen=True)
class MarkovModel:
    """Chain length and transition parameters, with ``0 < alpha <= beta < 1``.

    Parameters
    ----------
    n : int
        Number of records, n >= 1.
    alpha : float
        Transition probability 0 -> 1.
    beta : float
        Transition probability 1 -> 0.

    ``alpha > beta`` is rejected rather than silently relabelled: swapping
    the roles of the two values would also swap which record value carries
    the larger pointwise influence, so callers must relabel their data
    explicitly (replace every record x by 1 - x and swap alpha with beta).
    ``alpha + beta == 1`` (independent records) is accepted.
    """

    n: int
    alpha: float
    beta: float

    def __post_init__(self) -> None:
        check_integer("chain length n", self.n)
        if not (0.0 < self.alpha < 1.0) or not (0.0 < self.beta < 1.0):
            raise ValueError(
                f"transition probabilities must lie strictly inside (0, 1), "
                f"got alpha={self.alpha!r}, beta={self.beta!r}"
            )
        if self.alpha > self.beta:
            raise ValueError(
                f"alpha <= beta is required (got alpha={self.alpha!r} > beta={self.beta!r}); "
                "relabel the record values (x -> 1-x, swapping alpha and beta) instead of "
                "expecting an automatic swap, which would corrupt region semantics"
            )

    def transition_matrix(self) -> np.ndarray:
        """One-step transition matrix as a 2x2 array, rows indexed by the source state."""
        return np.array(
            [[1.0 - self.alpha, self.alpha], [self.beta, 1.0 - self.beta]], dtype=float
        )


def stationary_marginal(model: MarkovModel) -> tuple[float, float]:
    """Marginal record distribution ``(Pr[X = 0], Pr[X = 1])``.

    Equals ``(beta, alpha) / (alpha + beta)``; the components sum to 1.
    """
    total = model.alpha + model.beta
    return model.beta / total, model.alpha / total


def multi_step(model: MarkovModel, delta: int) -> np.ndarray:
    """The delta-step transition matrix P^delta as a 2x2 array, for ``delta >= 1``.

    P^delta keeps the two-parameter form [[1 - a_d, a_d], [b_d, 1 - b_d]]
    with a_d / b_d = alpha / beta and 1 - a_d - b_d = (1 - alpha - beta)^delta,
    so a_d = alpha/(alpha+beta) * (1 - (1-alpha-beta)^delta) and symmetrically
    for b_d.  ``delta = 0`` is rejected: the identity matrix is trivial and
    does not satisfy the a_d / b_d = alpha / beta invariant.

    For alpha + beta < 1, 1 - (1-alpha-beta)^delta is computed as
    ``-expm1(delta * log1p(-(alpha + beta)))``, which keeps alpha + beta
    near float resolution (1 - alpha - beta would round to 1 and lose it);
    from alpha + beta = 1 on the base is 0 or negative and the power is
    taken as it is.
    """
    check_integer("delta", delta)
    total = model.alpha + model.beta
    if total < 1.0:
        decay = -math.expm1(delta * math.log1p(-total))
    else:
        decay = 1.0 - (1.0 - total) ** delta
    a_d, b_d = model.alpha / total * decay, model.beta / total * decay
    return np.array([[1.0 - a_d, a_d], [b_d, 1.0 - b_d]])


def chain_states(model: MarkovModel, uniforms: np.ndarray) -> np.ndarray:
    """Chain states driven by ``uniforms`` along the last axis, packed eight to a byte.

    Record 1 is ``uniforms[..., 0] < Pr[X = 1]``.  Each later uniform u acts
    on the previous state through P: from 0 the next state is u < alpha,
    from 1 it is u >= beta.  Under alpha <= beta that is one of three maps,
    whatever the previous state: u < alpha flips it, alpha <= u < beta
    resets it to 0, and u >= beta keeps it.  A state is therefore the
    parity of the flips since the last reset (record 1 counts as a reset
    followed by a flip when it is 1): a segmented prefix XOR of the flips,
    cut at every reset.

    The scan runs on bits.  Record t is bit (t - 1) % 8 of byte (t - 1) // 8
    along the last axis (``np.packbits(..., bitorder="little")``), so the
    result is uint8 of shape ``(..., ceil(n / 8))``; bits past record n carry
    no meaning.  Inside each byte three shift steps (k = 1, 2, 4) double the
    span each bit has XORed, stopping at a reset, and give every record its
    state as if the byte were entered in state 0; the same steps mark the
    records at or after the byte's first reset.  Across bytes the entry
    states are the same scan on one bit per byte, the byte's last state,
    cut at bytes that hold a reset: with c the running count of those bits,
    a byte's exit state is the low bit of c XOR (c before the last such
    byte), a ``cumsum`` and a running maximum over ceil(n / 8) values.  An
    entry state of 1 flips the byte's records before its first reset.  The
    states equal the step-by-step recursion bit for bit.
    """
    _, pi1 = stationary_marginal(model)
    flips = uniforms < model.alpha
    resets = uniforms < model.beta
    resets ^= flips  # alpha <= u < beta, as u < alpha implies u < beta
    flips[..., 0] = uniforms[..., 0] < pi1
    resets[..., 0] = False
    states = np.packbits(flips, axis=-1, bitorder="little")
    stops = np.packbits(resets, axis=-1, bitorder="little")
    for shift in (2, 4, 16):  # << 1, 2, 4 as a product mod 256, which numpy runs faster
        states ^= (states * shift) & ~stops
        stops |= stops * shift  # bit j: a reset at or before bit j of its byte
    exits = states >> 7  # each byte's last state, entered in state 0
    counts = np.cumsum(exits, axis=-1, dtype=np.min_scalar_type(exits.shape[-1]))
    last = counts - exits
    last *= stops >> 7  # c before each byte that resets, else 0
    np.maximum.accumulate(last, axis=-1, out=last)  # in place: c before the last such byte
    last ^= counts
    entries = np.negative(last[..., :-1] & 1, dtype=np.uint8)  # 0 or 0xFF: the previous exit
    states[..., 1:] ^= ~stops[..., 1:] & entries  # flip the records before the first reset
    return states
