#!/usr/bin/env python3
"""Utility against privacy budget, across mechanisms.

Sweeps the budget over a log-spaced grid and prints, for each point, the
data-independent ceiling, the Markov-quilt window's exact utility, and the
two randomized designs' utilities with their audited leakage.  The steps
in the curves come from region-membership changes; the randomized designs
sit above the window everywhere and can cross the data-independent
ceiling, which is the whole point of value-dependent redaction.
"""

import math

import numpy as np

from markov_redaction import (
    MarkovModel,
    build_3r_numerical,
    build_3r_relaxation,
    build_mq,
    dim_upper_bound,
    exact_leakage,
    exact_utility,
)

model = MarkovModel(n=10, alpha=0.01, beta=0.8)
p = 1
grid = [float(x) for x in np.logspace(math.log10(0.05), math.log10(6.0), 15)]
print(f"chain: n={model.n}, alpha={model.alpha}, beta={model.beta}; p={p}")
print()
print(f"{'eps':>7} {'dim-ub':>7} {'mq':>6} {'relax':>7} {'numeric':>8} {'leak(num)':>10} {'ok':>3}")
for eps in grid:
    ceiling = dim_upper_bound(model, p, eps).value
    mq_utility = exact_utility(model, build_mq(model, p, eps)[1]).exact
    _, relax_mech = build_3r_relaxation(model, p, eps)
    _, numerical_mech = build_3r_numerical(model, p, eps)
    leak = exact_leakage(model, numerical_mech).leakage
    print(
        f"{eps:>7.3f} {ceiling:>7.3f} {mq_utility:>6.2f} "
        f"{exact_utility(model, relax_mech).exact:>7.4f} "
        f"{exact_utility(model, numerical_mech).exact:>8.4f} "
        f"{leak:>10.6f} {'yes' if leak <= eps + 1e-9 else 'NO':>3}"
    )
print()
print("the same sweep is exported as CSV by:")
print("  markov-redaction utility-curve --alpha 0.01 --beta 0.8 --n 10 --p 1 --out sweep.csv")
