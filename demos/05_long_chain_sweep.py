#!/usr/bin/env python3
"""Utility against budget on long chains, with every 3R design audited.

At n = 10^3 and 10^4 records, for the first and the middle record as the
private one, prints the data-independent ceiling, the Markov-quilt
window's exact utility and its closed-form lower bound, and the
utilities of the two three-region designs.  ``gap*n`` is the ceiling
minus the window's utility, in records: it stays at one or two however
long the chain, so the window sits within O(1/n) of the ceiling, while
the randomized designs reach or clear it.  Every 3R mechanism is audited
exactly on the whole chain, and the script exits with status 1 if any of
them leaks more than its budget.
"""

import sys

from markov_redaction import (
    MarkovModel,
    build_3r_numerical,
    build_3r_relaxation,
    dim_upper_bound,
    exact_leakage,
    exact_utility,
    mq_utility_bounds,
)

ALPHA, BETA = 0.01, 0.8
BUDGETS = (0.25, 0.5, 1.0, 2.0, 4.0)

print(f"chain: alpha={ALPHA}, beta={BETA}")
print()
print(
    f"{'n':>6} {'p':>5} {'eps':>5} {'dim-ub':>9} {'mq-lb':>9} {'mq':>9} {'gap*n':>6} "
    f"{'relax':>9} {'numeric':>9} {'leak(rel)':>10} {'leak(num)':>10} {'ok':>3}"
)
failures = 0
for n in (10**3, 10**4):
    model = MarkovModel(n, ALPHA, BETA)
    for p in (1, n // 2):
        for eps in BUDGETS:
            ceiling = dim_upper_bound(model, p, eps).value
            mq_lower, mq_exact = mq_utility_bounds(model, p, eps)
            _, relax_mech = build_3r_relaxation(model, p, eps)
            _, numerical_mech = build_3r_numerical(model, p, eps)
            relax_leak = exact_leakage(model, relax_mech).leakage
            numerical_leak = exact_leakage(model, numerical_mech).leakage
            ok = max(relax_leak, numerical_leak) <= eps
            failures += not ok
            print(
                f"{n:>6} {p:>5} {eps:>5.2f} {ceiling:>9.6f} {mq_lower:>9.6f} "
                f"{mq_exact:>9.6f} {(ceiling - mq_exact) * n:>6.2f} "
                f"{exact_utility(model, relax_mech).exact:>9.6f} "
                f"{exact_utility(model, numerical_mech).exact:>9.6f} "
                f"{relax_leak:>10.6f} {numerical_leak:>10.6f} {'yes' if ok else 'NO':>3}"
            )
print()
if failures:
    print(f"{failures} row(s) leak more than their budget")
    sys.exit(1)
print("every three-region design is certified within its budget by the exact audit")
