#!/usr/bin/env python3
"""Design the three mechanisms for one chain and audit them exactly.

Ten records, the first one private, budget eps = 1.  The Markov-quilt
baseline redacts a deterministic window; the relaxation design randomizes
the medium region with a closed-form q; the numerical design pushes q to
the smallest grid value the exact audit certifies.  Every mechanism is
then audited exactly, comparing its outputs by where each side first
releases a record, so the reported leakages are exact, not bounds.
"""

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
p, eps = 1, 1.0
print(f"chain: n={model.n}, alpha={model.alpha}, beta={model.beta}; p={p}; eps={eps}")
print()

plan, mq_mech = build_mq(model, p, eps)
relax_design, relax_mech = build_3r_relaxation(model, p, eps)
numerical_design, numerical_mech = build_3r_numerical(model, p, eps)

print(f"markov-quilt window: records {plan.window[0]}..{plan.window[1]} ({plan.branch})")
print(f"three-region split:  large {sorted(relax_design.regions.large)}, "
      f"medium {sorted(relax_design.regions.medium)}, small {sorted(relax_design.regions.small)}")
print(f"relaxation q on medium: {next(iter(relax_design.q.values())):.6f}")
print(f"numerical  q on medium: {next(iter(numerical_design.q.values())):.6f}")
print()

print("redaction probabilities for the value 0, per record:")
print(f"{'t':>3} {'mq':>8} {'relax':>8} {'numeric':>8}")
for t in range(1, model.n + 1):
    print(
        f"{t:>3} {mq_mech.redact_prob[t - 1, 0]:>8.4f} "
        f"{relax_mech.redact_prob[t - 1, 0]:>8.4f} "
        f"{numerical_mech.redact_prob[t - 1, 0]:>8.4f}"
    )
print()

print(f"data-independent utility ceiling: {dim_upper_bound(model, p, eps).value:.4f}")
print(f"{'mechanism':>12} {'utility':>9} {'leakage':>10} {'classes':>8}")
for name, mech in (("mq", mq_mech), ("relaxation", relax_mech), ("numerical", numerical_mech)):
    report = exact_leakage(model, mech)
    utility = exact_utility(model, mech).exact
    print(f"{name:>12} {utility:>9.4f} {report.leakage:>10.6f} {report.outputs_enumerated:>8}")
print()
print("both randomized designs clear the data-independent ceiling while the")
print("exact audit certifies that their leakage stays within the budget")
