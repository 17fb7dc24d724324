#!/usr/bin/env python3
"""Why randomize? A two-record walkthrough.

Two correlated records, the first one private, budget eps = 0.5.  Any
mechanism that ignores the record's value must redact both records: the
max influence of the neighbour is log 2 > 0.5, so utility 0 is the best a
data-independent rule can do.  Looking at the value helps: observing a 0
only carries log(3/2) < 0.5.  But releasing every 0 deterministically
would leak the value through the redaction pattern itself, so the release
of a 0 keeps a redaction probability q.  This script derives the exact
feasibility condition for q, audits a compliant choice, and shows the
utility it buys.
"""

import math

from markov_redaction import (
    MarkovModel,
    RedactionMechanism,
    build_3r_numerical,
    dim_upper_bound,
    exact_leakage,
    exact_utility,
    max_influence_set,
    multi_step,
    pointwise_influence,
)

model = MarkovModel(n=2, alpha=0.25, beta=0.5)
eps = 0.5
print(f"chain: n=2, alpha={model.alpha}, beta={model.beta}; private record: 1; eps={eps}")
print()

step = multi_step(model, 1)
print("likelihood ratios Pr[X2=x2 | X1=x] / Pr[X2=x2 | X1=1-x]:")
print(f"{'':>6} {'x2=0':>8} {'x2=1':>8}")
print(f"{'x=0':>6} {step[0, 0] / step[1, 0]:>8.4f} {step[0, 1] / step[1, 1]:>8.4f}")
print(f"{'x=1':>6} {step[1, 0] / step[0, 0]:>8.4f} {step[1, 1] / step[0, 1]:>8.4f}")
print()
print(f"influence of observing X2=0: {pointwise_influence(model, 1, 2, 0):.6f} = log(3/2)")
print(f"max influence of X2:         {max_influence_set(model, 1, {2}):.6f} = log 2")
print(f"data-independent utility ceiling: {dim_upper_bound(model, 1, eps).value}")
print()

print("releasing X2=0 with redaction probability q leaks, at the all-redacted output,")
print("  (q*beta + 1-beta) / (alpha + q*(1-alpha)) <= e^eps")
q_threshold = (math.exp(eps) * model.alpha - (1 - model.beta)) / (
    model.beta - math.exp(eps) * (1 - model.alpha)
)
print(f"which solves to q >= {q_threshold:.6f}")
print()

for q in (0.125, 0.5):
    mechanism = RedactionMechanism(n=2, p=1, redact_prob=[[1.0, 1.0], [q, 1.0]])
    report = exact_leakage(model, mechanism)
    utility = exact_utility(model, mechanism).exact
    verdict = "fits" if report.leakage <= eps else "exceeds"
    print(
        f"q={q}: audited leakage {report.leakage:.6f} {verdict} eps "
        f"(witness {report.witness}), utility {utility:.6f}"
    )
print()

design, _ = build_3r_numerical(model, 1, eps)
print(f"smallest grid-feasible q from the exact audit: {design.q[2]:.6f}")
print("every positive utility here beats the data-independent ceiling of 0")
