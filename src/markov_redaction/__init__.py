"""Design and exact auditing of local redaction mechanisms for
Markov-correlated binary records.

A local redaction mechanism releases each record unchanged or replaces it
with an erasure symbol, with probabilities depending only on that record's
value.  When the records form a stationary two-state Markov chain and one
record must stay private, correlation leaks information through every
released neighbour.  This package computes the influence measures that
quantify such leakage, builds mechanisms that trade utility against a
privacy budget (three-region randomized designs and a deterministic
Markov-quilt window), bounds what any data-independent mechanism can
achieve, and verifies every mechanism's exact worst-case leakage by one
pass over each side of the private record, comparing outputs by where
they first release a record.
"""

from .audit import LeakageReport, REDACTED, exact_leakage, output_probability
from .chain import MarkovModel, MultiStepTransition, Path, multi_step, sample_path, stationary_marginal
from .errors import EnumerationCapError
from .influence import (
    Regions,
    compute_regions,
    delta_star,
    influence_high,
    influence_low,
    max_influence_set,
    pointwise_influence,
    pointwise_set_influence,
)
from .mechanisms import (
    DimBound,
    MqPlan,
    RedactionMechanism,
    ThreeRDesign,
    build_3r_numerical,
    build_3r_relaxation,
    build_mq,
    dim_upper_bound,
    mq_utility_bounds,
    three_r_utility,
)
from .mechfile import read_mechanism, write_mechanism
from .utility import MonteCarloEstimate, UtilityReport, exact_utility, monte_carlo_utility

__version__ = "0.1.0"

__all__ = [
    "EnumerationCapError",
    "MarkovModel",
    "MultiStepTransition",
    "Path",
    "stationary_marginal",
    "multi_step",
    "sample_path",
    "Regions",
    "influence_low",
    "influence_high",
    "pointwise_influence",
    "pointwise_set_influence",
    "max_influence_set",
    "delta_star",
    "compute_regions",
    "RedactionMechanism",
    "ThreeRDesign",
    "MqPlan",
    "DimBound",
    "build_3r_relaxation",
    "build_3r_numerical",
    "build_mq",
    "dim_upper_bound",
    "mq_utility_bounds",
    "three_r_utility",
    "LeakageReport",
    "REDACTED",
    "exact_leakage",
    "output_probability",
    "UtilityReport",
    "MonteCarloEstimate",
    "exact_utility",
    "monte_carlo_utility",
    "read_mechanism",
    "write_mechanism",
]
