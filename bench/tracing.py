"""Span tracing of the package's public functions, applied from outside.

Each traced function is replaced by a wrapper at its module attribute and in
every package module namespace that imported it by name, so calls made
through ``from .audit import exact_leakage`` (including the lazy import inside
``build_3r_numerical``) are seen too.  A span records (name, start, end,
parent); spans live in flat arrays in memory and are written out once, when
the run ends.  A few functions also keep one small per-span observation
(the audit's enumeration count and leakage, the numerical build's budget,
the Monte-Carlo record count) from which the derived layer counters are
computed.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import math
import sys
import time
from array import array

import numpy as np

PACKAGE = "markov_redaction"

#: Traced functions, by layer (the package module that defines them).
LAYER_FUNCTIONS = {
    "cli": ("main",),
    "mechfile": ("read_mechanism", "write_mechanism"),
    "mechanisms": (
        "build_3r_numerical",
        "build_3r_relaxation",
        "build_mq",
        "dim_upper_bound",
        "mq_utility_bounds",
    ),
    "influence": ("compute_regions", "delta_star", "influence_low", "influence_high"),
    "audit": ("exact_leakage", "output_probability"),
    "chain": ("multi_step",),
    "utility": ("exact_utility", "monte_carlo_utility"),
}

#: Functions reported as a call count only.
COUNT_ONLY = frozenset({"chain.multi_step"})

#: Functions whose reported figures cover the set-up phase (they never run in ops).
SETUP_PHASE = frozenset({"mechfile.write_mechanism"})

AUDIT = "audit.exact_leakage"
NUMERICAL = "mechanisms.build_3r_numerical"
MONTE_CARLO = "utility.monte_carlo_utility"

#: Slack of the numerical search's feasibility test, mirrored for accept counts.
_ACCEPT_SLACK = 1e-12


def _observe_audit(bound: inspect.BoundArguments, report):
    model, mechanism = bound.arguments["model"], bound.arguments["mechanism"]
    return (report.outputs_enumerated, report.leakage, model.n, mechanism.p)


def _observe_numerical(bound: inspect.BoundArguments, result):
    args = bound.arguments
    return (args["model"].n, args["p"], args["eps"], args.get("split"))


def _observe_monte_carlo(bound: inspect.BoundArguments, result):
    return bound.arguments["trials"] * bound.arguments["model"].n


_OBSERVERS = {AUDIT: _observe_audit, NUMERICAL: _observe_numerical, MONTE_CARLO: _observe_monte_carlo}


def metric_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    names = []
    for span in _span_names():
        per = "" if span in SETUP_PHASE else "/op"
        names.append((f"{span}.calls", "count" + per))
        if span not in COUNT_ONLY:
            names.append((f"{span}.self_s", "s" + per))
    names += [
        ("audit.outputs_enumerated", "count/op"),
        ("mechanisms.numerical.audits_per_build", "count"),
        ("mechanisms.numerical.accept_ratio", "ratio"),
        ("utility.mc.records_per_s", "1/s"),
    ]
    return names


class Tracer:
    """Records spans of the wrapped functions while ``enabled`` is true."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.observed: dict[int, object] = {}
        self.enabled = True
        self.setup_spans = 0
        self._stack = [-1]

    def install(self) -> None:
        """Wrap every traced function that the installed package defines."""
        layers = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYER_FUNCTIONS}
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for layer, functions in LAYER_FUNCTIONS.items():
            module = layers[layer]
            for fn in functions:
                original = getattr(module, fn, None)
                if original is None:
                    continue  # the function moved or went away; it reports zeros
                wrapper = self._wrap(f"{layer}.{fn}", original)
                for namespace in modules:
                    for attr, value in list(vars(namespace).items()):
                        if value is original:
                            setattr(namespace, attr, wrapper)

    def mark_setup_end(self) -> None:
        """Spans recorded so far belong to set-up; later ones to the ops."""
        self.setup_spans = len(self.name_id)

    @contextlib.contextmanager
    def paused(self):
        """Run benchmark-side code (output checks) without recording spans."""
        previous, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = previous

    def _wrap(self, name: str, original):
        name_id = len(self.names)
        self.names.append(name)
        observer = _OBSERVERS.get(name)
        signature = inspect.signature(original) if observer else None
        stack, clock = self._stack, time.perf_counter
        ids, starts, ends, parents = self.name_id, self.start, self.end, self.parent

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not self.enabled:
                return original(*args, **kwargs)
            index = len(ids)
            ids.append(name_id)
            parents.append(stack[-1])
            ends.append(math.nan)
            stack.append(index)
            starts.append(clock())
            try:
                result = original(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if observer is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self.observed[index] = observer(bound, result)
            return result

        return traced

    def save(self, path) -> None:
        """Write every span (name, start, end, parent) as one .npz file."""
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.uint16),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            setup_spans=np.int64(self.setup_spans),
        )

    def layer_metrics(self, ops: int) -> dict[str, float]:
        """Per-layer figures: op-phase values per op, set-up ones per set-up."""
        ids = np.frombuffer(self.name_id, dtype=np.uint16)
        duration = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(
            self.start, dtype=np.float64
        )
        parent = np.frombuffer(self.parent, dtype=np.int32)
        has_parent = parent >= 0
        covered = np.bincount(
            parent[has_parent], weights=duration[has_parent], minlength=ids.size
        )
        self_time = duration - covered
        in_ops = np.arange(ids.size) >= self.setup_spans
        per_op = 1.0 / max(ops, 1)

        metrics: dict[str, float] = {}
        for span in _span_names():
            if span in self.names:
                mask = ids == self.names.index(span)
            else:
                mask = np.zeros(ids.size, dtype=bool)
            if span in SETUP_PHASE:
                mask, scale = mask & ~in_ops, 1.0
            else:
                mask, scale = mask & in_ops, per_op
            metrics[f"{span}.calls"] = float(mask.sum()) * scale
            if span not in COUNT_ONLY:
                metrics[f"{span}.self_s"] = float(self_time[mask].sum()) * scale

        op_spans = [i for i in self.observed if i >= self.setup_spans]
        audits = [i for i in op_spans if self.names[ids[i]] == AUDIT]
        metrics["audit.outputs_enumerated"] = sum(self.observed[i][0] for i in audits) * per_op

        builds = {i for i in op_spans if self.names[ids[i]] == NUMERICAL}
        build_audits = [i for i in audits if parent[i] in builds]
        accepted = sum(
            _accepted(self.observed[i], self.observed[parent[i]]) for i in build_audits
        )
        metrics["mechanisms.numerical.audits_per_build"] = (
            len(build_audits) / len(builds) if builds else 0.0
        )
        metrics["mechanisms.numerical.accept_ratio"] = (
            accepted / len(build_audits) if build_audits else 0.0
        )

        sampled = [i for i in op_spans if self.names[ids[i]] == MONTE_CARLO]
        busy = float(duration[sampled].sum()) if sampled else 0.0
        records = sum(self.observed[i] for i in sampled)
        metrics["utility.mc.records_per_s"] = records / busy if busy > 0 else 0.0
        return metrics


def _span_names() -> list[str]:
    return [f"{layer}.{fn}" for layer, functions in LAYER_FUNCTIONS.items() for fn in functions]


def _side_budgets(p: int, eps: float, split) -> tuple[float, float]:
    if split is not None:
        return float(split[0]), float(split[1])
    return (0.0, eps) if p == 1 else (eps / 2.0, eps / 2.0)


def _accepted(audit, build) -> bool:
    """Whether a search audit met the budget of the chain it audited.

    The left side chain is [1, p] (length p, private index p), the right
    one [p, n] (private index 1); a chain of the full length is held to the
    total budget, unless it is the only side (p = 1 or p = n).
    """
    _, leakage, side_n, side_p = audit
    n, p, eps, split = build
    eps_left, eps_right = _side_budgets(p, eps, split)
    if side_n == n and 1 < p < n:
        budget = eps
    elif side_n == n:
        budget = eps_right if p == 1 else eps_left
    elif side_p == p:
        budget = eps_left
    else:
        budget = eps_right
    return leakage <= budget + _ACCEPT_SLACK
