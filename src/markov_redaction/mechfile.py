"""Self-describing text format for mechanism tables.

A mechanism file is a UTF-8 JSON object with exactly the fields

    format       fixed tag "markov-redaction-mechanism/1"
    kind         free-form mechanism label (e.g. "mq", "3r-relaxation")
    n, p         chain length and private index
    alpha, beta  chain parameters
    redact_prob  n rows of [r_t(0), r_t(1)], t = 1..n

Floats are written with 17 significant digits so every double round-trips
exactly; unknown fields are rejected on read.
"""

from __future__ import annotations

import json

from .chain import MarkovModel
from .mechanisms import RedactionMechanism

__all__ = ["FORMAT_TAG", "write_mechanism", "read_mechanism", "dumps_mechanism"]

FORMAT_TAG = "markov-redaction-mechanism/1"

_FIELDS = ("format", "kind", "n", "p", "alpha", "beta", "redact_prob")


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def dumps_mechanism(
    model: MarkovModel, mechanism: RedactionMechanism, kind: str
) -> str:
    """Serialize to the mechanism file text (valid JSON, full precision)."""
    mechanism.check_model(model)
    rows = ",\n".join(
        f"    [{_fmt(r0)}, {_fmt(r1)}]" for r0, r1 in mechanism.redact_prob
    )
    return (
        "{\n"
        f'  "format": {json.dumps(FORMAT_TAG)},\n'
        f'  "kind": {json.dumps(kind)},\n'
        f'  "n": {mechanism.n},\n'
        f'  "p": {mechanism.p},\n'
        f'  "alpha": {_fmt(model.alpha)},\n'
        f'  "beta": {_fmt(model.beta)},\n'
        '  "redact_prob": [\n'
        f"{rows}\n"
        "  ]\n"
        "}\n"
    )


def write_mechanism(
    path, model: MarkovModel, mechanism: RedactionMechanism, kind: str
) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps_mechanism(model, mechanism, kind))


def _field(raw: dict, name: str, kinds, path: str):
    value = raw[name]
    if not isinstance(value, kinds) or isinstance(value, bool):
        raise ValueError(f"{path}: field '{name}' has the wrong type")
    return value


def _parse(raw: dict, path: str) -> tuple[MarkovModel, RedactionMechanism, str]:
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: top level must be a JSON object")
    unknown = set(raw) - set(_FIELDS)
    if unknown:
        raise ValueError(f"{path}: unknown field(s) {sorted(unknown)}")
    missing = set(_FIELDS) - set(raw)
    if missing:
        raise ValueError(f"{path}: missing field(s) {sorted(missing)}")
    if raw["format"] != FORMAT_TAG:
        raise ValueError(f"{path}: field 'format' must be {FORMAT_TAG!r}")
    kind = _field(raw, "kind", str, path)
    n = _field(raw, "n", int, path)
    p = _field(raw, "p", int, path)
    alpha = float(_field(raw, "alpha", (int, float), path))
    beta = float(_field(raw, "beta", (int, float), path))
    rows = _field(raw, "redact_prob", list, path)
    if len(rows) != n:
        raise ValueError(f"{path}: field 'redact_prob' must have {n} rows, got {len(rows)}")
    table = []
    for t, row in enumerate(rows, start=1):
        if (
            not isinstance(row, list)
            or len(row) != 2
            or any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in row)
        ):
            raise ValueError(f"{path}: field 'redact_prob' row {t} must be two numbers")
        table.append([float(row[0]), float(row[1])])
    model = MarkovModel(n=n, alpha=alpha, beta=beta)
    mechanism = RedactionMechanism(
        n=n, p=p, redact_prob=table, enforce_private_redaction=False
    )
    return model, mechanism, kind


def read_mechanism(path) -> tuple[MarkovModel, RedactionMechanism, str]:
    """Parse a mechanism file; raises ValueError with line/field context."""
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as err:
        raise ValueError(
            f"{path}: line {err.lineno}, column {err.colno}: {err.msg}"
        ) from None
    return _parse(raw, str(path))
