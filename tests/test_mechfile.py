import numpy as np
import pytest

from markov_redaction import MarkovModel, build_3r_relaxation, read_mechanism, write_mechanism
from markov_redaction.mechfile import FORMAT_TAG, dumps_mechanism


def test_round_trip_is_exact(tmp_path):
    model = MarkovModel(10, 0.01, 0.8)
    _, mech = build_3r_relaxation(model, 1, 1.0)
    path = tmp_path / "mechanism.json"
    write_mechanism(path, model, mech, "3r-relaxation")
    loaded_model, loaded_mech, kind = read_mechanism(path)
    assert kind == "3r-relaxation"
    assert loaded_model == model
    assert loaded_mech.n == mech.n and loaded_mech.p == mech.p
    assert np.array_equal(loaded_mech.redact_prob, mech.redact_prob)  # bit-exact


def test_serialized_floats_carry_full_precision():
    model = MarkovModel(2, 0.25, 0.5)
    _, mech = build_3r_relaxation(model, 1, 0.5)
    text = dumps_mechanism(model, mech, "3r-relaxation")
    assert format(mech.redact_prob[1, 0], ".17g") in text
    assert FORMAT_TAG in text


def test_unknown_field_rejected(tmp_path):
    model = MarkovModel(2, 0.25, 0.5)
    _, mech = build_3r_relaxation(model, 1, 0.5)
    path = tmp_path / "mechanism.json"
    text = dumps_mechanism(model, mech, "x").replace('"kind"', '"kind2"')
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError, match="unknown field"):
        read_mechanism(path)


def test_missing_field_rejected(tmp_path):
    path = tmp_path / "mechanism.json"
    path.write_text('{"format": "%s"}' % FORMAT_TAG, encoding="utf-8")
    with pytest.raises(ValueError, match="missing field"):
        read_mechanism(path)


def test_malformed_json_reports_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "format": oops\n}', encoding="utf-8")
    with pytest.raises(ValueError, match="line 2"):
        read_mechanism(path)


def test_bad_rows_and_types_rejected(tmp_path):
    model = MarkovModel(2, 0.25, 0.5)
    _, mech = build_3r_relaxation(model, 1, 0.5)
    good = dumps_mechanism(model, mech, "x")
    path = tmp_path / "mechanism.json"

    path.write_text(good.replace('"n": 2', '"n": 3'), encoding="utf-8")
    with pytest.raises(ValueError, match="rows"):
        read_mechanism(path)
    with pytest.raises(ValueError, match="rows"):
        dumps_mechanism(MarkovModel(3, 0.25, 0.5), mech, "x")

    path.write_text(good.replace('"n": 2', '"n": true'), encoding="utf-8")
    with pytest.raises(ValueError, match="wrong type"):
        read_mechanism(path)

    path.write_text(good.replace("[1, 1]", "[1, 1, 1]", 1), encoding="utf-8")
    with pytest.raises(ValueError, match="row 1"):
        read_mechanism(path)


def test_wrong_format_tag_rejected(tmp_path):
    model = MarkovModel(2, 0.25, 0.5)
    _, mech = build_3r_relaxation(model, 1, 0.5)
    path = tmp_path / "mechanism.json"
    path.write_text(
        dumps_mechanism(model, mech, "x").replace(FORMAT_TAG, "something-else"),
        encoding="utf-8",
    )
    with pytest.raises(ValueError, match="format"):
        read_mechanism(path)
