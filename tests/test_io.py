from __future__ import annotations

import json

import numpy as np
import pytest

from conftest import random_coefficients
from selftesting import SchmidtCoefficients, compute_tables, ideal_realization, reference_tables
from selftesting.errors import ParseError
from selftesting.io import (
    load_coefficients,
    load_realization,
    load_tables,
    save_coefficients,
    save_realization,
    save_tables,
)


def test_coefficients_roundtrip(tmp_path):
    sc = random_coefficients(3, seed=29)
    path = tmp_path / "c.json"
    save_coefficients(sc, path)
    back = load_coefficients(path)
    assert np.array_equal(back.c, sc.c)


def test_tables_roundtrip(tmp_path):
    sc = random_coefficients(4, seed=30)
    t = reference_tables(sc)
    path = tmp_path / "t.json"
    save_tables(t, path)
    back = load_tables(path)
    assert back.d == 4
    assert back.pairs() == t.pairs()
    for pair in t.pairs():
        assert np.max(np.abs(back.table(*pair) - t.table(*pair))) < 1e-15


def test_realization_roundtrip(tmp_path):
    sc = random_coefficients(3, seed=31)
    r = ideal_realization(sc)
    path = tmp_path / "r.json"
    save_realization(r, path)
    back = load_realization(path)
    assert back.dim_a == r.dim_a and back.dim_b == r.dim_b
    assert np.max(np.abs(back.state - r.state)) < 1e-15
    # a real device comes back real and equal
    assert back.state.dtype == np.float64 and np.array_equal(back.state, r.state)
    for a, b in zip((*r.alice, *r.bob), (*back.alice, *back.bob)):
        assert b.projectors.dtype == np.float64 and np.array_equal(a.projectors, b.projectors)
    t0 = compute_tables(r)
    t1 = compute_tables(back)
    for pair in t0.pairs():
        assert np.max(np.abs(t0.table(*pair) - t1.table(*pair))) < 1e-14


def test_load_rejects_malformed_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ParseError) as err:
        load_tables(path)
    assert "line" in str(err.value)


def test_load_rejects_missing_fields(tmp_path):
    path = tmp_path / "short.json"
    path.write_text('{"d": 2}')
    with pytest.raises(ParseError) as err:
        load_tables(path)
    assert "tables" in str(err.value)


def test_load_coefficients_d_mismatch(tmp_path):
    path = tmp_path / "c.json"
    path.write_text('{"d": 3, "c": [0.8, 0.6]}')
    with pytest.raises(ParseError):
        load_coefficients(path)


def test_load_tables_rejects_bad_key_and_shape(tmp_path):
    path = tmp_path / "t1.json"
    path.write_text('{"d": 2, "tables": {"0;0": [[0.5, 0.0], [0.0, 0.5]]}}')
    with pytest.raises(ParseError):
        load_tables(path)
    path2 = tmp_path / "t2.json"
    path2.write_text('{"d": 2, "tables": {"0,0": [[0.5, 0.0, 0.0], [0.0, 0.5, 0.0]]}}')
    with pytest.raises(ParseError):
        load_tables(path2)


def test_load_tables_rejects_non_ascii_digit_key(tmp_path):
    # '²' passes str.isdigit but not int()
    path = tmp_path / "t.json"
    path.write_text('{"d": 2, "tables": {"\u00b2,0": [[0.5, 0.0], [0.0, 0.5]]}}')
    with pytest.raises(ParseError) as err:
        load_tables(path)
    assert "'²,0'" in str(err.value)


def test_load_tables_rejects_repeated_pair(tmp_path):
    # two spellings of one setting pair must not overwrite each other
    path = tmp_path / "t.json"
    path.write_text(
        '{"d": 2, "tables": {"0,1": [[0.5, 0.0], [0.0, 0.5]], "0, 1": [[0.0, 0.5], [0.5, 0.0]]}}'
    )
    with pytest.raises(ParseError) as err:
        load_tables(path)
    assert "'0,1'" in str(err.value) and "'0, 1'" in str(err.value)
    # the same spelling twice, which json.loads alone resolves to the last
    path.write_text(
        '{"d": 2, "tables": {"0,1": [[0.5, 0.0], [0.0, 0.5]], "0,1": [[0.0, 0.5], [0.5, 0.0]]}}'
    )
    with pytest.raises(ParseError) as err:
        load_tables(path)
    assert "'0,1'" in str(err.value)


def test_load_realization_validates_by_default(tmp_path):
    sc = random_coefficients(2, seed=32)
    r = ideal_realization(sc)
    path = tmp_path / "r.json"
    save_realization(r, path)
    doc = json.loads(path.read_text())
    doc["state"][0] = [5.0, 0.0]
    path.write_text(json.dumps(doc))
    with pytest.raises(Exception):
        load_realization(path)


@pytest.mark.parametrize(
    "load, text, where",
    [
        # loaded silently as [[1., 0.], [0., 0.]]
        (load_tables, '{"d": 2, "tables": {"0,0": [[true, false], [false, false]]}}',
         "['tables']['0,0'][0][0]"),
        # raised CoefficientRangeError
        (load_coefficients, '{"d": 2, "c": [true, 0.5]}', "['c'][0]"),
        # raised DimensionError, since True == 1 == len(c)
        (load_coefficients, '{"d": true, "c": [0.6]}', "['d']"),
        (load_tables, '{"d": true, "tables": {}}', "['d']"),
        (load_realization, '{"dimA": 2, "dimB": false, "state": [], "alice": [], "bob": []}',
         "['dimB']"),
    ],
    ids=["table-entries", "coefficient", "coefficients-d", "tables-d", "realization-dim"],
)
def test_load_rejects_booleans(tmp_path, load, text, where):
    path = tmp_path / "in.json"
    path.write_text(text)
    with pytest.raises(ParseError) as err:
        load(path)
    assert str(err.value) == f"{path}: {where} is true/false where a number is expected"


def test_load_realization_rejects_boolean_entries(tmp_path):
    path = tmp_path / "r.json"
    save_realization(ideal_realization(random_coefficients(2, seed=33)), path)
    doc = json.loads(path.read_text())
    doc["bob"][3][1][0][1] = [False, 0.0]
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError) as err:
        load_realization(path)
    assert "['bob'][3][1][0][1][0] is true/false" in str(err.value)


def test_load_accepts_true_inside_strings(tmp_path):
    # only a JSON literal counts, not the word in a key or a string value
    path = tmp_path / "c.json"
    path.write_text('{"d": 2, "c": [0.8, 0.6], "note": "true, not false"}')
    assert load_coefficients(path).c.tolist() == [0.8, 0.6]


NOT_NUMBERS = "entries must be numbers (found a string, a null or an integer beyond 64 bits)"


@pytest.mark.parametrize(
    "entry", ['"0.5"', "null", str(10**30)], ids=["string", "null", "big-integer"]
)
def test_load_tables_rejects_non_numbers(tmp_path, entry):
    # the string loaded silently as 0.5, and the null as NaN
    path = tmp_path / "t.json"
    path.write_text('{"d": 2, "tables": {"0,0": [[%s, 0], [0, 0.5]]}}' % entry)
    with pytest.raises(ParseError) as err:
        load_tables(path)
    assert str(err.value) == f"{path}: table '0,0': {NOT_NUMBERS}"


@pytest.mark.parametrize(
    "keys, where",
    [(("state", 0, 0), "'state'"), (("alice", 1, 0, 1, 1, 0), "'alice' setting 1 outcome 0")],
    ids=["state", "projector"],
)
@pytest.mark.parametrize("value", ["0.8", None], ids=["string", "null"])
def test_load_realization_rejects_non_numbers(tmp_path, keys, where, value):
    path = tmp_path / "r.json"
    save_realization(ideal_realization(SchmidtCoefficients(np.array([0.8, 0.6]))), path)
    doc = json.loads(path.read_text())
    parent = doc
    for key in keys[:-1]:
        parent = parent[key]
    parent[keys[-1]] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError) as err:
        load_realization(path)
    assert str(err.value) == f"{path}: {where}: {NOT_NUMBERS}"
