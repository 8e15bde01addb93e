from __future__ import annotations

import numpy as np
import pytest

from conftest import random_coefficients
from selftesting import compute_tables, ideal_realization, reference_tables
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
    import json

    doc = json.loads(path.read_text())
    doc["state"][0] = [5.0, 0.0]
    path.write_text(json.dumps(doc))
    with pytest.raises(Exception):
        load_realization(path)
