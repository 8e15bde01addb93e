"""JSON serialization of coefficients, tables, and realizations.

Formats (all plain JSON):

* coefficients: ``{"d": int, "c": [float, ...]}``
* tables: ``{"d": int, "tables": {"x,y": [[float, ...], ...], ...}}``;
  keys are comma-joined setting pairs in ASCII digits, each pair named at
  most once; absent keys mean unconstrained.
* realization: ``{"dimA": int, "dimB": int, "state": [[re, im], ...],
  "alice": [[matrix, ...], ...], "bob": [[matrix, ...], ...]}`` where the
  state is row-major over (first, second) party indices, each setting is a
  list of per-outcome matrices, and every matrix entry is an [re, im] pair.

Malformed documents raise :class:`ParseError` with the offending field
(including non-numeric entries, ragged matrices and a key repeated within
one object), and so do tables with non-finite entries and realizations
whose validation fails with a ``ValueError`` (non-finite state, broken
projectors); domain violations with their own type (bad normalization,
non-Hermitian projectors) surface as that type.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

import numpy as np

from .correlations import CorrelationTables
from .errors import ParseError
from .ideal import Measurement, Realization
from .schmidt import SchmidtCoefficients

__all__ = [
    "load_coefficients",
    "save_coefficients",
    "load_tables",
    "save_tables",
    "tables_to_doc",
    "load_realization",
    "save_realization",
    "realization_to_doc",
]


def _read_json(path: str | Path) -> Any:
    def unique_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
        # Plain json.loads keeps only the last value of a repeated key.
        obj = dict(pairs)
        if len(obj) < len(pairs):
            keys = [key for key, _ in pairs]
            repeated = sorted({key for key in keys if keys.count(key) > 1})
            raise ParseError(f"{path}: keys {repeated} repeated within one object")
        return obj

    text = Path(path).read_text()
    try:
        return json.loads(text, object_pairs_hook=unique_keys)
    except json.JSONDecodeError as e:
        raise ParseError(f"{path}: invalid JSON at line {e.lineno} column {e.colno}: {e.msg}") from None


def _field(doc: Any, name: str, path: str | Path) -> Any:
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: expected a JSON object at top level")
    if name not in doc:
        raise ParseError(f"{path}: missing field '{name}'")
    return doc[name]


def _float_array(value: Any, path: str | Path, where: str) -> np.ndarray:
    """A JSON value as a float array; non-numeric or ragged data is a ParseError."""
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError) as e:
        raise ParseError(f"{path}: {where}: {e}") from None


def load_coefficients(path: str | Path) -> SchmidtCoefficients:
    doc = _read_json(path)
    d = _field(doc, "d", path)
    c = _field(doc, "c", path)
    if not isinstance(c, list) or not all(isinstance(v, (int, float)) for v in c):
        raise ParseError(f"{path}: field 'c' must be a list of numbers")
    if not isinstance(d, int) or d != len(c):
        raise ParseError(f"{path}: field 'd' ({d!r}) does not match len(c) = {len(c)}")
    return SchmidtCoefficients(np.array(c, dtype=float))


def save_coefficients(sc: SchmidtCoefficients, path: str | Path) -> None:
    Path(path).write_text(json.dumps({"d": sc.d, "c": sc.c.tolist()}, indent=2) + "\n")


def tables_to_doc(t: CorrelationTables) -> dict[str, Any]:
    return {
        "d": t.d,
        "tables": {f"{x},{y}": t.tables[(x, y)].tolist() for x, y in t.pairs()},
    }


def load_tables(path: str | Path) -> CorrelationTables:
    doc = _read_json(path)
    d = _field(doc, "d", path)
    raw = _field(doc, "tables", path)
    if not isinstance(d, int) or d < 2:
        raise ParseError(f"{path}: field 'd' must be an integer >= 2")
    if not isinstance(raw, dict):
        raise ParseError(f"{path}: field 'tables' must be an object")
    tables: dict[tuple[int, int], np.ndarray] = {}
    keys: dict[tuple[int, int], str] = {}
    for key, rows in raw.items():
        parts = [p.strip() for p in key.split(",")]
        # str.isdigit also accepts digits such as '²' that int() rejects.
        if len(parts) != 2 or not all(p.isascii() and p.isdigit() for p in parts):
            raise ParseError(f"{path}: table key {key!r} is not of the form 'x,y'")
        pair = (int(parts[0]), int(parts[1]))
        if pair in keys:
            raise ParseError(
                f"{path}: table keys {keys[pair]!r} and {key!r} name the same pair {pair}"
            )
        keys[pair] = key
        arr = _float_array(rows, path, f"table {key!r}")
        if arr.shape != (d, d):
            raise ParseError(f"{path}: table {key!r} has shape {arr.shape}, expected ({d}, {d})")
        tables[pair] = arr
    try:
        return CorrelationTables(d=d, tables=tables)
    except ValueError as e:
        raise ParseError(f"{path}: {e}") from None


def save_tables(t: CorrelationTables, path: str | Path) -> None:
    Path(path).write_text(json.dumps(tables_to_doc(t), indent=2) + "\n")


def _matrix_to_pairs(mat: np.ndarray) -> list[list[list[float]]]:
    return [[[float(v.real), float(v.imag)] for v in row] for row in mat]


def _pairs_to_matrix(rows: Any, dim: int, where: str, path: str | Path) -> np.ndarray:
    arr = _float_array(rows, path, where)
    if arr.shape != (dim, dim, 2):
        raise ParseError(
            f"{path}: {where} must be a {dim}x{dim} matrix of [re, im] pairs, got shape {arr.shape}"
        )
    return arr[..., 0] + 1j * arr[..., 1]


def realization_to_doc(r: Realization) -> dict[str, Any]:
    return {
        "dimA": r.dim_a,
        "dimB": r.dim_b,
        "state": [[float(v.real), float(v.imag)] for v in r.state],
        "alice": [
            [_matrix_to_pairs(p) for p in meas.projectors] for meas in r.alice
        ],
        "bob": [
            [_matrix_to_pairs(p) for p in meas.projectors] for meas in r.bob
        ],
    }


def save_realization(r: Realization, path: str | Path) -> None:
    Path(path).write_text(json.dumps(realization_to_doc(r)) + "\n")


def load_realization(path: str | Path) -> Realization:
    """Read and validate a realization."""
    doc = _read_json(path)
    dim_a = _field(doc, "dimA", path)
    dim_b = _field(doc, "dimB", path)
    if not isinstance(dim_a, int) or not isinstance(dim_b, int):
        raise ParseError(f"{path}: 'dimA' and 'dimB' must be integers")
    state_raw = _float_array(_field(doc, "state", path), path, "'state'")
    if state_raw.shape != (dim_a * dim_b, 2):
        raise ParseError(
            f"{path}: 'state' must be a list of dimA*dimB [re, im] pairs, got shape {state_raw.shape}"
        )
    state = state_raw[:, 0] + 1j * state_raw[:, 1]

    def read_side(name: str, n_settings: int, dim: int) -> tuple[Measurement, ...]:
        raw = _field(doc, name, path)
        if not isinstance(raw, list) or len(raw) != n_settings:
            raise ParseError(f"{path}: '{name}' must list {n_settings} settings")
        side = []
        for s, setting in enumerate(raw):
            if not isinstance(setting, list) or not setting:
                raise ParseError(f"{path}: '{name}' setting {s} must be a non-empty list")
            stack = np.stack(
                [
                    _pairs_to_matrix(mat, dim, f"'{name}' setting {s} outcome {k}", path)
                    for k, mat in enumerate(setting)
                ]
            )
            side.append(Measurement(stack))
        return tuple(side)

    r = Realization(
        dim_a=dim_a,
        dim_b=dim_b,
        state=state,
        alice=read_side("alice", 3, dim_a),
        bob=read_side("bob", 4, dim_b),
    )
    try:
        r.validate()
    except ValueError as e:
        raise ParseError(f"{path}: {e}") from None
    return r
