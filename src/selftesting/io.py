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

Files are read as UTF-8, and one that is not UTF-8 text raises
:class:`ParseError`. Malformed documents raise it with the offending field
(including non-numeric entries such as a string or a null where a number
is expected, ragged matrices, a key repeated within one
object, and a JSON ``true`` or ``false`` anywhere: no field of these
formats is boolean), and so do tables with non-finite entries and
realizations whose validation fails with a ``ValueError`` (non-finite
state, broken projectors); domain violations with their own type (bad
normalization, non-Hermitian projectors) surface as that type.
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

    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise ParseError(f"{path}: not UTF-8 text: {e.reason} at byte {e.start}") from None
    try:
        doc = json.loads(text, object_pairs_hook=unique_keys)
    except json.JSONDecodeError as e:
        raise ParseError(f"{path}: invalid JSON at line {e.lineno} column {e.colno}: {e.msg}") from None
    # JSON true and false load as bool, which isinstance(v, int) accepts and
    # numpy reads as 1.0 and 0.0. Only a text that spells one can hold one.
    if isinstance(doc, dict) and ("true" in text or "false" in text):
        where = _bool_path(doc)
        if where is not None:
            raise ParseError(f"{path}: {where} is true/false where a number is expected")
    return doc


def _bool_path(doc: dict[str, Any]) -> str | None:
    """Subscript path, such as ``['c'][0]``, of the first bool in `doc`."""
    stack: list[tuple[str, Any]] = [("", doc)]
    while stack:
        where, value = stack.pop()
        if type(value) is bool:
            return where
        if isinstance(value, dict):
            items = list(value.items())
        elif isinstance(value, list):
            items = list(enumerate(value))
        else:
            continue
        stack.extend((f"{where}[{key!r}]", v) for key, v in reversed(items))
    return None


def _field(doc: Any, name: str, path: str | Path) -> Any:
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: expected a JSON object at top level")
    if name not in doc:
        raise ParseError(f"{path}: missing field '{name}'")
    return doc[name]


def _float_array(value: Any, path: str | Path, where: str) -> np.ndarray:
    """A JSON value as a float array; non-numeric or ragged data is a ParseError.

    The value is read without a dtype, so a string or a null shows as a
    string or object array instead of being parsed or read as NaN.
    """
    try:
        arr = np.asarray(value)
    except (TypeError, ValueError) as e:
        raise ParseError(f"{path}: {where}: {e}") from None
    if arr.dtype.kind not in "iuf":
        raise ParseError(
            f"{path}: {where}: entries must be numbers "
            "(found a string, a null or an integer beyond 64 bits)"
        )
    return arr.astype(float, copy=False)


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


def _pairs_to_matrix(rows: Any, dim: int, where: str, path: str | Path) -> np.ndarray:
    arr = _float_array(rows, path, where)
    if arr.shape != (dim, dim, 2):
        raise ParseError(
            f"{path}: {where} must be a {dim}x{dim} matrix of [re, im] pairs, got shape {arr.shape}"
        )
    return arr[..., 0] + 1j * arr[..., 1]


def _pairs(a: np.ndarray) -> list[Any]:
    """`a` as nested lists with each entry an [re, im] pair."""
    return np.stack((a.real, a.imag), -1).tolist()


def realization_to_doc(r: Realization) -> dict[str, Any]:
    return {
        "dimA": r.dim_a,
        "dimB": r.dim_b,
        "state": _pairs(r.state),
        "alice": [_pairs(meas.projectors) for meas in r.alice],
        "bob": [_pairs(meas.projectors) for meas in r.bob],
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
