"""JSON serialization of coefficients, tables, and realizations.

Formats (all plain JSON):

* coefficients: ``{"d": int, "c": [float, ...]}``
* tables: ``{"d": int, "tables": {"x,y": [[float, ...], ...], ...}}``;
  keys are comma-joined setting pairs in ASCII digits, each pair named at
  most once, and at least one; absent keys mean unconstrained.
* realization: ``{"dimA": int, "dimB": int, "state": [[re, im], ...],
  "alice": [[matrix, ...], ...], "bob": [[matrix, ...], ...]}`` where the
  state is row-major over (first, second) party indices, each setting is a
  list of per-outcome matrices, and every matrix entry is an [re, im] pair.

Files are read as UTF-8, and one that is not UTF-8 text raises
:class:`ParseError`. Malformed documents raise it with the offending field
(including non-numeric entries such as a string or a null where a number
is expected, an object where a list is expected, ragged matrices, a key
repeated within one object, and a JSON ``true`` or ``false`` anywhere: no
field of these formats is boolean), and so do tables that
:class:`CorrelationTables` refuses (no pair, a wrong d or shape,
non-finite entries) and realizations that construction or validation
refuses with a ``ValueError`` (settings with different outcome counts,
non-finite state, broken projectors); domain violations with their own
type (bad normalization, non-Hermitian projectors) surface as that type.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

import numpy as np

from .correlations import CorrelationTables
from .errors import ParseError
from .ideal import ALICE_SETTINGS, BOB_SETTINGS, Realization
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
    string or object array instead of being parsed or read as NaN. When the
    read fails, a JSON object anywhere in the value, which numpy would read
    as one opaque entry, is named as such.
    """
    try:
        arr = np.asarray(value)
        numeric = arr.dtype.kind in "iuf"
        problem = "entries must be numbers (found a string, a null or an integer beyond 64 bits)"
    except (TypeError, ValueError) as e:
        numeric, problem = False, str(e)
    if not numeric:
        if _holds_object(value):
            raise ParseError(f"{path}: {where} must be a list of numbers, not an object")
        raise ParseError(f"{path}: {where}: {problem}")
    return arr.astype(float, copy=False)


def _holds_object(value: Any) -> bool:
    """Whether `value` is a JSON object or a list holding one at any depth."""
    return isinstance(value, dict) or (isinstance(value, list) and any(map(_holds_object, value)))


def load_coefficients(path: str | Path) -> SchmidtCoefficients:
    doc = _read_json(path)
    d = _field(doc, "d", path)
    c = _float_array(_field(doc, "c", path), path, "field 'c'")
    if c.ndim != 1:
        raise ParseError(f"{path}: field 'c' must be a list of numbers")
    if not isinstance(d, int):
        raise ParseError(f"{path}: field 'd' must be an integer, got {d!r}")
    if d != len(c):
        raise ParseError(f"{path}: field 'd' ({d!r}) does not match len(c) = {len(c)}")
    return SchmidtCoefficients(c)


def save_coefficients(sc: SchmidtCoefficients, path: str | Path) -> None:
    Path(path).write_text(json.dumps({"d": sc.d, "c": sc.c.tolist()}, indent=2) + "\n")


#: The file key of every setting pair, indexed [x, y].
_KEYS = np.array([[f"{x},{y}" for y in range(BOB_SETTINGS)] for x in range(ALICE_SETTINGS)])


def tables_to_doc(t: CorrelationTables) -> dict[str, Any]:
    keys, tables = _KEYS[t.present].tolist(), t.values[t.present].tolist()
    return {"d": t.d, "tables": dict(zip(keys, tables))}


def load_tables(path: str | Path) -> CorrelationTables:
    doc = _read_json(path)
    d = _field(doc, "d", path)
    raw = _field(doc, "tables", path)
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
        tables[pair] = _float_array(rows, path, f"table {key!r}")
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
        "alice": _pairs(r.proj_a),
        "bob": _pairs(r.proj_b),
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

    # Matrix by matrix, so that an error names its setting and outcome. The
    # Realization constructor reports settings that disagree on the count.
    def read_side(name: str, n_settings: int, dim: int) -> list[list[np.ndarray]]:
        raw = _field(doc, name, path)
        if not isinstance(raw, list) or len(raw) != n_settings:
            raise ParseError(f"{path}: '{name}' must list {n_settings} settings")
        side = []
        for s, setting in enumerate(raw):
            if not isinstance(setting, list) or not setting:
                raise ParseError(f"{path}: '{name}' setting {s} must be a non-empty list")
            side.append(
                [
                    _pairs_to_matrix(mat, dim, f"'{name}' setting {s} outcome {k}", path)
                    for k, mat in enumerate(setting)
                ]
            )
        return side

    alice = read_side("alice", ALICE_SETTINGS, dim_a)
    bob = read_side("bob", BOB_SETTINGS, dim_b)
    try:
        r = Realization(dim_a=dim_a, dim_b=dim_b, state=state, alice=alice, bob=bob)
        r.validate()
    except ValueError as e:
        raise ParseError(f"{path}: {e}") from None
    return r
