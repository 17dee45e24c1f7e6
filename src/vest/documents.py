"""JSON document formats for instances, count sequences, and verification.

Scalars never pass through floats. Rational entries are strings ("5", or
"-2/3" when the denominator is not 1); GF(2) entries are the ints 0 and 1.
Counts are decimal strings, since factorials overflow the range where JSON
numbers survive every parser; ``count_text`` writes every count, exactly at
any size. ``dumps`` writes every document: sorted keys, one top-level key
per line, one line per item of a list of lists or objects (so each dense
row, row-action object and count row is a line), everything else in one
piece, trailing newline. All encoding runs in the C JSON encoder. The
layout is a function of the data alone, so re-serializing a loaded document
reproduces it byte for byte; any JSON layout loads.

Instance documents are written at version 3. A matrix held as row
actions, a transformation or the selector, is the object ``{"actions":
[j or null, ...]}``: one source column (or null for a zero row) per row,
the column count being ``d``. Any other matrix (one with an entry
outside {0, 1} or a row of two 1s) is a list of dense rows. A compiled
n-vertex graph thus takes O(n^2) entries, none of them in dense rows but
the start vector: about 4.1 KB at n=16, 13 KB at n=30 and 150 KB at
n=100. Versions 1 (every matrix dense rows) and 2 (the selector dense
rows) are still read; they are no longer written. Dense entries are not
checked on the way in: ``new_instance`` canonicalizes and checks every
entry once (so JSON true and false read as 1 and 0), and holds a dense
matrix of 0/1 entries with at most one 1 per row as row actions only, so
a document of any version loads to the form that ``reduce_graph`` made.
Only when it refuses an entry is the document searched for that entry,
to name its place. Count-sequence and verification documents are
outputs only, written at version 1; vest reads neither back.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from decimal import Decimal
from typing import Optional

from .core import (
    DenseMatrix,
    FunctionalMatrix,
    Matrix,
    Semiring,
    VestError,
    VestInstance,
    new_instance,
)
from .evaluate import MSequenceResult
from .reduction import VerificationReport

INSTANCE_FORMAT = "vest-instance"
MSEQUENCE_FORMAT = "vest-msequence"
# The instance format is written at INSTANCE_VERSION and read at every
# version in INSTANCE_VERSIONS; the other documents are at FORMAT_VERSION.
INSTANCE_VERSION = 3
INSTANCE_VERSIONS = (1, 2, 3)
FORMAT_VERSION = 1


class DocumentError(VestError):
    pass


@dataclass(frozen=True)
class InstanceDocument:
    """An instance plus free-form metadata that travels with the file."""

    instance: VestInstance
    metadata: dict


def instance_to_dict(doc: InstanceDocument) -> dict:
    inst = doc.instance
    # canonical GF(2) rows already hold the ints 0 and 1 and are copied as
    # they are; rational rows map to exact strings, "p/q" or "p"
    if inst.semiring is Semiring.GF2:
        row_json = list
    else:
        def row_json(row):
            return list(map(str, row))

    def matrix_json(matrix):
        if isinstance(matrix, FunctionalMatrix):
            return {"actions": list(matrix.actions)}
        return list(map(row_json, matrix.rows))

    return {
        "format": INSTANCE_FORMAT,
        "version": INSTANCE_VERSION,
        "semiring": inst.semiring.value,
        "d": inst.d,
        "h": inst.h,
        "m": inst.m,
        "v": row_json(inst.v),
        "transformations": list(map(matrix_json, inst.transformations)),
        "selector": matrix_json(inst.selector),
        "metadata": doc.metadata,
    }


def _require(obj: dict, key: str, kinds, where: str):
    if key not in obj:
        raise DocumentError(f"{where}: missing key {key!r}")
    val = obj[key]
    # JSON true/false load as bool, a subclass of int, and never count as one
    if not isinstance(val, kinds) or (kinds is int and isinstance(val, bool)):
        raise DocumentError(f"{where}: key {key!r} has unexpected type {type(val).__name__}")
    return val


def _actions_matrix(raw: dict, nrows: Optional[int], d: int, where: str) -> FunctionalMatrix:
    """The row-action object *raw* as a matrix with *d* columns and, unless
    *nrows* is None, that many rows."""
    if raw.keys() != {"actions"}:
        raise DocumentError(f"{where}: expected an object with the single key 'actions'")
    actions = _require(raw, "actions", list, where)
    if nrows is not None and len(actions) != nrows:
        raise DocumentError(f"{where}: {len(actions)} actions, expected {nrows}")
    try:
        return FunctionalMatrix(actions, d)
    except (TypeError, VestError) as exc:
        raise DocumentError(f"{where}: {exc}") from None


def _read_matrix(raw, nrows: Optional[int], d: int, actions_since: int, version: int,
                 where: str) -> Matrix:
    """One matrix field: a row-action object, read at *actions_since* and
    later versions, or a non-empty list of dense rows. Dense entries are
    left as they were loaded; ``new_instance`` canonicalizes and checks
    them."""
    if isinstance(raw, dict):
        if version < actions_since:
            raise DocumentError(
                f"{where}: row actions need document version {actions_since} or later")
        return _actions_matrix(raw, nrows, d, where)
    if not isinstance(raw, list) or not raw or not all(isinstance(r, list) for r in raw):
        raise DocumentError(f"{where}: expected a non-empty list of rows")
    try:
        return DenseMatrix(raw)
    except VestError as exc:
        raise DocumentError(f"{where}: {exc}") from None


def _name_bad_entry(semiring: Semiring, v: list, transformations: list, selector) -> None:
    """Raise a ``DocumentError`` naming the first entry of the dense rows of
    a document (*v*, then each transformation and the selector given as
    rows) that *semiring* does not accept; return when there is none."""
    rows = [("v", v)]
    fields = [(f"transformation {i}", t) for i, t in enumerate(transformations)]
    for where, raw in fields + [("selector", selector)]:
        if isinstance(raw, list):
            rows += [(f"{where} row {i}", row) for i, row in enumerate(raw)]
    for where, row in rows:
        for entry in row:
            try:
                semiring.canon(entry)
            except (VestError, ValueError, ZeroDivisionError, TypeError) as exc:
                raise DocumentError(f"{where}: bad entry {entry!r}: {exc}") from None


def instance_from_dict(data: dict) -> InstanceDocument:
    if not isinstance(data, dict):
        raise DocumentError("document root must be a JSON object")
    fmt = _require(data, "format", str, "document")
    if fmt != INSTANCE_FORMAT:
        raise DocumentError(f"not an instance document: format is {fmt!r}")
    version = _require(data, "version", int, "document")
    if version not in INSTANCE_VERSIONS:
        raise DocumentError(f"unsupported instance document version {version}")
    sem_tag = _require(data, "semiring", str, "document")
    try:
        sem = Semiring(sem_tag)
    except ValueError:
        raise DocumentError(f"unknown semiring {sem_tag!r}") from None

    v = _require(data, "v", list, "document")
    if not v:
        raise DocumentError("v: the start vector is empty; it needs dimension >= 1")
    d = len(v)
    raw_ts = _require(data, "transformations", list, "document")
    if not raw_ts:
        raise DocumentError("document: transformation list is empty")
    # row actions are a version 2 form for a transformation and a version 3
    # form for the selector; version 1 has dense rows only
    transformations = [_read_matrix(t, d, d, 2, version, f"transformation {i}")
                       for i, t in enumerate(raw_ts)]
    raw_sel = _require(data, "selector", (list, dict), "document")
    selector = _read_matrix(raw_sel, None, d, 3, version, "selector")
    metadata = data.get("metadata", {})
    if not isinstance(metadata, dict):
        raise DocumentError("document: metadata must be an object")

    try:
        instance = new_instance(sem, v, transformations, selector)
    except (VestError, ValueError, ZeroDivisionError, TypeError) as exc:
        # new_instance checks every entry once; only a refusal pays for
        # finding the first bad one by its place in the document
        _name_bad_entry(sem, v, raw_ts, raw_sel)
        raise DocumentError(f"document describes an invalid instance: {exc}") from None

    for key, actual in (("d", instance.d), ("h", instance.h), ("m", instance.m)):
        if key in data and _require(data, key, int, "document") != actual:
            raise DocumentError(f"document declares {key}={data[key]} but content has {actual}")
    return InstanceDocument(instance, dict(metadata))


# indent=None, so every encode runs in the C encoder
_ENCODE = json.JSONEncoder(sort_keys=True).encode


def _value_text(value, indent: str) -> str:
    """*value* as JSON. A non-empty list whose items are all lists or objects
    is laid out one item per line; anything else, objects included, is one
    piece of the C encoder's output."""
    if (isinstance(value, (list, tuple)) and value
            and all(isinstance(item, (list, tuple, dict)) for item in value)):
        inner = indent + "  "
        items = (",\n" + inner).join([_value_text(item, inner) for item in value])
        return f"[\n{inner}{items}\n{indent}]"
    return _ENCODE(value)


def dumps(data: dict) -> str:
    """The text of a document: sorted keys, one top-level key per line, each
    row of a matrix on a line of its own, trailing newline. It is a function
    of the data alone, so a loaded document re-dumps byte for byte."""
    items = [f"{_ENCODE(key)}: {_value_text(value, '  ')}"
             for key, value in sorted(data.items())]
    return "{\n  " + ",\n  ".join(items) + "\n}\n"


def dumps_instance(doc: InstanceDocument) -> str:
    return dumps(instance_to_dict(doc))


def loads_instance(text: str) -> InstanceDocument:
    try:
        data = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an int too long to convert
        raise DocumentError(f"invalid JSON: {exc}") from None
    except RecursionError:
        raise DocumentError("invalid JSON: nested too deeply to parse") from None
    return instance_from_dict(data)


def count_text(count: int) -> str:
    """*count* as exact decimal text, at any size. ``str`` refuses an int of
    more than ``sys.get_int_max_str_digits()`` digits (4,300 by default);
    ``Decimal`` holds any int exactly and writes it without that limit, so
    it takes over past the limit, and no interpreter setting changes."""
    try:
        return str(count)
    except ValueError:
        return str(Decimal(count))


def msequence_to_dict(result: MSequenceResult) -> dict:
    return {
        "format": MSEQUENCE_FORMAT,
        "version": FORMAT_VERSION,
        "instance": result.instance_fingerprint,
        "method": result.method,
        "values": [
            {"k": k, "m_k": count_text(val)} for k, val in enumerate(result.values)
        ],
    }


def verification_to_dict(report: VerificationReport) -> dict:
    return {
        "format": "vest-verification",
        "version": FORMAT_VERSION,
        "graph": {"n": report.vertex_count, "m": report.edge_count},
        "semiring": report.semiring.value,
        "evaluator": report.evaluator,
        "rows": [
            {
                "k": row.k,
                "m_k": count_text(row.m_k),
                "d_k": count_text(row.d_k),
                "expected": count_text(row.expected),
                "passed": row.passed,
                "seconds": round(row.seconds, 6),
            }
            for row in report.rows
        ],
        "all_pass": report.all_pass,
    }


def verification_to_text(report: VerificationReport) -> str:
    lines = [
        f"graph: {report.vertex_count} vertices, {report.edge_count} edges",
        f"semiring: {report.semiring.value}  evaluator: {report.evaluator}",
    ]
    for row in report.rows:
        status = "ok" if row.passed else "MISMATCH"
        lines.append(
            f"k={row.k}: M_{row.k} = {count_text(row.m_k)}  D_{row.k} = {count_text(row.d_k)}  "
            f"{row.k}! * D_{row.k} = {count_text(row.expected)}  [{status}] ({row.seconds:.3f}s)")
    lines.append("result: " + ("all counts match" if report.all_pass else "MISMATCH FOUND"))
    return "\n".join(lines) + "\n"
