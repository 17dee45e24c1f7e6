"""Exact scalars, vectors, matrices, and the validated instance model.

Two semirings are supported: exact rationals (backed by ``fractions.Fraction``,
which keeps every value in canonical gcd-reduced form with a positive
denominator) and GF(2) (ints 0/1 with mod-2 arithmetic). Vectors are plain
tuples of scalars. Matrices come in two immutable flavors: ``DenseMatrix``
stores every entry; ``FunctionalMatrix`` compactly encodes an r x c 0/1
matrix with at most one 1 per row (square unless a column count is given)
as a tuple of row actions. ``new_instance`` is the one place that picks a
matrix's stored form, by one rule for every transformation and the
selector in both semirings: a matrix that qualifies as row actions is held
only as a ``FunctionalMatrix``, any other one as canonical dense rows.
Rows that are already canonical (all int 0/1 over GF(2), all exactly
``Fraction`` over the rationals) are taken as they are after one C-level
test per row, and a dense matrix made only of such rows is held as the
given object. Everything here is immutable and pure, so values can be
shared freely across workers.
"""

from __future__ import annotations

import hashlib
import operator
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from itertools import chain
from typing import Iterable, Optional, Sequence, Union

Scalar = Union[int, Fraction]
Vector = tuple


class VestError(Exception):
    """Base class for every error this package raises deliberately."""


class DimensionMismatch(VestError):
    pass


class EmptyTransformationList(VestError):
    pass


class NonBinaryEntry(VestError):
    pass


class NonSquare(VestError):
    pass


class ResourceBound(VestError):
    """An enumeration would exceed its configured cap."""


class NegativeLength(VestError, ValueError):
    """A sequence length or set size below zero was asked for."""


class Semiring(Enum):
    """Arithmetic domain tag: exact rationals ("q") or GF(2) ("gf2")."""

    RATIONAL = "q"
    GF2 = "gf2"

    @property
    def zero(self) -> Scalar:
        return _Q_ZERO if self is Semiring.RATIONAL else 0

    def canon(self, value) -> Scalar:
        """Canonicalize *value* into this semiring.

        Rationals accept ints, Fractions, and "p/q" strings and come back as
        Fractions (gcd-reduced, positive denominator, zero as 0/1). GF(2)
        accepts anything numerically equal to 0 or 1 and comes back as an
        int. Floats are rejected outright: this library is exact.
        """
        if isinstance(value, float):
            raise TypeError("floating-point values are not supported")
        if isinstance(value, str):
            value = Fraction(value)
        if self is Semiring.RATIONAL:
            if isinstance(value, Fraction):
                return value
            if isinstance(value, int):
                return Fraction(value)
            raise TypeError(f"cannot make a rational scalar from {type(value).__name__}")
        if value == 0:
            return 0
        if value == 1:
            return 1
        raise NonBinaryEntry(f"GF(2) entry must be 0 or 1, got {value!r}")


_Q_ZERO = Fraction(0)
# A module global: reading a member through the Enum class costs about 10x more.
_GF2 = Semiring.GF2


_INT_ONLY = frozenset((int,))
_FRACTION_ONLY = frozenset((Fraction,))


def is_gf2_row(row: Sequence) -> bool:
    """True when every entry of *row* is the int 0 or the int 1 (not a bool,
    float or Fraction), tested at C level: such a row is already canonical
    over GF(2)."""
    return row.count(0) + row.count(1) == len(row) and set(map(type, row)) <= _INT_ONLY


def canon_vector(semiring: Semiring, entries: Iterable) -> Vector:
    """Canonicalize every entry; see ``Semiring.canon``. A row that is
    already canonical is returned as it is, with no per-entry pass: over
    GF(2) a row of int 0s and 1s, over the rationals a row whose entries are
    all exactly ``Fraction`` (canonical by construction). Each is one
    C-level test; any other row goes entry by entry."""
    entries = tuple(entries)
    if semiring is _GF2:
        if is_gf2_row(entries):
            return entries
    elif set(map(type, entries)) <= _FRACTION_ONLY:
        return entries
    return tuple(semiring.canon(e) for e in entries)


class DenseMatrix:
    """Immutable r x c matrix of exact scalars, stored row-major.

    Equality is mathematical: a DenseMatrix equals a FunctionalMatrix with
    the same shape and entries, and Fraction(1) entries equal int 1.
    """

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[Iterable[Scalar]]):
        packed = tuple(tuple(row) for row in rows)
        if not packed or not packed[0]:
            raise DimensionMismatch("matrix must have at least one row and one column")
        width = len(packed[0])
        if any(len(row) != width for row in packed):
            raise DimensionMismatch("matrix rows have inconsistent lengths")
        self.rows = packed

    @classmethod
    def identity(cls, d: int) -> "DenseMatrix":
        return cls(tuple(tuple(1 if i == j else 0 for j in range(d)) for i in range(d)))

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0])

    def __eq__(self, other):
        if isinstance(other, DenseMatrix):
            return self.rows == other.rows
        if isinstance(other, FunctionalMatrix):
            return self.rows == other.dense().rows
        return NotImplemented

    def __hash__(self):
        # the hash of the equal FunctionalMatrix when the rows qualify
        actions = _row_actions(self.rows)
        return hash(self.rows if actions is None else (self.ncols, tuple(actions)))

    def __repr__(self):
        return f"DenseMatrix({self.nrows}x{self.ncols})"


class FunctionalMatrix:
    """r x c 0/1 matrix with at most one 1 per row, stored as row actions.

    Action ``None`` is the all-zero row; action ``j`` is the unit row that
    copies column j. The column count *ncols* defaults to the number of
    rows, so a matrix built from actions alone is square, as every
    transformation must be; a compiled selector is 2n x (3n+1). Applying
    such a matrix only copies or zeroes entries: a 0/1 vector stays 0/1, a
    zero entry stays zero, and both semirings give the same result.

    ``moved`` holds the ascending indices of the rows whose action is not
    their own index: the rows a step changes. A compiled vertex matrix moves
    deg(u) + 3 of its 3n + 1 rows, so work that walks ``moved`` is
    proportional to the graph, not to its dimension. Equality, hash and
    ``repr`` ignore it; it is derived from the actions.

    Every action must be None or an int in ``[0, ncols)``, whichever row
    it sits in, and *ncols* an int of at least 1: an int-like such as a
    numpy integer is stored as its int; a bool or float raises
    ``TypeError``, as the document loader refuses them; an int out of
    range, or *ncols* below 1, raises ``DimensionMismatch``. The
    constructor finds the moved rows in the one pass it makes over the
    actions, and type- and range-checks those alone: a row that holds its
    own index as the very int object is fixed and costs one identity test.
    A row at or past ``ncols`` has no column of its own: it must move.
    """

    __slots__ = ("actions", "ncols", "moved")

    def __init__(self, actions: Iterable[Optional[int]], ncols: Optional[int] = None):
        acts = tuple(actions)
        r = len(acts)
        if not r:
            raise DimensionMismatch("matrix must have at least one row")
        c = r if ncols is None else _as_int(ncols, "column count {!r} is not an int")
        if c < 1:
            raise DimensionMismatch(f"column count {c} is below 1")
        stored = acts
        moved = []
        for i, j in enumerate(acts):
            # CPython shares the ints of small row indices, so most fixed
            # rows pass the identity test; any other row is tested by type
            # and value, so no row's result depends on that sharing
            if j is not i:
                if j is not None:
                    if type(j) is not int:
                        j = _as_int(j, "row action {!r} is not an int or None")
                        if stored is acts:
                            stored = list(acts)
                        stored[i] = j
                    if j == i:
                        continue
                    if not 0 <= j < c:
                        raise DimensionMismatch(f"copy source {j} outside [0, {c})")
                moved.append(i)
        if r > c:
            for i in range(c, r):
                if stored[i] == i:
                    raise DimensionMismatch(f"copy source {i} outside [0, {c})")
        self.actions = tuple(stored)
        self.ncols = c
        self.moved = tuple(moved)

    @property
    def nrows(self) -> int:
        return len(self.actions)

    @property
    def rows(self) -> tuple:
        """The dense rows, built on each read; no hot path reads them."""
        return self.dense().rows

    def dense(self) -> DenseMatrix:
        """Expand to the equivalent dense 0/1 matrix."""
        c = self.ncols
        rows = []
        for j in self.actions:
            row = [0] * c
            if j is not None:
                row[j] = 1
            rows.append(tuple(row))
        return DenseMatrix(rows)

    def __eq__(self, other):
        if isinstance(other, FunctionalMatrix):
            return self.actions == other.actions and self.ncols == other.ncols
        if isinstance(other, DenseMatrix):
            return self.dense().rows == other.rows
        return NotImplemented

    def __hash__(self):
        return hash((self.ncols, self.actions))

    def __repr__(self):
        return f"FunctionalMatrix({self.nrows}x{self.ncols})"


def _as_int(j, refusal: str) -> int:
    """*j* as an int: an int or int-like is taken by ``operator.index``; a
    bool, float or anything else raises ``TypeError`` with *refusal*,
    formatted with ``repr(j)``."""
    if not isinstance(j, bool):
        try:
            return operator.index(j)
        except TypeError:
            pass
    raise TypeError(refusal.format(j))


Matrix = Union[DenseMatrix, FunctionalMatrix]


def _row_actions(rows: Iterable[Sequence]) -> Optional[list]:
    """Row actions of *rows*, or None when some entry lies outside {0, 1} or
    some row holds two or more 1s. Each row is counted and searched at C
    level, by equality with the ints 0 and 1, so a Fraction or bool entry
    classifies by its value."""
    actions = []
    for row in rows:
        ones = row.count(1)
        if ones > 1 or ones + row.count(0) != len(row):
            return None
        actions.append(row.index(1) if ones else None)
    return actions


def to_functional(matrix: Matrix) -> Optional[FunctionalMatrix]:
    """Classify a square matrix, returning its row-action form.

    Returns None when some entry lies outside {0, 1} or some row carries two
    or more ones; that is a classification result, not an error. Non-square
    input raises NonSquare. ``new_instance`` applies the same rule, so every
    transformation of an instance that qualifies is already held in this
    form.
    """
    if matrix.nrows != matrix.ncols:
        raise NonSquare(f"matrix is {matrix.nrows}x{matrix.ncols}")
    if isinstance(matrix, FunctionalMatrix):
        return matrix
    actions = _row_actions(matrix.rows)
    return None if actions is None else FunctionalMatrix(actions)


@dataclass(frozen=True)
class VestInstance:
    """A validated instance: start vector, m square transformations, selector.

    Each transformation, and the selector, is held in one form, the one
    ``new_instance`` picks: a ``FunctionalMatrix`` when it is a 0/1 matrix
    with at most one 1 per row, else a canonical ``DenseMatrix``.
    ``functional_forms`` reads the first kind off ``transformations``.

    ``_engine`` holds the evaluation engine that ``vest.evaluate.engine_for``
    builds on first use, and ``_fingerprint`` the digest that
    ``instance_fingerprint`` computes on first use. Counting never asks for
    the digest; only a read of ``MSequenceResult.instance_fingerprint`` does,
    so an instance that is only counted keeps ``_fingerprint`` at None.
    Neither field takes part in equality, and ``dataclasses.replace`` starts
    the new instance without them.
    """

    semiring: Semiring
    v: Vector
    transformations: tuple
    selector: Matrix
    _engine: object = field(default=None, init=False, repr=False, compare=False)
    _fingerprint: Optional[str] = field(default=None, init=False, repr=False, compare=False)

    @property
    def d(self) -> int:
        return len(self.v)

    @property
    def m(self) -> int:
        return len(self.transformations)

    @property
    def h(self) -> int:
        return self.selector.nrows

    @property
    def functional_forms(self) -> tuple:
        """Per transformation: itself when it is held as row actions, else
        None."""
        return tuple(t if isinstance(t, FunctionalMatrix) else None
                     for t in self.transformations)


def new_instance(
    semiring: Semiring,
    v: Sequence[Scalar],
    transformations: Sequence[Matrix],
    selector: Matrix,
) -> VestInstance:
    """Validate, canonicalize, and classify a raw instance description.

    Every scalar is canonicalized for *semiring* (``canon_vector``: a row of
    int 0/1s over GF(2), or of ``Fraction``s over the rationals, is taken as
    it is). Each transformation (d x d) and the selector (d columns) then
    get their one stored form (``_stored_form``): a ``FunctionalMatrix`` is
    kept as given; a ``DenseMatrix`` whose canonical entries are all 0 or 1,
    with at most one 1 per row, is held only as row actions; any other dense
    matrix is held as canonical dense rows, and when its rows were canonical
    already it is the given ``DenseMatrix`` itself. The rule is the same in
    both semirings.
    """
    trans = tuple(transformations)
    if not trans:
        raise EmptyTransformationList("an instance needs at least one transformation")
    vv = canon_vector(semiring, v)
    d = len(vv)
    if d == 0:
        raise DimensionMismatch("the start vector must have dimension >= 1")
    stored = tuple(_stored_form(semiring, t, d, d, f"transformation {idx}")
                   for idx, t in enumerate(trans))
    return VestInstance(semiring, vv, stored,
                        _stored_form(semiring, selector, None, d, "selector"))


def _stored_form(semiring: Semiring, matrix: Matrix, nrows: Optional[int], ncols: int,
                 what: str) -> Matrix:
    """*matrix* checked to be *nrows* x *ncols* (any row count when *nrows*
    is None) and put in the form an instance holds it in; see
    ``new_instance``. A dense matrix that does not qualify as row actions,
    and whose every row ``canon_vector`` hands back as the same object, is
    canonical already and, being immutable, is returned as given;
    otherwise its canonical rows go into a new one."""
    if not isinstance(matrix, (DenseMatrix, FunctionalMatrix)):
        raise TypeError(f"{what} is not a matrix: {type(matrix).__name__}")
    if matrix.ncols != ncols or (nrows is not None and matrix.nrows != nrows):
        expected = f"{ncols} columns" if nrows is None else f"{nrows}x{ncols}"
        raise DimensionMismatch(
            f"{what} is {matrix.nrows}x{matrix.ncols}, expected {expected}")
    if isinstance(matrix, FunctionalMatrix):
        return matrix
    given = matrix.rows
    rows = tuple(canon_vector(semiring, row) for row in given)
    actions = _row_actions(rows)
    if actions is not None:
        return FunctionalMatrix(actions, ncols)
    return matrix if all(map(operator.is_, rows, given)) else DenseMatrix(rows)


def _scalars_text(entries: Iterable[Scalar]) -> bytes:
    """Comma-joined ``str`` of *entries*, encoded: a canonical rational is
    "p/q", or "p" when its denominator is 1, and a canonical GF(2) scalar is
    the int 0 or 1."""
    return ",".join(map(str, entries)).encode()


def _selector_text(selector: Matrix) -> bytes:
    """``_scalars_text`` of the selector's entries, row after row. A selector
    held as row actions is written from its positions: every entry "0",
    then one "1" per row that copies a column. Canonical 0 and 1 read "0"
    and "1" in both semirings, so the text equals that of the dense rows."""
    if isinstance(selector, DenseMatrix):
        return _scalars_text(chain.from_iterable(selector.rows))
    c, one = selector.ncols, ord("1")
    text = bytearray(b"0,") * (len(selector.actions) * c)
    del text[-1]
    for start, j in zip(range(0, len(text), 2 * c), selector.actions):
        if j is not None:
            text[start + 2 * j] = one
    return text


def instance_fingerprint(instance: VestInstance) -> str:
    """Short stable digest of the instance's mathematical content.

    Transformations held as row actions are hashed through them, others
    through their dense entries; ``new_instance`` gives every matrix one
    form, so equal instances give equal digests. The digest is computed on
    the first call and kept on the instance.
    """
    if instance._fingerprint is not None:
        return instance._fingerprint
    h = hashlib.sha256()
    h.update(f"{instance.semiring.value};{instance.d};{instance.h};{instance.m};".encode())
    h.update(_scalars_text(instance.v))
    action_text = None
    for t in instance.transformations:
        if isinstance(t, FunctionalMatrix):
            if action_text is None:  # row actions are ints below d, or None: "z"
                action_text = dict(zip(range(instance.d), map(str, range(instance.d))))
                action_text[None] = "z"
            h.update(b"|F")
            h.update(",".join(map(action_text.__getitem__, t.actions)).encode())
        else:
            h.update(b"|D")
            h.update(_scalars_text(chain.from_iterable(t.rows)))
    h.update(b"|S")
    h.update(_selector_text(instance.selector))
    digest = h.hexdigest()[:16]
    object.__setattr__(instance, "_fingerprint", digest)
    return digest
