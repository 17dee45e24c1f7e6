"""Scalar, matrix, and instance-model behavior."""

from __future__ import annotations

import dataclasses
import hashlib
import random
from enum import IntEnum
from fractions import Fraction
from itertools import chain, cycle

import pytest

from vest import (
    DenseMatrix,
    DimensionMismatch,
    EmptyTransformationList,
    FunctionalMatrix,
    InstanceDocument,
    NonBinaryEntry,
    NonSquare,
    Semiring,
    instance_fingerprint,
    m_sequence,
    new_instance,
    reduce_graph,
    to_functional,
)
from vest.core import canon_vector
from vest.documents import dumps_instance
from vest.evaluate import PackedEngine, engine_for

from helpers import Reference, path_graph, random_graph


def test_rational_canon_accepts_ints_fractions_strings():
    q = Semiring.RATIONAL
    assert q.canon(3) == Fraction(3)
    assert q.canon(Fraction(2, 4)) == Fraction(1, 2)
    assert q.canon("-6/4") == Fraction(-3, 2)
    assert q.canon("7") == Fraction(7)


def test_rational_canon_is_reduced():
    x = Semiring.RATIONAL.canon(Fraction(10, -4))
    assert x.numerator == -5 and x.denominator == 2


def test_floats_rejected_everywhere():
    with pytest.raises(TypeError):
        Semiring.RATIONAL.canon(0.5)
    with pytest.raises(TypeError):
        Semiring.GF2.canon(1.0)


def test_gf2_canon():
    g = Semiring.GF2
    assert g.canon(0) == 0
    assert g.canon(1) == 1
    assert g.canon(Fraction(1)) == 1
    with pytest.raises(NonBinaryEntry):
        g.canon(2)
    with pytest.raises(NonBinaryEntry):
        g.canon(Fraction(1, 2))


def test_scalar_text_round_trips():
    # canonical scalars (Fractions over Q, the ints 0 and 1 over GF(2)) are
    # written with str: "p/q", or "p" when the denominator is 1
    for x in (Fraction(-2, 3), Fraction(5), Fraction(0), 1, 0):
        assert Fraction(str(x)) == x
    assert str(Semiring.RATIONAL.canon("-4/6")) == "-2/3"
    assert str(Semiring.RATIONAL.canon(5)) == "5"
    assert str(Semiring.GF2.canon(Fraction(1))) == "1"


def test_dense_matrix_shape_checks():
    m = DenseMatrix(((1, 2), (3, 4), (5, 6)))
    assert m.nrows == 3 and m.ncols == 2
    assert m.rows[2][1] == 6
    with pytest.raises(DimensionMismatch):
        DenseMatrix(((1, 2), (3,)))
    with pytest.raises(DimensionMismatch):
        DenseMatrix(())
    with pytest.raises(DimensionMismatch):
        DenseMatrix(((),))


def test_identity_matrix():
    i3 = DenseMatrix.identity(3)
    assert i3.rows == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_functional_matrix_validation():
    f = FunctionalMatrix((None, 0, 2))
    assert f.nrows == 3
    with pytest.raises(DimensionMismatch):
        FunctionalMatrix(())
    with pytest.raises(DimensionMismatch):
        FunctionalMatrix((0, 3, 1))
    with pytest.raises(DimensionMismatch):
        FunctionalMatrix((0, -1, 1))


def _random_actions(rng, r, c):
    """Row actions of a random r x c matrix: each row moved with
    probability 1/3 (always when it has no column of its own), else fixed."""
    actions = []
    for i in range(r):
        if i < c and rng.random() < 2 / 3:
            actions.append(i)
        else:
            actions.append(rng.choice([None] + list(range(c))))
    return actions


def test_moved_rows_match_a_scan_of_every_row():
    rng = random.Random(1601)
    for _ in range(300):
        c = rng.randint(1, 30)
        r = rng.choice((c, rng.randint(1, 30)))
        actions = _random_actions(rng, r, c)
        f = FunctionalMatrix(actions, c)
        assert f.moved == tuple(i for i, j in enumerate(actions) if j != i)
        assert f.actions == tuple(actions)
        # moved is derived: equality, hash and repr ignore it
        g = FunctionalMatrix(iter(actions), c)
        assert g == f and hash(g) == hash((c, tuple(actions))) and repr(g) == repr(f)
    assert FunctionalMatrix((0, 1, 2)).moved == ()


def test_actions_that_are_not_ints_are_refused_on_every_row():
    # floats and bools are refused as the document loader refuses them,
    # whether the row moves or holds its own index
    big = list(range(300))
    for actions in ((0.5,), (1.0, 0), (True, 0), (0, 2, 1.0), (Fraction(1), 0), ("1", 0),
                    (0, 1.0), (0, True), (0.0, None), (False,), big[:299] + [299.0]):
        with pytest.raises(TypeError, match="is not an int or None"):
            FunctionalMatrix(actions)
    with pytest.raises(TypeError):
        FunctionalMatrix((1, 0, 0.0), 2)


class Row(IntEnum):
    """Int-like row actions."""
    A = 0
    B = 1
    C = 2


def test_int_like_actions_are_stored_as_ints_on_every_row():
    for actions, stored, moved in (((Row.B, Row.A, Row.C), (1, 0, 2), (0, 1)),
                                   ((Row.A, Row.B, Row.A), (0, 1, 0), (2,)),
                                   ((None, Row.C, Row.C), (None, 2, 2), (0, 1))):
        f = FunctionalMatrix(actions)
        assert (f.actions, f.moved) == (stored, moved)
        assert all(type(j) is int for j in f.actions if j is not None)
    with pytest.raises(DimensionMismatch):
        FunctionalMatrix((Row.C, Row.A))
    # ints equal to their row index but made apart from it are fixed rows too
    fresh = [int(str(i)) for i in range(600)]
    assert FunctionalMatrix(fresh).moved == ()
    fresh[599], fresh[300] = int("300"), None
    assert FunctionalMatrix(fresh).moved == (300, 599)


def test_only_int_actions_reach_a_count():
    sel = FunctionalMatrix((1,), 2)
    counts = set()
    for t in (FunctionalMatrix((Row.A, Row.A)), FunctionalMatrix((0, 0))):
        inst = new_instance(Semiring.GF2, (1, 0), (t,), sel)
        assert inst.transformations[0].actions == (0, 0)
        counts.add(m_sequence(inst, 2).values)
    assert counts == {(1, 0, 0)}
    for bad in ((0, 1.0), (1.0, 0), (0.5, 0), (True, 0)):
        with pytest.raises(TypeError):
            new_instance(Semiring.GF2, (1, 0), (FunctionalMatrix(bad),), sel)


def test_functional_matrix_with_a_column_count():
    f = FunctionalMatrix((3, None), 4)
    assert (f.nrows, f.ncols) == (2, 4)
    assert f.dense().rows == ((0, 0, 0, 1), (0, 0, 0, 0))
    assert f.rows == f.dense().rows
    assert f == f.dense() and hash(f) == hash(f.dense())
    assert repr(f) == "FunctionalMatrix(2x4)"
    assert FunctionalMatrix((0, 1)).ncols == 2
    # a source at or past the column count
    with pytest.raises(DimensionMismatch):
        FunctionalMatrix((0, 3), 3)
    with pytest.raises(DimensionMismatch):
        FunctionalMatrix((0, 4), 3)
    # a row past the column count has no column of its own: it must move
    assert FunctionalMatrix((0, 1, None, 0), 2).moved == (2, 3)
    with pytest.raises(DimensionMismatch):
        FunctionalMatrix((0, 1, 2), 2)
    with pytest.raises(NonSquare):
        to_functional(f)


def test_functional_matrix_column_count_is_an_int_of_at_least_one():
    # refused as row actions are refused, and as DenseMatrix refuses zero
    # columns; an int-like is stored as its int
    for ncols in (2.5, True, False, "2", Fraction(2)):
        with pytest.raises(TypeError, match="column count"):
            FunctionalMatrix((0,), ncols)
    for actions, ncols in (((None,), -1), ((None,), 0), ((0,), 0)):
        with pytest.raises(DimensionMismatch, match="column count"):
            FunctionalMatrix(actions, ncols)
    f = FunctionalMatrix((0,), Row.C)
    assert f.ncols == 2 and type(f.ncols) is int


def test_functional_matrices_of_different_widths_differ():
    narrow, wide = FunctionalMatrix((0, 1), 3), FunctionalMatrix((0, 1), 4)
    assert narrow != wide and wide != narrow
    assert narrow.dense() != wide and narrow != wide.dense()
    assert narrow == FunctionalMatrix((0, 1), 3)
    assert repr(narrow) != repr(wide)


def test_functional_dense_expansion():
    f = FunctionalMatrix((1, None, 0))
    assert f.dense().rows == ((0, 1, 0), (0, 0, 0), (1, 0, 0))
    for i in range(3):
        for j in range(3):
            assert f.dense().rows[i][j] == (1 if f.actions[i] == j else 0)


def test_cross_representation_equality_and_hash():
    f = FunctionalMatrix((2, 0, None))
    d = f.dense()
    assert f == d and d == f
    assert hash(f) == hash(d)
    assert f != FunctionalMatrix((2, 1, None))
    # Fraction entries equal int entries entrywise
    q = DenseMatrix(tuple(tuple(Fraction(e) for e in row) for row in d.rows))
    assert q == f and hash(q) == hash(f)


def test_to_functional_classification():
    assert to_functional(DenseMatrix.identity(4)).actions == (0, 1, 2, 3)
    assert to_functional(DenseMatrix(((0, 0), (0, 0)))).actions == (None, None)
    # one column copied to two rows
    assert to_functional(DenseMatrix(((0, 1, 0), (0, 0, 1), (0, 0, 1)))).actions == (1, 2, 2)
    # two ones in a row
    assert to_functional(DenseMatrix(((1, 1), (0, 1)))) is None
    # entry outside {0, 1}
    assert to_functional(DenseMatrix(((2, 0), (0, 1)))) is None
    assert to_functional(DenseMatrix(((Fraction(1, 2), 0), (0, 1)))) is None
    with pytest.raises(NonSquare):
        to_functional(DenseMatrix(((1, 0, 0), (0, 1, 0))))
    f = FunctionalMatrix((0, None))
    assert to_functional(f) is f


def test_new_instance_validation():
    sel = DenseMatrix(((1, 0),))
    t = DenseMatrix.identity(2)
    with pytest.raises(EmptyTransformationList):
        new_instance(Semiring.RATIONAL, (1, 0), (), sel)
    with pytest.raises(DimensionMismatch):
        new_instance(Semiring.RATIONAL, (1, 0), (DenseMatrix.identity(3),), sel)
    with pytest.raises(DimensionMismatch):
        new_instance(Semiring.RATIONAL, (1, 0), (t,), DenseMatrix(((1, 0, 0),)))
    with pytest.raises(DimensionMismatch):
        new_instance(Semiring.RATIONAL, (), (t,), sel)
    with pytest.raises(NonBinaryEntry):
        new_instance(Semiring.GF2, (1, 0), (DenseMatrix(((2, 0), (0, 1))),), sel)
    # nested tuples are not a matrix, as a transformation or as the selector
    with pytest.raises(TypeError, match="^transformation 0 is not a matrix: tuple$"):
        new_instance(Semiring.RATIONAL, (1, 0), (((1, 0), (0, 1)),), sel)
    with pytest.raises(TypeError, match="^selector is not a matrix: tuple$"):
        new_instance(Semiring.RATIONAL, (1, 0), (t,), ((1, 0),))
    # a transformation held as row actions must be d x d too
    for wrong in (FunctionalMatrix((0, 1), 3), FunctionalMatrix((0, 1, None), 2)):
        with pytest.raises(DimensionMismatch):
            new_instance(Semiring.GF2, (1, 0), (wrong,), sel)
    # so must a selector held as row actions have d columns
    for semiring in Semiring:
        with pytest.raises(DimensionMismatch):
            new_instance(semiring, (1, 0), (t,), FunctionalMatrix((0,), 3))
        with pytest.raises(DimensionMismatch):
            new_instance(semiring, (1, 0, 1), (DenseMatrix.identity(3),), FunctionalMatrix((0,)))


def test_selector_forms():
    t = DenseMatrix.identity(3)
    actions = FunctionalMatrix((2, None, 0), 3)
    dense = actions.dense()
    for semiring in Semiring:
        # row actions are kept as given
        assert new_instance(semiring, (1, 0, 1), (t,), actions).selector is actions
        # a dense selector with at most one 1 per row becomes row actions,
        # in both semirings, whatever the type of its entries
        for given in (dense, DenseMatrix([[Fraction(e) for e in row] for row in dense.rows])):
            sel = new_instance(semiring, (1, 0, 1), (t,), given).selector
            assert isinstance(sel, FunctionalMatrix) and sel == actions and sel.ncols == 3
        # a row with two 1s stays dense
        parity = DenseMatrix(((1, 0, 1), (0, 1, 0)))
        assert isinstance(new_instance(semiring, (1, 0, 1), (t,), parity).selector, DenseMatrix)
    # and so does a rational selector with an entry outside {0, 1}
    scaled = DenseMatrix(((0, 0, 2),))
    assert isinstance(new_instance(Semiring.RATIONAL, (1, 0, 1), (t,), scaled).selector,
                      DenseMatrix)


def test_new_instance_canonicalizes_and_classifies():
    inst = new_instance(
        Semiring.RATIONAL,
        ("1/2", 1),
        (DenseMatrix((("2/2", 0), (0, 0))), DenseMatrix(((1, 1), (0, 1)))),
        DenseMatrix(((1, "0"),)),
    )
    assert inst.v == (Fraction(1, 2), Fraction(1))
    assert inst.d == 2 and inst.m == 2 and inst.h == 1
    # a qualifying dense transformation is held only as row actions
    assert isinstance(inst.transformations[0], FunctionalMatrix)
    assert inst.transformations[0] == FunctionalMatrix((0, None)) == DenseMatrix(((1, 0), (0, 0)))
    assert isinstance(inst.transformations[1], DenseMatrix)
    assert inst.functional_forms == (inst.transformations[0], None)
    # a dense transformation keeps the instance off the packed engine
    assert not isinstance(engine_for(inst), PackedEngine)


def test_fingerprint_stability_across_representations():
    t = FunctionalMatrix((1, None))
    sel = DenseMatrix(((1, 0),))
    a = new_instance(Semiring.GF2, (1, 1), (t,), sel)
    b = new_instance(Semiring.GF2, (1, 1), (t.dense(),), sel)
    assert a == b
    assert instance_fingerprint(a) == instance_fingerprint(b)
    c = new_instance(Semiring.GF2, (1, 0), (t,), sel)
    assert instance_fingerprint(a) != instance_fingerprint(c)


def test_canon_vector():
    assert canon_vector(Semiring.GF2, [1, 0, Fraction(1)]) == (1, 0, 1)
    assert canon_vector(Semiring.RATIONAL, ["2/4"]) == (Fraction(1, 2),)
    # rows of int 0s and 1s take the GF(2) fast path; anything equal to 0 or
    # 1 but of another type goes entry by entry and comes back as ints
    assert canon_vector(Semiring.GF2, iter([0, 1, 1])) == (0, 1, 1)
    for row in ([True, 0], ["1", 0], [Fraction(0), 1], []):
        out = canon_vector(Semiring.GF2, row)
        assert out == tuple(Semiring.GF2.canon(e) for e in row)
        assert all(type(e) is int for e in out)
    with pytest.raises(NonBinaryEntry):
        canon_vector(Semiring.GF2, [0, 2])
    with pytest.raises(TypeError):
        canon_vector(Semiring.GF2, [1.0, 0])
    # a tuple of Fractions is canonical as it stands and comes back as is;
    # any other rational row goes entry by entry and comes back as Fractions
    q = Semiring.RATIONAL
    fractions = (Fraction(1, 2), Fraction(-3), Fraction(0))
    assert canon_vector(q, fractions) is fractions
    assert canon_vector(q, list(fractions)) == fractions
    for row in ([3, 0, -1], ["2/4", "-3", "0"], [True, False], [Fraction(1, 2), -3, "0"],
                (Fraction(1), True)):
        out = canon_vector(q, row)
        assert out == tuple(q.canon(e) for e in row)
        assert all(type(e) is Fraction for e in out)
    for row in ([0.5], [Fraction(1, 2), 0.5]):
        with pytest.raises(TypeError):
            canon_vector(q, row)


def test_rational_instances_store_only_fractions():
    # however its entries are written, a rational instance stores every
    # entry of v and of every dense matrix as exactly a Fraction
    v = (1, -2, 0)
    dense = ((2, 0, 1), (0, -1, 3), (1, 1, 0))
    actions = ((0, 1, 0), (1, 0, 0), (0, 0, 1))
    sel = ((1, 1, 0), (0, 3, 1))
    writers = (int, lambda e: f"{2 * e}/2", Fraction, bool)
    built = []
    # one writer for every entry, then all four in turn; bool writes only
    # the entries 0 and 1 and leaves the others ints
    for turns in [(w,) for w in writers] + [writers]:
        turn = cycle(turns)

        def written(rows):
            return [[w(e) if w is not bool or e in (0, 1) else e for e, w in zip(row, turn)]
                    for row in rows]
        inst = new_instance(Semiring.RATIONAL, written([v])[0],
                            (DenseMatrix(written(dense)), DenseMatrix(written(actions))),
                            DenseMatrix(written(sel)))
        assert isinstance(inst.transformations[1], FunctionalMatrix)
        for row in (inst.v, *inst.transformations[0].rows, *inst.selector.rows):
            assert all(type(e) is Fraction for e in row)
        built.append(inst)
    assert all(inst == built[0] for inst in built)


def test_a_canonical_dense_matrix_is_held_as_given():
    q = Semiring.RATIONAL
    f = Fraction
    # no matrix here qualifies as row actions: the selector row has two 1s
    given = DenseMatrix(((f(3), f(1)), (f(0), f(-2))))
    sel = DenseMatrix(((f(1), f(1)),))
    kept = new_instance(q, (f(1), f(2)), (given, FunctionalMatrix((1, 0))), sel)
    assert kept.transformations[0] is given and kept.selector is sel
    # the same matrices with int entries are rebuilt with Fraction entries
    ints = DenseMatrix(((3, 1), (0, -2)))
    int_sel = DenseMatrix(((1, 1),))
    rebuilt = new_instance(q, (1, 2), (ints, FunctionalMatrix((1, 0))), int_sel)
    assert rebuilt.transformations[0] is not ints and rebuilt.selector is not int_sel
    assert rebuilt.transformations[0].rows == given.rows
    assert all(type(e) is Fraction for e in chain.from_iterable(rebuilt.selector.rows))
    # and the two instances are one instance
    assert kept == rebuilt and hash(kept) == hash(rebuilt)
    assert instance_fingerprint(kept) == instance_fingerprint(rebuilt)
    for method in ("dedup", "brute"):
        assert m_sequence(kept, 4, method).values == m_sequence(rebuilt, 4, method).values
    assert m_sequence(kept, 4).values == Reference(kept).counts(4)
    assert (dumps_instance(InstanceDocument(kept, {}))
            == dumps_instance(InstanceDocument(rebuilt, {})))


def test_fraction_rows_are_not_canonicalized_entry_by_entry(monkeypatch):
    calls = []
    canon = Semiring.canon

    def counted(self, value):
        calls.append(value)
        return canon(self, value)
    monkeypatch.setattr(Semiring, "canon", counted)
    f = Fraction
    inst = new_instance(Semiring.RATIONAL, (f(1, 2), f(-3)),
                        (DenseMatrix(((f(1), f(2, 3)), (f(0), f(-1)))),
                         DenseMatrix(((f(0), f(1)), (f(1), f(0))))),
                        DenseMatrix(((f(5, 7), f(1)),)))
    assert isinstance(inst.transformations[1], FunctionalMatrix)
    assert calls == []
    # the counting patch does see the per-entry path
    new_instance(Semiring.RATIONAL, (1, f(-3)), (DenseMatrix.identity(2),),
                 DenseMatrix(((f(5, 7), f(1)),)))
    assert len(calls) == 6


def test_fingerprint_digests_are_pinned():
    # digests the original implementation produced: faster hashing must not
    # change the hashed text
    p3 = path_graph(3)
    assert instance_fingerprint(reduce_graph(p3, Semiring.GF2).instance) == "c856d5a204b55949"
    assert instance_fingerprint(reduce_graph(p3, Semiring.RATIONAL).instance) == "f6a3bed1f7dc94cd"
    q = Semiring.RATIONAL
    inst = new_instance(q, [Fraction(1, 2), -3],
                        [DenseMatrix([[1, Fraction(2, 3)], [0, -1]])],
                        DenseMatrix([[Fraction(5, 7), 1]]))
    assert instance_fingerprint(inst) == "5d141305108830cd"


def _joined_text_fingerprint(instance):
    """The fingerprint as first written: every entry and row action turned
    into text by ``str`` and joined with commas, rationals as "p/q"."""
    def text(entries):
        if instance.semiring is Semiring.GF2:
            return ",".join(map(str, entries))
        return ",".join(str(x.numerator) if x.denominator == 1
                        else f"{x.numerator}/{x.denominator}" for x in entries)

    h = hashlib.sha256()
    h.update(f"{instance.semiring.value};{instance.d};{instance.h};{instance.m};".encode())
    h.update(text(instance.v).encode())
    for t, form in zip(instance.transformations, instance.functional_forms):
        if form is not None:
            h.update(b"|F" + ",".join(map(str, form.actions)).replace("None", "z").encode())
        else:
            h.update(b"|D" + text(chain.from_iterable(t.rows)).encode())
    h.update(b"|S" + text(chain.from_iterable(instance.selector.rows)).encode())
    return h.hexdigest()[:16]


def _random_mixed_instance(rng, semiring):
    """Functional and dense transformations side by side; over the
    rationals the dense ones and the selector hold fractions."""
    d = rng.randint(1, 12)

    def entry():
        if semiring is Semiring.GF2:
            return rng.randint(0, 1)
        return Fraction(rng.randint(-3, 3), rng.randint(1, 3))

    ts = []
    for _ in range(rng.randint(1, 4)):
        if rng.random() < 0.5:
            ts.append(FunctionalMatrix(rng.choice([None] + list(range(d))) for _ in range(d)))
        else:
            ts.append(DenseMatrix([[entry() for _ in range(d)] for _ in range(d)]))
    selector = DenseMatrix([[entry() for _ in range(d)] for _ in range(rng.randint(1, 4))])
    return new_instance(semiring, [entry() for _ in range(d)], ts, selector)


def test_fingerprint_text_matches_the_joined_text():
    rng = random.Random(41)
    instances = []
    for semiring in (Semiring.GF2, Semiring.RATIONAL):
        instances += [_random_mixed_instance(rng, semiring) for _ in range(30)]
        for n in (1, 4, 11):
            instances.append(reduce_graph(random_graph(rng, n, 0.4), semiring).instance)
    # a GF(2) instance built around new_instance, with a bool entry that is
    # not canonical: the one text path writes it through str as well
    gf2 = instances[0]
    instances.append(dataclasses.replace(gf2, v=(True,) + gf2.v[1:]))
    for inst in instances:
        digest = instance_fingerprint(inst)
        assert digest == _joined_text_fingerprint(inst)
        assert instance_fingerprint(inst) == digest
