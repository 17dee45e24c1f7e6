"""Sequence checking, brute-force and dedup counting, and the two engines."""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import math
import random
import time
import types
import weakref
from fractions import Fraction
from itertools import combinations, product

import pytest

import vest.core
import vest.evaluate
import vest.graphs
from vest import (
    DenseMatrix,
    FunctionalMatrix,
    Graph,
    IndexOutOfRange,
    NegativeLength,
    ResourceBound,
    VestError,
    Semiring,
    annihilated_mass,
    check_sequence,
    count_dominating_sets,
    dedup_levels,
    instance_fingerprint,
    m_counts,
    m_k_bruteforce,
    m_k_dedup,
    m_sequence,
    new_instance,
    reduce_graph,
)
from vest.documents import InstanceDocument, dumps_instance, loads_instance, msequence_to_dict
from vest.evaluate import (GenericEngine, MSequenceResult, PackedEngine, StateDistribution,
                           check_brute_bound, engine_for)

from helpers import (
    Reference,
    absorbing_closures,
    count_hashes,
    cycle_graph,
    edgeless_graph,
    naive_dominating_count,
    path_graph,
    random_functional_matrix,
    random_graph,
    random_rational_instance,
    random_scalar,
    selector_preimages,
)

# single isolated vertex, compiled: accepts exactly the sequence (0)
K1 = reduce_graph(edgeless_graph(1)).instance


def test_single_vertex_sequences():
    assert not check_sequence(K1, ())
    assert check_sequence(K1, (0,))
    assert not check_sequence(K1, (0, 0))


def test_sequence_index_validation():
    with pytest.raises(IndexOutOfRange):
        check_sequence(K1, (1,))
    with pytest.raises(IndexOutOfRange):
        check_sequence(K1, (-1,))
    with pytest.raises(IndexOutOfRange):
        check_sequence(K1, (0, "0"))
    with pytest.raises(IndexOutOfRange):
        check_sequence(K1, (True,))
    # False equals the valid index 0, so only the bool test refuses it
    with pytest.raises(IndexOutOfRange, match="^position 0: index False is not an integer$"):
        check_sequence(K1, (False,))


def test_empty_sequence_matches_level_zero():
    inst = reduce_graph(path_graph(3)).instance
    assert check_sequence(inst, ()) == (m_k_dedup(inst, 0) == 1)


def test_known_sequences_small_graphs():
    assert m_sequence(K1, 3).values == (0, 1, 0, 0)
    p3 = reduce_graph(path_graph(3)).instance
    assert m_sequence(p3, 3).values == (0, 1, 6, 6)
    c4 = reduce_graph(cycle_graph(4)).instance
    assert m_sequence(c4, 3).values == (0, 0, 12, 24)


def test_methods_agree_on_compiled_instances():
    for g in (path_graph(3), cycle_graph(4), edgeless_graph(2)):
        inst = reduce_graph(g).instance
        for k in range(4):
            assert m_k_bruteforce(inst, k) == m_k_dedup(inst, k)


def test_methods_agree_on_random_rational_instances():
    rng = random.Random(99)
    for _ in range(40):
        inst = random_rational_instance(rng)
        for k in range(4):
            assert m_k_bruteforce(inst, k) == m_k_dedup(inst, k)


def test_bruteforce_cap(monkeypatch):
    inst = reduce_graph(path_graph(3)).instance
    monkeypatch.setattr(vest.evaluate, "DEFAULT_BRUTE_CAP", 1000)
    with pytest.raises(ResourceBound) as err:
        m_k_bruteforce(inst, 20)
    assert "dedup" in str(err.value)
    with pytest.raises(ValueError):
        m_k_bruteforce(inst, -1)


def test_bruteforce_cap_is_exact_and_refuses_huge_k_at_once(monkeypatch):
    inst = reduce_graph(path_graph(3)).instance  # m = 3
    monkeypatch.setattr(vest.evaluate, "DEFAULT_BRUTE_CAP", 81)
    assert m_k_bruteforce(inst, 4) == m_k_dedup(inst, 4)
    monkeypatch.setattr(vest.evaluate, "DEFAULT_BRUTE_CAP", 80)
    with pytest.raises(ResourceBound):
        m_k_bruteforce(inst, 4)
    monkeypatch.undo()
    start = time.perf_counter()
    for k in (10**6, 10**18, 10**100):
        with pytest.raises(ResourceBound):
            m_k_bruteforce(inst, k)
    assert time.perf_counter() - start < 1.0


def test_brute_bound_refuses_exactly_the_jobs_past_the_cap(monkeypatch):
    for m in (1, 2, 3, 4, 7, 8, 9, 1000, 20000):
        for cap in (0, 1, 3, 81, 1024, 10**8):
            monkeypatch.setattr(vest.evaluate, "DEFAULT_BRUTE_CAP", cap)
            for k in range(64):
                refused = k > cap or m ** k > cap
                try:
                    check_brute_bound(m, k)
                except ResourceBound:
                    assert refused, (m, k, cap)
                else:
                    assert not refused, (m, k, cap)


def test_bruteforce_cap_bounds_the_walk_length(monkeypatch):
    # one transformation: a single sequence for every k, so only k itself
    # can keep the walk short
    inst = reduce_graph(path_graph(1)).instance
    assert inst.m == 1
    monkeypatch.setattr(vest.evaluate, "DEFAULT_BRUTE_CAP", 3)
    assert m_k_bruteforce(inst, 3) == m_k_dedup(inst, 3)
    with pytest.raises(ResourceBound):
        m_k_bruteforce(inst, 4)
    monkeypatch.undo()
    start = time.perf_counter()
    with pytest.raises(ResourceBound):
        m_k_bruteforce(inst, 10**9)
    assert time.perf_counter() - start < 1.0


def test_each_cap_is_read_at_call_time(monkeypatch):
    # each cap is a module constant: setting it takes effect on the next
    # call, and setting it back undoes that
    p3 = reduce_graph(path_graph(3)).instance  # m = 3: 3**4 = 81 sequences
    p6 = path_graph(6)  # C(6, 3) = 20 sets
    calls = [
        (vest.evaluate, "DEFAULT_BRUTE_CAP", 81, lambda: m_k_bruteforce(p3, 4)),
        (vest.evaluate, "DEFAULT_DEDUP_CAP", 4, lambda: list(dedup_levels(K1, 4))),
        (vest.graphs, "DEFAULT_SUBSET_CAP", 20, lambda: count_dominating_sets(p6, 3)),
    ]
    for module, name, exact, call in calls:
        expected = call()
        monkeypatch.setattr(module, name, exact - 1)
        with pytest.raises(ResourceBound):
            call()
        monkeypatch.setattr(module, name, exact)
        assert call() == expected


def test_level_masses_and_level_indices():
    inst = reduce_graph(cycle_graph(4)).instance
    for dist in dedup_levels(inst, 5):
        assert dist.total() == inst.m ** dist.level
    levels = list(dedup_levels(inst, 3))
    assert [d.level for d in levels] == [0, 1, 2, 3]
    assert annihilated_mass(inst, levels[2]) == 12


def test_dedup_level_zero_is_start_vector():
    inst = reduce_graph(path_graph(3)).instance
    first = next(dedup_levels(inst, 0))
    engine = engine_for(inst)
    assert first.entries == {engine.initial(): 1}


def test_zero_selector_accepts_everything():
    for semiring in (Semiring.RATIONAL, Semiring.GF2):
        inst = new_instance(
            semiring,
            (1, 0),
            (FunctionalMatrix((1, 0)), FunctionalMatrix((None, 1))),
            DenseMatrix(((0, 0),)),
        )
        assert m_sequence(inst, 4).values == tuple(2 ** k for k in range(5))


def test_semirings_disagree_when_parity_matters():
    # selector sums both coordinates; (1, 1) dies mod 2 but not over Q
    t = FunctionalMatrix((0, 1))
    sel = DenseMatrix(((1, 1),))
    over_q = new_instance(Semiring.RATIONAL, (1, 1), (t,), sel)
    over_gf2 = new_instance(Semiring.GF2, (1, 1), (t,), sel)
    assert m_sequence(over_q, 2).values == (0, 0, 0)
    assert m_sequence(over_gf2, 2).values == (1, 1, 1)


def _unpack(state, d):
    """The 0/1 vector a packed state stands for: bit i is entry i."""
    return tuple(state >> i & 1 for i in range(d))


def _pack(vector):
    return sum(1 << i for i, e in enumerate(vector) if e == 1)


def test_packed_engine_selected_for_compiled_instances():
    inst = reduce_graph(path_graph(4)).instance
    assert isinstance(engine_for(inst), PackedEngine)
    rng = random.Random(3)
    rational = random_rational_instance(rng)
    assert isinstance(engine_for(rational), GenericEngine)


def _plan_from_every_row(actions):
    """The step plan of ``_shift_groups``, made by reading every row."""
    fixed, groups = 0, {}
    for i, j in enumerate(actions):
        if j == i:
            fixed |= 1 << i
        elif j is not None:
            groups[i - j] = groups.get(i - j, 0) | 1 << j
    return (fixed,
            {(mask, shift) for shift, mask in groups.items() if shift > 0},
            {(mask, -shift) for shift, mask in groups.items() if shift < 0})


def test_shift_groups_walk_moved_rows_only():
    rng = random.Random(1602)
    matrices = []
    for _ in range(200):
        d = rng.randint(1, 30)
        actions = [i if rng.random() < 0.7 else rng.choice([None] + list(range(d)))
                   for i in range(d)]
        matrices.append(FunctionalMatrix(actions))
        matrices.append(random_functional_matrix(rng, d))
    for n in (1, 5, 17, 30):
        matrices += reduce_graph(random_graph(rng, n, 0.3)).instance.transformations
    for t in matrices:
        fixed, lefts, rights = vest.evaluate._shift_groups(t)
        assert (fixed, set(lefts), set(rights)) == _plan_from_every_row(t.actions)
        assert len(lefts) == len(set(lefts)) and len(rights) == len(set(rights))


def test_packed_engine_rejects_unqualified_instances():
    # a start vector entry outside {0, 1} is packed as its support
    inst = new_instance(
        Semiring.RATIONAL, (Fraction(1, 2),), (FunctionalMatrix((0,)),),
        DenseMatrix(((1,),)))
    assert isinstance(engine_for(inst), PackedEngine)
    assert m_sequence(inst, 2).values == Reference(inst).counts(2) == (0, 0, 0)
    # 0/1 trajectories, but a selector entry outside {0, 1}
    inst = new_instance(
        Semiring.RATIONAL, (1,), (FunctionalMatrix((0,)),), DenseMatrix(((2,),)))
    with pytest.raises(ValueError):
        PackedEngine(inst)
    assert isinstance(engine_for(inst), GenericEngine)
    # 0/1 trajectories and a 0/1 selector, but a row with two 1s keeps it
    # dense
    inst = new_instance(
        Semiring.GF2, (1, 0), (FunctionalMatrix((1, 0)),), DenseMatrix(((1, 1),)))
    assert isinstance(inst.selector, DenseMatrix)
    with pytest.raises(ValueError):
        PackedEngine(inst)
    assert isinstance(engine_for(inst), GenericEngine)
    # the same instance with a selector held as row actions is packed
    by_actions = dataclasses.replace(inst, selector=FunctionalMatrix((0,), 2))
    assert isinstance(engine_for(by_actions), PackedEngine)


def _support_instance(rng):
    """Rational instance whose transformations and selector are row actions,
    with a ``random_scalar`` start vector that holds an entry outside
    {0, 1}."""
    d = rng.randint(1, 6)
    v = [random_scalar(rng) for _ in range(d)]
    v[rng.randrange(d)] = rng.choice((Fraction(2), Fraction(-1), Fraction(-3, 2), Fraction(1, 3)))
    ts = [random_functional_matrix(rng, d) for _ in range(rng.randint(1, 3))]
    sel = random_functional_matrix(rng, d, rng.randint(1, 3))
    return new_instance(Semiring.RATIONAL, v, ts, sel)


def test_packed_engine_takes_any_start_vector():
    # a row action copies an entry or zeroes it, so the packed engine walks
    # the support of any start vector; a dense transformation (the generic
    # case) keeps the same selector on the generic engine
    rng = random.Random(1901)
    instances = [_support_instance(rng) for _ in range(60)]
    entries = {e for inst in instances for e in inst.v}
    assert 0 in entries and min(entries) < 0 and any(e.denominator > 1 for e in entries)
    generic = new_instance(Semiring.RATIONAL, (1, 0), (DenseMatrix(((1, 1), (0, 1))),),
                           DenseMatrix(((1, 0),)))
    for inst in instances + [generic]:
        assert isinstance(engine_for(inst), GenericEngine if inst is generic else PackedEngine)
        ref = Reference(inst)
        expected = ref.counts(4)
        assert m_sequence(inst, 4).values == expected
        assert m_sequence(inst, 4, method="brute").values == expected
        for seq in product(range(inst.m), repeat=3):
            assert check_sequence(inst, seq) == ref.accepts(seq)


@pytest.mark.parametrize("semiring", list(Semiring))
def test_engine_for_packs_exactly_the_row_action_instances(semiring):
    rng = random.Random(f"packed-rule:{semiring.value}")
    entry = ((lambda: rng.randint(0, 1)) if semiring is Semiring.GF2
             else lambda: random_scalar(rng))
    kinds = set()
    for _ in range(60):
        d = rng.randint(2, 5)

        def matrix(rows):
            # row actions, or dense rows with a row that row actions cannot hold
            if rng.random() < 0.7:
                return random_functional_matrix(rng, d, rows)
            dense = [[entry() for _ in range(d)] for _ in range(rows)]
            dense[0][:2] = [1, 1]
            return DenseMatrix(dense)

        inst = new_instance(semiring, [entry() for _ in range(d)],
                            [matrix(d) for _ in range(rng.randint(1, 3))],
                            matrix(rng.randint(1, 3)))
        packed = all(isinstance(t, FunctionalMatrix)
                     for t in (inst.selector, *inst.transformations))
        assert isinstance(engine_for(inst), PackedEngine if packed else GenericEngine)
        kinds.add(packed)
        assert m_sequence(inst, 3).values == Reference(inst).counts(3)
    assert kinds == {True, False}


def test_packed_encode_decode_round_trip():
    inst = reduce_graph(path_graph(3)).instance
    engine = PackedEngine(inst)
    state = engine.initial()
    assert _unpack(state, inst.d) == inst.v
    assert _pack(_unpack(state, inst.d)) == state


def test_engines_agree_step_by_step():
    # walk every sequence of length <= 3 on a compiled instance with both
    # engines and compare decoded states and verdicts
    inst = reduce_graph(cycle_graph(4), Semiring.GF2).instance
    packed = PackedEngine(inst)
    generic = GenericEngine(inst)
    for length in range(4):
        for seq in product(range(inst.m), repeat=length):
            ps, gs = packed.initial(), generic.initial()
            for t in seq:
                ps, gs = packed.step(t, ps), generic.step(t, gs)
            assert _unpack(ps, inst.d) == gs
            assert packed.annihilates(ps) == generic.annihilates(gs)


def test_engines_agree_on_gf2_parity_selectors():
    # the packed engine takes a selector held as row actions only: new_instance
    # holds it so when no row has two or more 1s; any other selector stays
    # dense, and its parities are counted by the generic engine
    rng = random.Random(17)
    seen = {PackedEngine: 0, GenericEngine: 0}
    for _ in range(30):
        d = rng.randint(1, 5)
        v = tuple(rng.randint(0, 1) for _ in range(d))
        ts = [FunctionalMatrix(tuple(rng.choice([None] + list(range(d))) for _ in range(d)))
              for _ in range(rng.randint(1, 3))]
        sel = DenseMatrix(tuple(tuple(rng.randint(0, 1) for _ in range(d))
                                for _ in range(rng.randint(1, 3))))
        inst = new_instance(Semiring.GF2, v, ts, sel)
        as_actions = isinstance(inst.selector, FunctionalMatrix)
        assert as_actions == all(sum(row) <= 1 for row in sel.rows)
        engine = engine_for(inst)
        assert isinstance(engine, PackedEngine) == as_actions
        assert isinstance(engine, GenericEngine) != as_actions
        seen[type(engine)] += 1
        ref = Reference(inst)
        for seq in product(range(inst.m), repeat=3):
            state = engine.initial()
            for t in seq:
                state = engine.step(t, state)
            assert engine.annihilates(state) == ref.accepts(seq)
        assert m_sequence(inst, 3).values == ref.counts(3)
    assert min(seen.values()) >= 5, seen


def test_packed_generic_selector_fallback():
    # a selector entry outside {0, 1} sends a 0/1 functional instance to the
    # generic engine
    rng = random.Random(23)
    for _ in range(30):
        d = rng.randint(1, 5)
        v = tuple(rng.randint(0, 1) for _ in range(d))
        ts = [FunctionalMatrix(tuple(rng.choice([None] + list(range(d))) for _ in range(d)))
              for _ in range(rng.randint(1, 3))]
        rows = [[Fraction(rng.randint(-2, 2)) for _ in range(d)]
                for _ in range(rng.randint(1, 2))]
        rows[0][0] = rng.choice((Fraction(2), Fraction(-1), Fraction(1, 2)))
        inst = new_instance(Semiring.RATIONAL, v, ts, DenseMatrix(rows))
        assert isinstance(engine_for(inst), GenericEngine)
        with pytest.raises(ValueError):
            PackedEngine(inst)
        ref = Reference(inst)
        expected = ref.counts(2)
        for k in range(3):
            assert m_k_bruteforce(inst, k) == m_k_dedup(inst, k) == expected[k]
        for seq in product(range(inst.m), repeat=2):
            assert check_sequence(inst, seq) == ref.accepts(seq)


def test_m_sequence_metadata():
    inst = reduce_graph(path_graph(3)).instance
    res = m_sequence(inst, 2, method="brute")
    assert res.method == "brute" and res.k_max == 2
    dedup = m_sequence(inst, 2)
    assert dedup.method == "dedup"
    assert dedup.values == res.values
    assert dedup.instance_fingerprint == res.instance_fingerprint
    with pytest.raises(ValueError):
        m_sequence(inst, 2, method="magic")
    with pytest.raises(ValueError):
        m_sequence(inst, -1)


def random_packed_instance(rng, d, semiring, selector_kind):
    """0/1 start vector and functional transformations whose rows copy a
    random source (shifts of both signs) or are zero; the selector has one
    of three kinds: "single" (0/1 rows with at most one 1), "multi" (0/1
    rows with two to five 1s) or "generic" ("multi" plus one entry outside
    {0, 1})."""
    v = tuple(rng.randint(0, 1) for _ in range(d))
    ts = [FunctionalMatrix(tuple(None if rng.random() < 0.2 else rng.randrange(d)
                                 for _ in range(d)))
          for _ in range(rng.randint(1, 3))]
    rows = []
    for _ in range(rng.randint(1, 4)):
        row = [0] * d
        if selector_kind == "single":
            if rng.random() < 0.8:
                row[rng.randrange(d)] = 1
        else:
            for j in rng.sample(range(d), min(d, rng.randint(2, 5))):
                row[j] = 1
        rows.append(row)
    if selector_kind == "generic":
        rows[0][rng.randrange(d)] = rng.choice((Fraction(2), Fraction(-1), Fraction(1, 2)))
    return new_instance(semiring, v, ts, DenseMatrix(rows))


@pytest.mark.parametrize("semiring, selector_kind, mode", [
    (Semiring.GF2, "single", "union"),
    (Semiring.RATIONAL, "single", "union"),
    # a row with two or more 1s keeps the selector dense, and a dense
    # selector leaves the packed engine; GF(2) has no entries outside {0, 1}
    (Semiring.GF2, "multi", "generic"),
    (Semiring.RATIONAL, "multi", "generic"),
    (Semiring.RATIONAL, "generic", "generic"),
])
def test_packed_generic_and_brute_agree_on_random_functional_instances(
        semiring, selector_kind, mode):
    engine_kind = GenericEngine if mode == "generic" else PackedEngine
    rng = random.Random(f"{semiring.value}:{selector_kind}")
    for d in (2, 5, 31, 63, 64, 65, 70):
        inst = random_packed_instance(rng, d, semiring, selector_kind)
        engine = engine_for(inst)
        assert isinstance(engine, engine_kind)
        generic, ref = GenericEngine(inst), Reference(inst)
        for _ in range(20):
            seq = [rng.randrange(inst.m) for _ in range(rng.randint(0, 6))]
            verdict = check_sequence(inst, seq)
            assert verdict == ref.accepts(seq)
            es, gs = engine.initial(), generic.initial()
            for t in seq:
                es, gs = engine.step(t, es), generic.step(t, gs)
                if engine_kind is PackedEngine:
                    assert _unpack(es, d) == gs
            assert engine.annihilates(es) == generic.annihilates(gs) == verdict
        counts = m_sequence(inst, 3).values
        assert counts == ref.counts(3)
        assert m_sequence(inst, 3, method="brute").values == counts
        for k in range(4):
            by_generic = 0
            for seq in product(range(inst.m), repeat=k):
                state = generic.initial()
                for t in seq:
                    state = generic.step(t, state)
                by_generic += generic.annihilates(state)
            assert by_generic == counts[k]


def _is_positive_multiple(state, exact, semiring):
    """True when the int *state* is c * *exact* for one c > 0; over GF(2),
    c must be 1."""
    if semiring is Semiring.GF2:
        return state == exact
    pivot = next((j for j, e in enumerate(exact) if e), None)
    if pivot is None:
        return not any(state)
    c = Fraction(state[pivot]) / exact[pivot]
    return c > 0 and all(s == c * e for s, e in zip(state, exact))


def test_generic_steps_match_exact_products():
    # (matrix, start vector, semiring): dense GF(2), where ((1,1),(0,1))
    # takes (1,1) to exactly (0,1), dense rational, and a functional copy
    # pattern on a vector that is not 0/1
    cases = [
        (DenseMatrix(((1, 1), (0, 1))), (1, 1), Semiring.GF2),
        (DenseMatrix(((1, 1), (0, 1))), (1, 0), Semiring.GF2),
        (DenseMatrix(((Fraction(1, 2), 2), (0, Fraction(-1, 3)))), (4, 3), Semiring.RATIONAL),
        (FunctionalMatrix((1, 2, 2)), (0, 0, 2), Semiring.RATIONAL),
        (FunctionalMatrix((None, 0)), (Fraction(-5, 2), 1), Semiring.RATIONAL),
    ]
    for matrix, v, semiring in cases:
        inst = new_instance(semiring, v, (matrix,), DenseMatrix((tuple(1 for _ in v),)))
        engine, ref = engine_for(inst), Reference(inst)
        assert isinstance(engine, GenericEngine)
        exact = ref.step(0, tuple(map(Fraction, v)))
        assert _is_positive_multiple(engine.step(0, engine.initial()), exact, semiring)
    # rows with different denominators: one step reaches (1/2, 1/3), which
    # 2x - 3y kills
    halves = new_instance(
        Semiring.RATIONAL, (1, 1),
        (DenseMatrix(((Fraction(1, 2), 0), (0, Fraction(1, 3)))),), DenseMatrix(((2, -3),)))
    assert m_sequence(halves, 2).values == (0, 1, 0)
    assert check_sequence(halves, (0,)) and not check_sequence(halves, ())


def test_generic_engine_scales_each_matrix_once(monkeypatch):
    # one lcm each for the start vector, each dense transformation and the
    # dense selector, whose rows share it
    integral, calls = vest.evaluate._integral, []

    def counting(rows):
        calls.append(len(rows))
        return integral(rows)

    monkeypatch.setattr(vest.evaluate, "_integral", counting)
    inst = new_instance(
        Semiring.RATIONAL, (Fraction(1, 2), 1),
        (DenseMatrix(((Fraction(1, 3), 1), (0, 2))), FunctionalMatrix((1, None)),
         DenseMatrix(((1, 1), (Fraction(1, 5), 0)))),
        DenseMatrix(((Fraction(1, 2), 1), (1, Fraction(-1, 7)), (3, 1))))
    engine = GenericEngine(inst)
    assert sorted(calls) == [1, 2, 2, 3]
    assert engine._selector == (-1, ((7, 14), (14, -2), (42, 14)))
    assert m_sequence(inst, 3).values == Reference(inst).counts(3)


def test_generic_selector_test_stops_at_the_first_nonzero_row():
    # a state that the first row of a dense selector rejects costs that
    # row's products alone, not the whole image
    products = []

    class Counted(int):
        def __mul__(self, other):
            products.append(other)
            return int(self) * other
        __rmul__ = __mul__

    for semiring, top in ((Semiring.GF2, 1), (Semiring.RATIONAL, 2)):
        inst = new_instance(semiring, (1, 0, 0), (FunctionalMatrix((0, 1, 2)),),
                            DenseMatrix(((top, 1, 0), (0, 1, 1), (1, 0, 1))))
        engine = GenericEngine(inst)
        assert engine._selector[0] is not None  # the selector stayed dense
        products.clear()
        assert not engine.annihilates(tuple(map(Counted, (1, 0, 0))))
        assert len(products) == 3, semiring
        products.clear()
        assert engine.annihilates(tuple(map(Counted, (0, 0, 0))))
        assert len(products) == 9, semiring


def _functional_rational_instance(rng):
    d = rng.randint(1, 5)
    v = [random_scalar(rng) for _ in range(d)]
    v[rng.randrange(d)] = rng.choice((Fraction(2), Fraction(-1), Fraction(3, 2)))
    ts = [random_functional_matrix(rng, d) for _ in range(rng.randint(1, 3))]
    rows = [[random_scalar(rng) for _ in range(d)] for _ in range(rng.randint(1, 2))]
    # an entry outside {0, 1} keeps the selector dense, so the instance stays
    # on the generic engine and its steps read row actions (a ``(None,
    # sources)`` plan)
    rows[0][rng.randrange(d)] = rng.choice((Fraction(2), Fraction(-1), Fraction(1, 2)))
    return new_instance(Semiring.RATIONAL, v, ts, DenseMatrix(rows))


def _dense_step_action_selector_instance(rng):
    # a selector held as row actions, which the generic engine reads by the
    # plan of a transformation, beside one dense transformation, which keeps
    # the instance on the generic engine
    d = rng.randint(2, 5)
    v = [random_scalar(rng) for _ in range(d)]
    dense = [[random_scalar(rng) for _ in range(d)] for _ in range(d)]
    dense[0][0] = rng.choice((Fraction(2), Fraction(-1), Fraction(1, 2)))
    ts = [random_functional_matrix(rng, d) for _ in range(rng.randint(0, 2))]
    ts.insert(rng.randint(0, len(ts)), DenseMatrix(dense))
    sel = random_functional_matrix(rng, d, rng.randint(1, 3))
    return new_instance(Semiring.RATIONAL, v, ts, sel)


def _dense_gf2_instance(rng):
    d = rng.randint(2, 5)
    v = tuple(rng.randint(0, 1) for _ in range(d))

    def matrix(rows):
        return [[rng.randint(0, 1) for _ in range(d)] for _ in range(rows)]

    ts = [matrix(d) for _ in range(rng.randint(1, 3))]
    ts[0][0][:2] = [1, 1]  # two 1s in a row: not functional
    return new_instance(Semiring.GF2, v, [DenseMatrix(t) for t in ts],
                        DenseMatrix(matrix(rng.randint(1, 3))))


def _mixed_denominator_instance(rng):
    d = rng.randint(2, 4)
    v = tuple(rng.randint(-2, 2) for _ in range(d))

    def matrix(rows):
        # every row has its own denominator
        return DenseMatrix(tuple(
            tuple(Fraction(rng.choice((0, 0, 1, -1, 2)), den) for _ in range(d))
            for den in rng.sample((1, 2, 3, 5, 7), rows)))

    return new_instance(Semiring.RATIONAL, v, [matrix(d) for _ in range(rng.randint(1, 3))],
                        matrix(rng.randint(1, 3)))


GENERIC_FAMILIES = {
    # the instances of acceptance criterion 2, same seed
    "criterion-2": (random_rational_instance, 100),
    "functional-q": (_functional_rational_instance, 40),
    "dense-step-action-selector": (_dense_step_action_selector_instance, 40),
    "functional-01-selector": (
        lambda rng: random_packed_instance(rng, rng.randint(2, 6), Semiring.RATIONAL, "generic"),
        40),
    "dense-gf2": (_dense_gf2_instance, 40),
    "mixed-denominators": (_mixed_denominator_instance, 40),
}


@pytest.mark.parametrize("family", GENERIC_FAMILIES)
def test_generic_engine_matches_the_fraction_reference(family):
    # brute force and dedup share the generic engine's int arithmetic, so
    # they are checked here against a walk over plain Fractions
    make, count = GENERIC_FAMILIES[family]
    rng = random.Random(514 if family == "criterion-2" else family)
    for _ in range(count):
        inst = make(rng)
        engine, ref = engine_for(inst), Reference(inst)
        assert isinstance(engine, GenericEngine)
        expected = ref.counts(4)
        assert m_sequence(inst, 4).values == expected
        assert m_sequence(inst, 4, method="brute").values == expected
        for _ in range(10):
            seq = [rng.randrange(inst.m) for _ in range(rng.randint(0, 5))]
            assert check_sequence(inst, seq) == ref.accepts(seq)
            state, exact = engine.initial(), tuple(map(Fraction, inst.v))
            assert _is_positive_multiple(state, exact, inst.semiring)
            for t in seq:
                state, exact = engine.step(t, state), ref.step(t, exact)
                assert _is_positive_multiple(state, exact, inst.semiring)


def test_instance_builds_its_engine_once(monkeypatch):
    built = []

    class CountingEngine(PackedEngine):
        def __init__(self, instance):
            built.append(instance)
            super().__init__(instance)

    monkeypatch.setattr(vest.evaluate, "PackedEngine", CountingEngine)
    inst = reduce_graph(cycle_graph(4)).instance
    assert m_sequence(inst, 3).values == (0, 0, 12, 24)
    assert check_sequence(inst, (0, 2))
    assert not check_sequence(inst, (0, 0))
    assert not check_sequence(inst, ())
    assert len(built) == 1
    assert engine_for(inst) is engine_for(inst)


def test_instance_is_hashed_once(monkeypatch):
    hashed = []

    def counting_sha256(*args):
        hashed.append(args)
        return hashlib.sha256(*args)

    monkeypatch.setattr(vest.core, "hashlib", types.SimpleNamespace(sha256=counting_sha256))
    inst = reduce_graph(path_graph(3)).instance
    dedup = m_sequence(inst, 2)
    brute = m_sequence(inst, 2, "brute")
    assert msequence_to_dict(dedup)["instance"] == "c856d5a204b55949"
    assert brute.instance_fingerprint == "c856d5a204b55949"
    assert len(hashed) == 1


@pytest.mark.parametrize("method", ["dedup", "brute"])
def test_counting_hashes_nothing(monkeypatch, method):
    hashed = count_hashes(monkeypatch)
    for inst in (reduce_graph(path_graph(3)).instance, random_rational_instance(random.Random(3))):
        m_sequence(inst, 2, method)
        assert inst._fingerprint is None
    assert hashed == []


def test_first_read_of_the_digest_hashes_once(monkeypatch):
    hashed = count_hashes(monkeypatch)
    inst = reduce_graph(path_graph(3)).instance
    result = m_sequence(inst, 2)
    assert result.instance_fingerprint == "c856d5a204b55949"
    assert len(hashed) == 1 and inst._fingerprint == "c856d5a204b55949"
    assert result.instance_fingerprint == "c856d5a204b55949"
    assert msequence_to_dict(result)["instance"] == "c856d5a204b55949"
    assert m_sequence(inst, 2, "brute").instance_fingerprint == "c856d5a204b55949"
    assert len(hashed) == 1


def test_results_compare_by_instance_method_and_values():
    counted = m_sequence(reduce_graph(path_graph(3)).instance, 2, "brute")
    again = m_sequence(reduce_graph(path_graph(3)).instance, 2, "brute")
    assert counted.instance is not again.instance
    assert counted == again and hash(counted) == hash(again)
    assert counted != MSequenceResult(counted.instance, "dedup", counted.values)
    assert counted != MSequenceResult(counted.instance, "brute", (0, 1, 7))
    # the rational compile of the same graph has the same counts
    rational = m_sequence(reduce_graph(path_graph(3), Semiring.RATIONAL).instance, 2, "brute")
    assert rational.values == counted.values and rational != counted
    with pytest.raises(dataclasses.FrozenInstanceError):
        counted.method = "dedup"


def test_printing_and_comparing_a_result_hash_nothing(monkeypatch):
    hashed = count_hashes(monkeypatch)
    inst = reduce_graph(path_graph(3)).instance
    result = m_sequence(inst, 2)
    assert repr(result) == "MSequenceResult(method='dedup', values=(0, 1, 6))"
    assert result == m_sequence(reduce_graph(path_graph(3)).instance, 2)
    assert len({result, m_sequence(inst, 2)}) == 1
    assert hashed == [] and inst._fingerprint is None


def test_replaced_copy_gets_its_own_digest_on_first_read(monkeypatch):
    hashed = count_hashes(monkeypatch)
    inst = reduce_graph(path_graph(3)).instance
    assert m_sequence(inst, 2).instance_fingerprint == "c856d5a204b55949"
    corrupt = dataclasses.replace(inst, v=(inst.semiring.zero,) + inst.v[1:])
    result = m_sequence(corrupt, 2)
    assert corrupt._fingerprint is None and len(hashed) == 1
    assert result.instance_fingerprint != "c856d5a204b55949"
    assert corrupt._fingerprint == result.instance_fingerprint
    assert len(hashed) == 2


def test_replaced_instance_gets_a_fresh_engine():
    # the shape of `vest verify --corrupt`: a copy with another start vector
    # and its own digest
    inst = reduce_graph(path_graph(3)).instance
    engine = engine_for(inst)
    expected = m_sequence(reduce_graph(path_graph(3)).instance, 2)
    assert expected.values == (0, 1, 6) and m_sequence(inst, 2) == expected
    corrupt = dataclasses.replace(inst, v=(inst.semiring.zero,) + inst.v[1:])
    assert engine_for(corrupt) is not engine
    result = m_sequence(corrupt, 2)
    assert result.values != (0, 1, 6)
    assert result.instance_fingerprint != "c856d5a204b55949"
    assert m_sequence(inst, 2).instance_fingerprint == "c856d5a204b55949"
    assert engine_for(inst) is engine


def test_evaluated_instances_are_freed_without_the_cycle_collector():
    rng = random.Random(5)
    gc.disable()
    try:
        for make in (lambda: reduce_graph(path_graph(4)).instance,
                     lambda: random_rational_instance(rng)):
            inst = make()
            m_sequence(inst, 2)
            m_sequence(inst, 2, method="brute")
            check_sequence(inst, (0,))
            ref = weakref.ref(inst)
            del inst
            assert ref() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("method", ["dedup", "brute"])
def test_m_counts_refuses_bad_requests_at_call_time(method):
    inst = reduce_graph(path_graph(3)).instance
    # refused by the call itself, before any next()
    with pytest.raises(NegativeLength) as info:
        m_counts(inst, -1, method)
    assert isinstance(info.value, VestError) and isinstance(info.value, ValueError)
    with pytest.raises(NegativeLength, match="^maximum length must be >= 0, got -1$"):
        dedup_levels(inst, -1)
    with pytest.raises(ValueError):
        m_counts(inst, 2, "magic")


@pytest.mark.parametrize("method", ["dedup", "brute"])
def test_m_counts_equal_m_sequence(method):
    rng = random.Random(5)
    instances = [reduce_graph(g).instance for g in (path_graph(3), cycle_graph(4))]
    instances += [random_rational_instance(rng) for _ in range(10)]
    for inst in instances:
        assert tuple(m_counts(inst, 3, method)) == m_sequence(inst, 3, method).values


def test_m_counts_refuses_brute_force_past_the_cap_at_call_time():
    # 20000**2 sequences exceed the brute-force cap: a brute-force k_max of 2
    # or more is refused before any count is made
    inst = new_instance(Semiring.GF2, (1,), (FunctionalMatrix((0,)),) * 20000,
                        DenseMatrix(((0,),)))
    for k_max in (2, 5, 10**21):
        with pytest.raises(ResourceBound):
            m_counts(inst, k_max, "brute")
    assert tuple(m_counts(inst, 1, "brute")) == (1, 20000)
    one = new_instance(Semiring.GF2, (1,), (FunctionalMatrix((0,)),), DenseMatrix(((0,),)))
    with pytest.raises(ResourceBound):
        m_counts(one, 10**21, "brute")


def test_dedup_cap_is_exact(monkeypatch):
    # levels: k_max itself is held to the cap, and a huge one is refused at
    # call time, before any level is made
    monkeypatch.setattr(vest.evaluate, "DEFAULT_DEDUP_CAP", 3)
    assert len(list(dedup_levels(K1, 3))) == 4
    with pytest.raises(ResourceBound):
        dedup_levels(K1, 4)
    monkeypatch.undo()
    start = time.perf_counter()
    for k_max in (10**8 + 1, 10**21):
        with pytest.raises(ResourceBound):
            dedup_levels(K1, k_max)
    with pytest.raises(ResourceBound):
        m_counts(K1, 10**21)
    assert time.perf_counter() - start < 1.0
    # distinct states per level
    inst = reduce_graph(cycle_graph(4)).instance
    sizes = [len(dist.entries) for dist in dedup_levels(inst, 3)]
    widest = max(sizes)
    monkeypatch.setattr(vest.evaluate, "DEFAULT_DEDUP_CAP", widest)
    assert [len(dist.entries) for dist in dedup_levels(inst, 3)] == sizes
    monkeypatch.setattr(vest.evaluate, "DEFAULT_DEDUP_CAP", widest - 1)
    levels = dedup_levels(inst, 3)
    with pytest.raises(ResourceBound) as info:
        list(levels)
    assert f"level {sizes.index(widest)} holds {widest} distinct states" in str(info.value)


def _generic_level_sizes(inst, k_max):
    """Distinct states per level with the generic engine, which absorbs
    nothing."""
    engine = GenericEngine(inst)
    dist, sizes = {engine.initial(): 1}, [1]
    for _ in range(k_max):
        dist, _ = engine.advance(dist)
        sizes.append(len(dist))
    return sizes


@pytest.mark.parametrize("semiring", [Semiring.GF2, Semiring.RATIONAL])
def test_absorbing_dedup_matches_brute_force_and_dominating_sets(semiring):
    rng = random.Random(f"absorb:{semiring.value}")
    for _ in range(12):
        n = rng.randint(1, 8)
        edges = [e for e in combinations(range(n), 2) if rng.random() < 0.4]
        inst = reduce_graph(Graph.from_edges(n, edges), semiring).instance
        k_max = n + 2
        levels = list(dedup_levels(inst, k_max))
        for j, dist in enumerate(levels):
            assert dist.total() == n ** j
            # live states are the j-subsets of chosen vertices; every
            # sequence that repeats a vertex is dead
            assert len(dist.entries) == math.comb(n, j)
            assert dist.dead == n ** j - math.perm(n, j)
        counts = tuple(annihilated_mass(inst, dist) for dist in levels)
        assert counts == tuple(math.factorial(k) * naive_dominating_count(n, edges, k)
                               for k in range(k_max + 1))
        for k in range(k_max + 1):
            if n ** k <= 20000:
                assert m_k_bruteforce(inst, k) == counts[k]


def _closed_functional_instance(rng, semiring, reach_none):
    """0/1 functional instance whose selector reads single bits of a set S
    that every action maps into S. Without ``None`` in S, the closure of
    each selected bit absorbs. With *reach_none*, one row of S is zeroed by
    some transformation and every other row of S copies, in some
    transformation, a row listed before it, so every closure reaches
    ``None``, most of them through a chain of rows, and none absorbs."""
    d = rng.randint(2, 9)
    closed = rng.sample(range(d), rng.randint(1, d))
    ts = [[rng.choice(closed) if i in closed else
           (None if rng.random() < 0.3 else rng.randrange(d)) for i in range(d)]
          for _ in range(rng.randint(1, 3))]
    if reach_none:
        ts[rng.randrange(len(ts))][closed[0]] = None
        for pos, i in enumerate(closed[1:], start=1):
            ts[rng.randrange(len(ts))][i] = closed[rng.randrange(pos)]
    v = tuple(rng.randint(0, 1) for _ in range(d))
    rows = []
    for i in rng.sample(closed, rng.randint(1, len(closed))):
        row = [0] * d
        row[i] = 1
        rows.append(row)
    return new_instance(semiring, v, [FunctionalMatrix(t) for t in ts], DenseMatrix(rows))


@pytest.mark.parametrize("reach_none", [False, True])
@pytest.mark.parametrize("semiring", [Semiring.GF2, Semiring.RATIONAL])
def test_absorbing_closures_on_random_functional_instances(semiring, reach_none):
    rng = random.Random(f"closures:{semiring.value}:{reach_none}")
    absorbed = 0
    for _ in range(40):
        inst = _closed_functional_instance(rng, semiring, reach_none)
        assert isinstance(engine_for(inst), PackedEngine)
        k_max = 5
        levels = list(dedup_levels(inst, k_max))
        sizes = [len(dist.entries) for dist in levels]
        generic = _generic_level_sizes(inst, k_max)
        if reach_none:
            assert sizes == generic
        else:
            assert all(a <= b for a, b in zip(sizes, generic))
            absorbed += sizes != generic
        for dist in levels:
            assert dist.total() == inst.m ** dist.level
        counts = tuple(annihilated_mass(inst, dist) for dist in levels)
        assert counts == Reference(inst).counts(k_max)
        assert counts == m_sequence(inst, k_max, method="brute").values
    if not reach_none:
        assert absorbed >= 10


def _oracle_instance(rng):
    """Random row actions on d <= 8 rows: each transformation keeps most
    rows and closes a cycle through some rows or runs a chain of them into
    ``None``; the selector has 1-3 rows, so it is rarely square, and is
    sometimes all zero."""
    d = rng.randint(1, 8)
    ts = []
    for _ in range(rng.randint(1, 4)):
        acts = [i if rng.random() < 0.5 else rng.choice([None, *range(d)]) for i in range(d)]
        rows = rng.sample(range(d), rng.randint(1, d))
        shape = rng.randrange(3)
        if shape == 0:  # a cycle
            for i, j in zip(rows, rows[1:] + rows[:1]):
                acts[i] = j
        elif shape == 1:  # a chain that ends in a zero row
            for i, j in zip(rows, rows[1:]):
                acts[i] = j
            acts[rows[-1]] = None
        ts.append(FunctionalMatrix(acts))
    h = rng.randint(1, 3)
    zero = rng.random() < 0.1
    sel = FunctionalMatrix((None,) * h, d) if zero else random_functional_matrix(rng, d, h)
    v = tuple(rng.randint(0, 1) for _ in range(d))
    return new_instance(Semiring.GF2, v, ts, sel)


def test_closures_match_a_plain_reachability_oracle():
    rng = random.Random("closure-oracle")
    absorbed = chained = 0
    for _ in range(400):
        inst = _oracle_instance(rng)
        engine = engine_for(inst)
        assert isinstance(engine, PackedEngine)
        sticky, closures = absorbing_closures(inst)
        assert engine._pull_selector_back() == (sticky, closures, selector_preimages(inst))
        # a selected row that no transformation zeroes, yet whose closure
        # reaches a zero row through another row
        zero = {i for t in inst.transformations for i, j in enumerate(t.actions) if j is None}
        selected = set(inst.selector.actions) - {None}
        absorbed += bool(sticky)
        chained += any(1 << i not in closures for i in selected - zero)
    assert absorbed >= 50 and chained >= 50
    for n in range(1, 31):
        inst = reduce_graph(random_graph(rng, n, rng.choice((0.0, 0.2, 0.5, 1.0)))).instance
        sticky, closures = absorbing_closures(inst)
        assert PackedEngine(inst)._pull_selector_back() == (
            sticky, closures, selector_preimages(inst))
        # exactly the chosen-twice rows absorb
        assert len(closures) == n


def test_parity_selector_counts_match_reference_and_brute_force():
    # over GF(2) a row reading two chosen-twice slots is zero again when
    # both are set; such a selector stays dense, and its counts must match
    # the Fraction reference and brute force
    g = cycle_graph(4)
    compiled = reduce_graph(g).instance
    d = compiled.d
    rows = []
    for u in range(g.n):
        row = [0] * d
        row[3 * u + 1] = row[3 * ((u + 1) % g.n) + 1] = 1
        rows.append(row)
    parity = new_instance(Semiring.GF2, compiled.v, compiled.transformations,
                          DenseMatrix(rows))
    uncovered = [[int(j == 3 * u) for j in range(d)] for u in range(g.n)]
    mixed = new_instance(Semiring.GF2, compiled.v, compiled.transformations,
                         DenseMatrix(rows + uncovered))
    for inst in (parity, mixed):
        k_max = 6
        counts = tuple(annihilated_mass(inst, dist) for dist in dedup_levels(inst, k_max))
        assert counts == Reference(inst).counts(k_max)
        assert counts == m_sequence(inst, k_max, method="brute").values
    assert any(m_sequence(parity, 6).values)


def test_dead_start_vector_stays_level_zero():
    # the start vector already holds the closure {0, 1} of selected bit 0:
    # level 0 is still the start vector; after it, every state is dead
    inst = new_instance(Semiring.GF2, (1, 1, 0),
                        (FunctionalMatrix((1, 0, None)), FunctionalMatrix((0, 1, 0))),
                        DenseMatrix(((1, 0, 0),)))
    levels = list(dedup_levels(inst, 3))
    assert levels[0].entries == {engine_for(inst).initial(): 1}
    assert levels[0].dead == 0
    assert [(dist.entries, dist.dead) for dist in levels[1:]] == [({}, 2), ({}, 4), ({}, 8)]
    assert next(dedup_levels(inst, 0)).entries == {0b011: 1}
    assert m_sequence(inst, 3).values == (0, 0, 0, 0)


def _same_source_instance():
    # selector rows read bits 0 and 1; transformation 0 copies bit 2 into
    # both, two right-shift groups of one source bit, which
    # PackedEngine._pull_selector_back must map back to bit 2 of the
    # preimage
    return new_instance(Semiring.GF2, (0, 0, 1),
                        (FunctionalMatrix((2, 2, 2)), FunctionalMatrix((None, 0, 1))),
                        FunctionalMatrix((0, 1), 3))


def _accepted_mass_instances():
    rng = random.Random("accepted-mass")
    instances = [_same_source_instance(),
                 new_instance(Semiring.GF2, (1, 1, 0),
                              (FunctionalMatrix((1, 0, None)), FunctionalMatrix((0, 1, 0))),
                              DenseMatrix(((1, 0, 0),)))]
    for semiring in (Semiring.GF2, Semiring.RATIONAL):
        for _ in range(3):
            n = rng.randint(1, 4)
            edges = [e for e in combinations(range(n), 2) if rng.random() < 0.5]
            instances.append(reduce_graph(Graph.from_edges(n, edges), semiring).instance)
        instances += [_closed_functional_instance(rng, semiring, False) for _ in range(6)]
        instances += [random_packed_instance(rng, rng.randint(3, 7), semiring, kind)
                      for kind in ("single", "multi") for _ in range(8)]
    # dense rational instances run on the generic engine alone
    return instances + [random_rational_instance(rng) for _ in range(5)]


def test_accepted_mass_matches_the_built_next_level():
    # on both engines, accepted_mass of each level is the mass of the
    # states of the level it advances to that annihilates accepts, and the
    # two engines accept the same mass on every level; vest.annihilated_mass
    # of every level is that mass on the instance's engine (the packed one
    # where it qualifies); the counts made with them match brute force
    # the same-source instance pulls two selected rows back to one source
    assert isinstance(engine_for(_same_source_instance()), PackedEngine)
    seen = dict.fromkeys(("packed", "union", "left", "right", "none", "parity", "dead",
                          "generic dense GF2", "generic dense RATIONAL",
                          "generic actions GF2", "generic actions RATIONAL"), 0)
    for inst in _accepted_mass_instances():
        actions = [a for form in inst.functional_forms if form
                   for a in enumerate(form.actions)]
        seen["left"] += any(j is not None and i > j for i, j in actions)
        seen["right"] += any(j is not None and i < j for i, j in actions)
        seen["none"] += any(j is None for _, j in actions)
        parity = inst.semiring is Semiring.GF2 and any(
            sum(row) > 1 for row in inst.selector.rows)
        seen["parity"] += parity
        engines = (engine_for(inst), GenericEngine(inst))
        packed = isinstance(engines[0], PackedEngine)
        seen["packed"] += packed
        seen["union"] += packed and not parity
        form = "actions" if isinstance(inst.selector, FunctionalMatrix) else "dense"
        seen[f"generic {form} {inst.semiring.name}"] += 1
        k_max = 4
        dists = [{engine.initial(): 1} for engine in engines]
        def accepted(engine, dist):
            return sum(mult for state, mult in dist.items() if engine.annihilates(state))
        for level in range(k_max + 1):
            masses = [accepted(engine, dist) for engine, dist in zip(engines, dists)]
            assert masses[0] == masses[1]
            assert annihilated_mass(inst, StateDistribution(level, dists[0])) == masses[0]
            if level == k_max:
                break
            for pos, (engine, dist) in enumerate(zip(engines, dists)):
                nxt, _ = engine.advance(dist)
                assert engine.accepted_mass(dist) == accepted(engine, nxt)
                dists[pos] = nxt
            # the packed level dropped dead states
            seen["dead"] += len(dists[0]) < len(dists[1])
        brute = tuple(m_k_bruteforce(inst, k) for k in range(k_max + 1))
        assert m_sequence(inst, k_max).values == brute
        assert tuple(m_k_dedup(inst, k) for k in range(k_max + 1)) == brute
        assert brute == Reference(inst).counts(k_max)
    assert all(n >= 3 for n in seen.values()), seen


def _spy_on_engines(monkeypatch):
    """Record every advance and accepted_mass call of both engines, as
    (method name, level size)."""
    calls = []
    for cls in (PackedEngine, GenericEngine):
        for name in ("advance", "accepted_mass"):
            def spy(self, dist, _name=name, _method=getattr(cls, name)):
                calls.append((_name, len(dist)))
                return _method(self, dist)
            monkeypatch.setattr(cls, name, spy)
    return calls


def test_m_counts_builds_levels_up_to_k_max_minus_one(monkeypatch):
    calls = _spy_on_engines(monkeypatch)
    for inst in (K1, reduce_graph(cycle_graph(4)).instance, _same_source_instance(),
                 random_rational_instance(random.Random(3))):
        expected = Reference(inst).counts(3)
        # K1's level 2 holds no live state; the other levels here all do
        dead_at = next((dist.level for dist in dedup_levels(inst, 3) if not dist.entries), 4)
        for k_max in range(4):
            calls.clear()
            assert tuple(m_counts(inst, k_max)) == expected[:k_max + 1]
            # k_max = 0 reads level 0 alone; otherwise levels 1..k_max-1
            # are built and level k_max is counted from the one before,
            # unless a built level holds no live state: the count stops there
            names = [name for name, _ in calls]
            assert names == (["advance"] * min(max(k_max - 1, 0), dead_at)
                             + ["accepted_mass"] * (0 < k_max <= dead_at))


def test_m_counts_refuses_lengths_past_the_dedup_cap_at_call_time(monkeypatch):
    calls = _spy_on_engines(monkeypatch)
    # the cap holds k_max itself, though level k_max is never built
    for k_max in (vest.evaluate.DEFAULT_DEDUP_CAP + 1, 10**21):
        with pytest.raises(ResourceBound):
            m_counts(K1, k_max)
    m_counts(K1, vest.evaluate.DEFAULT_DEDUP_CAP)
    monkeypatch.setattr(vest.evaluate, "DEFAULT_DEDUP_CAP", 3)
    assert tuple(m_counts(K1, 3)) == (0, 1, 0, 0)
    with pytest.raises(ResourceBound):
        m_counts(K1, 4)
    with pytest.raises(ResourceBound):
        m_k_dedup(K1, 4)
    assert calls == [("advance", 1), ("advance", 1)]


def test_m_counts_stops_at_the_first_level_with_no_live_state():
    # past level 3 every sequence over the compiled 3-vertex path repeats a
    # vertex: the count stops at level 4 and yields 0 for every longer length
    inst = reduce_graph(path_graph(3)).instance
    start = time.perf_counter()
    counts = tuple(m_counts(inst, 10**6))
    assert time.perf_counter() - start < 2.0
    assert len(counts) == 10**6 + 1
    assert counts[:6] == (0, 1, 6, 6, 0, 0)
    assert not any(counts[4:])


def test_dedup_state_cap_covers_only_the_levels_built(monkeypatch):
    # levels 0..2 of the compiled 4-cycle hold 1, 4 and 6 states: M_2 is
    # counted from level 1, so a cap of 4 states lets it through
    inst = reduce_graph(cycle_graph(4)).instance
    sizes = [len(dist.entries) for dist in dedup_levels(inst, 2)]
    assert sizes == [1, 4, 6]
    expected = tuple(m_counts(inst, 2))
    monkeypatch.setattr(vest.evaluate, "DEFAULT_DEDUP_CAP", 4)
    assert tuple(m_counts(inst, 2)) == expected
    with pytest.raises(ResourceBound):
        list(dedup_levels(inst, 2))
    monkeypatch.setattr(vest.evaluate, "DEFAULT_DEDUP_CAP", 3)
    counts = m_counts(inst, 2)
    assert next(counts) == 0
    with pytest.raises(ResourceBound) as info:
        next(counts)
    assert "level 1 holds 4 distinct states" in str(info.value)


def test_brute_force_walks_every_prefix_once(monkeypatch):
    # m = 3, K = 3: one walk makes 3 + 9 + 27 = 39 steps and tests all 40
    # nodes, the root included; counting each length alone made 54 steps
    rng = random.Random(3)
    inst = new_instance(Semiring.RATIONAL, (1, 2),
                        tuple(DenseMatrix(((random_scalar(rng), 1), (1, random_scalar(rng))))
                              for _ in range(3)),
                        DenseMatrix(((1, -1),)))
    assert isinstance(engine_for(inst), GenericEngine)
    expected = tuple(m_counts(inst, 3))
    calls = {"step": 0, "annihilates": 0}
    for name in calls:
        method = getattr(GenericEngine, name)

        def counted(self, *args, name=name, method=method):
            calls[name] += 1
            return method(self, *args)
        monkeypatch.setattr(GenericEngine, name, counted)
    assert tuple(m_counts(inst, 3, "brute")) == expected
    assert calls == {"step": 39, "annihilates": 40}


def test_m_sequence_refuses_a_brute_force_job_before_counting(monkeypatch):
    # 20000**2 sequences exceed the brute-force cap: m_sequence, which
    # needs every length, refuses the job before the first count
    inst = new_instance(Semiring.GF2, (1,), (FunctionalMatrix((0,)),) * 20000,
                        DenseMatrix(((0,),)))
    counted = []
    monkeypatch.setattr(vest.evaluate, "m_k_bruteforce",
                        lambda instance, k: counted.append(k))
    monkeypatch.setattr(vest.evaluate, "engine_for", counted.append)
    with pytest.raises(ResourceBound):
        m_sequence(inst, 2, method="brute")
    start = time.perf_counter()
    with pytest.raises(ResourceBound):
        m_sequence(inst, 10**21, method="brute")
    assert time.perf_counter() - start < 1.0
    assert counted == []


def _generic_counts(instance, k_max):
    """M_0..M_k_max on a ``GenericEngine`` built here, whatever engine
    ``engine_for`` would pick, every level built and tested in full."""
    engine = GenericEngine(instance)
    level, counts = {engine.initial(): 1}, []
    for k in range(k_max + 1):
        if k:
            level, _ = engine.advance(level)
        counts.append(sum(mult for state, mult in level.items() if engine.annihilates(state)))
    return tuple(counts)


def _selector_twins(rng, semiring):
    """One instance built twice, its selector given once as row actions and
    once as the equal dense matrix. The start vector is 0/1, and some
    selector rows are zero; some instances carry a dense transformation, so
    ``engine_for`` picks either engine."""
    d = rng.randint(1, 9)
    v = tuple(rng.randint(0, 1) for _ in range(d))
    ts = [random_functional_matrix(rng, d) for _ in range(rng.randint(1, 3))]
    if rng.random() < 0.3:
        entry = ((lambda: rng.randint(0, 1)) if semiring is Semiring.GF2
                 else lambda: random_scalar(rng))
        ts.append(DenseMatrix([[entry() for _ in range(d)] for _ in range(d)]))
    actions = FunctionalMatrix([None if rng.random() < 0.3 else rng.randrange(d)
                                for _ in range(rng.randint(1, 5))], d)
    return (new_instance(semiring, v, ts, actions),
            new_instance(semiring, v, ts, actions.dense()))


@pytest.mark.parametrize("semiring", list(Semiring))
def test_dense_and_action_selectors_agree(semiring):
    rng = random.Random(f"selector-twins:{semiring.value}")
    twins = [_selector_twins(rng, semiring) for _ in range(40)]
    for n in (1, 3, 5):
        inst = reduce_graph(random_graph(rng, n, 0.5), semiring).instance
        twins.append((inst, new_instance(semiring, inst.v, inst.transformations,
                                         inst.selector.dense())))
    assert any(None in by_actions.selector.actions for by_actions, _ in twins)
    for by_actions, by_rows in twins:
        assert isinstance(by_actions.selector, FunctionalMatrix)
        # new_instance keeps a dense selector of single 1s as row actions,
        # in both semirings; held as canonical dense rows, it must still agree
        assert isinstance(by_rows.selector, FunctionalMatrix)
        held_dense = dataclasses.replace(by_actions, selector=DenseMatrix(
            [[semiring.canon(e) for e in row] for row in by_actions.selector.rows]))
        text = dumps_instance(InstanceDocument(by_actions, {}))
        expected = Reference(held_dense).counts(3)
        for inst in (by_actions, by_rows, held_dense):
            assert inst == by_actions and hash(inst) == hash(by_actions)
            assert instance_fingerprint(inst) == instance_fingerprint(by_actions)
            # the dense rows of held_dense, which bypassed new_instance, are
            # written as dense rows; every document loads to the same instance
            written = dumps_instance(InstanceDocument(inst, {}))
            assert written == text or inst is held_dense
            assert loads_instance(written).instance == by_actions
            assert m_sequence(inst, 3).values == expected
            assert m_sequence(inst, 3, method="brute").values == expected
            assert _generic_counts(inst, 3) == expected
            assert Reference(inst).counts(3) == expected


@pytest.mark.parametrize("semiring", list(Semiring))
def test_hashing_writing_and_engines_never_expand_the_selector(monkeypatch, semiring):
    def refuse(self):
        raise AssertionError("dense() called")

    instances = [reduce_graph(path_graph(4), semiring).instance,
                 loads_instance(dumps_instance(InstanceDocument(
                     reduce_graph(cycle_graph(5)).instance, {}))).instance]
    # a dense transformation puts the instance on the generic engine
    generic = new_instance(semiring, (1, 0, 1), (DenseMatrix(((1, 1, 0), (0, 1, 0), (1, 0, 1))),
                                                 FunctionalMatrix((2, 0, None))),
                           FunctionalMatrix((0, None, 2), 3))
    expected = Reference(generic).counts(3)
    monkeypatch.setattr(FunctionalMatrix, "dense", refuse)
    for inst in instances + [generic]:
        assert isinstance(inst.selector, FunctionalMatrix)
        instance_fingerprint(inst)
        hash(inst)
        dumps_instance(InstanceDocument(inst, {}))
        engine = engine_for(inst)
        assert isinstance(engine, GenericEngine if inst is generic else PackedEngine)
        for method in ("dedup", "brute"):
            counts = m_sequence(inst, 3, method=method).values
            assert inst is not generic or counts == expected
        check_sequence(inst, (0, 1))
