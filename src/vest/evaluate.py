"""Sequence checking and M-sequence evaluation.

Three evaluation modes share one state-walking core:

* ``check_sequence`` follows a single index sequence and tests whether the
  selector annihilates the final vector.
* brute force (``m_counts`` "brute") walks every sequence of length up to
  k_max once, depth first over shared prefixes, counting each at its length.
* ``dedup_levels`` walks levels of state distributions, merging sequences
  that reach the same vector, so the cost scales with distinct states
  rather than with m**k. Each engine's ``advance`` makes one level from
  the last, with the mass that died on the way, and its ``accepted_mass``
  counts the accepted successors of a level without making them; the
  module's ``annihilated_mass`` counts a level's accepted mass through the
  engine's ``annihilates``, its one test of a state against the selector
  (a generic test stops at the first nonzero row). ``m_counts`` builds
  levels up to k_max - 1 only and counts the last through
  ``accepted_mass``, so the last level, most of the states on a compiled
  instance, is never stored, and stops at the first level with no live
  state: every count past it is 0. Kernels are plain loops: on CPython
  3.11 a loop made the packed ``accepted_mass`` 2-2.5x faster than ``map``.

Instances with every matrix held as row actions (``FunctionalMatrix``),
the selector included, run on a packed engine that stores each vector's
support (bit i set when entry i is nonzero) as an int bitmask, whatever
the start vector: row actions only copy or zero entries, so acceptance
depends on the support alone. ``PackedEngine.__init__`` is the one place
that tests this rule. Row i of a functional transformation copies bit
``action[i]`` to bit i, so rows that share the shift ``i - action[i]``
move together: a step is one masked shift per shift group. A selector row
that copies bit j is nonzero exactly when bit j is set, so the selector is
one union mask. A selected row is absorbing when its closure reaches no
zero row; a state that holds that whole closure keeps the row nonzero (in
a compiled instance: a vertex chosen twice), so no extension of it is
accepted: ``advance`` drops it and counts only its mass. ``accepted_mass``
tests each state against the union mask pulled back through each
transformation (one preimage mask each), one AND per successor. One lazy
pass pulls the selector back and gives both the closures and the preimage
masks (``PackedEngine._pull_selector_back``). Every other instance runs on
a generic engine over int tuples, which reads every matrix, the selector
included, by one rule: a matrix held as row actions copies entries; any
other matrix is scaled int rows. Both engines give identical counts; the
packed one is just faster. ``engine_for`` builds an instance's engine once
and keeps it on the instance, so every evaluation of that instance shares
it. ``check_sequence`` and brute force absorb nothing, so brute force
checks the absorption of dedup.

Each enumeration has one cap, a module constant read when the enumeration
is asked for, never an argument: ``DEFAULT_BRUTE_CAP`` (sequences of one
brute-force length) and ``DEFAULT_DEDUP_CAP`` (dedup levels, and distinct
states per level) here, ``vest.graphs.DEFAULT_SUBSET_CAP`` (subsets of one
dominating-set count). Each request is refused in one function:
``check_count`` for a count of M_k, ``vest.graphs.check_subset_bound`` for
a count of dominating sets; only the per-level state cap is tested as the
levels are made.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from itertools import compress, repeat
from typing import Dict, Iterator, Sequence, Tuple

from .core import (
    FunctionalMatrix,
    NegativeLength,
    ResourceBound,
    Scalar,
    Semiring,
    VestError,
    VestInstance,
    instance_fingerprint,
)

DEFAULT_BRUTE_CAP = 10**8
DEFAULT_DEDUP_CAP = 10**8

# The count methods: "brute" enumerates every sequence, "dedup" merges
# sequences that reach one state. Every caller names them through these.
BRUTE, DEDUP = "brute", "dedup"
METHODS = (BRUTE, DEDUP)


class IndexOutOfRange(VestError):
    pass


def _integral(rows: Sequence[Sequence[Scalar]]) -> Tuple[Tuple[int, ...], ...]:
    """*rows* scaled by the lcm of every denominator in them: int rows that
    are a positive multiple of the matrix they came from."""
    scale = math.lcm(*(e.denominator for row in rows for e in row))
    return tuple(tuple(e.numerator * (scale // e.denominator) for e in row) for row in rows)


class GenericEngine:
    """State walker over int tuples; serves every instance that the packed
    engine does not take.

    One rule reads every matrix, the selector included: a matrix held as
    row actions copies entries; any other matrix is scaled int rows. Its
    plan is ``(None, sources)``, row i copying entry ``sources[i]`` and a
    zero row the 0 appended at -1, or ``(mask, rows)``, each row a sum of
    products taken ``& mask``: -1 over the rationals, which keeps every
    int, and 1 over GF(2), whose entries are the ints 0 and 1. ``_apply``
    reads a transformation's plan and builds the image; ``annihilates``,
    the one selector test, reads the selector's and stops at the first
    nonzero row. Over the rationals the start vector and each matrix
    are scaled once, each by the lcm of its own denominators, to a positive
    multiple of the exact one. That changes no verdict: ``(cS)x``,
    ``S(cx)`` and ``Sx`` are zero together, and ``T(cx) = cTx``.
    """

    __slots__ = ("_initial", "_plans", "_selector")

    def __init__(self, instance: VestInstance):
        # GF(2) entries are already ints; tuple() of a tuple is that tuple
        integral, mask = (tuple, 1) if instance.semiring is Semiring.GF2 else (_integral, -1)
        self._initial = integral((instance.v,))[0]

        def plan(matrix):
            if isinstance(matrix, FunctionalMatrix):
                return None, tuple(-1 if j is None else j for j in matrix.actions)
            return mask, integral(matrix.rows)
        self._plans = tuple(map(plan, instance.transformations))
        self._selector = plan(instance.selector)

    def initial(self) -> Tuple[int, ...]:
        return self._initial

    @staticmethod
    def _apply(plan: tuple, state: Tuple[int, ...]) -> Tuple[int, ...]:
        mask, entries = plan
        if mask is None:
            return tuple(map((state + (0,)).__getitem__, entries))
        # a loop: on CPython 3.11 a list comprehension cost more per call
        image, mul = [], operator.mul
        for row in entries:
            image.append(sum(map(mul, row, state)) & mask)
        return tuple(image)

    def step(self, t: int, state: Tuple[int, ...]) -> Tuple[int, ...]:
        return self._apply(self._plans[t], state)

    def annihilates(self, state: Tuple[int, ...]) -> bool:
        # the first nonzero row decides: most rejected states fail there
        mask, entries = self._selector
        if mask is None:
            return not any(map((state + (0,)).__getitem__, entries))
        mul = operator.mul
        for row in entries:
            if sum(map(mul, row, state)) & mask:
                return False
        return True

    def advance(self, dist: Dict) -> Tuple[Dict, int]:
        """The next dedup level and its dead mass, always 0 here: every
        transformation applied to every state of *dist* (state ->
        multiplicity), collisions summed."""
        apply, plans = self._apply, self._plans
        nxt: Dict = {}
        for state, mult in dist.items():
            for plan in plans:
                succ = apply(plan, state)
                nxt[succ] = nxt.get(succ, 0) + mult
        return nxt, 0

    def accepted_mass(self, dist: Dict) -> int:
        """Total multiplicity of the accepted one-step successors of *dist*
        (state -> multiplicity); the successors are tested, never stored."""
        apply, plans, annihilates = self._apply, self._plans, self.annihilates
        mass = 0
        for state, mult in dist.items():
            for plan in plans:
                if annihilates(apply(plan, state)):
                    mass += mult
        return mass


def _shift_groups(t: FunctionalMatrix) -> Tuple[int, tuple, tuple]:
    """Step plan of one functional transformation: the mask of fixed rows
    (shift 0), then the moved rows grouped by ``shift = i - action[i]``, as
    (mask of source bits, shift) pairs, split into left shifts (shift > 0)
    and right shifts (by -shift).

    Only ``t.moved`` is walked: deg(u) + 3 rows of a compiled vertex
    matrix, whose other rows are fixed."""
    actions = t.actions
    fixed = (1 << len(actions)) - 1
    groups: Dict[int, int] = {}
    for i in t.moved:
        fixed ^= 1 << i
        j = actions[i]
        if j is not None:
            groups[i - j] = groups.get(i - j, 0) | 1 << j
    lefts = tuple((mask, shift) for shift, mask in groups.items() if shift > 0)
    rights = tuple((mask, -shift) for shift, mask in groups.items() if shift < 0)
    return fixed, lefts, rights


class PackedEngine:
    """Bitmask state walker for an instance with every transformation and
    the selector held as row actions (``FunctionalMatrix``).

    A state is an int whose bit i is set when vector entry i is nonzero,
    which row actions keep exact whatever the start vector. Each
    transformation's moved rows (``FunctionalMatrix.moved``) are grouped
    by shift (``_shift_groups``), so building the plans takes Python work
    per moved row only, deg(u) + 3 rows of a compiled vertex matrix; a
    step ORs one ``(state & mask) << shift`` per group, or ``>> -shift``
    when the shift is negative. A compiled vertex matrix has at most three
    groups. The selector test runs directly on the packed state: a
    selector row that copies entry j is nonzero exactly when bit j is set,
    so the selector is one union mask, the OR of ``1 << j`` over its
    actions, and a state is annihilated when it meets none of it. This
    constructor is the one place that states that rule: any other
    instance, one with a dense transformation or a dense selector, raises
    ``ValueError``, and ``engine_for`` gives it a ``GenericEngine``.

    A selected row is absorbing when its closure reaches no zero row: it
    can never clear once that whole closure is set, so ``advance`` drops
    every such successor and returns its mass as dead mass: on a compiled
    graph level j keeps exactly C(n, j) live states. The closures and the
    preimage masks of ``accepted_mass`` come from one pull-back of the
    selector (``_pull_selector_back``), made on the first ``advance`` or
    ``accepted_mass``, so building an engine and checking sequences never
    pay for it.
    """

    __slots__ = ("_plans", "_initial", "_union_mask", "_actions", "_pulled")

    def __init__(self, instance: VestInstance):
        selector, transformations = instance.selector, instance.transformations
        if not all(isinstance(t, FunctionalMatrix) for t in (selector, *transformations)):
            raise ValueError("instance does not qualify for the packed path")
        union = 0
        for j in selector.actions:
            if j is not None:
                union |= 1 << j
        self._union_mask = union
        self._plans = tuple(map(_shift_groups, transformations))
        initial = 0
        for i in compress(range(instance.d), instance.v):
            initial |= 1 << i
        self._initial = initial
        # the pull-back is left to its first use: checks never need it
        self._actions = transformations
        self._pulled = None

    def initial(self) -> int:
        return self._initial

    def step(self, t: int, state: int) -> int:
        fixed, lefts, rights = self._plans[t]
        out = state & fixed
        for mask, shift in lefts:
            out |= (state & mask) << shift
        for mask, shift in rights:
            out |= (state & mask) >> shift
        return out

    def annihilates(self, state: int) -> bool:
        return not self._union_mask & state

    def _pull_selector_back(self) -> Tuple[int, Dict[int, int], Tuple[int, ...]]:
        """The selector pulled back through the transformations, as
        (sticky, closures, preimages).

        The closure C(i) of row i is the smallest set of rows that holds i
        and ``action_t[j]`` for every transformation t and every j in it.
        A selected row is absorbing when its closure reaches no zero row:
        then a state with every bit of C(i) set keeps them all set, and no
        extension of it is accepted. ``closures`` maps each absorbing row i
        (as ``1 << i``) to the mask of C(i); ``sticky`` is the mask of
        those rows. ``step(t, state)`` meets the union mask exactly when
        ``state & preimages[t]`` is nonzero. One pass over each
        transformation's moved rows (``FunctionalMatrix.moved``) finds the
        zero rows, what every other moved row copies, and each preimage: the
        selected fixed rows and the source of each selected moved row. One
        walk from each selected row then stops at the first zero row it
        meets."""
        zero, union = 0, self._union_mask
        sources: Dict[int, list] = {}
        preimages = []
        for (fixed, _, _), t in zip(self._plans, self._actions):
            actions = t.actions
            preimage = union & fixed
            for i in t.moved:
                j = actions[i]
                if j is None:
                    zero |= 1 << i
                    continue
                sources.setdefault(i, []).append(j)
                if union >> i & 1:
                    preimage |= 1 << j
            preimages.append(preimage)
        closures: Dict[int, int] = {}
        selected = union & ~zero
        while selected:
            low = selected & -selected
            selected ^= low
            seen, todo = low, [low.bit_length() - 1]
            while todo:
                i = todo.pop()
                if zero >> i & 1:
                    break
                for j in sources.get(i, ()):
                    if not seen >> j & 1:
                        seen |= 1 << j
                        todo.append(j)
            else:
                closures[low] = seen
        return sum(closures), closures, tuple(preimages)

    def advance(self, dist: Dict) -> Tuple[Dict, int]:
        """The next dedup level and the mass that died on the way: every
        transformation applied to every state of *dist* (state ->
        multiplicity), collisions summed. A successor that holds all of
        some absorbing closure is dead: it is not stored, and its
        multiplicity is added to the dead mass instead.

        The body of ``step`` runs inline: a call per successor made the
        compiled-dedup benchmark's ``solve_s`` 8% slower (10 of 10
        alternating pairs of 40 s runs, 2 vCPU, Python 3.11)."""
        if self._pulled is None:
            self._pulled = self._pull_selector_back()
        sticky, closures, _ = self._pulled
        plans = self._plans
        nxt: Dict = {}
        get = nxt.get
        dead_mass = 0
        for state, mult in dist.items():
            for fixed, lefts, rights in plans:
                out = state & fixed
                for mask, shift in lefts:
                    out |= (state & mask) << shift
                for mask, shift in rights:
                    out |= (state & mask) >> shift
                hit = out & sticky
                while hit:
                    low = hit & -hit
                    if out & closures[low] == closures[low]:
                        break
                    hit ^= low
                if hit:
                    dead_mass += mult
                else:
                    nxt[out] = get(out, 0) + mult
        return nxt, dead_mass

    def accepted_mass(self, dist: Dict) -> int:
        """Total multiplicity of the accepted one-step successors of *dist*
        (state -> multiplicity), counted without making them: through the
        selector's preimages (``_pull_selector_back``), built with the
        absorbing closures on the first call or the first ``advance``."""
        if self._pulled is None:
            self._pulled = self._pull_selector_back()
        preimages = self._pulled[2]
        mass = 0
        for state, mult in dist.items():
            for union in preimages:
                if not state & union:
                    mass += mult
        return mass


def engine_for(instance: VestInstance):
    """The fastest engine that is exact for this instance. It is built on the
    first call and kept on the instance; engines hold arrays, never the
    instance, so keeping one there forms no reference cycle."""
    engine = instance._engine
    if engine is None:
        try:
            engine = PackedEngine(instance)
        except ValueError:  # not row actions throughout
            engine = GenericEngine(instance)
        object.__setattr__(instance, "_engine", engine)
    return engine


def check_sequence(instance: VestInstance, sequence: Sequence[int]) -> bool:
    """Apply the indexed transformations in order; True when the selector
    maps the final vector to zero. The empty sequence tests the start
    vector itself. Each index is tested as it is applied: one that is not
    an int in [0, m) raises ``IndexOutOfRange``."""
    engine, m = engine_for(instance), instance.m
    state = engine.initial()
    for pos, t in enumerate(sequence):
        if not isinstance(t, int) or isinstance(t, bool):
            raise IndexOutOfRange(f"position {pos}: index {t!r} is not an integer")
        if not 0 <= t < m:
            raise IndexOutOfRange(f"position {pos}: index {t} outside [0, {m})")
        state = engine.step(t, state)
    return engine.annihilates(state)


def check_count(m: int, k_max: int, method: str = DEDUP) -> None:
    """Refuse a count of M_0..M_k_max over m transformations by *method*:
    a negative *k_max* (``NegativeLength``), then a method not in
    ``METHODS`` (``ValueError``), then a job past the method's cap, read at
    each call (``ResourceBound``). It needs no instance, so a graph is
    tested before it is compiled, m being its vertex count.

    Dedup is refused past ``DEFAULT_DEDUP_CAP`` levels. Brute force is
    refused when the sequences of length k_max pass ``DEFAULT_BRUTE_CAP``:
    a bound that admits k_max admits every shorter length, so testing
    k_max alone bounds the whole walk."""
    if k_max < 0:
        raise NegativeLength(f"maximum length must be >= 0, got {k_max}")
    if method == DEDUP:
        cap = DEFAULT_DEDUP_CAP
        if k_max > cap:
            raise ResourceBound(f"dedup to length {k_max} exceeds the cap of {cap} levels")
    elif method == BRUTE:
        cap = DEFAULT_BRUTE_CAP
        # Each sequence walks k_max steps, so k_max itself is held to the
        # cap too: with m=1 there is one sequence for every length. m >=
        # 2**(b - 1) for its bit length b, so the middle test refuses a huge
        # k_max before m**k_max is ever computed; the exact test then runs
        # only on numbers of at most twice the bits of cap.
        if k_max > cap or k_max * (m.bit_length() - 1) > cap.bit_length() or m ** k_max > cap:
            raise ResourceBound(
                f"brute force over {m}**{k_max} sequences of length {k_max} exceeds "
                f"the cap of {cap}; the dedup method may still be feasible")
    else:
        raise ValueError(f"unknown method {method!r}")


@dataclass(frozen=True)
class StateDistribution:
    """Multiset of the live states reached after ``level`` steps: state ->
    number of index sequences reaching it, and ``dead``, the number that
    reached a dead state (one ``PackedEngine`` tells dead: no extension of
    it is accepted), so the total is ``m**level``. States are
    engine-internal: packed ints on the packed engine, int tuples on the
    generic one. Over the rationals a generic state is a positive multiple
    of the exact vector, so states that are multiples of each other may
    stay apart; counts are exact either way. ``m_counts`` makes one for
    every level but the last it counts: that one is counted through the
    engine's ``accepted_mass`` and never stored."""

    level: int
    entries: Dict
    dead: int = 0

    def total(self) -> int:
        return sum(self.entries.values()) + self.dead


def dedup_levels(instance: VestInstance, k_max: int) -> Iterator[StateDistribution]:
    """Yield state distributions for levels 0..k_max.

    Level 0 is the start vector with multiplicity 1; level j+1 is the
    engine's ``advance`` of level j, whose dead mass is m times that of
    level j plus the mass that died in the step. Deterministic: iteration
    order never affects the result. ``check_count`` refuses the request at
    call time; a level of more than ``DEFAULT_DEDUP_CAP`` distinct states
    raises ``ResourceBound`` once it is made. The state test covers only
    the levels built here, so not the last level ``m_counts`` counts, which
    is never built. It is a backstop, not a memory bound: a level that
    large needs many GB, which memory normally runs out of first. Each
    level after the first with no live state still carries an exact dead
    count of about level·log2(m) bits, so iterating L levels costs O(L²)
    bit work; ``m_counts`` stops at the first level with no live state.
    """
    check_count(instance.m, k_max)
    return _levels(engine_for(instance), instance.m, k_max)


def _levels(engine, m: int, k_max: int) -> Iterator[StateDistribution]:
    dist, dead = {engine.initial(): 1}, 0
    for level in range(k_max + 1):
        if level:
            dist, died = engine.advance(dist)
            dead = dead * m + died
        if len(dist) > DEFAULT_DEDUP_CAP:
            raise ResourceBound(
                f"dedup level {level} holds {len(dist)} distinct states, "
                f"above the cap of {DEFAULT_DEDUP_CAP}")
        yield StateDistribution(level, dist, dead)


def annihilated_mass(instance: VestInstance, dist: StateDistribution) -> int:
    """Total multiplicity of states in *dist* that the selector kills, each
    tested by the instance engine's ``annihilates``."""
    annihilates = engine_for(instance).annihilates
    mass = 0
    for state, mult in dist.entries.items():
        if annihilates(state):
            mass += mult
    return mass


def m_k_bruteforce(instance: VestInstance, k: int) -> int:
    """Count annihilated length-k sequences by brute force: the last count
    of ``m_counts(instance, k, "brute")``, whose walk also tests every
    shorter sequence."""
    *_, last = m_counts(instance, k, BRUTE)
    return last


def m_k_dedup(instance: VestInstance, k: int) -> int:
    """Count annihilated length-k sequences through state deduplication: the
    last count of ``m_counts``."""
    *_, last = m_counts(instance, k)
    return last


@dataclass(frozen=True)
class MSequenceResult:
    """Counts M_0..M_k_max of the counted ``instance``, which the result
    keeps alive, tagged with the method that made them.

    Results compare and hash as plain dataclasses: by instance content,
    method and values. Counting, comparing and printing never compute the
    digest: ``instance_fingerprint`` hashes the instance on its first read,
    through ``core.instance_fingerprint``, which keeps the digest on the
    instance.
    """

    instance: VestInstance = field(repr=False)
    method: str
    values: Tuple[int, ...]

    @property
    def instance_fingerprint(self) -> str:
        return instance_fingerprint(self.instance)

    @property
    def k_max(self) -> int:
        return len(self.values) - 1


def m_counts(instance: VestInstance, k_max: int, method: str = DEDUP) -> Iterator[int]:
    """M_0..M_k_max, one per ``next``.

    "dedup" yields the annihilated mass of each level of ``dedup_levels`` up
    to k_max - 1, then counts M_k_max from level k_max - 1 through the
    engine's ``accepted_mass``, without building level k_max; the per-level
    state cap therefore covers levels 0..k_max - 1 only. At the first level
    with no live state it yields 0 for every remaining length: no extension
    of a dead state is accepted. "brute" makes one walk (``_brute_counts``),
    all of it on the first ``next``. ``check_count`` refuses the request at
    call time, before any count is made."""
    check_count(instance.m, k_max, method)
    if method == DEDUP:
        return _dedup_counts(instance, dedup_levels(instance, max(k_max - 1, 0)), k_max)
    return _brute_counts(engine_for(instance), instance.m, k_max)


def _brute_counts(engine, m: int, k_max: int) -> Iterator[int]:
    """One depth-first walk over every sequence of length <= k_max, prefixes
    shared through an explicit stack: each node is tested once and counted
    at its depth. The whole walk runs on the first ``next``."""
    step, annihilates = engine.step, engine.annihilates
    counts = [0] * (k_max + 1)
    stack = [(engine.initial(), 0)]
    while stack:
        state, depth = stack.pop()
        if annihilates(state):
            counts[depth] += 1
        if depth < k_max:
            depth += 1
            for t in range(m):
                stack.append((step(t, state), depth))
    yield from counts


def _dedup_counts(instance: VestInstance, levels: Iterator[StateDistribution],
                  k_max: int) -> Iterator[int]:
    for last in levels:
        if not last.entries:
            yield from repeat(0, k_max + 1 - last.level)
            return
        yield annihilated_mass(instance, last)
    if k_max:
        yield engine_for(instance).accepted_mass(last.entries)


def m_sequence(instance: VestInstance, k_max: int, method: str = DEDUP) -> MSequenceResult:
    """Compute M_0..M_k_max with the chosen method ("dedup" or "brute").

    The result keeps *instance*; its digest is computed only when
    ``instance_fingerprint`` is read."""
    return MSequenceResult(instance, method, tuple(m_counts(instance, k_max, method)))
