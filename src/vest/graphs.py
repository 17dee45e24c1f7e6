"""Undirected graphs, dominating-set queries, and the two input formats.

Adjacency is stored as one int bitmask per vertex, which makes the
dominating-set test a handful of OR operations. The independent counting
routine here is the ground truth the rest of the package is checked against.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Tuple, Union

from .core import NegativeLength, ResourceBound, VestError

DEFAULT_SUBSET_CAP = 10**8

VertexSet = Union[int, Iterable[int]]


class VertexOutOfRange(VestError):
    pass


class GraphSyntaxError(VestError):
    """A graph file failed to parse; carries the 1-based offending line."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class InconsistentHeader(VestError):
    pass


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..n-1.

    ``adj[u]`` is a bitmask of the open neighborhood of u.
    """

    n: int
    adj: Tuple[int, ...]
    edge_count: int

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[Tuple[int, int]]) -> "Graph":
        """Build from an edge list, dropping self-loops (with a warning) and
        collapsing duplicate edges silently."""
        if n < 1:
            raise ValueError(f"vertex count must be >= 1, got {n}")
        try:
            adj = [0] * n
        except OverflowError:  # n does not even fit a list index
            raise MemoryError(f"cannot allocate {n} vertices") from None
        count = 0
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                bad = v if 0 <= u < n else u
                raise VertexOutOfRange(f"vertex {bad} outside [0, {n})")
            if u == v:
                warnings.warn(f"ignoring self-loop at vertex {u}", stacklevel=2)
                continue
            if not adj[u] >> v & 1:
                count += 1
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return cls(n, tuple(adj), count)

    def closed_mask(self, u: int) -> int:
        """Bitmask of u and its neighbors."""
        if not 0 <= u < self.n:
            raise VertexOutOfRange(f"vertex {u} outside [0, {self.n})")
        return self.adj[u] | 1 << u

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1


def vertex_mask(vertices: Iterable[int], n: int) -> int:
    mask = 0
    for u in vertices:
        if not 0 <= u < n:
            raise VertexOutOfRange(f"vertex {u} outside [0, {n})")
        mask |= 1 << u
    return mask


def mask_vertices(mask: int) -> Tuple[int, ...]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def is_dominating(g: Graph, vertices: VertexSet) -> bool:
    """True when every vertex is in the set or adjacent to a member.

    Accepts either a bitmask or an iterable of vertex indices.
    """
    mask = vertices if isinstance(vertices, int) else vertex_mask(vertices, g.n)
    if mask >> g.n:
        raise VertexOutOfRange(f"set mask has bits outside [0, {g.n})")
    covered = 0
    m = mask
    while m:
        low = m & -m
        covered |= g.adj[low.bit_length() - 1]
        m ^= low
    return (covered | mask) == g.full_mask


def check_subset_bound(g: Graph, k: int) -> None:
    """Raise ``ResourceBound`` when counting the size-k sets of *g* passes
    ``DEFAULT_SUBSET_CAP``, read at each call. C(n, k) grows with k up to
    k = n // 2, so a caller that counts every size up to k tests
    ``min(k, n // 2)`` alone, before counting any."""
    total = math.comb(g.n, k)
    if total > DEFAULT_SUBSET_CAP:
        raise ResourceBound(
            f"counting size-{k} sets in a {g.n}-vertex graph needs {total} "
            f"subset checks, above the cap of {DEFAULT_SUBSET_CAP}")


def count_dominating_sets(g: Graph, k: int) -> int:
    """Number of dominating sets of size exactly k, by direct enumeration;
    refused by ``check_subset_bound`` when it passes the subset cap."""
    if k < 0:
        raise NegativeLength(f"set size must be >= 0, got {k}")
    if k > g.n:
        return 0
    check_subset_bound(g, k)
    closed = [g.adj[u] | 1 << u for u in range(g.n)]
    full = g.full_mask
    count = 0
    for combo in combinations(closed, k):
        covered = 0
        for mask in combo:
            covered |= mask
        if covered == full:
            count += 1
    return count


def _header(fields, kind: str, line: str, lineno: int) -> Tuple[int, int]:
    """The vertex and edge counts of a header line, whose two count fields
    lead *fields*; *kind* names the line in the refusal of a non-integer."""
    try:
        n, declared = int(fields[0]), int(fields[1])
    except ValueError:
        raise GraphSyntaxError(f"non-integer {kind} field in {line!r}", lineno) from None
    if n < 1:
        raise GraphSyntaxError(f"vertex count must be >= 1, got {n}", lineno)
    if declared < 0:
        raise GraphSyntaxError(f"edge count must be >= 0, got {declared}", lineno)
    return n, declared


def parse_edgelist(text: str) -> Graph:
    """Parse the plain edge-list format.

    First significant line is "n m"; each following line is one edge "u v"
    with 0-based endpoints. Blank lines and lines starting with '#' are
    skipped. The declared edge count is advisory here (duplicates collapse),
    but every edge line must be well-formed.
    """
    n = None
    edges = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        parts = line.split()
        if not parts or parts[0][0] == "#":
            continue
        if n is None:
            if len(parts) != 2:
                raise GraphSyntaxError(f"expected header 'n m', got {line.strip()!r}", lineno)
            n, _ = _header(parts, "header", line.strip(), lineno)
            continue
        if len(parts) != 2:
            raise GraphSyntaxError(f"expected edge 'u v', got {line.strip()!r}", lineno)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphSyntaxError(f"non-integer endpoint in {line.strip()!r}", lineno) from None
        if not 0 <= u < n or not 0 <= v < n:
            raise GraphSyntaxError(f"endpoint outside [0, {n}) in {line.strip()!r}", lineno)
        edges.append((u, v))
    if n is None:
        raise GraphSyntaxError("empty input: no 'n m' header found", 1)
    return Graph.from_edges(n, edges)


def parse_dimacs(text: str) -> Graph:
    """Parse DIMACS graph format: 'c' comments, one 'p edge n m' line, and
    'e u v' edge lines with 1-based endpoints. The number of edge lines must
    match the header's m exactly; a self-loop line counts toward it and is
    dropped with a warning that names the vertex as the file writes it."""
    n = None
    declared = 0
    edge_lines = 0
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if n is not None:
                raise GraphSyntaxError("duplicate problem line", lineno)
            if len(parts) != 4 or parts[1] != "edge":
                raise GraphSyntaxError(f"expected 'p edge n m', got {line!r}", lineno)
            n, declared = _header(parts[2:], "problem", line, lineno)
        elif parts[0] == "e":
            if n is None:
                raise GraphSyntaxError("edge line before problem line", lineno)
            if len(parts) != 3:
                raise GraphSyntaxError(f"expected 'e u v', got {line!r}", lineno)
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError:
                raise GraphSyntaxError(f"non-integer endpoint in {line!r}", lineno) from None
            if not 1 <= u <= n or not 1 <= v <= n:
                raise GraphSyntaxError(f"endpoint outside [1, {n}] in {line!r}", lineno)
            edge_lines += 1
            if u == v:
                warnings.warn(f"ignoring self-loop at vertex {u}", stacklevel=2)
            else:
                edges.append((u - 1, v - 1))
        else:
            raise GraphSyntaxError(f"unrecognized line type {parts[0]!r}", lineno)
    if n is None:
        raise GraphSyntaxError("no problem line found", 1)
    if edge_lines != declared:
        raise InconsistentHeader(
            f"problem line declares {declared} edges but {edge_lines} edge lines follow")
    return Graph.from_edges(n, edges)


def parse_graph(text: str, fmt: str = "edgelist") -> Graph:
    """Dispatch on format name: "edgelist" or "dimacs"."""
    if fmt == "edgelist":
        return parse_edgelist(text)
    if fmt == "dimacs":
        return parse_dimacs(text)
    raise ValueError(f"unknown graph format {fmt!r}")
