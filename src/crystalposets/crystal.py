"""
Tableau crystals of type A: semistandard Young tableaux, the lowering
operators f_i by the signature rule (one f_i reads the runs of the letters
i and i+1 in each row; :func:`_lowering_cell` is the one coding, which
:func:`apply_f`, :func:`generate` and interval extraction all read), full
graph generation, string lengths from one rank-ordered pass over the covers
in each direction, and verification of the local structure axioms, whose
squares and hexagons one walk finds for the checker, :func:`local_structure`
and the chain moves.

A tableau is a tuple of rows, each row a tuple of integers in 1..n, weakly
increasing along rows and strictly increasing down columns.  The crystal
graph on all such tableaux of a fixed shape has a colored edge T -i-> T'
whenever T' = f_i(T); viewed as a poset it is graded with a unique minimum
(the superstandard filling) and, being finite, a unique maximum.

Every graph is a :class:`CrystalGraph`, built from its upward covers
``fwd`` and its ``rank`` alone, and the type is the one place that decides
what a graph is.  As it derives the downward covers ``bwd`` and the rank
``layers``, it checks that the fields have one length, that every cover
ends at a vertex, has a color in 1..n-1 and raises the rank by one, so the
graph is graded, and that each color is a partial bijection (e_i inverts
f_i).  It derives the ends ``minimum`` and ``maximum`` from the covers, so
no caller passes them, and none guards against anything the type rejects.
Every graph builds its tableau ``index`` only when it is first read.

Graphs are immutable after generation and all queries are pure, so a graph
may be shared freely across threads: ``index`` is a function of the
vertices, so two threads that both build it get equal dicts.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from copy import copy
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from operator import add
from typing import Iterable

Shape = tuple[int, ...]
Tableau = tuple[tuple[int, ...], ...]
Cell = tuple[int, int]

DEFAULT_VERTEX_CAP = 2_000_000


class GraphSizeError(RuntimeError):
    """Raised when generation would exceed the configured vertex cap."""


def check_shape(shape: Shape) -> Shape:
    shape = tuple(shape)
    if not shape or any(p < 1 for p in shape):
        raise ValueError(f"shape parts must be positive: {shape}")
    if any(shape[i] < shape[i + 1] for i in range(len(shape) - 1)):
        raise ValueError(f"shape must be weakly decreasing: {shape}")
    return shape


def is_semistandard(rows: Tableau, n: int) -> bool:
    for r, row in enumerate(rows):
        for c, val in enumerate(row):
            if not 1 <= val <= n:
                return False
            if c + 1 < len(row) and row[c] > row[c + 1]:
                return False
            if r + 1 < len(rows) and c < len(rows[r + 1]) and val >= rows[r + 1][c]:
                return False
    return True


def check_tableau(rows: Tableau, n: int, shape: Shape | None = None) -> Tableau:
    rows = tuple(tuple(row) for row in rows)
    if shape is not None and tuple(len(row) for row in rows) != tuple(shape):
        raise ValueError(f"tableau rows {rows} do not match shape {shape}")
    check_shape(tuple(len(row) for row in rows))
    if not is_semistandard(rows, n):
        raise ValueError(f"not semistandard with entries in 1..{n}: {rows}")
    return rows


def weight(rows: Tableau, n: int) -> tuple[int, ...]:
    """Content vector (c_1, ..., c_n); c_k = multiplicity of the letter k.
    An entry outside 1..n raises ValueError.

    >>> weight(((1, 1, 2, 3), (3, 4, 4)), 4)
    (2, 1, 2, 2)
    """
    content = [0] * n
    for row in rows:
        for val in row:
            if not 0 < val <= n:
                raise ValueError(f"tableau entry {val} outside 1..{n}")
            content[val - 1] += 1
    return tuple(content)


def highest(shape: Shape, n: int) -> Tableau:
    """The superstandard tableau: row j filled with the letter j.

    >>> highest((2, 1), 3)
    ((1, 1), (2,))
    """
    shape = check_shape(shape)
    if len(shape) > n:
        raise ValueError(f"shape {shape} has more than n={n} rows")
    return tuple(tuple(j + 1 for _ in range(shape[j])) for j in range(len(shape)))


def cartan_entry(i: int, j: int) -> int:
    """Type A Cartan matrix entry a_ij: 2, -1 for adjacent colors, else 0."""
    if i == j:
        return 2
    return -1 if abs(i - j) == 1 else 0


def _replace(rows: Tableau, cell: Cell, val: int) -> Tableau:
    r, c = cell
    row = rows[r][:c] + (val,) + rows[r][c + 1 :]
    return rows[:r] + (row,) + rows[r + 1 :]


def _lowering_cell(rows: Tableau, i: int) -> Cell | None:
    """The cell that f_i raises: the package's one signature rule, on the
    row reading (rows bottom to top), which gives the same f_i as the
    column reading (Kashiwara-Nakashima) that the test oracles keep.  A
    letter i cancels one earlier unmatched i+1 or survives; f_i raises the
    last surviving i, and is undefined (None) when none survives.  In a
    semistandard row the i's and (i+1)'s are two adjacent runs, found by
    bisection, and row r holds no letter below r+1, so one call reads rows
    0..i, bottom to top, in O(rows * log) steps: a row's i's first cancel
    the unmatched (i+1)'s from below, its last i is the candidate if any
    survive, and then its (i+1)'s join the count.
    """
    unmatched = 0
    last: Cell | None = None
    up = i + 1
    r = len(rows) - 1
    if r > i:
        r = i
    while r >= 0:  # a while loop: cheaper than min() and range() per call
        row = rows[r]
        lo = bisect_left(row, i)
        mid = bisect_left(row, up, lo)
        if mid - lo > unmatched:
            last = (r, mid - 1)
            unmatched = 0
        else:
            unmatched -= mid - lo
        unmatched += bisect_left(row, up + 1, mid) - mid
        r -= 1
    return last


def apply_f(rows: Tableau, i: int) -> Tableau | None:
    """Lowering operator: raise the cell :func:`_lowering_cell` finds from
    i to i+1.  The rows must be semistandard, as the row runs are read off
    sorted rows by bisection.

    >>> apply_f(((1, 2, 2, 2, 2, 3), (3, 3, 4)), 2)
    ((1, 2, 2, 2, 3, 3), (3, 3, 4))
    >>> apply_f(((1, 2), (2,)), 1) is None
    True
    """
    cell = _lowering_cell(rows, i)
    return None if cell is None else _replace(rows, cell, i + 1)


@dataclass
class CrystalGraph:
    """Edge-colored cover graph of a tableau crystal, or of an interval in one.

    The type is the one place that decides what a graph is.  ``fwd`` holds
    the covers above each vertex by color, and ``rank`` the rank of each
    vertex; everything else is derived.  While it inverts ``fwd`` into
    ``bwd``, the covers below, the type checks every cover: it ends at a
    vertex, its color lies in 1..n-1, and it raises the rank by exactly one.
    So the graph is graded, and no color string closes into a circuit.  The
    color-i covers are the operator f_i, and e_i is its inverse, so every
    color is a partial bijection: a vertex has at most one color-i cover
    above it and at most one below it.  Unequal field lengths, a negative
    rank, a cover that breaks a rule above, and two covers of one color into
    one vertex raise ValueError.  String walks are then O(1) per step in
    either direction.

    ``minimum`` and ``maximum`` are the only vertex with no cover below it
    and the only one with no cover above it, or None where there is not
    exactly one.  ``layers`` lists the vertices of each rank, each layer in
    increasing index, for the kernels that pass a summary up or down in
    rank order.  The inversion lists each vertex's lower covers by
    increasing index.  ``index`` (tableau -> vertex) is no field: it is
    derived from the vertices on first read (:attr:`index`), so ``==``
    compares the passed fields alone, which determine the rest.  The edge
    list (:attr:`edges`) and the weights are derived.

    Vertices of a generated crystal are indexed in generation (BFS) order,
    children explored in increasing color order, which makes every export
    reproducible.  An interval [u, v] is a graph whose ``minimum`` and
    ``maximum`` are u and v.  Its vertices are ordered by (rank, tableau)
    and ``budget`` holds the color multiset shared by all its maximal
    chains; the ambient graph's ``index`` maps its tableaux back there.

    >>> line = CrystalGraph(None, 2, (((1,),), ((2,),)), (0, 1), ({1: 1}, {}))
    >>> line.minimum, line.maximum, line.layers
    (0, 1, ((0,), (1,)))
    >>> CrystalGraph(None, 2, (((1,),), ((2,),)), (0, 0), ({1: 1}, {}))
    Traceback (most recent call last):
    ...
    ValueError: graph is not graded at edge (0, 1, 1)
    """

    shape: Shape | None
    n: int
    vertices: tuple[Tableau, ...]
    rank: tuple[int, ...]
    fwd: tuple[dict[int, int], ...] = field(repr=False)
    budget: dict[int, int] | None = None
    bwd: tuple[dict[int, int], ...] = field(init=False, repr=False, compare=False)
    layers: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)
    minimum: int | None = field(init=False, compare=False)
    maximum: int | None = field(init=False, compare=False)

    def __post_init__(self) -> None:
        rank, fwd, n, size = self.rank, self.fwd, self.n, len(self.vertices)
        if len(rank) != size or len(fwd) != size:
            raise ValueError(f"unequal lengths: vertices {size}, rank {len(rank)}, fwd {len(fwd)}")
        if min(rank, default=0) < 0:
            raise ValueError(f"negative rank {min(rank)}")
        bwd: list[dict[int, int]] = [{} for _ in self.vertices]
        layers: list[list[int]] = [[] for _ in range(max(rank, default=0) + 1)]
        for a, (out, r) in enumerate(zip(fwd, rank)):
            layers[r].append(a)  # one int object per vertex, shared with bwd
            r += 1
            for i, b in out.items():
                if not 0 <= b < size:
                    raise ValueError(f"edge ({a}, {b}, {i}) ends outside 0..{size - 1}")
                if rank[b] != r:
                    raise ValueError(f"graph is not graded at edge ({a}, {b}, {i})")
                if not 0 < i < n:
                    raise ValueError(f"edge ({a}, {b}, {i}) has a color outside 1..{n - 1}")
                bwd[b][i] = a
        # a lost entry is a second cover of its color into one vertex
        if sum(map(len, bwd)) < sum(map(len, fwd)):
            raise ValueError("two covers of one color enter one vertex")
        self.bwd = tuple(bwd)
        self.layers = tuple(map(tuple, layers))
        self.minimum = bwd.index({}) if bwd.count({}) == 1 else None
        self.maximum = fwd.index({}) if fwd.count({}) == 1 else None

    @cached_property
    def index(self) -> dict[Tableau, int]:
        """Tableau -> vertex, built from the vertices on first read."""
        return {t: k for k, t in enumerate(self.vertices)}

    def __len__(self) -> int:
        return len(self.vertices)

    @property
    def edges(self) -> tuple[tuple[int, int, int], ...]:
        """The covers (a, b, i), b = f_i(a), read off ``fwd`` in order."""
        return tuple((a, b, i) for a, out in enumerate(self.fwd) for i, b in out.items())

    @property
    def colors(self) -> range:
        return range(1, self.n)

    @property
    def span(self) -> int:
        """Length of the longest chain: the largest rank."""
        return len(self.layers) - 1

    def rank_sizes(self) -> tuple[int, ...]:
        return tuple(map(len, self.layers))

    def reverse(self) -> "CrystalGraph":
        """Dual view: the adjacency and the layers swapped and the rank
        flipped; vertices, adjacency dicts and layers are shared with this
        graph, and so is the index once this graph has built it.  Nothing is
        inverted again.

        The result is again a valid crystal graph (the color relabeling
        that would restore the usual conventions does not matter for any
        of the poset analytics here); the dual of an interval [u, v] is the
        interval [v, u] of the dual graph.
        """
        span = self.span
        dual = copy(self)
        dual.rank = tuple(span - r for r in self.rank)
        dual.minimum, dual.maximum = self.maximum, self.minimum
        dual.fwd, dual.bwd, dual.layers = self.bwd, self.fwd, self.layers[::-1]
        return dual


def generate(shape: Shape, n: int, max_vertices: int = DEFAULT_VERTEX_CAP) -> CrystalGraph:
    """Breadth-first closure of the superstandard tableau under all f_i.

    Each vertex asks :func:`_lowering_cell` for the cell that f_i raises
    from i to i+1, once for each letter i < n it holds, in increasing order
    (f_i of a tableau without an i is undefined).  Raising the cell can
    break semistandardness only there: its right neighbour must stay >= i+1
    and the cell below it > i+1.  A failed check raises RuntimeError.  More
    than ``max_vertices`` vertices raise :class:`GraphSizeError`, at once if
    n is above it and shape has fewer than n rows, as B(shape, n) then has
    at least n vertices.  The graph derives ``index`` on first read.

    >>> len(generate((2, 1), 3))
    8
    """
    top = highest(shape, n)
    if len(shape) < n and n > max_vertices:
        raise GraphSizeError(
            f"vertex cap {max_vertices} exceeded: B({shape}, n={n}) has at least n vertices"
        )
    vertices: list[Tableau] = [top]
    index: dict[Tableau, int] = {top: 0}
    fwd: list[dict[int, int]] = [{}]
    rank: list[int] = [0]
    head = 0
    while head < len(vertices):
        v = head
        head += 1
        rows = vertices[v]
        for i in sorted(set().union(*rows)):
            if i >= n:
                break
            cell = _lowering_cell(rows, i)
            if cell is None:
                continue
            r, c = cell
            row, below = rows[r], rows[r + 1] if r + 1 < len(rows) else ()
            if (c + 1 < len(row) and row[c + 1] <= i) or (c < len(below) and below[c] <= i + 1):
                raise RuntimeError(f"operator f_{i} broke semistandardness at {rows}")
            image = _replace(rows, cell, i + 1)
            w = index.get(image)
            if w is None:
                if len(vertices) >= max_vertices:
                    raise GraphSizeError(
                        f"vertex cap {max_vertices} exceeded generating B({shape}, n={n})"
                    )
                w = len(vertices)
                index[image] = w
                vertices.append(image)
                fwd.append({})
                rank.append(rank[v] + 1)
            fwd[v][i] = w
    graph = CrystalGraph(
        shape=check_shape(shape), n=n, vertices=tuple(vertices), rank=tuple(rank), fwd=tuple(fwd)
    )
    if graph.minimum != 0 or graph.maximum is None:
        raise RuntimeError(f"crystal of {shape} lacks a unique minimum/maximum")
    return graph


@dataclass(frozen=True)
class AxiomReport:
    """Outcome of the local-structure check; ``witness`` pinpoints the first
    violation as (axiom, vertex, i, j, detail)."""

    passed: bool
    axiom: str | None = None
    vertex: int | None = None
    i: int | None = None
    j: int | None = None
    detail: str = ""

    def __bool__(self) -> bool:
        return self.passed


def apply_word(graph: CrystalGraph, v: int, word: Iterable[int]) -> int | None:
    """Follow the colors of ``word`` from v up the covers (f edges); None as
    soon as one is missing.  Walk e edges on ``graph.reverse()``."""
    cur: int | None = v
    for i in word:
        if cur is None:
            return None
        cur = graph.fwd[cur].get(i)
    return cur


def _square(down: tuple[dict[int, int], ...], x1: int, y1: int, i: int, j: int) -> int | None:
    """The far end of the square along ``down`` whose first steps from a
    vertex z reached x1 by color i and y1 by color j: the vertex where the
    walk x1 -j-> and the walk y1 -i-> meet, or None unless both exist and
    agree.  On ``bwd`` this is the raising square of Stembridge's axiom P5,
    e_j e_i z = e_i e_j z; no side tuples are built.
    """
    x2 = down[x1].get(j)
    return x2 if x2 is not None and x2 == down[y1].get(i) else None


def _closure(
    down: tuple[dict[int, int], ...], z: int, i: int, j: int, steps: int
) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """The square (``steps`` 2) or hexagon (4) at z along ``down``: the walks
    from z by the colors (i, j, j, i) and by (j, i, i, j), cut to ``steps``,
    as vertex tuples, or None unless both end at one vertex.  z must have
    covers of both colors.  The square is :func:`_square` with its sides.
    On ``bwd`` these are the raising closures of Stembridge's axioms P5 and
    P6; on ``fwd``, the same closures above z.

    >>> g = generate((4, 3), 4)
    >>> for side in _closure(g.fwd, g.index[((1, 1, 1, 2), (2, 3, 4))], 1, 2, 4):
    ...     print(" ".join(tableau_to_string(g.vertices[x]) for x in side))
    1,1,1,2/2,3,4 1,1,2,2/2,3,4 1,1,2,3/2,3,4 1,1,2,3/3,3,4 1,2,2,3/3,3,4
    1,1,1,2/2,3,4 1,1,1,2/3,3,4 1,1,2,2/3,3,4 1,2,2,2/3,3,4 1,2,2,3/3,3,4
    """
    x1, y1 = down[z][i], down[z][j]
    if steps == 2:
        x2 = _square(down, x1, y1, i, j)
        return None if x2 is None else ((z, x1, x2), (z, y1, x2))
    x2, y2 = down[x1].get(j), down[y1].get(i)
    x3 = down[x2].get(j) if x2 is not None else None
    y3 = down[y2].get(i) if y2 is not None else None
    x4 = down[x3].get(i) if x3 is not None else None
    if x4 is None or y3 is None or x4 != down[y3].get(j):
        return None
    return (z, x1, x2, x3, x4), (z, y1, y2, y3, x4)


def string_table(graph: CrystalGraph) -> tuple[dict[int, list], dict[int, list]]:
    """``rise, depth``: ``rise[i][v]`` is the number of color-i steps up
    from v to the end of its string, and ``depth[i][v]`` minus the number of
    steps down, for every vertex and color.

    Every cover raises the rank by one, so one pass down the ``layers``
    sets ``rise[i][v] = rise[i][w] + 1`` for each cover v -i-> w once w's
    value is final, and one pass up sets ``depth[i][v] = depth[i][u] - 1``
    for each lower cover u -i-> v; a vertex with no color-i cover keeps 0.
    Each pass reads every cover once, O(E) steps where a walk per color
    took one per vertex and color; only filling the zero tables is O(V*C).

    >>> rise, depth = string_table(generate((2, 1), 3))
    >>> rise[1], depth[1]
    ([1, 0, 2, 0, 1, 1, 0, 0], [0, -1, 0, 0, -1, 0, -2, -1])
    """
    size = len(graph.vertices)
    rise = {i: [0] * size for i in graph.colors}
    depth = {i: [0] * size for i in graph.colors}
    for table, adj, layers, step in (
        (rise, graph.fwd, reversed(graph.layers), 1),
        (depth, graph.bwd, graph.layers, -1),
    ):
        cols = [None, *table.values()]  # the column of color i at i
        for layer in layers:
            for v in layer:
                for i, w in adj[v].items():
                    col = cols[i]
                    col[v] = col[w] + step
    return rise, depth


def check_stembridge_axioms(graph: CrystalGraph) -> AxiomReport:
    """Verify the degree bounds and all difference conditions on string
    statistics at every vertex/color pair, from graph walks alone (no
    tableau formulas), so imported graphs can be audited too.

    String lengths come from :func:`string_table`.  P1 holds by
    construction: every cover raises the rank by one, so no color string
    closes into a circuit (:class:`CrystalGraph`).  The checks run vertex
    by vertex over its lower covers in increasing color: P3 and P4 for each
    cover, then P5 and P6 for each ordered pair of covers; the first
    violation is returned.  P3 reads one column per color j, phi_j - eps_j
    (the rise plus the depth), whose change along a color-i cover must be
    a_ij; once it holds, P4 is exactly a_ij <= delta-depth <= 0.  Only the
    colors j != i are read: color i is a partial bijection, so along a
    color-i cover the rise and the depth of color i both drop by one, and
    phi_i - eps_i changes by exactly 2 = a_ii; that test cannot fail, and
    P4 asks nothing of j = i.  A square's far end comes from
    :func:`_square`, a hexagon's from :func:`_closure`.
    """
    colors = list(graph.colors)
    rise, depth = string_table(graph)

    # phi_j - eps_j at every vertex, and per color i the columns and a_ij
    # of every other color j
    height = {j: list(map(add, rise[j], depth[j])) for j in colors}
    rows = {
        i: [(j, depth[j], height[j], cartan_entry(i, j)) for j in colors if j != i] for i in colors
    }
    bwd = graph.bwd
    for b in range(len(graph.vertices)):
        below = sorted(bwd[b].items())
        for i, bp in below:
            for j, dj, hj, a in rows[i]:
                if hj[bp] - hj[b] != a:
                    dd = dj[bp] - dj[b]
                    return AxiomReport(
                        False, "P3", b, i, j,
                        f"delta-depth {dd} + delta-rise {hj[bp] - hj[b] - dd} != a_ij {a}",
                    )
                if not a <= dj[bp] - dj[b] <= 0:
                    dd = dj[bp] - dj[b]
                    return AxiomReport(False, "P4", b, i, j, f"positive difference ({dd}, {a - dd})")

        for i, bi in below:
            for j, bj in below:
                if i == j:
                    continue
                # a square (P5) when dd_ij = 0, a hexagon (P6) when both are -1;
                # as each color is a partial bijection, f_j of the far end x
                # lies on the side through bi, and f_i on the side through bj
                dd_ij = depth[j][bi] - depth[j][b]
                if dd_ij == 0:
                    x = _square(bwd, bi, bj, i, j)
                    if x is None:
                        return AxiomReport(False, "P5", b, i, j, "raising square does not close")
                    # f_j(x) = bi must have the i-rise of x
                    if rise[i][x] != rise[i][bi]:
                        return AxiomReport(False, "P5", b, i, j, "rise condition at the top fails")
                elif dd_ij == -1 and depth[i][bj] - depth[i][b] == -1:
                    sides = _closure(bwd, b, i, j, 4)
                    if sides is None:
                        return AxiomReport(False, "P6", b, i, j, "raising hexagon does not close")
                    # f_j(x) = xj must have one more i-rise than x, and
                    # f_i(x) = xi one more j-rise
                    (*_, xi, x), (*_, xj, _) = sides
                    if rise[i][x] - rise[i][xj] != -1 or rise[j][x] - rise[j][xi] != -1:
                        return AxiomReport(False, "P6", b, i, j, "rise condition at the top fails")
    return AxiomReport(True)


@dataclass(frozen=True)
class LocalStructure:
    """How f_i(u) and f_j(u) close above u: the square (``degree`` 2) or
    hexagon (4) that :func:`_closure` walks, its ``top`` and sides (``chains``)."""

    degree: int
    top: int
    chains: tuple[tuple[int, ...], tuple[int, ...]]


def local_structure(graph: CrystalGraph, u: int, i: int, j: int) -> LocalStructure:
    """Classify the configuration above u for two distinct outgoing colors.

    Raises ValueError if u lacks one of the edges or if neither of the two
    sanctioned configurations is found (which would mean corrupted data).
    """
    if i == j:
        raise ValueError("colors must differ")
    if i not in graph.fwd[u] or j not in graph.fwd[u]:
        raise ValueError(f"vertex {u} lacks outgoing colors {i} and {j}")
    sides = _closure(graph.fwd, u, i, j, 2) or _closure(graph.fwd, u, i, j, 4)
    if sides is None:
        raise ValueError(f"no degree 2 or 4 closure above vertex {u} for colors ({i}, {j})")
    if len(sides[0]) == 5:
        (*_, v3, _), (*_, w3, _) = sides
        # by weights, a shorter closure over f_i u and f_j u could only sit
        # two steps up, at w3 = f_j f_i f_i u or v3 = f_i f_j f_j u; the
        # words f_i f_j f_i u = w3 and f_j f_i f_j u = v3 would close the
        # square, as f_i and f_j are injective
        if apply_word(graph, u, (i, i, j)) == w3 or apply_word(graph, u, (j, j, i)) == v3:
            raise ValueError(f"closure of length 2 coexists with degree-4 data at {u}")
    return LocalStructure(len(sides[0]) - 1, sides[0][-1], sides)


# -- serialization ----------------------------------------------------------

def graph_to_json(graph: CrystalGraph) -> dict:
    """Schema: shape, n, vertices as rows-of-rows, [src, dst, color] edges
    in the order of :attr:`CrystalGraph.edges`, and the rank vector; vertex
    order is generation order.  ``"vertices"`` lists the graph's own tableau
    tuples, which ``json.dumps`` writes as arrays, so the export copies no
    tableau; the edges are fresh lists, which a caller may edit."""
    return {
        "shape": list(graph.shape) if graph.shape else None,
        "n": graph.n,
        "vertices": list(graph.vertices),
        "edges": [[a, b, i] for a, out in enumerate(graph.fwd) for i, b in out.items()],
        "rank": list(graph.rank),
    }


def graph_from_json(data: dict | str) -> CrystalGraph:
    """Rebuild a graph from the JSON schema, recomputing the ranks.

    Intended for auditing externally produced graphs: numbers other than
    JSON integers (floats, strings, booleans), an n outside
    1..``DEFAULT_VERTEX_CAP``, an invalid shape or a tableau not of that
    shape, repeated tableaux, an edge that is not a [source, target, color]
    triple, duplicate or parallel edges, and a vertex that no source reaches
    (it lies above a directed cycle) are rejected.  The ranks are numbered
    breadth-first from the sources, and :class:`CrystalGraph` rejects broken
    gradedness, which takes in every other cycle, and two covers of one
    color into one vertex, and derives the ends; anything deeper is the
    axiom checker's job.  Only a missing or null ``shape`` means no shape:
    any other value must be a valid one.

    One copy of the graph is held at a time.  The edges are checked and
    unpacked as parsed, with no copy of the list.  Once converted, the
    parsed vertices are dropped, and the parsed edges once ``fwd`` is built;
    a dict passed in keeps them and is never mutated.  Equal rows share one
    tuple, and the covers into one vertex share one int object, as in a
    generated graph.
    """
    if isinstance(data, str):
        data = json.loads(data)
    try:
        n = data["n"]
        raw = data["vertices"]
        kinds = set(map(type, chain.from_iterable(chain.from_iterable(raw))))
        edges = data["edges"]
        kinds.update(map(type, chain.from_iterable(edges)))
        shape = data.get("shape")
        if shape is not None:
            shape = tuple(shape)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed crystal graph JSON: {exc!r}") from exc
    del data  # a parsed text is held by raw and edges alone

    kinds.update(map(type, (n, *(shape or ()))))
    if kinds - {int}:
        raise ValueError("shape, n, tableau entries and edges must be JSON integers")
    row = {}.setdefault  # one tuple per distinct row
    vertices = tuple(tuple([row(r, r) for r in map(tuple, t)]) for t in raw)
    del raw
    if not 1 <= n <= DEFAULT_VERTEX_CAP:
        raise ValueError(f"n must lie in 1..{DEFAULT_VERTEX_CAP}, got {n}")
    if shape is not None:
        check_shape(shape)
        if any(tuple(map(len, t)) != shape for t in vertices):
            raise ValueError(f"a tableau's rows do not match shape {shape}")

    def entries():
        return chain.from_iterable(chain.from_iterable(vertices))

    if not 1 <= min(entries(), default=1) <= max(entries(), default=1) <= n:
        raise ValueError(f"tableau entries must lie in 1..{n}")
    nv = len(vertices)
    if len(set(vertices)) != nv:
        raise ValueError("a tableau is repeated among the vertices")
    if set(map(len, edges)) - {3}:
        edge = next(e for e in edges if len(e) != 3)
        raise ValueError(f"edge {list(edge)} must be [source, target, color]")
    fwd: list[dict[int, int]] = [{} for _ in range(nv)]
    rank = [0] * nv  # -1 until numbered, for every vertex a cover enters
    ids = list(range(nv))  # one int object per vertex, shared by its covers
    for a, b, i in edges:
        if not (0 <= a < nv and 0 <= b < nv and 0 < i < n):
            raise ValueError(f"edge ({a}, {b}, {i}) out of range")
        out = fwd[a]
        if i in out:
            raise ValueError(f"duplicate color-{i} edge at ({a}, {b})")
        if b in out.values():  # f_i(a) and f_j(a) differ in weight
            raise ValueError(f"parallel edges from {a} to {b}")
        out[i] = ids[b]
        rank[b] = -1
    del edges, ids

    # ranks breadth-first from the sources; a vertex that no source reaches
    # lies above a directed cycle, and CrystalGraph rejects every other
    # cycle, as no cycle is graded
    order = [v for v in range(nv) if not rank[v]]
    for v in order:  # grows while it is walked
        for w in fwd[v].values():
            if rank[w] < 0:
                rank[w] = rank[v] + 1
                order.append(w)
    if len(order) != nv:
        raise ValueError("graph has a directed cycle")
    return CrystalGraph(shape=shape, n=n, vertices=vertices, rank=tuple(rank), fwd=tuple(fwd))


def tableau_to_string(rows: Tableau) -> str:
    """Literal syntax: rows joined by '/', entries by ',' .

    >>> tableau_to_string(((1, 1, 1, 2), (2, 3, 4)))
    '1,1,1,2/2,3,4'
    """
    return "/".join(",".join(str(v) for v in row) for row in rows)


def tableau_from_string(text: str, n: int, shape: Shape | None = None) -> Tableau:
    """Parse the '1,1,1,2/2,3,4' literal syntax and validate."""
    try:
        rows = tuple(
            tuple(int(part) for part in chunk.split(","))
            for chunk in text.strip().split("/")
        )
    except ValueError as exc:
        raise ValueError(f"malformed tableau literal {text!r}") from exc
    return check_tableau(rows, n, shape)


_DOT_PALETTE = ("black", "red", "blue", "forestgreen", "darkorange", "purple", "brown")


def graph_to_dot(graph: CrystalGraph) -> str:
    """Graphviz rendering with one node per vertex labeled by its tableau."""
    lines = ["digraph crystal {", "    rankdir=BT;"]
    for k, t in enumerate(graph.vertices):
        lines.append(f'    {k} [label="{tableau_to_string(t)}"];')
    for a, b, i in graph.edges:
        color = _DOT_PALETTE[(i - 1) % len(_DOT_PALETTE)]
        lines.append(f'    {a} -> {b} [label="{i}", color="{color}"];')
    lines.append("}")
    return "\n".join(lines)
