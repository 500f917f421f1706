"""
Analytics over edge-colored graded posets presented by their cover-edge
graphs: interval extraction, Mobius function, saturated chain enumeration,
the connectivity of chains under square/hexagon moves, Euler-characteristic
cross-checks, and (non-)lattice witnesses.

Intervals are extracted by one budgeted upward search: where every
color-i cover lowers the weight by alpha_i, as in a crystal, the number of
color-i covers on any chain from u to v is forced by the weight
difference, so the search from u never leaves the per-color budget.  It
numbers the tableaux it finds with integer ids and records each cover it
takes, and the interval is what v reaches back down those covers, so no
e_i is ever applied.  An interval is itself a :class:`CrystalGraph` (local
indices, restricted covers), built from its upward covers and ranks alone,
as a generated crystal is, and the type derives its bottom and top as its
minimum and maximum; that lets the same machinery run on intervals of
crystals far too large to generate.  :func:`free_interval` also bounds its
search by v's entries: f_i raises one entry and no operator lowers one, so
it applies f_i only where the raised cell stays at or below v's entry
there.  Every vertex and cover of [u, v] lies below v, so the interval is
exact and only the search shrinks; :func:`interval` on a graph, which need
not be a tableau crystal, does not use the bound, and is exact only
where the weights follow the covers.

Two analytics pass a small summary per vertex upward in rank order instead
of enumerating: :func:`mobius_from` (mu from one source to every vertex)
and :func:`move_classes_from` (the number of chain-move classes of every
interval [source, z]).  The move-class pass splits the chains ending at z by
their last cover a -> z, carries each class at a along that cover, and
merges the carried classes along the square below z of each pair of its
lower-cover colors, or along the hexagon where the square does not close,
found by the closure walk the axiom checker uses too.  Where each lower
cover carries one class, as everywhere in a lower interval, it unions the
covers themselves; elsewhere it runs union-find over per-class records.
:func:`move_class_summary` makes one more rank-order pass over that table
to get each class's chain count and least label sequence, so the
chain-move components are summarized without listing a chain.

A saturated chain is its word of cover colors, the f_i applied from the
bottom: at most one color-i cover leaves a vertex, so the word fixes every
vertex.  Chains are listed in one place, :func:`_chains`: each is a
prefix from the bottom joined at the middle rank to a suffix to the top.
Where the largest out-degree to the power of the span exceeds the cap,
one integer pass first counts the chains and checks the count against
the cap before any prefix or suffix is built.  :func:`saturated_chains`
is that list alone; :func:`stembridge_components` adds the class pass
and, only where the top has two or more classes, walks each chain's
labels up the class table by :func:`_top_class`.

Dense down-set masks (the Euler check, the key fibers, and on the reversed
graph the up-sets of the s8 certificate) come from one pass,
:func:`_down_sets`, and rank-ordered up-sets from :func:`_upset`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import combinations, compress
from typing import Callable, Hashable, Sequence

from .crystal import (
    DEFAULT_VERTEX_CAP,
    CrystalGraph,
    GraphSizeError,
    Tableau,
    _closure,
    _lowering_cell,
    _replace,
    graph_to_json,
    local_structure,
    weight,
)

DEFAULT_CHAIN_CAP = 10_000_000
MOVE_CLASS_CAP = 10_000_000  # class records of one move-class pass
DOWN_SET_BIT_CAP = 1 << 30  # vertices reached times members in one down-set pass
EULER_VERTEX_CAP = 1_000  # interval vertices of the dense Euler cross-check
SLOT_CAP = 10_000_000  # budget entries that one interval search keeps, 8 B each


class ChainCapError(RuntimeError):
    """Raised when chain enumeration would exceed the configured cap."""


def _minimum(graph: CrystalGraph) -> int:
    """The unique minimum, or ValueError saying there is none."""
    if graph.minimum is None:
        raise ValueError("graph has no unique minimum")
    return graph.minimum


def _ends(graph: CrystalGraph) -> tuple[int, int]:
    """The unique minimum and maximum, or ValueError naming the missing one."""
    bottom = _minimum(graph)
    if graph.maximum is None:
        raise ValueError("graph has no unique maximum")
    return bottom, graph.maximum


def _color_budget(wt_u: Sequence[int], wt_v: Sequence[int]) -> dict[int, int] | None:
    """Per-color cover counts forced by the weight drop, or None if some
    partial sum goes negative (then u is not below v)."""
    budget: dict[int, int] = {}
    acc = 0
    for k in range(len(wt_u) - 1):
        acc += wt_u[k] - wt_v[k]
        if acc < 0:
            return None
        budget[k + 1] = acc
    if acc + (wt_u[-1] - wt_v[-1]) != 0:
        return None
    return budget


def _extract(
    u_key: Hashable,
    v_key: Hashable,
    budget: dict[int, int],
    step: Callable[[Hashable, int], Hashable | None],
    payload_of: Callable[[Hashable], Tableau] | None,
) -> CrystalGraph | None:
    """The interval [u, v] from one budgeted search upward from u, or None
    when v is not reached.

    ``step(x, i)`` is the color-i cover of x or None, and ``payload_of(x)``
    the tableau of x (None when the keys are the tableaux).  The search
    turns each key it finds into an integer id with one dict lookup, and
    keeps the remaining budget, rank and lower covers of every id in lists,
    trying only the colors with a nonzero budget.  It records every cover
    it takes, keyed by its upper end; [u, v] is the closure of v under
    those recorded covers, and its covers are the recorded ones whose upper
    end it holds.  Local indices go by (rank, tableau), so extraction is
    deterministic: one sort of the kept (rank, tableau, id) triples gives
    the ranks, the vertices and the order at once.  Only the upward covers
    ``fwd`` are built here; :class:`CrystalGraph` inverts them into
    ``bwd``, which lists each vertex's lower covers by increasing local
    index, and derives the bottom and top.

    Each id keeps one budget entry per budgeted color, so the search is
    capped in those entries: its vertex limit is ``min(DEFAULT_VERTEX_CAP,
    SLOT_CAP // len(colors))``, and an id past it raises
    :class:`GraphSizeError`.  ``SLOT_CAP`` (10^7) admits 80 MB of list
    slots at 8 B each.  A budget of ``limit`` steps or more raises before
    the search: a chain of [u, v] alone would hold more than ``limit``
    vertices, so such a pair is refused whether or not it is comparable.
    A one-row interval [1, n] has n - 1 budgeted colors and n vertices, so
    one past n = 3,162 is refused at once.
    """
    colors = [i for i, cap in budget.items() if cap]
    limit = min(DEFAULT_VERTEX_CAP, SLOT_CAP // max(1, len(colors)))
    steps = sum(budget.values())
    if steps >= limit:
        raise GraphSizeError(
            f"interval vertex cap {limit} exceeded: "
            f"a chain of {steps} covers has {steps + 1} vertices"
        )
    keys = [u_key]
    ids = {u_key: 0}
    left = [[budget[i] for i in colors]]  # per id, the budget not yet used
    rank = [0]
    below: list[list[tuple[int, int]]] = [[]]  # per id, its covers (i, x) by id
    x = 0
    while x < len(keys):
        key, rest = keys[x], left[x]
        for k, i in enumerate(colors):
            if not rest[k] or (y := step(key, i)) is None:
                continue
            b = ids.get(y)
            if b is None:
                b = len(keys)
                if b >= limit:
                    raise GraphSizeError(
                        f"interval vertex cap {limit} exceeded ({len(colors)} budgeted colors)"
                    )
                ids[y] = b
                keys.append(y)
                nxt = rest.copy()
                nxt[k] -= 1
                left.append(nxt)
                rank.append(rank[x] + 1)
                below.append([])
            below[b].append((i, x))
        x += 1
    top = ids.get(v_key)
    if top is None or any(left[top]):
        return None
    kept = [False] * len(keys)
    kept[top] = True
    stack = [top]
    while stack:
        for _, x in below[stack.pop()]:
            if not kept[x]:
                kept[x] = True
                stack.append(x)
    tableaux = keys if payload_of is None else map(payload_of, keys)
    ranks, vertices, ordered = zip(
        *sorted(compress(zip(rank, tableaux, range(len(keys))), kept))
    )
    local = [0] * len(keys)
    for k, x in enumerate(ordered):
        local[x] = k
    fwd: list[dict[int, int]] = [{} for _ in ordered]
    for b, y in enumerate(ordered):
        for i, x in below[y]:
            fwd[local[x]][i] = b
    return CrystalGraph(
        shape=None,
        n=len(budget) + 1,
        vertices=vertices,
        rank=ranks,
        fwd=tuple(fwd),
        budget=budget,
    )


def interval(graph: CrystalGraph, u: int, v: int) -> CrystalGraph | None:
    """Extract [u, v] from a generated graph, or None when u is not below v;
    this is also the order test.

    The budget comes from the two tableaux' weights, in the orientation
    whose total is rank[v] - rank[u] (the other one on a reversed view); a
    graph whose ranks disagree with its weights gets None.  The budget is
    exact only where the weights follow the covers, every color-i cover
    lowering the weight by alpha_i as in a generated crystal, since it
    counts the color-i covers of every chain from u to v.  Elsewhere, as on
    an import with a recolored cover, the answer may miss part of [u, v] or
    be None for a comparable pair.  :func:`crystal.check_stembridge_axioms`
    reads the covers and not the tableaux, so it cannot vouch for an import:
    a crystal's tableaux shuffled among its vertices pass it.

    >>> from .crystal import generate
    >>> g = generate((4, 3), 4)
    >>> u, v = g.index[((1, 1, 1, 2), (2, 3, 4))], g.index[((1, 1, 2, 3), (3, 4, 4))]
    >>> itv = interval(g, u, v)
    >>> len(itv), itv.span, interval_mobius(itv)
    (12, 4, 2)
    """
    wt_u, wt_v = weight(graph.vertices[u], graph.n), weight(graph.vertices[v], graph.n)
    steps = graph.rank[v] - graph.rank[u]
    for budget in (_color_budget(wt_u, wt_v), _color_budget(wt_v, wt_u)):
        if budget is not None and sum(budget.values()) == steps:
            return _extract(
                u, v, budget, lambda x, i: graph.fwd[x].get(i), graph.vertices.__getitem__
            )
    return None


def free_interval(u: Tableau, v: Tableau, n: int) -> CrystalGraph | None:
    """Extract [u, v] directly from the crystal operators, without ever
    materializing the ambient crystal; this is what makes intervals of huge
    crystals tractable.  Every weight and budget has n entries, scanned at
    each searched vertex, so an n outside 1..``DEFAULT_VERTEX_CAP`` raises
    ValueError before any is built.  u and v must be semistandard tableaux
    with entries in 1..n (an entry outside raises ValueError), as
    :func:`crystal._lowering_cell` reads the letter runs of sorted rows;
    tableaux of two shapes lie in two crystals and give None.

    The search is bounded by v's entries.  f_i raises one entry from i to
    i+1 and no operator lowers one, so x <= v holds each cell of x at or
    below v's entry there.  The search applies f_i only where the raised
    cell stays at or below v's, an O(1) test, as the image differs from x
    in that cell alone.  A pruned image is never <= v, and every vertex and
    cover of [u, v] lies below v, so the interval is the one the unbounded
    search extracts; only the search is smaller.  :func:`interval` on a
    graph does not use the bound, as an imported graph need not be a
    tableau crystal.

    >>> itv = free_interval(((1, 1, 1, 2), (2, 3, 4)), ((1, 1, 2, 3), (3, 4, 4)), 4)
    >>> len(itv), itv.span, interval_mobius(itv)
    (12, 4, 2)
    """
    if not 1 <= n <= DEFAULT_VERTEX_CAP:
        raise ValueError(f"n must lie in 1..{DEFAULT_VERTEX_CAP}, got {n}")
    budget = _color_budget(weight(u, n), weight(v, n))
    if budget is None or list(map(len, u)) != list(map(len, v)):
        return None

    def step(x: Tableau, i: int) -> Tableau | None:
        cell = _lowering_cell(x, i)
        if cell is None or v[cell[0]][cell[1]] <= i:
            return None
        return _replace(x, cell, i + 1)

    return _extract(u, v, budget, step, None)


# -- Mobius function --------------------------------------------------------

def mobius_from(graph: CrystalGraph, source: int) -> list[int]:
    """mu(source, z) for every vertex z, 0 where z is not above source, by
    the defining recursion mu(s, z) = -sum of mu(s, y) over s <= y < z.

    One breadth-first pass up the covers from the source, which visits the
    up-set of the source in rank order (the graph is graded) and reads the
    covers of no other vertex, so a pass costs the size of the up-set, not
    of the graph.  The down-set mask of z is the union of its lower covers'
    masks and holds one bit per vertex y < z with nonzero mu(source, y); a
    vertex takes the next free bit only when its own value is nonzero.
    Zero terms add nothing, so this is exact, and the masks stay as small
    as the support of mu instead of growing to O(V^2) bits.  Two more masks
    hold the bits of value +1 and of value -1, so the sum over a mask is
    two popcounts, and only the bits of any other value are read one by one
    (:func:`_mobius_upset`).

    >>> itv = free_interval(((1, 1, 1, 2), (2, 3, 4)), ((1, 1, 2, 3), (3, 4, 4)), 4)
    >>> mid = itv.fwd[itv.minimum][1]
    >>> mu = mobius_from(itv, mid)
    >>> mu[mid], mu[itv.fwd[mid][2]], mu[itv.minimum]
    (1, -1, 0)
    """
    return _mobius_upset(graph, source)[1]


def _mobius_upset(graph: CrystalGraph, source: int) -> tuple[list[int], list[int]]:
    """The up-set of source in rank order, from :func:`_upset`, and the
    values of :func:`mobius_from`, which are 0 off that up-set.

    ``plus`` and ``minus`` hold the bits whose vertex has mu +1 and -1, so
    z's value is ``(mask & minus).bit_count() - (mask & plus).bit_count()``
    less the mu of each bit of ``mask & other``, the bits of any other
    value.  From a crystal's minimum, where mu lies in {0, +1, -1} (the s6
    certificate), ``other`` stays empty."""
    order = _upset(graph, source)
    mu = [0] * len(graph)
    down = [0] * len(graph)
    owner: list[int] = []  # owner[k] is the vertex holding bit k
    plus = minus = other = 0  # the bits of value +1, of -1, and of any other
    bwd = graph.bwd
    for z in order:
        mask = 0
        for y in bwd[z].values():
            mask |= down[y]
        if z == source:
            value = 1
        else:
            value = (mask & minus).bit_count() - (mask & plus).bit_count()
            rest = mask & other
            while rest:
                bit = rest & -rest
                value -= mu[owner[bit.bit_length() - 1]]
                rest ^= bit
        if value:
            bit = 1 << len(owner)
            owner.append(z)
            mask |= bit
            if value == 1:
                plus |= bit
            elif value == -1:
                minus |= bit
            else:
                other |= bit
        mu[z] = value
        down[z] = mask
    return order, mu


def interval_mobius(itv: CrystalGraph) -> int:
    """Mobius value mu(bottom, top) over the extracted interval only; a
    graph without a unique minimum or maximum raises ValueError."""
    bottom, top = _ends(itv)
    return mobius_from(itv, bottom)[top]


def lower_mobius_all(graph: CrystalGraph) -> list[int]:
    """mu(minimum, x) for every vertex x, in one pass over the whole graph."""
    return mobius_from(graph, _minimum(graph))


def _down_sets(graph: CrystalGraph, members: Sequence[int]) -> list[int]:
    """For each member, the bitmask of the members weakly below it (bit k
    for ``members[k]``), by one pass up from the members, rank by rank, that
    stops at the highest member's rank.  It buckets its own layers rather
    than read ``graph.layers``, since it walks only the vertices that its
    members reach.  More than ``DOWN_SET_BIT_CAP`` bits (vertices reached
    times members) raise :class:`GraphSizeError`."""
    mask = {v: 1 << k for k, v in enumerate(members)}
    top = max((graph.rank[v] for v in mask), default=-1)
    layers: list[list[int]] = [[] for _ in range(top + 1)]
    for v in mask:
        layers[graph.rank[v]].append(v)
    for layer in layers:
        if len(mask) * len(members) > DOWN_SET_BIT_CAP:
            raise GraphSizeError(f"down-set bit cap {DOWN_SET_BIT_CAP} exceeded")
        for x in layer:
            for y in graph.fwd[x].values():
                if graph.rank[y] <= top:
                    if y not in mask:
                        layers[graph.rank[y]].append(y)
                    mask[y] = mask.get(y, 0) | mask[x]
    return [mask[v] for v in members]


def euler_mobius(itv: CrystalGraph) -> int:
    """Reduced Euler characteristic of the order complex of the open
    interval, by counting chains of every size over the masks of
    :func:`_down_sets`; an independent cross-check of :func:`interval_mobius`.
    Chains grow by one element per round, and z sums the counts of the
    chain ends below it over the set bits of its down-set mask and the
    mask of ends, so a round costs the comparable pairs (end, z), not V^2
    bit tests.  The dense masks still take O(V^2) bits, so an interval of
    more than ``EULER_VERTEX_CAP`` vertices raises :class:`GraphSizeError`,
    and a graph without a unique minimum or maximum raises ValueError, as
    in :func:`interval_mobius`.
    """
    bottom, top = _ends(itv)
    if itv.span < 1:
        raise ValueError("Euler cross-check needs an interval of rank at least 1")
    if len(itv) > EULER_VERTEX_CAP:
        raise GraphSizeError(
            f"Euler cross-check vertex cap {EULER_VERTEX_CAP} exceeded: {len(itv)} vertices"
        )
    inner = [z for z in range(len(itv)) if z not in (bottom, top)]
    down = _down_sets(itv, range(len(itv)))  # bitmask of {y : y <= z}
    # current[z] = number of chains of the open interval of the current size
    # whose largest element is z; build up one extra element at a time
    result = -1
    current = {z: 1 for z in inner}  # size-1 chains
    sign = 1
    while current:
        result += sign * sum(current.values())
        sign = -sign
        ends = 0
        for y in current:
            ends |= 1 << y
        nxt: dict[int, int] = {}
        for z in inner:
            rest = down[z] & ends & ~(1 << z)
            total = 0
            while rest:
                bit = rest & -rest
                total += current[bit.bit_length() - 1]
                rest ^= bit
            if total:
                nxt[z] = total
        current = nxt
    return result


# -- saturated chains and chain moves ---------------------------------------

def _chains(itv: CrystalGraph, bottom: int, top: int, cap: int) -> list[tuple[int, ...]]:
    """The chains of :func:`saturated_chains`, each a prefix from the bottom
    joined to a suffix to the top at the rank ``half`` above the bottom:
    ``span // 2``, or the whole span below 4, where suffix lists cost more
    than they save.

    A chain takes one of at most D upper covers at each of its ``span``
    steps, D the largest out-degree, so nothing more than D^span chains is
    ever listed, on any graph.  Only where that bound exceeds ``cap`` does
    one integer pass down the interval's ``layers`` (no sort) count the
    chains from each vertex to the top; more than ``cap`` chains from the
    bottom then raise :class:`ChainCapError` before any prefix or suffix is
    built.  A prefix is its last vertex and its labels, and a suffix its
    labels alone: at most one cover of each color leaves a vertex, so the
    labels fix every vertex.  The prefixes grow up from the bottom rank by
    rank, and the suffix lists down the layers from just below the top to
    the middle rank; both extend along the covers in increasing color
    order, so the joined chains come out in label order."""
    rank = itv.rank
    span = rank[top] - rank[bottom]
    degree, bound = max(map(len, itv.fwd)), 1
    for _ in range(span):
        bound *= degree
        if bound > cap:  # stop before the product grows past the cap
            break
    if bound > cap:
        count = [0] * len(itv)  # chains from each vertex to the top
        for layer in reversed(itv.layers):  # the top is the one vertex without upper covers
            for x in layer:
                count[x] = sum(map(count.__getitem__, itv.fwd[x].values())) or 1
        if count[bottom] > cap:
            raise ChainCapError(f"chain cap {cap} exceeded")
    up = [sorted(covers.items()) for covers in itv.fwd]  # (color, cover) by color
    half = span if span < 4 else span // 2
    prefixes = [(bottom, ())]
    for _ in range(half):
        prefixes = [(w, (*l, i)) for x, l in prefixes for i, w in up[x]]
    if half == span:  # every prefix ends at the top
        return [l for _, l in prefixes]
    middle = rank[bottom] + half
    suffix: list[list[tuple[int, ...]]] = [[]] * len(itv)  # x -> labels of each chain x..top
    suffix[top] = [()]
    for layer in reversed(itv.layers[middle : rank[top]]):
        for x in layer:
            suffix[x] = [(i, *s) for i, w in up[x] for s in suffix[w]]
    return [l + s for x, l in prefixes for s in suffix[x]]


def saturated_chains(itv: CrystalGraph, cap: int = DEFAULT_CHAIN_CAP) -> list[tuple[int, ...]]:
    """All maximal chains from bottom to top, each as its word of cover
    colors, which fixes its vertices, sorted, with no move-class pass:
    prefixes from the bottom joined to suffixes to the top at the middle
    rank (see :func:`_chains`).  More than ``cap`` chains raise
    :class:`ChainCapError` before any prefix, suffix or chain is built: the
    chains are counted first wherever the largest out-degree to the power
    of the span exceeds ``cap``, and elsewhere that power bounds them.  A
    graph without a unique minimum or maximum raises ValueError.

    >>> itv = free_interval(((1, 1, 1, 2), (2, 3, 4)), ((1, 1, 2, 3), (3, 4, 4)), 4)
    >>> saturated_chains(itv)
    [(1, 2, 2, 3), (2, 1, 3, 2), (2, 3, 1, 2), (3, 2, 2, 1)]
    >>> saturated_chains(itv, cap=3)
    Traceback (most recent call last):
        ...
    crystalposets.poset.ChainCapError: chain cap 3 exceeded
    """
    return _chains(itv, *_ends(itv), cap)


def _move_classes(
    graph: CrystalGraph, source: int
) -> tuple[list[int], list[dict[int, list[int]]]]:
    """The class table of the rank-order move-class pass, which walks
    ``graph.layers`` up from the rank above the source, with no sort.

    ``count[z]`` is the number of move classes of the saturated chains from
    ``source`` to z (0 where z is not above source).  ``carry[z][a][j]`` is
    the class at z of the chains that run through class j at the lower
    cover a and then take the cover a -> z.

    A chain move swaps one side of a square or hexagon (the colors
    (i, j, j, i) against (j, i, i, j), cut to 2 or 4) for the other.  It
    either stays inside the prefix chain to the last lower cover or swaps a
    segment that ends at z, so the classes at z are the carried classes of
    its lower covers, merged with union-find along the sides of each square
    and hexagon that ``crystal._closure`` finds below z.

    For each pair of colors of z's lower covers the pass merges along the
    square if it closes, else along the hexagon.  When the square closes at
    x, both sides of that pair's hexagon (if any) pass through x and then
    close a square below x, which the pass merged when it handled x, so the
    hexagon would merge nothing new; this holds on any imported graph.

    When every lower cover of z carries exactly one class (always so in a
    lower interval, by the paper's theorem, and the common case in random
    intervals), z needs no record lists: the pass unions the two covers of
    each closure whose bottom has chains, stops once one group is left, and
    numbers the groups in cover order, as union-find would.  Other vertices
    merge record lists with union-find.
    """
    bwd = graph.bwd
    count = [0] * len(graph)
    carry: list[dict[int, list[int]]] = [{} for _ in range(len(graph))]
    count[source] = 1
    records = 1
    for layer in graph.layers[graph.rank[source] + 1 :]:
        for z in layer:
            offset: dict[int, int] = {}  # lower cover -> its first record at z
            total = 0
            for a in bwd[z].values():
                if count[a]:
                    offset[a] = total
                    total += count[a]
            if not total:
                continue
            records += total
            if records > MOVE_CLASS_CAP:
                raise ChainCapError(f"move-class record cap {MOVE_CLASS_CAP} exceeded")
            if len(offset) == 1:  # no square or hexagon tops z
                carry[z] = {a: list(range(total)) for a in offset}
                count[z] = total
                continue
            if total == len(offset):  # one class at each lower cover
                group = list(range(total))  # cover position -> its group
                groups = total
                for i, j in combinations(bwd[z], 2):
                    # the square if it closes, else the hexagon (see above)
                    sides = _closure(bwd, z, i, j, 2) or _closure(bwd, z, i, j, 4)
                    if sides is not None and count[sides[0][-1]]:
                        g1, g2 = group[offset[sides[0][1]]], group[offset[sides[1][1]]]
                        if g1 != g2:
                            group = [g1 if g == g2 else g for g in group]
                            groups -= 1
                            if groups == 1:
                                break  # no later pair can merge more
                label = {}  # group -> class id at z, numbered in cover order
                carry[z] = {a: [label.setdefault(group[k], len(label))] for a, k in offset.items()}
                count[z] = groups
                continue
            parent = list(range(total))

            def find(r: int) -> int:
                while parent[r] != r:
                    parent[r] = parent[parent[r]]
                    r = parent[r]
                return r

            def merge(first: list[int], second: list[int]) -> None:
                for r1, r2 in zip(first, second):
                    r1, r2 = find(r1), find(r2)
                    if r1 != r2:
                        parent[max(r1, r2)] = min(r1, r2)

            for i, j in combinations(bwd[z], 2):
                square = _closure(bwd, z, i, j, 2)
                if square is not None:
                    if count[square[0][2]]:
                        (_, x1, x), (_, y1, _) = square
                        merge(
                            [offset[x1] + c for c in carry[x1][x]],
                            [offset[y1] + c for c in carry[y1][x]],
                        )
                    continue  # the pair's hexagon adds nothing (see above)
                hexagon = _closure(bwd, z, i, j, 4)
                if hexagon is not None and count[hexagon[0][4]]:
                    (_, x1, x2, x3, s), (_, y1, y2, y3, _) = hexagon
                    merge(
                        [offset[x1] + carry[x1][x2][carry[x2][x3][c]] for c in carry[x3][s]],
                        [offset[y1] + carry[y1][y2][carry[y2][y3][c]] for c in carry[y3][s]],
                    )
            label: dict[int, int] = {}  # root record -> class id at z
            for a, base in offset.items():
                carry[z][a] = [
                    label.setdefault(find(base + c), len(label)) for c in range(count[a])
                ]
            count[z] = len(label)
    return count, carry


def move_classes_from(graph: CrystalGraph, source: int) -> list[int]:
    """The number of chain-move classes of the interval [source, z] for
    every vertex z, 0 where z is not above source, in one pass in rank
    order (see :func:`_move_classes`).

    Raises :class:`ChainCapError` once the pass has allocated more than
    ``MOVE_CLASS_CAP`` class records: one for the source, and one per class
    at each lower cover of every vertex above it.  No chain is ever
    enumerated.
    """
    return _move_classes(graph, source)[0]


def _top_class(
    itv: CrystalGraph, carry: list[dict[int, list[int]]], labels: Sequence[int]
) -> int | None:
    """The class at the top of the chain from the bottom with these labels,
    or None if there is no such chain, walked up the table ``carry`` of
    :func:`_move_classes`: ``k = carry[w][a][k]`` along each cover a -> w."""
    a, k = itv.minimum, 0
    for i in labels:
        if (w := itv.fwd[a].get(i)) is None:
            return None
        a, k = w, carry[w][a][k]
    return k if a == itv.maximum else None


def _class_summaries(
    itv: CrystalGraph, cap: int
) -> tuple[list[tuple[int, tuple[int, ...]]], Callable[[tuple[int, ...]], int | None]]:
    """(chain count, least label sequence) of each move class at the top of
    ``itv``, indexed by its class id there, and ``class_of``: :func:`_top_class`
    on this pass's class table, so callers never index it.

    One more pass up the layers above the bottom, with no sort: a class
    at z gathers the classes j at each lower cover a that ``carry[z][a]``
    sends to it, adding their chain counts and taking the least of their
    least labels, each extended by the color of a -> z.  Label sequences
    to z all have one length, so that extension keeps the order.  More
    than ``cap`` chains raise :class:`ChainCapError`, and a graph without a
    unique minimum or maximum raises ValueError.
    """
    bottom, top = _ends(itv)
    count, carry = _move_classes(itv, bottom)
    summary: list[list[tuple[int, tuple[int, ...]]]] = [[] for _ in range(len(itv))]
    summary[bottom] = [(1, ())]
    for layer in itv.layers[itv.rank[bottom] + 1 :]:
        for z in layer:
            sizes = [0] * count[z]
            least: list = [None] * count[z]  # (labels to a, color of a -> z)
            for i, a in itv.bwd[z].items():
                for (size, labels), k in zip(summary[a], carry[z][a]):
                    sizes[k] += size
                    if least[k] is None or (labels, i) < least[k]:
                        least[k] = (labels, i)
            summary[z] = [(size, (*labels, i)) for size, (labels, i) in zip(sizes, least)]
    if sum(size for size, _ in summary[top]) > cap:
        raise ChainCapError(f"chain cap {cap} exceeded")
    return summary[top], partial(_top_class, itv, carry)


def move_class_summary(itv: CrystalGraph, cap: int) -> list[tuple[int, tuple[int, ...]]]:
    """(chain count, least label sequence) of each move class of the
    maximal chains, ordered by least labels: the sizes and first chains of
    the components of :func:`stembridge_components`, with no chain
    enumerated.  More than ``cap`` chains, or more than ``MOVE_CLASS_CAP``
    class records, raise :class:`ChainCapError`; a graph without a unique
    minimum or maximum raises ValueError.

    >>> itv = free_interval(((1, 1, 1, 2), (2, 3, 4)), ((1, 1, 2, 3), (3, 4, 4)), 4)
    >>> move_class_summary(itv, 4)
    [(1, (1, 2, 2, 3)), (2, (2, 1, 3, 2)), (1, (3, 2, 2, 1))]
    """
    return sorted(_class_summaries(itv, cap)[0], key=lambda s: s[1])


def stembridge_components(
    itv: CrystalGraph, cap: int = DEFAULT_CHAIN_CAP
) -> tuple[list[tuple[int, ...]], list[list[int]]]:
    """All saturated chains as label words, sorted, and the components of
    their move graph as sorted lists of chain indices, ordered by first
    chain.

    The class table of :func:`_move_classes` comes first, then the chains
    of :func:`saturated_chains`, split at the middle rank (see
    :func:`_chains`); no class is carried while they are listed.  A chain's
    component is its move class at the top.  When the top has one class,
    every chain is in it; otherwise :func:`_top_class` walks each chain's
    labels up the table.  More than ``MOVE_CLASS_CAP`` class records raise
    :class:`ChainCapError`, and so do more than ``cap`` chains, after the
    class pass and before any prefix, suffix or chain is built; they are
    counted only where the largest out-degree to the power of the span
    exceeds ``cap``, as in :func:`saturated_chains`.  A graph without a
    unique minimum or maximum raises ValueError.

    >>> itv = free_interval(((1, 1, 1, 2), (2, 3, 4)), ((1, 1, 2, 3), (3, 4, 4)), 4)
    >>> stembridge_components(itv)
    ([(1, 2, 2, 3), (2, 1, 3, 2), (2, 3, 1, 2), (3, 2, 2, 1)], [[0], [1, 2], [3]])
    """
    bottom, top = _ends(itv)
    count, carry = _move_classes(itv, bottom)
    chains = _chains(itv, bottom, top, cap)
    if count[top] == 1:
        return chains, [list(range(len(chains)))]
    members: dict[int, list[int]] = {}  # class at the top -> chain indices
    for k, labels in enumerate(chains):
        members.setdefault(_top_class(itv, carry, labels), []).append(k)
    # each list is increasing, so sorting orders them by first chain
    return chains, sorted(members.values())


# -- upper bounds and witnesses ---------------------------------------------

def _upset(graph: CrystalGraph, s: int) -> list[int]:
    """Every vertex weakly above s, by breadth-first search up the covers,
    in rank order: every cover raises the rank by one, so the search
    reaches each vertex at its rank difference from s.

    >>> from .crystal import generate
    >>> dual = generate((2, 1), 3).reverse()
    >>> [(x, dual.rank[x]) for x in _upset(dual, 7)]
    [(7, 0), (5, 1), (6, 1), (3, 2), (4, 2), (1, 3), (2, 3), (0, 4)]
    """
    seen = [False] * len(graph)
    seen[s] = True
    order = [s]  # the up-set, grown while it is walked
    fwd = graph.fwd
    for x in order:
        for y in fwd[x].values():
            if not seen[y]:
                seen[y] = True
                order.append(y)
    return order


def minimal_upper_bounds(graph: CrystalGraph, a: int, b: int) -> list[int]:
    """All minimal elements among common upper bounds of a and b.
    Minimality needs no search beyond lower covers because common upper
    bounds form an up-set.
    """
    common = set(_upset(graph, a)).intersection(_upset(graph, b))
    return sorted(
        z for z in common if not any(p in common for p in graph.bwd[z].values())
    )


@dataclass(frozen=True)
class Witness:
    """A covering pair whose join behavior inside the interval cannot come
    from the square/hexagon relations; all indices are interval-local.

    ``kind`` is "non_unique" when the pair has two or more minimal common
    upper bounds, and "nonlocal" when it has a least upper bound that is not
    reached by the degree-2 or degree-4 configuration.
    """

    kind: str
    base: int
    cover_a: int
    cover_b: int
    minimal_upper_bounds: tuple[int, ...]


def non_stembridge_witness(itv: CrystalGraph) -> Witness | None:
    """Search the interval for a covering pair certifying a relation among
    the operators beyond the square/hexagon ones: either no least upper
    bound inside the interval, or one that is not the top of the degree-2
    or degree-4 configuration :func:`local_structure` finds over the pair
    (by convexity, the same inside the interval as in the ambient graph).
    """
    for layer in itv.layers:  # bases in (rank, index) order
        for base in layer:
            for i, j in combinations(sorted(itv.fwd[base]), 2):
                b, c = itv.fwd[base][i], itv.fwd[base][j]
                mubs = minimal_upper_bounds(itv, b, c)
                if len(mubs) >= 2:
                    return Witness("non_unique", base, b, c, tuple(mubs))
                try:
                    local = not mubs or local_structure(itv, base, i, j).top == mubs[0]
                except ValueError:  # neither configuration closes
                    local = False
                if not local:
                    return Witness("nonlocal", base, b, c, tuple(mubs))
    return None


# -- serialization ----------------------------------------------------------

def interval_to_json(itv: CrystalGraph) -> dict:
    """The crystal graph export without the shape, plus bottom/top markers
    and the color budget."""
    data = graph_to_json(itv)
    del data["shape"]
    data["bottom"] = itv.minimum
    data["top"] = itv.maximum
    data["budget"] = {str(i): m for i, m in sorted(itv.budget.items())}
    return data


def components_to_json(summary: list[tuple[int, tuple[int, ...]]]) -> dict:
    """Report of a :func:`move_class_summary`: chain and component counts,
    and each component's size with its least label sequence as
    representative."""
    return {
        "chain_count": sum(size for size, _ in summary),
        "component_count": len(summary),
        "components": [
            {"size": size, "representative": list(labels)} for size, labels in summary
        ],
    }
