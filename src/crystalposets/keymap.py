"""
The key map from a tableau crystal to the symmetric group, computed purely
from the edge-colored poset structure, plus its consistency checks, fibers,
fiber extremes at longest parabolic elements, and Demazure subcrystals.
A fiber's induced order and its extremes are read off one down-set pass
over the fiber (``poset._down_sets``), with no pairwise order test.

The recursion fills the table rank by rank: the minimum gets the identity,
a vertex covering two or more elements gets the left weak join of the keys
below, and a vertex with a unique cover keeps or bumps the key below
depending on whether the cover sits at the bottom of its color string.  An
atom's cover always does, as the minimum has no cover below it, so the
bump gives an atom its edge's simple reflection with no rule of its own.
Within one rank the four rules are independent of processing order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from itertools import combinations
from operator import or_

from . import weyl
from .crystal import CrystalGraph, weight
from .poset import _down_sets, _minimum

Permutation = weyl.Permutation


@dataclass
class KeyTable:
    """Per-vertex key permutations for one fixed graph, and the derived
    ``fibers``: each key's vertices, increasing."""

    keys: tuple[Permutation, ...]
    fibers: dict[Permutation, tuple[int, ...]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        fibers: dict[Permutation, list[int]] = {}
        for v, k in enumerate(self.keys):
            fibers.setdefault(k, []).append(v)
        self.fibers = {k: tuple(vs) for k, vs in fibers.items()}

    def __getitem__(self, v: int) -> Permutation:
        return self.keys[v]

    def __len__(self) -> int:
        return len(self.keys)


class FiberStructureError(RuntimeError):
    """A fiber at a longest parabolic element lacked a unique extreme."""


def compute_keys(graph: CrystalGraph) -> KeyTable:
    """Fill the key table by the four structural rules, layer by layer
    up ``graph.layers``, with no sort.

    >>> from .crystal import generate
    >>> table = compute_keys(generate((2, 1), 3))
    >>> table[0]
    (1, 2, 3)
    """
    _minimum(graph)  # the rank rules assume one minimum
    ident = weyl.identity(graph.n)
    keys: list[Permutation | None] = [None] * len(graph)
    joins: dict[frozenset[Permutation], Permutation] = {}  # lower keys -> their join
    for layer in graph.layers:
        for v in layer:
            below = graph.bwd[v]  # color -> lower vertex
            if not below:
                keys[v] = ident
            elif len(below) >= 2:
                lower = frozenset(keys[u] for u in below.values())
                if (joined := joins.get(lower)) is None:
                    joined = joins[lower] = weyl.left_weak_join(lower)
                keys[v] = joined
            else:
                [(i, u)] = below.items()
                if graph.bwd[u].get(i) is not None:
                    keys[v] = keys[u]
                else:
                    keys[v] = weyl.left_multiply(i, keys[u])
    return KeyTable(keys=tuple(keys))


@dataclass(frozen=True)
class KeyReport:
    passed: bool
    vertex: int | None = None
    color: int | None = None
    detail: str = ""

    def __bool__(self) -> bool:
        return self.passed


def check_key_axioms(graph: CrystalGraph, table: KeyTable) -> KeyReport:
    """At every vertex b and color p: if no p-edge enters b then s_p must
    lengthen the key; along every p-edge the key either stays fixed or gets
    bumped by s_p, and it may only change at the bottom of a p-string.

    The left descents and the bumps s_p * key are found once per distinct
    key.
    """
    colors = graph.colors
    steps: dict[Permutation, tuple[frozenset[int], dict[int, Permutation]]] = {}
    for b in range(len(graph)):
        kb = table[b]
        if (step := steps.get(kb)) is None:
            step = steps[kb] = (
                weyl.left_descents(kb), {p: weyl.left_multiply(p, kb) for p in colors}
            )
        descents, bumped = step
        below, above = graph.bwd[b], graph.fwd[b]
        for p in colors:
            if p not in below and p in descents:
                return KeyReport(False, b, p, "key has a left descent at a string bottom")
            target = above.get(p)
            if target is None:
                continue
            kt = table[target]
            if p in below:
                if kt != kb:
                    return KeyReport(False, b, p, "key changed off the string bottom")
            elif kt not in (kb, bumped[p]):
                return KeyReport(False, b, p, "key jumped outside the allowed pair")
    return KeyReport(True)


@dataclass
class Fiber:
    """A key-map fiber with the order induced from the crystal poset,
    given by its covers alone: every comparable pair is a chain of them.

    ``covers`` lists induced cover pairs (a, b, color); the color is the
    edge color when the pair is also a crystal cover, else None.
    ``components`` partitions the vertices by comparability.
    """

    word: Permutation
    vertices: tuple[int, ...]
    covers: tuple[tuple[int, int, int | None], ...]
    components: tuple[tuple[int, ...], ...]


def _bits(mask: int) -> list[int]:
    """Positions of the set bits of mask, increasing."""
    return [k for k, bit in enumerate(reversed(bin(mask))) if bit == "1"]


def _fiber_masks(graph: CrystalGraph, table: KeyTable, w: Permutation):
    """The vertices with key w and, for each, the mask of those strictly below it."""
    verts = table.fibers.get(w, ())
    return verts, [m ^ 1 << k for k, m in enumerate(_down_sets(graph, verts))]


def fiber(graph: CrystalGraph, table: KeyTable, w: Permutation) -> Fiber:
    """All vertices with key w, the covers of their induced order, and its
    components, read off their down-set masks: the covers of a vertex are
    the bits of its strict mask minus the union of those bits' own masks,
    and the components are the masks merged where they share a bit.  No
    comparable pair is listed on its own."""
    w = weyl.check_permutation(w, graph.n)
    verts, strict = _fiber_masks(graph, table, w)
    covers, groups = [], []
    for k, (y, below) in enumerate(zip(verts, strict)):
        nested = reduce(or_, [strict[a] for a in _bits(below)], 0)  # not covers of y
        for a in _bits(below & ~nested):
            x = verts[a]
            covers.append((x, y, next((i for i, t in graph.fwd[x].items() if t == y), None)))
        group = below | 1 << k  # merged with the disjoint groups it meets
        meets = [g for g in groups if g & group]
        groups = [g for g in groups if not g & group] + [reduce(or_, meets, group)]
    return Fiber(
        word=w,
        vertices=tuple(verts),
        covers=tuple(sorted(covers)),
        components=tuple(sorted(tuple(verts[a] for a in _bits(g)) for g in groups)),
    )


def shape_stabilizer(graph: CrystalGraph) -> frozenset[int]:
    """Stabilizer of the highest weight: the colors whose simple reflection
    fixes the minimum's weight (the lowest weight on a reversed view)."""
    wt = weight(graph.vertices[_minimum(graph)], graph.n)
    return frozenset(k + 1 for k in range(len(wt) - 1) if wt[k] == wt[k + 1])


def fiber_extremes(
    graph: CrystalGraph, table: KeyTable, parabolic: frozenset[int] | set[int]
) -> tuple[int, int] | None:
    """Unique minimum and maximum of the fiber at the longest element of the
    parabolic on the given colors, read off its down-set masks; None when
    that fiber is empty (exactly the case of an index stabilizing the
    highest weight)."""
    w = weyl.longest_parabolic(parabolic, graph.n)
    verts, strict = _fiber_masks(graph, table, w)
    avoids_stabilizer = set(parabolic) <= set(graph.colors) - shape_stabilizer(graph)
    if not verts:
        if avoids_stabilizer:
            raise FiberStructureError(
                f"empty fiber at {w} despite indices avoiding the stabilizer"
            )
        return None
    if not avoids_stabilizer:
        raise FiberStructureError(f"nonempty fiber at {w} despite a stabilizer index")
    covered = reduce(or_, strict, 0)  # below some fiber vertex
    minima = [v for v, below in zip(verts, strict) if not below]
    maxima = [v for k, v in enumerate(verts) if not covered >> k & 1]
    if len(minima) != 1 or len(maxima) != 1:
        raise FiberStructureError(
            f"fiber at {w} has minima {minima} and maxima {maxima}"
        )
    return minima[0], maxima[0]


def demazure(graph: CrystalGraph, table: KeyTable, w: Permutation) -> frozenset[int]:
    """Vertices whose key is below w in strong Bruhat order: the union of
    the fibers of those keys, with one order test per distinct key."""
    w = weyl.check_permutation(w, graph.n)
    return frozenset().union(
        *(verts for k, verts in table.fibers.items() if weyl.strong_bruhat_leq(k, w))
    )


def minimal_fiber_elements(graph: CrystalGraph, table: KeyTable) -> dict[frozenset[int], int]:
    """For every color subset avoiding the stabilizer, the minimum of the
    fiber at the corresponding longest parabolic element."""
    free = sorted(set(graph.colors) - shape_stabilizer(graph))
    out: dict[frozenset[int], int] = {}
    for r in range(len(free) + 1):
        for sub in combinations(free, r):
            # avoiding the stabilizer, the fiber is nonempty or raises
            out[frozenset(sub)] = fiber_extremes(graph, table, frozenset(sub))[0]
    return out


def key_table_to_json(table: KeyTable) -> dict:
    """Vertex index -> one-line permutation string."""
    return {
        str(v): weyl.permutation_to_string(table[v]) for v in range(len(table))
    }


def fiber_to_json(fib: Fiber) -> dict:
    return {
        "key": weyl.permutation_to_string(fib.word),
        "vertices": list(fib.vertices),
        "components": [list(c) for c in fib.components],
        "covers": [[a, b, c] for a, b, c in fib.covers],
    }
