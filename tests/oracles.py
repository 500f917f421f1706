"""
Independent brute-force oracles for the test suite.

Nothing here shares an algorithm with the package: orders are computed by
explicit breadth-first closures over cover relations, joins by scanning all
common upper bounds, tableau counts by direct column-filling enumeration,
intervals by unpruned up-set/down-set intersection, and Mobius values by
the defining recursion over dictionaries.  Chain-move components are
found by breadth-first search over every chain's move neighbours, which
enumerates the move graph that the package's rank-order pass never builds.
The local-axiom checker and the chain enumerator keep their earlier
per-walk and copy-per-push forms here, as references for the package's
string-table and path-stack versions, and the key-axiom checker keeps its
length comparisons as a reference for the package's left-descent test.
The signature rule keeps its symbol-stack form, with both surviving words
and the raising operator e_i, as the reference for the package's counting
scan in ``apply_f``; the chain moves are enumerated chain by chain, as the
reference for the package's rank-order move classes.  Coxeter length, the
left weak order test, reduced words (with their cap) and the adapted-string
check of the key table live here too: only tests call them.  Key fibers keep
their pairwise form (one up-set per vertex, a middle-element search per
relation), as the reference for the package's down-set masks, and the
Demazure subcrystals are built by the classical f_i-string recursion over
S_n, which reads no key.  The seeded import mutants (``imported_mutants``)
that the axiom checker and the move-class pass are compared on come from
here too, and so does the list-based graph export that the package's
tuple-sharing export must render byte for byte (``list_graph_to_json``).
"""

from __future__ import annotations

import random
from collections import deque
from itertools import combinations, permutations

from dataclasses import dataclass

from crystalposets import poset, weyl
from crystalposets.crystal import (
    AxiomReport,
    CrystalGraph,
    Tableau,
    apply_word,
    cartan_entry,
    graph_from_json,
    graph_to_json,
)
from crystalposets.keymap import Fiber, KeyReport
from crystalposets.poset import SaturatedChain


# -- symmetric group ----------------------------------------------------------

def all_permutations(n: int) -> list[tuple[int, ...]]:
    return sorted(permutations(range(1, n + 1)))


def length(w: tuple[int, ...]) -> int:
    """Coxeter length = number of inversion pairs (i < j with w(i) > w(j))."""
    n = len(w)
    return sum(1 for i in range(n) for j in range(i + 1, n) if w[i] > w[j])


def left_weak_leq(u: tuple[int, ...], w: tuple[int, ...]) -> bool:
    """u <= w in left weak order, via Inv(u^-1) <= Inv(w^-1) on the
    package's inversion bitmasks."""
    weyl._same_n(u, w)
    return not weyl._inverse_inversions(u) & ~weyl._inverse_inversions(w)


# w0 in S_6 has 292,864 reduced words, w0 in S_7 has 1,100,742,656
MAX_REDUCED_WORDS = 1_000_000


class ReducedWordCapError(ValueError):
    """Raised when a permutation has more than MAX_REDUCED_WORDS reduced words."""


def reduced_word_count(w: tuple[int, ...]) -> int:
    """Number of reduced words of w, by memoized recursion over left
    descents; raises ReducedWordCapError as soon as a count exceeds
    MAX_REDUCED_WORDS (counts only grow going up in left weak order)."""
    w = tuple(w)
    memo: dict[tuple[int, ...], int] = {}

    def count(u: tuple[int, ...]) -> int:
        if (known := memo.get(u)) is not None:
            return known
        total = sum(count(weyl.left_multiply(i, u)) for i in weyl.left_descents(u)) or 1
        if total > MAX_REDUCED_WORDS:
            raise ReducedWordCapError(
                f"{weyl.permutation_to_string(w)} has more than "
                f"MAX_REDUCED_WORDS = {MAX_REDUCED_WORDS} reduced words"
            )
        memo[u] = total
        return total

    return count(w)


def reduced_words(w: tuple[int, ...]) -> set[tuple[int, ...]]:
    """All reduced words (i_1, ..., i_l) with s_{i_1} ... s_{i_l} = w.

    Enumerated recursively through left descents: each reduced word starts
    with a left descent i and continues with a reduced word of s_i * w.
    The words are counted first, so a permutation with more than
    MAX_REDUCED_WORDS of them raises ReducedWordCapError before any is built.
    """
    reduced_word_count(w)
    return _reduced_words(w)


def _reduced_words(w: tuple[int, ...]) -> set[tuple[int, ...]]:
    """Depth-first over left descents, each permutation's descent steps
    found once per call; every word is built once, at the identity."""
    steps: dict[tuple[int, ...], list[tuple[int, tuple[int, ...]]]] = {}
    words: set[tuple[int, ...]] = set()
    path: list[int] = []

    def walk(u: tuple[int, ...]) -> None:
        if (down := steps.get(u)) is None:
            down = steps[u] = [
                (i, weyl.left_multiply(i, u)) for i in sorted(weyl.left_descents(u))
            ]
        if not down:
            words.add(tuple(path))
        for i, x in down:
            path.append(i)
            walk(x)
            path.pop()

    walk(w)
    return words


def left_weak_upset(u: tuple[int, ...]) -> set[tuple[int, ...]]:
    """Everything reachable from u by length-increasing left multiplications."""
    n = len(u)
    seen = {u}
    queue = deque([u])
    while queue:
        w = queue.popleft()
        for i in range(1, n):
            s = weyl.left_multiply(i, w)
            if length(s) == length(w) + 1 and s not in seen:
                seen.add(s)
                queue.append(s)
    return seen


def strong_order_pairs(n: int) -> set[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All (u, w) with u <= w, from the reflection covers' transitive closure."""
    perms = all_permutations(n)
    reachable: dict[tuple[int, ...], set[tuple[int, ...]]] = {}

    def covers(w):
        out = []
        for a, b in combinations(range(n), 2):
            word = list(w)
            word[a], word[b] = word[b], word[a]
            t = tuple(word)
            if length(t) == length(w) + 1:
                out.append(t)
        return out

    for w in sorted(perms, key=length, reverse=True):
        acc = {w}
        for c in covers(w):
            acc |= reachable[c]
        reachable[w] = acc
    return {(u, w) for u in perms for w in reachable[u]}


def brute_left_weak_join(ws: list[tuple[int, ...]]) -> tuple[int, ...]:
    """Minimum-length common upper bound; asserts it is below all others."""
    n = len(ws[0])
    ubs = [
        w
        for w in all_permutations(n)
        if all(left_weak_leq(u, w) for u in ws)
    ]
    best = min(ubs, key=length)
    assert all(left_weak_leq(best, w) for w in ubs)
    return best


def brute_reduced_words(w: tuple[int, ...]) -> set[tuple[int, ...]]:
    """Depth-first product search, independent of descent bookkeeping.

    Builds words right to left: a length-increasing left multiplication by
    s_i extends the suffix (i, ...) toward the full word.
    """
    n = len(w)
    ell = length(w)
    found: set[tuple[int, ...]] = set()

    def search(suffix: tuple[int, ...], current: tuple[int, ...]) -> None:
        if len(suffix) == ell:
            if current == w:
                found.add(suffix)
            return
        for i in range(1, n):
            nxt = weyl.left_multiply(i, current)
            if length(nxt) == length(current) + 1:
                search((i,) + suffix, nxt)

    search((), weyl.identity(n))
    return found


def braid_connected(words: set[tuple[int, ...]]) -> bool:
    """Are the words one class under adjacent commutations and (i,j,i)<->(j,i,j)?"""
    words = set(words)
    if not words:
        return True
    start = next(iter(sorted(words)))
    seen = {start}
    queue = deque([start])
    while queue:
        word = queue.popleft()
        for p in range(len(word) - 1):
            a, b = word[p], word[p + 1]
            if abs(a - b) >= 2:
                moved = word[:p] + (b, a) + word[p + 2 :]
                if moved in words and moved not in seen:
                    seen.add(moved)
                    queue.append(moved)
        for p in range(len(word) - 2):
            a, b, c = word[p], word[p + 1], word[p + 2]
            if a == c and abs(a - b) == 1:
                moved = word[:p] + (b, a, b) + word[p + 3 :]
                if moved in words and moved not in seen:
                    seen.add(moved)
                    queue.append(moved)
    return seen == words


# -- tableaux -----------------------------------------------------------------

def count_ssyt(shape: tuple[int, ...], n: int) -> int:
    """Direct enumeration by column fillings, left to right: each column is a
    strictly increasing tuple dominating the previous column entrywise."""
    heights = []
    width = shape[0]
    for c in range(width):
        heights.append(sum(1 for part in shape if part > c))

    def columns(height: int, minima: tuple[int, ...]) -> list[tuple[int, ...]]:
        out: list[tuple[int, ...]] = []

        def fill(row: int, prev: int, acc: tuple[int, ...]) -> None:
            if row == height:
                out.append(acc)
                return
            for val in range(max(prev + 1, minima[row]), n + 1):
                fill(row + 1, val, acc + (val,))

        fill(0, 0, ())
        return out

    total = 0
    stack: list[tuple[int, tuple[int, ...]]] = [(0, tuple())]
    while stack:
        c, prev_col = stack.pop()
        if c == width:
            total += 1
            continue
        h = heights[c]
        minima = tuple(prev_col[r] if r < len(prev_col) else 1 for r in range(h))
        for col in columns(h, minima):
            stack.append((c + 1, col))
    return total


def enumerate_ssyt(shape: tuple[int, ...], n: int) -> set[tuple[tuple[int, ...], ...]]:
    """The actual tableaux, by the same column recursion."""
    heights = []
    width = shape[0]
    for c in range(width):
        heights.append(sum(1 for part in shape if part > c))

    results: set[tuple[tuple[int, ...], ...]] = set()

    def fill_column(c: int, cols: tuple[tuple[int, ...], ...]) -> None:
        if c == width:
            rows = tuple(
                tuple(cols[cc][r] for cc in range(width) if len(cols[cc]) > r)
                for r in range(len(shape))
            )
            results.add(rows)
            return
        h = heights[c]
        prev = cols[-1] if cols else ()

        def fill(row: int, prev_val: int, acc: tuple[int, ...]) -> None:
            if row == h:
                fill_column(c + 1, cols + (acc,))
                return
            lo = max(prev_val + 1, prev[row] if row < len(prev) else 1)
            for val in range(lo, n + 1):
                fill(row + 1, val, acc + (val,))

        fill(0, 0, ())

    fill_column(0, tuple())
    return results


def i_signature(rows: Tableau, i: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """(plus cells, minus cells): scan columns left to right, bottom to top;
    push + for the letter i and - for i+1, where a + on top of a - deletes
    the pair.  The survivors read '+' * x then '-' * y, each cell list in
    scan order."""
    stack: list[tuple[str, tuple[int, int]]] = []
    for c in range(len(rows[0]) if rows else 0):
        for r in range(len(rows) - 1, -1, -1):
            if c >= len(rows[r]):
                continue
            val = rows[r][c]
            if val == i:
                if stack and stack[-1][0] == "-":
                    stack.pop()
                else:
                    stack.append(("+", (r, c)))
            elif val == i + 1:
                stack.append(("-", (r, c)))
    plus = tuple(cell for sym, cell in stack if sym == "+")
    minus = tuple(cell for sym, cell in stack if sym == "-")
    return plus, minus


def _set_cell(rows: Tableau, cell: tuple[int, int], val: int) -> Tableau:
    r, c = cell
    return tuple(
        tuple(val if (rr, cc) == (r, c) else x for cc, x in enumerate(row))
        for rr, row in enumerate(rows)
    )


def apply_f(rows: Tableau, i: int) -> Tableau | None:
    """f_i from the stack signature: raise the rightmost surviving +."""
    plus, _ = i_signature(rows, i)
    return _set_cell(rows, plus[-1], i + 1) if plus else None


def apply_e(rows: Tableau, i: int) -> Tableau | None:
    """Raising operator: lower the letter i+1 of the leftmost surviving -."""
    _, minus = i_signature(rows, i)
    return _set_cell(rows, minus[0], i) if minus else None


# -- graphs -------------------------------------------------------------------

@dataclass(frozen=True)
class StringStats:
    """Length of the monochromatic string through a vertex: ``rise`` steps
    remain upward (f applications), ``depth`` = -(steps downward)."""

    rise: int
    depth: int


def string_stats(graph: CrystalGraph, v: int, i: int) -> StringStats:
    """Walk the color-i string through v in both directions."""
    rise = 0
    cur = v
    while (nxt := graph.fwd[cur].get(i)) is not None:
        cur = nxt
        rise += 1
    down = 0
    cur = v
    while (nxt := graph.bwd[cur].get(i)) is not None:
        cur = nxt
        down += 1
    return StringStats(rise=rise, depth=-down)


def brute_upset(graph: CrystalGraph, v: int) -> set[int]:
    seen = {v}
    queue = deque([v])
    while queue:
        x = queue.popleft()
        for y in graph.fwd[x].values():
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return seen


def brute_downset(graph: CrystalGraph, v: int) -> set[int]:
    seen = {v}
    queue = deque([v])
    while queue:
        x = queue.popleft()
        for y in graph.bwd[x].values():
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return seen


def brute_interval_vertices(graph: CrystalGraph, u: int, v: int) -> set[int]:
    return brute_upset(graph, u) & brute_downset(graph, v)


def brute_mobius(graph: CrystalGraph, u: int, v: int) -> int:
    """mu by the defining recursion, memoized dict over interval members."""
    members = brute_interval_vertices(graph, u, v)
    if not members:
        raise ValueError("empty interval")
    memo: dict[int, int] = {}

    def mu(y: int) -> int:
        if y == u:
            return 1
        if y in memo:
            return memo[y]
        below = brute_downset(graph, y) & members
        total = sum(mu(z) for z in below if z != y)
        memo[y] = -total
        return memo[y]

    return mu(v)


def comparable_pairs_sample(
    graph: CrystalGraph, count: int, seed: int
) -> list[tuple[int, int]]:
    """Deterministic sample of pairs u < v (rank-increasing, comparable)."""
    rng = random.Random(seed)
    pairs: list[tuple[int, int]] = []
    size = len(graph)
    attempts = 0
    while len(pairs) < count and attempts < 100 * count:
        attempts += 1
        u = rng.randrange(size)
        v = rng.randrange(size)
        if graph.rank[u] >= graph.rank[v]:
            continue
        if v in brute_upset(graph, u):
            pairs.append((u, v))
    return pairs


def compute_keys_shuffled(graph: CrystalGraph, seed: int):
    """The five key rules applied in a shuffled order within each rank; an
    order-independence oracle for the package's rank-order implementation."""
    rng = random.Random(seed)
    ident = weyl.identity(graph.n)
    by_rank: dict[int, list[int]] = {}
    for v in range(len(graph)):
        by_rank.setdefault(graph.rank[v], []).append(v)
    keys: dict[int, tuple[int, ...]] = {}
    for r in sorted(by_rank):
        level = by_rank[r][:]
        rng.shuffle(level)
        for v in level:
            below = sorted(graph.bwd[v].items())
            if not below:
                keys[v] = ident
            elif r == 1:
                keys[v] = weyl.left_multiply(below[0][0], ident)
            elif len(below) >= 2:
                keys[v] = weyl.left_weak_join([keys[u] for _, u in below])
            else:
                i, u = below[0]
                keys[v] = keys[u] if i in graph.bwd[u] else weyl.left_multiply(i, keys[u])
    return tuple(keys[v] for v in range(len(graph)))


def length_check_key_axioms(graph: CrystalGraph, table) -> KeyReport:
    """The key axioms with the left-descent test written as a length
    comparison of the key and s_p times the key; the reference for
    :func:`crystalposets.keymap.check_key_axioms`, which reads the left
    descents."""
    for b in range(len(graph)):
        kb = table[b]
        lb = length(kb)
        for p in graph.colors:
            if graph.bwd[b].get(p) is None:
                if length(weyl.left_multiply(p, kb)) <= lb:
                    return KeyReport(False, b, p, "key has a left descent at a string bottom")
            target = graph.fwd[b].get(p)
            if target is None:
                continue
            kt = table[target]
            if graph.bwd[b].get(p) is not None:
                if kt != kb:
                    return KeyReport(False, b, p, "key changed off the string bottom")
            elif kt not in (kb, weyl.left_multiply(p, kb)):
                return KeyReport(False, b, p, "key jumped outside the allowed pair")
    return KeyReport(True)


def adapted_string_check(graph: CrystalGraph, table, b: int) -> bool:
    """For every reduced word of the key of b, greedily exhausting each
    raising color in turn starting at b must land exactly on the minimum."""
    for word in sorted(reduced_words(table[b])):
        cur = b
        for i in word:
            while (nxt := graph.bwd[cur].get(i)) is not None:
                cur = nxt
        if cur != graph.minimum:
            return False
    return True


def brute_fiber(graph: CrystalGraph, table, w: tuple[int, ...]) -> Fiber:
    """The key fiber at w by pairwise order tests: one up-set per fiber
    vertex decides each pair, a relation is a cover when no fiber vertex
    lies strictly between, and the components come from a search over the
    comparability graph.  The reference for
    :func:`crystalposets.keymap.fiber`, which reads all of it off one
    down-set pass."""
    verts = [v for v in range(len(graph)) if table[v] == w]
    ups = {v: brute_upset(graph, v) for v in verts}
    less = [(x, y) for x in verts for y in verts if x != y and y in ups[x]]
    lset = set(less)
    covers = []
    for x, y in less:
        if not any((x, z) in lset and (z, y) in lset for z in verts):
            color = None
            if graph.rank[y] == graph.rank[x] + 1:
                for i, t in graph.fwd[x].items():
                    if t == y:
                        color = i
                        break
            covers.append((x, y, color))
    adjacency: dict[int, set[int]] = {v: set() for v in verts}
    for x, y in less:
        adjacency[x].add(y)
        adjacency[y].add(x)
    seen: set[int] = set()
    components = []
    for v in verts:
        if v in seen:
            continue
        stack, comp = [v], []
        seen.add(v)
        while stack:
            x = stack.pop()
            comp.append(x)
            for y in adjacency[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        components.append(tuple(sorted(comp)))
    return Fiber(
        word=tuple(w),
        vertices=tuple(verts),
        covers=tuple(sorted(covers)),
        components=tuple(sorted(components)),
    )


def demazure_closure(graph: CrystalGraph) -> dict[tuple[int, ...], set[int]]:
    """The Demazure subcrystal B_w for every w in S_n by the classical
    recursion (Kashiwara, Duke Math. J. 71 (1993); Littelmann, Ann. Math.
    142 (1995)): B_id is the minimum, and for s_i w > w, B_{s_i w} is every
    f_i-string run from B_w.  Breadth-first over S_n by left
    multiplication, with its own s_i w (swap the values i and i+1) and
    Coxeter length; no key is read."""
    ident = tuple(range(1, graph.n + 1))
    out = {ident: {graph.minimum}}
    queue = deque([ident])
    while queue:
        w = queue.popleft()
        for i in range(1, graph.n):
            s = tuple(i + 1 if x == i else i if x == i + 1 else x for x in w)
            if s in out or length(s) < length(w):
                continue
            closed: set[int] = set()
            for b in out[w]:
                # each closed vertex already has its f_i-string above it
                while b is not None and b not in closed:
                    closed.add(b)
                    b = graph.fwd[b].get(i)
            out[s] = closed
            queue.append(s)
    return out


def brute_stembridge_axioms(graph: CrystalGraph) -> AxiomReport:
    """The local-axiom check with every string statistic re-walked by
    ``string_stats`` where it is read, and P1 found by a capped forward walk
    from every vertex and color."""
    colors = list(graph.colors)

    # no monochromatic circuits: per color, follow out-edges with a step cap
    cap = len(graph.vertices)
    for v in range(len(graph.vertices)):
        for i in colors:
            cur, steps = v, 0
            while (nxt := graph.fwd[cur].get(i)) is not None:
                cur = nxt
                steps += 1
                if steps > cap:
                    return AxiomReport(False, "P1", v, i, None, "monochromatic circuit")

    def delta(v: int) -> dict[int, int]:
        return {j: string_stats(graph, v, j).depth for j in colors}

    def rise(v: int) -> dict[int, int]:
        return {j: string_stats(graph, v, j).rise for j in colors}

    down = graph.reverse()  # apply_word on it follows e edges
    for b in range(len(graph.vertices)):
        d_b, r_b = delta(b), rise(b)
        for i in colors:
            bp = graph.bwd[b].get(i)
            if bp is None:
                continue
            d_bp, r_bp = delta(bp), rise(bp)
            for j in colors:
                dd = d_bp[j] - d_b[j]
                de = r_bp[j] - r_b[j]
                if dd + de != cartan_entry(i, j):
                    return AxiomReport(
                        False, "P3", b, i, j,
                        f"delta-depth {dd} + delta-rise {de} != a_ij {cartan_entry(i, j)}",
                    )
                if i != j and (dd > 0 or de > 0):
                    return AxiomReport(False, "P4", b, i, j, f"positive difference ({dd}, {de})")

        for i in colors:
            for j in colors:
                if i == j or graph.bwd[b].get(i) is None or graph.bwd[b].get(j) is None:
                    continue
                d_bi = delta(graph.bwd[b][i])
                dd_ij = d_bi[j] - d_b[j]
                if dd_ij == 0:
                    x = apply_word(down, b, (i, j))
                    y = apply_word(down, b, (j, i))
                    if x is None or y is None or x != y:
                        return AxiomReport(False, "P5", b, i, j, "raising square does not close")
                    fx = graph.fwd[x].get(j)
                    if fx is None or rise(x)[i] - rise(fx)[i] != 0:
                        return AxiomReport(False, "P5", b, i, j, "rise condition at the top fails")
                elif dd_ij == -1:
                    d_bj = delta(graph.bwd[b][j])
                    if d_bj[i] - d_b[i] == -1:
                        x = apply_word(down, b, (i, j, j, i))
                        y = apply_word(down, b, (j, i, i, j))
                        if x is None or y is None or x != y:
                            return AxiomReport(False, "P6", b, i, j, "raising hexagon does not close")
                        r_x = rise(x)
                        fxj = graph.fwd[x].get(j)
                        fxi = graph.fwd[x].get(i)
                        if (
                            fxj is None or fxi is None
                            or r_x[i] - rise(fxj)[i] != -1
                            or r_x[j] - rise(fxi)[j] != -1
                        ):
                            return AxiomReport(False, "P6", b, i, j, "rise condition at the top fails")
    return AxiomReport(True)


def brute_saturated_chains(itv: CrystalGraph, cap: int = poset.DEFAULT_CHAIN_CAP):
    """All maximal chains, each stack entry carrying its own copies of the
    vertex and label tuples, sorted by labels at the end."""
    chains: list[SaturatedChain] = []
    stack: list[tuple[tuple[int, ...], tuple[int, ...]]] = [((itv.minimum,), ())]
    while stack:
        verts, labels = stack.pop()
        last = verts[-1]
        if last == itv.maximum:
            chains.append(SaturatedChain(verts, labels))
            if len(chains) > cap:
                raise poset.ChainCapError(f"chain cap {cap} exceeded")
            continue
        for i, nxt in sorted(itv.fwd[last].items(), reverse=True):
            stack.append((verts + (nxt,), labels + (i,)))
    chains.sort(key=lambda c: c.labels)
    return chains


def stembridge_moves(chain: SaturatedChain, itv: CrystalGraph) -> list[tuple[int, SaturatedChain]]:
    """All (position, chain) obtainable from ``chain`` by one move: swap a
    length-2 segment when the square with transposed colors closes at the
    same endpoints, or a length-4 segment with color pattern (a, b, b, a)
    when the transposed hexagon side exists with the same endpoints.
    """
    out: list[tuple[int, SaturatedChain]] = []
    verts, labels = chain.vertices, chain.labels
    for p in range(len(labels) - 1):
        a, b = labels[p], labels[p + 1]
        if a == b:
            continue
        start, end = verts[p], verts[p + 2]
        mid = itv.fwd[start].get(b)
        if mid is not None and itv.fwd[mid].get(a) == end:
            out.append((
                p,
                SaturatedChain(
                    verts[: p + 1] + (mid,) + verts[p + 2 :],
                    labels[:p] + (b, a) + labels[p + 2 :],
                ),
            ))
    for p in range(len(labels) - 3):
        a, b = labels[p], labels[p + 1]
        if a == b or labels[p + 1 : p + 4] != (b, b, a):
            continue
        start, end = verts[p], verts[p + 4]
        z1 = itv.fwd[start].get(b)
        z2 = itv.fwd[z1].get(a) if z1 is not None else None
        z3 = itv.fwd[z2].get(a) if z2 is not None else None
        if z3 is not None and itv.fwd[z3].get(b) == end:
            out.append((
                p,
                SaturatedChain(
                    verts[: p + 1] + (z1, z2, z3) + verts[p + 4 :],
                    labels[:p] + (b, a, a, b) + labels[p + 4 :],
                ),
            ))
    return out


def brute_move_components(itv: CrystalGraph, cap: int = poset.DEFAULT_CHAIN_CAP):
    """(chains, components) of the move graph by breadth-first search over
    ``stembridge_moves`` neighbours: components as sorted lists of indices
    into the label-sorted chain list, ordered by first chain."""
    chains = brute_saturated_chains(itv, cap)
    key = {c.vertices: k for k, c in enumerate(chains)}
    seen = [False] * len(chains)
    components: list[list[int]] = []
    for start in range(len(chains)):
        if seen[start]:
            continue
        comp = [start]
        seen[start] = True
        queue = deque([start])
        while queue:
            k = queue.popleft()
            for _, moved in stembridge_moves(chains[k], itv):
                m = key[moved.vertices]
                if not seen[m]:
                    seen[m] = True
                    comp.append(m)
                    queue.append(m)
        components.append(sorted(comp))
    return chains, components


def list_graph_to_json(graph: CrystalGraph) -> dict:
    """The graph export with every tableau copied into lists of lists and
    the edges read off ``graph.edges``: the reference for the text of
    ``graph_to_json``, which lists the graph's own tableau tuples."""
    return {
        "shape": list(graph.shape) if graph.shape else None,
        "n": graph.n,
        "vertices": [list(map(list, t)) for t in graph.vertices],
        "edges": [list(e) for e in graph.edges],
        "rank": list(graph.rank),
    }


def imported_mutants(g: CrystalGraph, seed: int, count: int):
    """Seeded ``graph_from_json`` mutants of g, 1-3 edges each deleted,
    recolored or retargeted, and their reverses, kept when they have a
    unique minimum and maximum."""
    rng = random.Random(seed)
    data = graph_to_json(g)
    for _ in range(count):
        edges = [list(e) for e in data["edges"]]
        for _ in range(rng.randint(1, 3)):
            k = rng.randrange(len(edges))
            kind = rng.randrange(3)
            if kind == 0:
                del edges[k]
            elif kind == 1:
                edges[k][2] = rng.randrange(1, g.n)
            else:
                edges[k][1] = rng.randrange(len(g))
        try:
            mutant = graph_from_json({**data, "edges": edges})
        except ValueError:
            continue
        for h in (mutant, mutant.reverse()):
            if h.minimum is not None and h.maximum is not None:
                yield h
