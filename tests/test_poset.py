"""Interval extraction, Mobius values, chains, moves, and witnesses."""

import copy
import dataclasses
import hashlib
import json
import random
import tracemalloc
from collections import Counter
from collections.abc import Mapping
from itertools import combinations

import pytest

import oracles
from crystalposets import poset, scenarios
from crystalposets.crystal import (
    CrystalGraph,
    GraphSizeError,
    apply_f,
    check_stembridge_axioms,
    generate,
    graph_from_json,
    graph_to_json,
    highest,
    local_structure,
    weight,
    _closure,
)
from crystalposets.keymap import (
    compute_keys,
    fiber,
    fiber_to_json,
    key_table_to_json,
    minimal_fiber_elements,
    shape_stabilizer,
)
from crystalposets.scenarios import DEFAULT_MATRIX
from crystalposets.poset import (
    ChainCapError,
    euler_mobius,
    free_interval,
    interval,
    interval_mobius,
    interval_to_json,
    minimal_upper_bounds,
    mobius_from,
    move_class_summary,
    move_classes_from,
    non_stembridge_witness,
    saturated_chains,
    stembridge_components,
)

BASE_BOTTOM = ((1, 1, 1, 2), (2, 3, 4))
BASE_TOP = ((1, 1, 2, 3), (3, 4, 4))


@pytest.fixture(scope="module")
def base_interval(g43):
    return interval(g43, g43.index[BASE_BOTTOM], g43.index[BASE_TOP])


def diamond_interval(graph):
    """Some rank-2 boolean interval in the graph."""
    for u in range(len(graph)):
        for i in sorted(graph.fwd[u]):
            for j in sorted(graph.fwd[u]):
                if i < j:
                    x = graph.fwd[graph.fwd[u][i]].get(j)
                    if x is not None and x == graph.fwd[graph.fwd[u][j]].get(i):
                        return interval(graph, u, x)
    raise AssertionError("no diamond found")


# -- extraction ---------------------------------------------------------------

def test_single_vertex_interval(g43):
    itv = interval(g43, 5, 5)
    assert len(itv) == 1 and itv.span == 0


def test_base_interval_shape(base_interval):
    assert len(base_interval) == 12
    assert base_interval.span == 4
    sizes = Counter(base_interval.rank)
    assert [sizes[r] for r in range(5)] == [1, 3, 4, 3, 1]
    assert base_interval.budget == {1: 1, 2: 2, 3: 1}


def test_interval_none_when_incomparable(g43):
    t = g43.index[((1, 1, 2, 2), (2, 3, 4))]
    s = g43.index[((1, 1, 1, 2), (3, 3, 4))]
    assert interval(g43, t, s) is None
    assert interval(g43, s, t) is None


def test_budgeted_extraction_matches_brute_force_everywhere(graphs):
    # the reversed views too: interval() orients the budget by the ranks
    for g in [h for g in graphs.values() for h in (g, g.reverse())]:
        assert len(g) <= 500
        for u in range(len(g)):
            upset = oracles.brute_upset(g, u)
            for v in range(len(g)):
                itv = interval(g, u, v)
                if v not in upset:
                    assert itv is None
                    continue
                members = upset & oracles.brute_downset(g, v)
                assert itv is not None
                ambient = [g.index[t] for t in itv.vertices]
                assert set(ambient) == members
                cover_set = {(ambient[a], ambient[b], i) for a, b, i in itv.edges}
                expected = {
                    (x, y, i)
                    for x in members
                    for i, y in g.fwd[x].items()
                    if y in members
                }
                assert cover_set == expected
                # local indices by (rank, tableau), edges sorted
                assert sorted(zip(itv.rank, itv.vertices)) == list(zip(itv.rank, itv.vertices))
                assert sorted(itv.edges) == list(itv.edges)


def test_interval_needs_covers_that_follow_the_weights(g21):
    # the budget counts the color-i covers of every chain only where each
    # color-i cover lowers the weight by alpha_i.  Recoloring the cover
    # 1 -2-> 3 of B((2,1),3) to 1 breaks that: 0 < 1 < 3, yet the budget of
    # (0, 3) asks for a color-2 cover, and the axiom checker rejects the graph
    data = graph_to_json(g21)
    assert data["edges"][2] == [1, 3, 2]
    data["edges"][2][2] = 1
    h = graph_from_json(data)
    assert oracles.brute_interval_vertices(h, 0, 3) == {0, 1, 3}
    assert interval(h, 0, 3) is None
    assert not check_stembridge_axioms(h)
    # every seeded imported mutant that passes the axioms gets the brute
    # force interval for every pair (these edits that pass undo themselves)
    passing = 0
    for key in (((2, 1), 3), ((3, 2), 4), ((2, 2), 4)):
        g = generate(*key)
        for seed in range(40):
            for h in oracles.imported_mutants(g, seed, 3):
                if not check_stembridge_axioms(h):
                    continue
                passing += 1
                downs = [oracles.brute_downset(h, v) for v in range(len(h))]
                for u in range(len(h)):
                    up = oracles.brute_upset(h, u)
                    for v in range(len(h)):
                        itv = interval(h, u, v)
                        got = set() if itv is None else {h.index[t] for t in itv.vertices}
                        assert got == up & downs[v]
    assert passing == 38
    # the checker reads the covers, not the tableaux: the tableaux of
    # B((2,1),3) shuffled among its vertices pass it, yet their weights no
    # longer follow the covers, and 315 of the 1,280 pairs of these 20
    # imports get None although comparable; none gets a wrong interval
    wrong = 0
    for seed in range(20):
        data = graph_to_json(g21)
        random.Random(seed).shuffle(data["vertices"])
        h = graph_from_json(data)
        assert h.vertices != g21.vertices and h.fwd == g21.fwd
        assert check_stembridge_axioms(h)
        for u in range(len(h)):
            up = oracles.brute_upset(h, u)
            for v in range(len(h)):
                itv = interval(h, u, v)
                if itv is None and up & oracles.brute_downset(h, v):
                    wrong += 1
                else:
                    got = set() if itv is None else {h.index[t] for t in itv.vertices}
                    assert got == up & oracles.brute_downset(h, v)
    assert wrong == 315


def _unbounded(u, v, n):
    """[u, v] from the budgeted search with no bound by v's entries."""
    budget = poset._color_budget(weight(u, n), weight(v, n))
    return None if budget is None else poset._extract(u, v, budget, apply_f, None)


def _extraction(itv):
    if itv is None:
        return None
    return itv.vertices, itv.edges, itv.fwd, itv.rank, itv.minimum, itv.maximum, itv.budget


def test_free_interval_agrees_with_graph_interval(graphs):
    """Every pair of the three smallest matrix graphs, comparable or not,
    and every lower and upper interval of B((4,3),4).  On those pairs, the
    s2 endpoints for n = 3..7 and the r=2 composite, the search bounded by
    v's entries extracts what the unbounded search does."""
    cases = []
    for key in (((2, 1), 3), ((3, 2), 4), ((2, 2), 4)):
        g = graphs[key]
        cases += [(g, u, v) for u in range(len(g)) for v in range(len(g))]
    g = graphs[((4, 3), 4)]
    cases += [(g, g.minimum, v) for v in range(len(g))]
    cases += [(g, u, g.maximum) for u in range(len(g))]
    incomparable = 0
    for g, u, v in cases:
        got = free_interval(g.vertices[u], g.vertices[v], g.n)
        assert _extraction(got) == _extraction(_unbounded(g.vertices[u], g.vertices[v], g.n))
        via_graph = interval(g, u, v)
        if via_graph is None:
            assert got is None
            incomparable += 1
            continue
        assert got.vertices == via_graph.vertices
        assert got.edges == via_graph.edges
        assert got.rank == via_graph.rank
        assert got.budget == via_graph.budget
        assert (got.minimum, got.maximum) == (via_graph.minimum, via_graph.maximum)
        assert got.index == via_graph.index
    assert incomparable == 37 + 2777 + 240
    endpoints = [(*scenarios._two_row_endpoints(n), n + 1) for n in range(3, 8)]
    endpoints.append(scenarios._composite_endpoints(2))
    for u, v, n in endpoints:
        got = free_interval(u, v, n)
        assert got is not None
        assert _extraction(got) == _extraction(_unbounded(u, v, n))
    # two shapes lie in two crystals, and v has no cell (1, 0) to bound by
    assert free_interval(((1, 1), (2,)), ((1, 3, 3),), 3) is None
    assert _unbounded(((1, 1), (2,)), ((1, 3, 3),), 3) is None


def test_interval_vertex_cap(g43, monkeypatch):
    # the search through g43 explores the 15 vertices above the base bottom
    # whose color counts stay within the budget; the search bounded by the
    # base top's entries explores the 14 of them that it dominates cell by
    # cell; 12 are kept either way
    u, v = g43.index[BASE_BOTTOM], g43.index[BASE_TOP]
    wt = [weight(t, 4) for t in g43.vertices]
    budget = poset._color_budget(wt[u], wt[v])

    def within_budget(x):
        used = poset._color_budget(wt[u], wt[x])
        return all(used[i] <= budget[i] for i in budget)

    def dominated(x):
        cells = zip(g43.vertices[x], BASE_TOP)
        return all(a <= b for row, top in cells for a, b in zip(row, top))

    upset = oracles.brute_upset(g43, u)
    assert sum(map(within_budget, upset)) == 15
    assert sum(map(dominated, upset)) == 14
    monkeypatch.setattr(poset, "DEFAULT_VERTEX_CAP", 15)
    assert len(interval(g43, u, v)) == 12
    monkeypatch.setattr(poset, "DEFAULT_VERTEX_CAP", 14)
    assert len(free_interval(BASE_BOTTOM, BASE_TOP, 4)) == 12
    with pytest.raises(GraphSizeError):
        interval(g43, u, v)
    monkeypatch.setattr(poset, "DEFAULT_VERTEX_CAP", 13)
    with pytest.raises(GraphSizeError):
        free_interval(BASE_BOTTOM, BASE_TOP, 4)
    # s2[n=6]: the bounded search explores 454 tableaux, the unbounded 952
    bottom, top = scenarios._two_row_endpoints(6)
    monkeypatch.setattr(poset, "DEFAULT_VERTEX_CAP", 454)
    assert len(free_interval(bottom, top, 7)) == 258
    with pytest.raises(GraphSizeError):
        _unbounded(bottom, top, 7)
    monkeypatch.setattr(poset, "DEFAULT_VERTEX_CAP", 453)
    with pytest.raises(GraphSizeError):
        free_interval(bottom, top, 7)


def test_interval_slot_cap(monkeypatch):
    # each searched id keeps one budget entry per budgeted color, so the
    # vertex limit is SLOT_CAP // colors: the one-row interval [1, n] has
    # n - 1 colors and n vertices, and a budget whose chain alone passes
    # the limit is refused before the search
    def one_row(n):
        return free_interval(((1,),), ((n,),), n)

    monkeypatch.setattr(poset, "SLOT_CAP", 40 * 39)
    assert len(one_row(40)) == 40
    monkeypatch.setattr(poset, "SLOT_CAP", 40 * 39 - 1)
    with pytest.raises(GraphSizeError, match="cap 39 exceeded: a chain of 39 covers"):
        one_row(40)
    # the base interval: 3 budgeted colors, span 4, 14 ids searched
    monkeypatch.setattr(poset, "SLOT_CAP", 14 * 3)
    assert len(free_interval(BASE_BOTTOM, BASE_TOP, 4)) == 12
    monkeypatch.setattr(poset, "SLOT_CAP", 14 * 3 - 1)
    with pytest.raises(GraphSizeError, match=r"cap 13 exceeded \(3 budgeted colors\)"):
        free_interval(BASE_BOTTOM, BASE_TOP, 4)
    # the limit never passes DEFAULT_VERTEX_CAP, which test_interval_vertex_cap pins
    monkeypatch.setattr(poset, "SLOT_CAP", 10**12)
    monkeypatch.setattr(poset, "DEFAULT_VERTEX_CAP", 13)
    with pytest.raises(GraphSizeError, match="cap 13 exceeded"):
        free_interval(BASE_BOTTOM, BASE_TOP, 4)
    # at the shipped cap, one-row [1, n] is admitted up to n = 3,162
    # (limit 10^7 // 3,161 = 3,163) and refused at once past it
    monkeypatch.undo()
    with pytest.raises(GraphSizeError, match="cap 3162 exceeded: a chain of 3162 covers"):
        one_row(3163)


def test_free_interval_rejects_n_outside_the_vertex_cap():
    # every weight and budget has n entries: an n out of range is a
    # ValueError before any is built, not an OverflowError or a huge list
    for n in (0, poset.DEFAULT_VERTEX_CAP + 1, 10**19):
        with pytest.raises(ValueError, match="n must lie in"):
            free_interval(((1,),), ((2,),), n)
    assert len(free_interval(((1,),), ((2,),), 2)) == 2


def test_free_interval_rejects_entries_outside_1_to_n():
    # the letter 0 once weighed as the letter n through negative indexing
    for u, v in ((((0, 1),), ((1, 2),)), (((1, 2),), ((1, 4),))):
        with pytest.raises(ValueError, match="outside 1..3"):
            free_interval(u, v, 3)


# -- Mobius -------------------------------------------------------------------

def test_mobius_trivial_cases(g43):
    assert interval_mobius(interval(g43, 7, 7)) == 1
    for u in range(len(g43)):
        for i, v in g43.fwd[u].items():
            assert interval_mobius(interval(g43, u, v)) == -1
            break


def test_mobius_base_interval(base_interval):
    assert interval_mobius(base_interval) == 2
    assert interval_mobius(free_interval(BASE_BOTTOM, BASE_TOP, 4)) == 2


def test_mobius_beyond_unit_values_matches_the_brute_recursion():
    # the base interval and the r = 2 and r = 3 composites reach mu = 2, 4
    # and 8, values that _mobius_upset sums bit by bit past its +1 and -1
    # masks.  From the bottom and from seeded sources every vertex agrees
    # with oracles.brute_mobius_from (the defining recursion, one memo),
    # which agrees with brute_mobius at every vertex for r <= 2 and at the
    # top and a sample for r = 3
    rng = random.Random(33)
    for r in (1, 2, 3):
        bottom, top, n = scenarios._composite_endpoints(r)
        itv = free_interval(bottom, top, n)
        sources = [itv.minimum, *rng.sample(range(len(itv)), 3)]
        for s in sources:
            mu = mobius_from(itv, s)
            assert mu == oracles.brute_mobius_from(itv, s)
            above = oracles.brute_upset(itv, s)
            checked = range(len(itv)) if r < 3 else [itv.maximum, *rng.sample(sorted(above), 4)]
            for z in checked:
                assert mu[z] == (oracles.brute_mobius(itv, s, z) if z in above else 0)
        mu = mobius_from(itv, itv.minimum)
        assert mu[itv.maximum] == max(mu) == 2**r


def test_euler_trivial_cases(g43):
    u = g43.minimum
    v = g43.fwd[u][1]
    assert euler_mobius(interval(g43, u, v)) == -1
    assert euler_mobius(diamond_interval(g43)) == 1


def test_euler_base_interval(base_interval):
    assert euler_mobius(base_interval) == 2


def test_mobius_equals_euler_exhaustively_on_small_crystal(graphs):
    # every interval of B((2,1),3), B((2,2),4) and B((3,2),4): 1,010 in all
    for key in (((2, 1), 3), ((2, 2), 4), ((3, 2), 4)):
        g = graphs[key]
        for u in range(len(g)):
            for v in oracles.brute_upset(g, u):
                itv = interval(g, u, v)
                if u != v:
                    assert interval_mobius(itv) == euler_mobius(itv)
                assert interval_mobius(itv) == oracles.brute_mobius(g, u, v)


def test_euler_needs_positive_span(g21):
    with pytest.raises(ValueError):
        euler_mobius(interval(g21, 0, 0))


def test_euler_vertex_cap(monkeypatch, base_interval):
    # B((5,3),5) has 1,260 vertices
    g = generate((5, 3), 5)
    with pytest.raises(GraphSizeError):
        euler_mobius(interval(g, g.minimum, g.maximum))
    # the base interval has 12 vertices
    monkeypatch.setattr(poset, "EULER_VERTEX_CAP", 12)
    assert euler_mobius(base_interval) == 2
    monkeypatch.setattr(poset, "EULER_VERTEX_CAP", 11)
    with pytest.raises(GraphSizeError):
        euler_mobius(base_interval)


@pytest.mark.parametrize("key", [((3, 2), 4), ((4, 3), 4), ((2, 2), 4)])
def test_mobius_equals_euler_on_random_intervals(graphs, key):
    g = graphs[key]
    seed = 100 * key[0][0] + 10 * key[0][1] + key[1]
    pairs = oracles.comparable_pairs_sample(g, 200, seed=seed)
    assert len(pairs) == 200
    for u, v in pairs:
        itv = interval(g, u, v)
        assert interval_mobius(itv) == euler_mobius(itv)


@pytest.mark.parametrize("key", DEFAULT_MATRIX)
def test_lower_mobius_all_matches_pointwise(graphs, key):
    g = graphs[key]
    mu = poset.lower_mobius_all(g)
    for v in sorted(oracles.brute_upset(g, g.minimum))[:20]:
        assert mu[v] == oracles.brute_mobius(g, g.minimum, v)
    # one pass from any source, on the graph and on its dual
    for h in (g, g.reverse()):
        for u in range(len(h)):
            upset = oracles.brute_upset(h, u)
            got = mobius_from(h, u)
            for z in range(len(h)):
                assert got[z] == (oracles.brute_mobius(h, u, z) if z in upset else 0)


class _ReadLog(Mapping):
    """The covers of one vertex, logging that vertex whenever they are read."""

    def __init__(self, covers, vertex, log):
        self.covers, self.vertex, self.log = covers, vertex, log

    def __getitem__(self, i):
        self.log.add(self.vertex)
        return self.covers[i]

    def __iter__(self):
        self.log.add(self.vertex)
        return iter(self.covers)

    def __len__(self):
        self.log.add(self.vertex)
        return len(self.covers)


def test_mobius_from_reads_only_the_upset(g43):
    # a pass from a mid-rank source reads the covers of its up-set and of no
    # other vertex, on the graph and on its dual
    for h in (g43, g43.reverse()):
        source = h.rank.index(h.span // 2)
        upset = oracles.brute_upset(h, source)
        assert len(upset) < len(h)
        read = set()
        # a shallow copy: dataclasses.replace would invert the logged fwd
        # again, reading every vertex
        logged = copy.copy(h)
        logged.fwd = tuple(_ReadLog(c, v, read) for v, c in enumerate(h.fwd))
        logged.bwd = tuple(_ReadLog(c, v, read) for v, c in enumerate(h.bwd))
        assert mobius_from(logged, source) == mobius_from(h, source)
        assert read == upset


def test_upset_lists_the_brute_upset_in_rank_order(graphs):
    # the one up-set walk: from every source of every matrix crystal and its
    # dual, each vertex of the brute-force up-set once, the source first and
    # the ranks never falling, so each vertex follows its lower covers there
    for g in graphs.values():
        for h in (g, g.reverse()):
            for source in range(len(h)):
                up = poset._upset(h, source)
                assert up[0] == source and len(set(up)) == len(up)
                assert set(up) == oracles.brute_upset(h, source)
                ranks = [h.rank[x] for x in up]
                assert ranks == sorted(ranks)


@pytest.mark.parametrize("key", DEFAULT_MATRIX)
def test_interval_duals(graphs, key):
    g = graphs[key]
    rev = g.reverse()
    pairs = oracles.comparable_pairs_sample(g, 50, seed=len(g))
    if key == ((4, 3), 4):
        pairs.append((g.index[BASE_BOTTOM], g.index[BASE_TOP]))
    for u, v in pairs:
        itv = interval(g, u, v)
        dual = interval(rev, v, u)
        assert interval_mobius(itv.reverse()) == interval_mobius(itv)
        assert interval_mobius(dual) == interval_mobius(itv)
        assert {rev.index[t] for t in dual.vertices} == {g.index[t] for t in itv.vertices}


# -- chains and moves ---------------------------------------------------------

def test_chain_interval_has_one_chain(g43):
    # the color-2 string from the minimum has three steps; its interval is
    # a bare chain
    u = g43.minimum
    v = u
    for _ in range(3):
        v = g43.fwd[v][2]
    itv = interval(g43, u, v)
    assert len(itv) == 4 and itv.span == 3
    chains = saturated_chains(itv)
    assert chains == [(2, 2, 2)]


def test_base_interval_chain_labels(base_interval):
    chains = saturated_chains(base_interval)
    assert len(chains) == 4
    for c in chains:
        assert sorted(c) == [1, 2, 2, 3]
        assert Counter(c) == Counter(
            {i: m for i, m in base_interval.budget.items() if m}
        )


def test_all_chains_share_budget_multiset(graphs):
    import random

    rng = random.Random(11)
    for g in graphs.values():
        for u, v in oracles.comparable_pairs_sample(g, 25, seed=rng.randrange(9999)):
            itv = interval(g, u, v)
            for c in saturated_chains(itv, cap=100_000):
                assert Counter(c) == Counter(
                    {i: m for i, m in itv.budget.items() if m}
                )


def test_chain_cap(base_interval):
    with pytest.raises(ChainCapError):
        saturated_chains(base_interval, cap=2)


def test_moves_on_diamond(g43):
    itv = diamond_interval(g43)
    chains = oracles.brute_chain_paths(itv)
    assert [labels for _, labels in chains] == saturated_chains(itv)
    assert len(chains) == 2
    moves = oracles.stembridge_moves(chains[0], itv)
    assert len(moves) == 1
    pos, moved = moves[0]
    assert pos == 0 and moved == chains[1]
    back = oracles.stembridge_moves(moved, itv)
    assert back == [(0, chains[0])]


def test_move_involution_and_symmetry(base_interval):
    for chain in oracles.brute_chain_paths(base_interval):
        for pos, moved in oracles.stembridge_moves(chain, base_interval):
            assert (pos, chain) in oracles.stembridge_moves(moved, base_interval)


def test_hexagon_move(g43):
    # bottom of B((4,3),4): the degree-4 relation for colors 1,2 gives the
    # (1,2,2,1) <-> (2,1,1,2) swap on the interval up to the hexagon top
    u = g43.index[((1, 1, 1, 2), (2, 3, 4))]
    top = g43.index[((1, 2, 2, 3), (3, 3, 4))]
    itv = interval(g43, u, top)
    by_labels = {c[1]: c for c in oracles.brute_chain_paths(itv)}
    first = by_labels[(1, 2, 2, 1)]
    moved = dict(oracles.stembridge_moves(first, itv))
    assert 0 in moved and moved[0][1] == (2, 1, 1, 2)


def test_components_of_base_interval(base_interval):
    chains, comps = stembridge_components(base_interval)
    assert len(comps) >= 2
    assert sorted(len(c) for c in comps) == [1, 1, 2]
    of = {chains[k]: ci for ci, comp in enumerate(comps) for k in comp}
    assert of[(1, 2, 2, 3)] != of[(3, 2, 2, 1)]


def test_lower_intervals_connected_sample(g32):
    for v in range(len(g32)):
        itv = interval(g32, g32.minimum, v)
        _, comps = stembridge_components(itv)
        assert len(comps) == 1


SMALL_MATRIX = (((2, 1), 3), ((3, 2), 4), ((2, 2), 4))  # the three smallest matrix graphs


def _move_class_cases(graphs):
    """(graph, sources): every source of the three smallest matrix graphs,
    and the minimum of B((4,3),4) and of every matrix graph's reverse."""
    for key in DEFAULT_MATRIX:
        g = graphs[key]
        yield g, range(len(g)) if key in SMALL_MATRIX else [g.minimum]
        h = g.reverse()
        yield h, [h.minimum]


def _check_summary(itv, brute):
    """move_class_summary against a brute-force result, whose chains are
    sorted by labels and components by first chain; and its chain cap."""
    chains, components = brute
    expected = [(len(comp), chains[comp[0]]) for comp in components]
    assert move_class_summary(itv, len(chains)) == expected
    with pytest.raises(ChainCapError, match=f"^chain cap {len(chains) - 1} exceeded$"):
        move_class_summary(itv, len(chains) - 1)


def test_components_match_brute_force_on_every_interval(graphs):
    for g, sources in _move_class_cases(graphs):
        for u in sources:
            upset = oracles.brute_upset(g, u)
            counts = move_classes_from(g, u)
            for v in range(len(g)):
                if v not in upset:
                    assert counts[v] == 0
                    continue
                itv = interval(g, u, v)
                expected = oracles.brute_move_components(itv)
                chains = expected[0]  # from oracles.brute_saturated_chains
                assert saturated_chains(itv, cap=len(chains)) == chains
                with pytest.raises(ChainCapError):
                    saturated_chains(itv, cap=len(chains) - 1)
                assert stembridge_components(itv) == expected
                _check_summary(itv, expected)
                assert counts[v] == len(expected[1])


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_components_match_brute_force_on_two_row_intervals(n):
    itv = free_interval(*scenarios._two_row_endpoints(n), n + 1)
    expected = oracles.brute_move_components(itv)
    assert len(expected[1]) >= 2
    assert stembridge_components(itv) == expected
    _check_summary(itv, expected)
    assert move_classes_from(itv, itv.minimum)[itv.maximum] == len(expected[1])


FREE_CASES = (((4, 3), 5), ((3, 2, 1), 5), ((5, 4), 6), ((4, 2, 1), 6))


def _random_f_walk(rng, x, n, steps):
    """Up to ``steps`` covers from x, each uniform among the colors whose f
    applies."""
    for _ in range(steps):
        ups = [y for i in range(1, n) if (y := apply_f(x, i)) is not None]
        if not ups:
            break
        x = rng.choice(ups)
    return x


def test_chain_layer_matches_brute_force_on_free_intervals():
    # seeds 0..119: 33,475 chains, up to 12,090 in one interval; 4 intervals
    # have two components
    multi = 0
    for seed in range(120):
        rng = random.Random(seed)
        shape, n = FREE_CASES[seed % len(FREE_CASES)]
        u = _random_f_walk(rng, highest(shape, n), n, rng.randint(4, 24))
        itv = free_interval(u, _random_f_walk(rng, u, n, rng.randint(4, 10)), n)
        expected = oracles.brute_move_components(itv)
        chains, components = expected
        assert stembridge_components(itv) == expected
        _check_summary(itv, expected)
        assert saturated_chains(itv) == chains
        assert move_classes_from(itv, itv.minimum)[itv.maximum] == len(components)
        with pytest.raises(ChainCapError):
            saturated_chains(itv, cap=len(chains) - 1)
        multi += len(components) >= 2
    assert multi == 4


CORPUS_CASES = FREE_CASES + (((6, 5), 7), ((3, 3, 2), 7), ((7, 6), 8), ((4, 3, 2, 1), 8))


def _corpus_intervals(count):
    """The ``count`` seeded free intervals of the query corpus: u is a walk
    of 0..20 covers above the highest tableau and v 2..8 more above u."""
    rng = random.Random(3)
    for q in range(count):
        shape, n = CORPUS_CASES[q % len(CORPUS_CASES)]
        u = _random_f_walk(rng, highest(shape, n), n, rng.randint(0, 20))
        yield free_interval(u, _random_f_walk(rng, u, n, rng.randint(2, 8)), n)


def _walk(itv, labels):
    """The vertex path of the chain with these labels, walked up ``fwd``
    from the bottom."""
    path = [itv.minimum]
    for i in labels:
        path.append(itv.fwd[path[-1]][i])
    return tuple(path)


def _query_corpus(count):
    """sha256 over ``count`` seeded queries of the library path: each
    interval's export and its lower covers in stored order, mu, each chain
    as its vertex path (walked from its labels by :func:`_walk`) and its
    labels, and the components; plus the total chain count and the number of
    queries with two or more components (see :func:`_corpus_intervals`)."""
    digest = hashlib.sha256()
    chains_total = multi = 0
    for itv in _corpus_intervals(count):
        mu = interval_mobius(itv)
        chains, components = stembridge_components(itv)
        record = [
            interval_to_json(itv), [list(covers.items()) for covers in itv.bwd], mu,
            [[_walk(itv, c), c] for c in chains], components,
        ]
        digest.update(json.dumps(record, sort_keys=True).encode())
        chains_total += len(chains)
        multi += len(components) >= 2
    return digest.hexdigest(), chains_total, multi


# recorded from the library before extraction moved to integer ids, f_i to
# row runs and the move-class pass to its one-class path
CORPUS_DIGEST = "0ea8515bffeda2dd04e83afbad29a587577786a760254b114b27a1bdfaac4f0a"


def test_recorded_query_corpus():
    # 400 queries: 28,414 chains, 8 queries with two or more components
    assert _query_corpus(400) == (CORPUS_DIGEST, 28414, 8)


def test_class_walk_groups_the_chains_as_the_components():
    # the class_of walk that s2 reads is the walk stembridge_components
    # groups its chains by: on the 400 corpus intervals, 8 of whose tops
    # have two or more classes, it puts each chain in its component, and
    # labels that end below the top or leave the covers get None
    multi = 0
    for itv in _corpus_intervals(400):
        chains, components = stembridge_components(itv)
        classes, class_of = poset._class_summaries(itv, poset.DEFAULT_CHAIN_CAP)
        members = {}
        for k, chain in enumerate(chains):
            members.setdefault(class_of(chain), []).append(k)
        assert sorted(members) == list(range(len(classes)))
        assert sorted(members.values()) == components
        if itv.span:  # a walk can stop at the lowest tableau
            assert class_of(chains[0][:-1]) is None
            assert class_of((itv.n, *chains[0][1:])) is None
        multi += len(components) >= 2
    assert multi == 8


def test_query_path_builds_no_index():
    # nothing on the query path looks a tableau up in an interval, so its
    # index is built only when first read, and is then the vertex order
    for itv in _corpus_intervals(400):
        interval_mobius(itv)
        stembridge_components(itv)
        assert "index" not in vars(itv)
        assert itv.index == {t: k for k, t in enumerate(itv.vertices)}
        assert vars(itv)["index"] is itv.index


def test_ends_match_the_corpora():
    # the type's ends are the bottom and top of each corpus interval, and
    # the only vertex with no cover below or above it in each mutant
    for itv in _corpus_intervals(400):
        assert (itv.minimum, itv.maximum) == (0, len(itv) - 1)
    checked = 0
    for seed, (shape, n) in enumerate(WHOLE_CASES[:-1]):
        for h in oracles.imported_mutants(generate(shape, n), seed, 40):
            sources = [v for v in range(len(h)) if not h.bwd[v]]
            sinks = [v for v in range(len(h)) if not h.fwd[v]]
            assert [h.minimum] == sources and [h.maximum] == sinks
            checked += 1
    assert checked == 94


WHOLE_CASES = (
    ((2, 1), 3), ((3, 2), 4), ((4, 3), 4), ((2, 2), 4), ((3, 1), 5), ((3, 2, 1), 4), ((5, 4), 6),
)


def _whole_graph_corpus(mutants):
    """sha256 over the public outputs of the whole-graph kernels on each
    crystal of ``WHOLE_CASES`` and its reverse: the move-class counts from
    the minimum, lower mu, the key table, the minimal fiber elements and,
    below 1,000 vertices, every key fiber; then the axiom reports on
    ``mutants`` seeded imported mutants of each crystal below 1,000
    vertices.  Also returns the fiber count, the mutant count and the
    number of mutants that fail the axioms."""
    digest = hashlib.sha256()
    fibers = checked = failed = 0
    small = []
    for shape, n in WHOLE_CASES:
        g = generate(shape, n)
        if len(g) < 1000:
            small.append(g)
        for h in (g, g.reverse()):
            table = compute_keys(h)
            minima = minimal_fiber_elements(h, table)
            keys = sorted(table.fibers) if len(h) < 1000 else []
            fibs = [fiber_to_json(fiber(h, table, w)) for w in keys]
            record = [
                move_classes_from(h, h.minimum), poset.lower_mobius_all(h),
                key_table_to_json(table), sorted([sorted(sub), v] for sub, v in minima.items()),
                fibs,
            ]
            digest.update(json.dumps(record, sort_keys=True).encode())
            fibers += len(fibs)
    for seed, g in enumerate(small):
        for h in oracles.imported_mutants(g, seed, mutants):
            report = check_stembridge_axioms(h)
            digest.update(json.dumps(dataclasses.asdict(report), sort_keys=True).encode())
            checked += 1
            failed += not report.passed
    return digest.hexdigest(), fibers, checked, failed


# recorded from the library before key fibers dropped their relation list
WHOLE_CORPUS_DIGEST = "2e4eb43450d060e1660f0bb3a8700779441f7439b92fe0c0f2de7d5b56b82621"


def test_recorded_whole_graph_corpus():
    # 160 fibers; 94 imported mutants with both ends, 70 failing the axioms
    assert _whole_graph_corpus(40) == (WHOLE_CORPUS_DIGEST, 160, 94, 70)


def _union_find_vertices(graph, count):
    """The vertices whose classes the union-find branch of the move-class
    pass merges: two or more lower covers with chains, one of them carrying
    two or more classes."""
    return [
        z for z in range(len(graph))
        if sum(count[a] > 0 for a in graph.bwd[z].values()) >= 2
        and any(count[a] >= 2 for a in graph.bwd[z].values())
    ]


@pytest.mark.parametrize("n", [4, 5, 6])
def test_union_find_branch_matches_brute_force(n):
    # the two-row intervals for n >= 4 have such vertices (for n = 3, the
    # base interval, every lower cover of every vertex has one class)
    itv = free_interval(*scenarios._two_row_endpoints(n), n + 1)
    count = move_classes_from(itv, itv.minimum)
    multi = _union_find_vertices(itv, count)
    assert multi
    for z in multi:
        below = interval(itv, itv.minimum, z)
        assert count[z] == len(oracles.brute_move_components(below)[1])


def test_class_ids_number_in_cover_order(g32):
    # at every vertex both branches of the move-class pass number the
    # classes by first appearance along the lower covers in stored order
    cases = [(g32, u) for u in range(len(g32))]
    for n in (3, 4, 5):
        itv = free_interval(*scenarios._two_row_endpoints(n), n + 1)
        cases.append((itv, itv.minimum))
    for graph, source in cases:
        count, carry = poset._move_classes(graph, source)
        for z in range(len(graph)):
            ids = [c for a in graph.bwd[z].values() for c in carry[z].get(a, ())]
            assert list(dict.fromkeys(ids)) == list(range(count[z] if z != source else 0))


def test_union_find_branch_merges_along_hexagons(g32):
    # in the two-row intervals, dropping that branch's hexagon merges
    # changes no count; in B((3,2),4) some union-find vertices have a pair
    # of lower covers that closes only as a hexagon, and dropping them does
    hexagons = 0
    for u in range(len(g32)):
        count = move_classes_from(g32, u)
        for z in _union_find_vertices(g32, count):
            assert count[z] == len(oracles.brute_move_components(interval(g32, u, z))[1])
            hexagons += any(
                _closure(g32.bwd, z, i, j, 2) is None
                and (hexagon := _closure(g32.bwd, z, i, j, 4)) is not None
                and count[hexagon[0][4]] > 0
                for i, j in combinations(g32.bwd[z], 2)
            )
    assert hexagons


def test_move_classes_match_brute_force_on_imported_mutants():
    # the move-class pass on graphs no crystal generates, with squares and
    # hexagons broken or misplaced; mutants with two edges a -> b are
    # rejected at import, as the pass keys its class records by lower cover
    cases = multi = 0
    for seed, key in enumerate((((2, 1), 3), ((2, 1), 4), ((2, 2), 4), ((3, 1), 4))):
        for h in oracles.imported_mutants(generate(*key), seed, 450):
            expected = oracles.brute_move_components(h)
            assert stembridge_components(h) == expected
            _check_summary(h, expected)
            assert move_classes_from(h, h.minimum)[h.maximum] == len(expected[1])
            cases += 1
            multi += len(expected[1]) >= 2
    assert (cases, multi) == (558, 270)


def test_move_class_cap(monkeypatch):
    # s2[n=5]: 374 chains in 9 classes; the pass allocates 213 class records
    itv = free_interval(*scenarios._two_row_endpoints(5), 6)
    monkeypatch.setattr(poset, "MOVE_CLASS_CAP", 213)
    assert move_classes_from(itv, itv.minimum)[itv.maximum] == 9
    monkeypatch.setattr(poset, "MOVE_CLASS_CAP", 212)
    with pytest.raises(ChainCapError):
        move_classes_from(itv, itv.minimum)
    with pytest.raises(ChainCapError):
        stembridge_components(itv)
    assert len(saturated_chains(itv)) == 374  # the chain list runs no class pass
    with pytest.raises(ChainCapError, match="move-class record cap"):
        move_class_summary(itv, 374)


def test_refused_chain_cap_builds_no_chain():
    # s2[n=5]: 374 chains; the cap is checked before the first prefix, suffix
    # or chain is built.  The lister reads each vertex's covers by
    # ``items()`` once, after the count check, and nothing else on the chain
    # paths calls it, so counting those calls shows whether listing began
    calls = []

    class Covers(dict):
        def items(self):
            calls.append(1)
            return super().items()

    itv = free_interval(*scenarios._two_row_endpoints(5), 6)
    itv.fwd = tuple(map(Covers, itv.fwd))
    for call in (saturated_chains, stembridge_components):
        with pytest.raises(ChainCapError, match="^chain cap 373 exceeded$"):
            call(itv, cap=373)
        assert calls == []
    assert len(saturated_chains(itv, cap=374)) == 374 and len(calls) == len(itv)
    calls.clear()
    chains, components = stembridge_components(itv, cap=374)
    assert len(chains) == 374 and len(components) == 9 and len(calls) == len(itv)


def _five_chain_graph():
    """Span 2 with 5 chains, built directly: a bottom with five covers of
    colors 1..5, each atom covered by the top in its own color 6..10, so
    n = 11.  Its budget claims one cover each of colors 1 and 2, which the
    type does not check: a bound from span! (2) or from the budget's
    multinomial (2) would let 5 chains through a cap of 4."""
    fwd = [{i: i for i in range(1, 6)}, *({i + 5: 6} for i in range(1, 6)), {}]
    return CrystalGraph(
        shape=None, n=11, vertices=tuple(((k + 1,),) for k in range(7)),
        rank=(0, 1, 1, 1, 1, 1, 2), fwd=tuple(fwd), budget={1: 1, 2: 1},
    )


def test_chain_cap_bound_holds_on_any_graph():
    # the count is skipped only where the largest out-degree to the power
    # of the span clears the cap: 5^2 = 25 does not clear 4 or 5
    g = _five_chain_graph()
    for call in (saturated_chains, stembridge_components):
        with pytest.raises(ChainCapError, match="^chain cap 4 exceeded$"):
            call(g, cap=4)
    chains = saturated_chains(g, cap=5)
    assert chains == oracles.brute_saturated_chains(g) and len(chains) == 5
    assert stembridge_components(g, cap=5) == oracles.brute_move_components(g)
    one = CrystalGraph(shape=None, n=2, vertices=(((1,),),), rank=(0,), fwd=({},))
    assert (one.minimum, one.maximum) == (0, 0)
    with pytest.raises(ChainCapError, match="^chain cap 0 exceeded$"):
        saturated_chains(one, cap=0)
    assert saturated_chains(one, cap=1) == [()]


def test_saturated_chains_are_label_words(base_interval):
    # a chain is the plain tuple of its cover colors; walking them up the
    # covers from the bottom ends at the top
    chains = saturated_chains(base_interval)
    assert chains == [(1, 2, 2, 3), (2, 1, 3, 2), (2, 3, 1, 2), (3, 2, 2, 1)]
    assert all(type(c) is tuple and all(type(i) is int for i in c) for c in chains)
    assert len(set(chains)) == 4
    paths = [_walk(base_interval, c) for c in chains]
    assert len(set(paths)) == 4
    assert all(p[-1] == base_interval.maximum and len(p) == 5 for p in paths)
    assert stembridge_components(base_interval)[0] == chains


def test_label_words_retrace_the_oracle_paths(graphs):
    # on every interval of the three smallest matrix crystals and on the 400
    # corpus intervals, each chain's labels walk up the covers from the
    # bottom along the oracle's vertex path for that chain, to the top:
    # 1,010 intervals with 5,917 chains, and 400 with 28,414
    cases = [
        interval(g, u, v)
        for g in map(graphs.__getitem__, SMALL_MATRIX)
        for u in range(len(g))
        for v in sorted(oracles.brute_upset(g, u))
    ]
    cases += _corpus_intervals(400)
    chains = 0
    for itv in cases:
        walked = [_walk(itv, c) for c in saturated_chains(itv)]
        assert walked == [path for path, _ in oracles.brute_chain_paths(itv)]
        assert all(path[-1] == itv.maximum for path in walked)
        chains += len(walked)
    assert (len(cases), chains) == (1410, 5917 + 28414)


@pytest.mark.parametrize("call", [saturated_chains, stembridge_components])
def test_refused_chain_cap_stays_small(call):
    # the r = 3 composite: 1,728 vertices and 2,217,600 chains; the count
    # comes before any prefix or suffix list, so a refusal at either cap
    # traces well under the 9-17 MiB that growing those lists to the cap
    # takes
    itv = free_interval(*scenarios._composite_endpoints(3)[:2], 12)
    assert len(itv) == 1728
    for cap in (10**4, 10**5):
        tracemalloc.start()
        try:
            with pytest.raises(ChainCapError, match=f"^chain cap {cap} exceeded$"):
                call(itv, cap=cap)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20


def test_listed_chains_hold_labels_alone():
    # s2[n=7]: 323,823 chains of span 12.  Each is its label tuple, about
    # 146 B, so listing peaks near 47 MiB; a vertex tuple beside each,
    # wrapped in a record, peaked at 112 MiB
    itv = free_interval(*scenarios._two_row_endpoints(7), 8)
    tracemalloc.start()
    try:
        chains = saturated_chains(itv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(chains) == 323823
    assert peak < 64 << 20


def _split_case(case):
    """A free interval of B((3,2,1),5) of the given span, 3 covers above
    the highest tableau; "reversed" is the span-9 one reversed, and
    "mutant" an imported mutant of B((3,1),4) of span 10 with two classes."""
    if case == "reversed":
        return _split_case(9).reverse()
    if case == "mutant":
        return next(oracles.imported_mutants(generate((3, 1), 4), 3, 450))
    rng = random.Random(case)
    u = _random_f_walk(rng, highest((3, 2, 1), 5), 5, 3)
    itv = free_interval(u, _random_f_walk(rng, u, 5, case), 5)
    assert itv.span == case
    return itv


@pytest.mark.parametrize("case", [*range(12), "reversed", "mutant"])
def test_chain_split_at_every_span(case):
    # spans 0..3 list whole prefixes; from 4 on, prefixes meet suffix lists
    # at the middle rank
    itv = _split_case(case)
    expected = oracles.brute_move_components(itv)
    assert saturated_chains(itv) == expected[0]
    assert stembridge_components(itv) == expected
    if case == "mutant":
        assert (itv.span, len(expected[0]), len(expected[1])) == (10, 100, 2)


def test_chain_layer_needs_a_unique_minimum_and_maximum():
    # an import with covers 0 -> 1 and 0 -> 2 has two maximal vertices, and
    # its reverse two minimal ones
    g = graph_from_json(
        {"shape": [1], "n": 3, "vertices": [[[1]], [[2]], [[3]]],
         "edges": [[0, 1, 1], [0, 2, 2]]}
    )
    calls = (
        saturated_chains, stembridge_components, interval_mobius, euler_mobius,
        lambda h: move_class_summary(h, 10),
    )
    for h, missing in ((g, "maximum"), (g.reverse(), "minimum")):
        for call in calls:
            with pytest.raises(ValueError, match=f"^graph has no unique {missing}$"):
                call(h)
    # the whole-graph kernels that start from the minimum need only that end
    for call in (poset.lower_mobius_all, compute_keys, shape_stabilizer):
        call(g)
        with pytest.raises(ValueError, match="^graph has no unique minimum$"):
            call(g.reverse())


def test_components_cap_bounds_chains_only(base_interval):
    # the 4 chains of the base interval need more than 4 class records
    chains, components = stembridge_components(base_interval, cap=4)
    assert len(chains) == 4 and len(components) == 3
    with pytest.raises(ChainCapError):
        stembridge_components(base_interval, cap=3)


# -- upper bounds and witnesses ----------------------------------------------

def test_minimal_upper_bounds_comparable_pair(g43):
    u = g43.minimum
    v = g43.fwd[u][2]
    assert minimal_upper_bounds(g43, u, v) == [v]


def test_minimal_upper_bounds_non_lattice_pair(g43):
    t = g43.index[((1, 1, 2, 2), (2, 3, 4))]
    s = g43.index[((1, 1, 1, 2), (3, 3, 4))]
    mubs = minimal_upper_bounds(g43, t, s)
    assert g43.index[BASE_TOP] in mubs
    assert g43.index[((1, 2, 2, 3), (3, 3, 4))] in mubs
    assert len(mubs) >= 2


def test_degree2_pair_has_unique_local_bound(g43):
    u = g43.index[((1, 1, 1, 2), (2, 3, 4))]
    v, w = g43.fwd[u][1], g43.fwd[u][3]
    # common upper bounds form an up-set of a graded poset, so the minimal
    # ones of rank <= rank(u) + 2 are those minimal among that rank range
    mubs = [z for z in minimal_upper_bounds(g43, v, w) if g43.rank[z] <= g43.rank[u] + 2]
    assert mubs == [g43.fwd[v][3]] == [g43.fwd[w][1]]


def _local_top_verdicts(h):
    """For every (u, i, j) where ``local_structure`` closes over f_i(u) and
    f_j(u): the verdict of s8's mask check, and whether the top is among
    :func:`minimal_upper_bounds` of the pair."""
    up = poset._down_sets(h.reverse(), range(len(h)))
    for u in range(len(h)):
        for i, j in combinations(sorted(h.fwd[u]), 2):
            try:
                top = local_structure(h, u, i, j).top
            except ValueError:
                continue
            b, c = h.fwd[u][i], h.fwd[u][j]
            yield scenarios._local_top_minimal(h, up, u, i, j), top in minimal_upper_bounds(h, b, c)


@pytest.mark.parametrize("key", DEFAULT_MATRIX)
def test_local_top_minimal_matches_minimal_upper_bounds(graphs, key):
    for h in (graphs[key], graphs[key].reverse()):
        verdicts = list(_local_top_verdicts(h))
        assert verdicts and all(got == want for got, want in verdicts)


def _covers_added(g):
    """Every ``graph_from_json`` import of g with one more cover edge, and
    its reverse, where the import has a unique minimum and maximum."""
    data = graph_to_json(g)
    for a in range(len(g)):
        for b in range(len(g)):
            if g.rank[b] != g.rank[a] + 1:
                continue
            for i in g.colors:
                try:
                    mutant = graph_from_json({**data, "edges": data["edges"] + [[a, b, i]]})
                except ValueError:
                    continue
                for h in (mutant, mutant.reverse()):
                    if h.minimum is not None and h.maximum is not None:
                        yield h


def test_local_top_minimal_matches_minimal_upper_bounds_on_imported_mutants():
    mutants = [
        h
        for seed, key in enumerate((((2, 1), 3), ((2, 2), 4), ((3, 1), 4), ((3, 2), 4)))
        for h in oracles.imported_mutants(generate(*key), seed, 100)
    ]
    # an added cover can put a common upper bound below a hexagon's top
    mutants += _covers_added(generate((2, 1), 4))
    verdicts = [verdict for h in mutants for verdict in _local_top_verdicts(h)]
    assert all(got == want for got, want in verdicts)
    assert any(not want for _, want in verdicts)


def test_witness_in_base_interval(base_interval):
    witness = non_stembridge_witness(base_interval)
    assert witness is not None
    assert witness.kind == "nonlocal"
    assert witness.base == base_interval.minimum
    assert witness.minimal_upper_bounds == (base_interval.maximum,)


def test_no_witness_in_diamond(g43):
    assert non_stembridge_witness(diamond_interval(g43)) is None


def test_no_witness_in_hexagon(g43):
    u = g43.index[((1, 1, 1, 2), (2, 3, 4))]
    top = g43.index[((1, 2, 2, 3), (3, 3, 4))]
    assert non_stembridge_witness(interval(g43, u, top)) is None


def test_interval_export(base_interval):
    data = poset.interval_to_json(base_interval)
    assert len(data["vertices"]) == 12
    assert data["bottom"] == base_interval.minimum
    assert data["budget"] == {"1": 1, "2": 2, "3": 1}


def test_components_export(base_interval):
    report = poset.components_to_json(move_class_summary(base_interval, 4))
    assert report == {
        "chain_count": 4,
        "component_count": 3,
        "components": [
            {"size": 1, "representative": [1, 2, 2, 3]},
            {"size": 2, "representative": [2, 1, 3, 2]},
            {"size": 1, "representative": [3, 2, 2, 1]},
        ],
    }
