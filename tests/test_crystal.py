"""Tableaux, operators, graph generation, and the local-structure checker."""

import dataclasses
import gc
import json
import random
import re
import tracemalloc
from collections import Counter
from copy import deepcopy
from itertools import combinations

import pytest

import oracles
from crystalposets import crystal
from crystalposets.crystal import (
    AxiomReport,
    CrystalGraph,
    GraphSizeError,
    apply_f,
    check_stembridge_axioms,
    generate,
    graph_from_json,
    graph_to_dot,
    graph_to_json,
    highest,
    local_structure,
    string_table,
    weight,
)
from crystalposets.poset import interval

RUNNING_EXAMPLE = ((1, 2, 2, 2, 2, 3), (3, 3, 4))


def _word(signature):
    plus, minus = signature
    return "+" * len(plus) + "-" * len(minus)


def test_signature_running_example():
    assert _word(oracles.i_signature(RUNNING_EXAMPLE, 2)) == "++-"


def test_signature_highest_has_no_minus():
    for shape, n in (((2, 1), 3), ((4, 3), 4), ((3, 2, 1), 4)):
        top = highest(shape, n)
        for i in range(1, n):
            assert oracles.i_signature(top, i)[1] == ()


def test_signature_survivor_addresses():
    # in 1,1/2 the first column's pair cancels; the surviving + is the
    # second-column entry 1
    assert oracles.i_signature(((1, 1), (2,)), 1) == (((0, 1),), ())


def test_apply_f_running_example():
    assert apply_f(RUNNING_EXAMPLE, 2) == ((1, 2, 2, 2, 3, 3), (3, 3, 4))


def test_apply_f_bottom_edge():
    assert apply_f(((1, 1, 1, 2), (2, 3, 4)), 1) == ((1, 1, 2, 2), (2, 3, 4))


def test_apply_f_matches_stack_signature(graphs):
    # the row runs against the symbol-stack bracket on the column reading,
    # on every (tableau, color) of the matrix graphs and of shapes with
    # three or more row lengths
    cases = [(g.vertices, g.n) for g in graphs.values()]
    for shape, n in (((3, 2, 1), 5), ((3, 3, 1), 5), ((2, 1, 1, 1), 5)):
        cases.append((oracles.enumerate_ssyt(shape, n), n))
    for tableaux, n in cases:
        for rows in tableaux:
            for i in range(1, n):
                assert apply_f(rows, i) == oracles.apply_f(rows, i)


def _random_tableau(rng, n):
    """A semistandard tableau of a random shape with at most n rows, filled
    row by row: each entry is drawn between its lower bound (left neighbour,
    one more than the entry above) and the largest value that leaves room
    for the column below it."""
    height = rng.randint(1, n)
    shape = sorted((rng.randint(1, 5) for _ in range(height)), reverse=True)
    rows: list[list[int]] = []
    for r, length in enumerate(shape):
        row: list[int] = []
        for c in range(length):
            below = sum(1 for part in shape[r + 1:] if part > c)
            low = max(row[-1] if row else 1, rows[-1][c] + 1 if r else 1)
            row.append(rng.randint(low, n - below))
        rows.append(row)
    return tuple(map(tuple, rows))


def test_apply_f_matches_stack_signature_on_random_tableaux():
    assert apply_f((), 1) is None  # the empty shape has no cell to raise
    # seeds 0..1999 of stdlib random: shapes up to 5 columns, n = 1..5
    for seed in range(2000):
        rng = random.Random(seed)
        n = rng.randint(1, 5)
        rows = _random_tableau(rng, n)
        assert crystal.is_semistandard(rows, n)
        for i in range(1, n):
            assert apply_f(rows, i) == oracles.apply_f(rows, i)


def test_generate_scans_each_vertex_once(monkeypatch):
    # B((1,), n) has n vertices of one letter each: one signature read per
    # vertex whose letter is below n, none per absent color, so n = 5000
    # stays linear
    calls = []
    cell = crystal._lowering_cell

    def counted(rows, i):
        calls.append((rows, i))
        return cell(rows, i)

    monkeypatch.setattr(crystal, "_lowering_cell", counted)
    g = generate((1,), 5000)
    assert len(g) == 5000
    assert calls == [(((k,),), k) for k in range(1, 5000)]
    assert g.edges == tuple((k, k + 1, k + 1) for k in range(4999))


def test_generate_guards_the_raised_cell(monkeypatch):
    # raising the first surviving i instead of the last breaks a row of
    # B((2,1),3); generate must notice at the raised cell
    def first_survivor(rows, i):
        plus = oracles.i_signature(rows, i)[0]
        return plus[0] if plus else None

    monkeypatch.setattr(crystal, "_lowering_cell", first_survivor)
    with pytest.raises(RuntimeError, match=r"operator f_1 broke semistandardness"):
        generate((2, 1), 3)


def test_apply_e_examples():
    for i in range(1, 4):
        assert oracles.apply_e(highest((4, 3), 4), i) is None
    assert oracles.apply_e(((1, 2, 2, 2, 3, 3), (3, 3, 4)), 2) == RUNNING_EXAMPLE
    assert oracles.apply_e(((1, 2), (2,)), 1) == ((1, 1), (2,))


def test_f_and_e_are_partial_inverses(g32):
    for rows in g32.vertices:
        for i in range(1, 4):
            image = apply_f(rows, i)
            if image is not None:
                assert oracles.apply_e(image, i) == rows
            pre = oracles.apply_e(rows, i)
            if pre is not None:
                assert apply_f(pre, i) == rows


def test_weight_examples():
    assert weight(highest((4, 3), 4), 4) == (4, 3, 0, 0)
    assert weight(((1, 1, 2, 3), (3, 4, 4)), 4) == (2, 1, 2, 2)


def test_weight_rejects_entries_outside_the_range():
    # a letter 0 would otherwise count as the letter n, and n+1 run off the end
    for rows in (((0, 1),), ((1, 2), (4,)), ((-2,),)):
        with pytest.raises(ValueError, match="outside 1..3"):
            weight(rows, 3)
    assert weight(((1, 3),), 3) == (1, 0, 1)


def test_weight_drops_by_simple_root(g43):
    for a, b, i in g43.edges:
        wa, wb = weight(g43.vertices[a], g43.n), weight(g43.vertices[b], g43.n)
        diff = tuple(x - y for x, y in zip(wa, wb))
        expected = tuple(
            1 if k == i - 1 else -1 if k == i else 0 for k in range(g43.n)
        )
        assert diff == expected


def test_highest():
    assert highest((2, 1), 3) == ((1, 1), (2,))
    assert highest((4, 3), 4) == ((1, 1, 1, 1), (2, 2, 2))
    with pytest.raises(ValueError):
        highest((2, 1, 1), 2)


def test_generate_defining_crystal():
    g = generate((1,), 2)
    assert len(g) == 2
    assert g.edges == ((0, 1, 1),)


@pytest.mark.parametrize(
    "shape,n",
    [
        ((2, 1), 3), ((2, 2), 4), ((3, 2), 4), ((4, 3), 4), ((3, 2, 1), 4), ((6, 5), 6),
        ((3, 2, 1), 5), ((2, 1, 1, 1), 5),
    ],
)
def test_generate_matches_direct_enumeration(shape, n):
    g = generate(shape, n)
    assert len(g) == oracles.count_ssyt(shape, n)
    # every cover against the symbol-stack f_i; an undefined f_i has none
    for v, rows in enumerate(g.vertices):
        for i in range(1, n):
            image = oracles.apply_f(rows, i)
            assert g.fwd[v].get(i) == (None if image is None else g.index[image])


def test_generate_vertices_are_exactly_the_ssyt(g32):
    assert set(g32.vertices) == oracles.enumerate_ssyt((3, 2), 4)


def test_generate_is_deterministic():
    a, b = generate((3, 2), 4), generate((3, 2), 4)
    assert a.vertices == b.vertices
    assert a.edges == b.edges


def test_generate_vertex_cap():
    with pytest.raises(GraphSizeError):
        generate((4, 3), 4, max_vertices=10)
    # fewer rows than n: at least n vertices, so the cap trips before the
    # search (which would run through 10**19 vertices)
    for shape, n, cap in (((1,), 10**19, crystal.DEFAULT_VERTEX_CAP), ((2, 1), 11, 10)):
        with pytest.raises(GraphSizeError, match="at least n vertices"):
            generate(shape, n, max_vertices=cap)
    assert len(generate((1,), 10, max_vertices=10)) == 10


def test_rank_sizes_are_palindromic(graphs):
    for g in graphs.values():
        sizes = g.rank_sizes()
        assert sizes == tuple(reversed(sizes))


def test_unique_extremes(graphs):
    for g in graphs.values():
        assert [v for v in range(len(g)) if not g.bwd[v]] == [g.minimum]
        assert [v for v in range(len(g)) if not g.fwd[v]] == [g.maximum]


def test_string_stats(g43):
    rise, depth = string_table(g43)
    for i in range(1, 4):
        assert depth[i][g43.minimum] == 0
        assert rise[i][g43.maximum] == 0
    # oracle: count repeated operator applications directly
    for i in range(1, 4):
        rows, steps = g43.vertices[g43.minimum], 0
        while (rows := apply_f(rows, i)) is not None:
            steps += 1
        assert rise[i][g43.minimum] == steps
    assert rise[2][g43.minimum] == 3
    assert rise[1][g43.minimum] == 1


def test_string_stats_weight_consistency(g32):
    # the content difference across a full string is (length) * alpha_i
    rise, depth = string_table(g32)
    for v in range(len(g32)):
        for i in range(1, 4):
            top, bot = v, v
            for _ in range(rise[i][v]):
                top = g32.fwd[top][i]
            for _ in range(-depth[i][v]):
                bot = g32.bwd[bot][i]
            length = rise[i][v] - depth[i][v]
            diff = tuple(
                x - y for x, y in zip(weight(g32.vertices[bot], 4), weight(g32.vertices[top], 4))
            )
            expected = tuple(
                length if k == i - 1 else -length if k == i else 0
                for k in range(4)
            )
            assert diff == expected


def test_axioms_pass_on_matrix(graphs):
    for g in graphs.values():
        assert check_stembridge_axioms(g).passed
        assert check_stembridge_axioms(g.reverse()).passed


def test_axioms_fail_after_edge_recoloring(g21):
    data = graph_to_json(g21)
    for k, (a, b, i) in enumerate(data["edges"]):
        for j in range(1, 3):
            if j != i and all(
                not (x == a and c == j) and not (y == b and c == j)
                for x, y, c in (tuple(e) for e in data["edges"])
            ):
                data["edges"][k][2] = j
                mutant = graph_from_json(data)
                report = check_stembridge_axioms(mutant)
                assert not report.passed
                assert report.axiom in {"P3", "P4", "P5", "P6"}
                assert report.vertex is not None
                return
    pytest.fail("no recolorable edge found")


def test_every_single_edge_deletion_is_detected(g21):
    # either the import rejects the broken grading or the checker reports
    # an axiom violation; no mutant slips through
    data = graph_to_json(g21)
    for k in range(len(data["edges"])):
        mutated = {**data, "edges": [e for j, e in enumerate(data["edges"]) if j != k]}
        try:
            mutant = graph_from_json(mutated)
        except ValueError:
            continue
        assert not check_stembridge_axioms(mutant).passed


def _mutants(g):
    """Every single-edge deletion or recoloring of g that the JSON import
    accepts, and the reverse of each."""
    data = graph_to_json(g)
    edges = data["edges"]
    variants = [edges[:k] + edges[k + 1:] for k in range(len(edges))]
    variants += [
        edges[:k] + [[a, b, j]] + edges[k + 1:]
        for k, (a, b, i) in enumerate(edges)
        for j in range(1, g.n)
        if j != i
    ]
    for variant in variants:
        try:
            mutant = graph_from_json({**data, "edges": variant})
        except ValueError:
            continue
        yield mutant
        yield mutant.reverse()


def test_axioms_match_oracle_on_mutants(graphs):
    cases = 0
    for key in (((2, 1), 3), ((3, 2), 4), ((2, 2), 4)):
        for mutant in _mutants(graphs[key]):
            assert check_stembridge_axioms(mutant) == oracles.brute_stembridge_axioms(mutant)
            cases += 1
    assert cases == 336


def test_axioms_match_oracle_on_imported_mutants():
    # 1-3 edits each: unlike the single-edge mutants above (P3 reports and
    # hexagons that do not close), these seeds reach a raising square that
    # does not close and a hexagon whose top breaks the rise condition
    reports = Counter()
    for key, seed in ((((3, 2), 4), 13), (((4, 3), 4), 18), (((2, 2), 4), 10), (((3, 2, 1), 4), 8)):
        for h in oracles.imported_mutants(generate(*key), seed, 100):
            report = check_stembridge_axioms(h)
            assert report == oracles.brute_stembridge_axioms(h)
            reports[report.axiom, report.detail if report.axiom in ("P5", "P6") else ""] += 1
    assert reports == {
        (None, ""): 26,
        ("P3", ""): 110,
        ("P5", "raising square does not close"): 1,
        ("P6", "raising hexagon does not close"): 14,
        ("P6", "rise condition at the top fails"): 3,
    }


def test_axioms_match_oracle_on_matrix(graphs):
    for g in graphs.values():
        for h in (g, g.reverse()):
            assert check_stembridge_axioms(h) == oracles.brute_stembridge_axioms(h) == AxiomReport(True)


def _direct_graph(edges, n=3):
    """A CrystalGraph built without the JSON import's checks; a later edge
    overwrites an earlier one of the same color out of the same vertex.
    The ranks are numbered along the covers in both directions, up one per
    cover and down one per cover walked backwards, then shifted so each
    connected piece starts at 0: a graded graph gets its grading (a fresh
    source sits one rank below its target), and any other is rejected."""
    size = 1 + max(max(a, b) for a, b, _ in edges)
    fwd = [{} for _ in range(size)]
    for a, b, i in edges:
        fwd[a][i] = b
    links = [[] for _ in range(size)]
    for a, out in enumerate(fwd):
        for b in out.values():
            links[a].append((b, 1))
            links[b].append((a, -1))
    rank = [None] * size
    for start in range(size):
        if rank[start] is None:
            rank[start], piece = 0, [start]
            for x in piece:
                for y, step in links[x]:
                    if rank[y] is None:
                        rank[y] = rank[x] + step
                        piece.append(y)
            low = min(rank[x] for x in piece)
            for x in piece:
                rank[x] -= low
    return CrystalGraph(
        shape=None, n=n, vertices=tuple(((k + 1,),) for k in range(size)),
        rank=tuple(rank), fwd=tuple(fwd),
    )


def test_covers_must_raise_the_rank_by_one(g21):
    # B((2,1),3)'s covers with a rank that disagrees with them: all zero,
    # or shifted down by one so that the minimum would sit at rank -1
    def build(rank):
        return CrystalGraph(shape=(2, 1), n=3, vertices=g21.vertices, rank=rank, fwd=g21.fwd)

    assert build(g21.rank) == g21
    with pytest.raises(ValueError, match=r"^graph is not graded at edge \(0, 1, 1\)$"):
        build((0,) * len(g21))
    with pytest.raises(ValueError, match="^negative rank -1$"):
        build(tuple(r - 1 for r in g21.rank))


def test_fields_must_have_one_length(g21):
    # a rank or a cover dict too few or too many raises, where zip would
    # stop at the shorter and leave a vertex in no layer
    line = (((1,),), ((2,),))
    with pytest.raises(ValueError, match="^unequal lengths: vertices 2, rank 1, fwd 2$"):
        CrystalGraph(None, 2, line, (0,), ({}, {}))
    with pytest.raises(ValueError, match="^unequal lengths: vertices 2, rank 2, fwd 1$"):
        CrystalGraph(None, 2, line, (0, 1), ({1: 1},))
    with pytest.raises(ValueError, match="^unequal lengths: vertices 1, rank 2, fwd 2$"):
        CrystalGraph(None, 2, line[:1], (0, 1), ({1: 1}, {}))
    for cut in (lambda t: t[:-1], lambda t: t + t[-1:]):
        for field in ("vertices", "rank", "fwd"):
            fields = {"vertices": g21.vertices, "rank": g21.rank, "fwd": g21.fwd}
            fields[field] = cut(fields[field])
            with pytest.raises(ValueError, match="^unequal lengths: "):
                CrystalGraph(shape=(2, 1), n=3, **fields)


def test_cover_targets_must_be_vertices(g21):
    # a target below 0 would be read as an index from the end, and one at
    # len or above would raise IndexError; both raise ValueError naming the
    # edge, before its rank is read
    line = (((1,),), ((2,),))
    for target in (-1, -2, 2, 9):
        edge = re.escape(f"edge (0, {target}, 1)")
        with pytest.raises(ValueError, match=f"^{edge} ends outside 0..1$"):
            CrystalGraph(None, 2, line, (0, 1), ({1: target}, {}))
    for target in (-1, len(g21)):  # a cover above the top
        fwd = (*g21.fwd[:7], {1: target})
        edge = re.escape(f"edge (7, {target}, 1)")
        with pytest.raises(ValueError, match=f"^{edge} ends outside 0..7$"):
            CrystalGraph(shape=(2, 1), n=3, vertices=g21.vertices, rank=g21.rank, fwd=fwd)


def test_colors_outside_the_range_are_rejected(g21):
    # colors 0 and n = 3 have no operator: the cover 0 -1-> 1 recolored, or
    # a cover above the top, raises at construction
    for color in (0, 3):
        for edges, edge in (
            ([(0, 1, color), *g21.edges[1:]], (0, 1, color)),
            ([*g21.edges, (7, 8, color)], (7, 8, color)),
        ):
            with pytest.raises(ValueError, match=re.escape(f"edge {edge} has a color outside 1..2")):
                _direct_graph(edges)


def test_circuits_are_rejected():
    # a color-1 circuit 1 -> 2 -> 1 entered from 0 by color 2, circuits of
    # both colors beside strings, and a color-1 circuit 1 -> 2 -> 3 -> 1
    # beside the string 0 -> 4: no cover of a circuit can raise the rank
    for edges in (
        [(0, 1, 2), (1, 2, 1), (2, 1, 1)],
        [(0, 3, 1), (1, 4, 2), (4, 1, 2), (2, 5, 1), (5, 2, 1)],
        [(0, 3, 1), (2, 4, 2), (4, 2, 2), (2, 5, 1), (5, 2, 1)],
        [(0, 4, 1), (1, 2, 1), (2, 3, 1), (3, 1, 1), (0, 1, 2), (1, 5, 2)],
    ):
        with pytest.raises(ValueError, match="^graph is not graded at edge"):
            _direct_graph(edges)


def test_ends_are_derived_from_the_covers(graphs, g21):
    # the only vertex with no cover below it and the only one with none
    # above it, or None where there is not exactly one
    def sole(adj):
        ends = [v for v, covers in enumerate(adj) if not covers]
        return ends[0] if len(ends) == 1 else None

    ends = Counter()
    for g in graphs.values():
        assert (g.minimum, g.maximum) == (0, sole(g.fwd))
        for h in (g, g.reverse()):
            assert (h.minimum, h.maximum) == (sole(h.bwd), sole(h.fwd))
    for key in (((2, 1), 3), ((3, 2), 4), ((2, 2), 4)):
        for h in _mutants(graphs[key]):
            assert (h.minimum, h.maximum) == (sole(h.bwd), sole(h.fwd))
            ends[h.minimum is None, h.maximum is None] += 1
    assert ends[True, False] and ends[False, True]
    # two sources below one sink; the dual has two sinks
    g = _direct_graph([(0, 2, 1), (1, 2, 2)])
    assert (g.minimum, g.maximum) == (None, 2)
    assert (g.reverse().minimum, g.reverse().maximum) == (2, None)
    assert (g21.reverse().minimum, g21.reverse().maximum) == (g21.maximum, g21.minimum)


def test_a_second_cover_of_one_color_into_a_vertex_is_rejected(g21):
    # every color is a partial bijection: f_i is injective
    two = "^two covers of one color enter one vertex$"
    with pytest.raises(ValueError, match=two):
        _direct_graph([(0, 2, 1), (1, 2, 1)])
    with pytest.raises(ValueError, match=two):
        _direct_graph([*g21.edges, (8, 7, 1)])
    # covers of two colors into one vertex are fine
    assert _direct_graph([(0, 2, 1), (1, 2, 2)]).bwd[2] == {1: 0, 2: 1}


def test_axioms_report_what_no_single_edge_mutant_reaches():
    # b = 0 has lower covers 1 (color 1) and 2 (color 2), which close the
    # square at x = 3, and upper covers of both colors; P3 and P4 hold at b,
    # but f_2 x = 1 has one more 1-rise than x, as 0 -1-> 5 extends its
    # 1-string while 2 is the top of x's
    g = _direct_graph([(3, 1, 2), (3, 2, 1), (1, 0, 1), (2, 0, 2), (0, 4, 2), (0, 5, 1)])
    report = check_stembridge_axioms(g)
    assert report == oracles.brute_stembridge_axioms(g)
    assert report == AxiomReport(False, "P5", 0, 1, 2, "rise condition at the top fails")
    # the color-1 cover 1 -> 0 lies two color-2 steps above the bottom of
    # its 2-string 3 -> 2 -> 1 -> 4, and 0 on none: delta-depth -2 and
    # delta-rise 1 sum to a_12 = -1, so P3 holds and P4 fails on the rise
    g = _direct_graph([(1, 0, 1), (3, 2, 2), (2, 1, 2), (1, 4, 2)])
    report = check_stembridge_axioms(g)
    assert report == oracles.brute_stembridge_axioms(g)
    assert report == AxiomReport(False, "P4", 0, 1, 2, "positive difference (-2, 1)")


def _cut_with_b_first(g, b, cut):
    """The edges of g with each edge in ``cut`` given a fresh source vertex,
    one rank below its target, and the labels of b and 0 swapped, so the
    checker visits b first."""
    swap = {b: 0, 0: b}
    fresh = len(g)
    edges = []
    for a, t, i in g.edges:
        if (a, t, i) in cut:
            a, fresh = fresh, fresh + 1
        edges.append((swap.get(a, a), swap.get(t, t), i))
    return _direct_graph(edges, n=g.n)


def test_axioms_report_the_first_violation_at_a_vertex(g32):
    # at b of B((3,2),4), cutting the color-1 edge into its color-3 cover
    # breaks the square of the pair (1, 3); cutting the one into its color-2
    # cover breaks the square of (2, 1), while (1, 2) is not a square there.
    # With both cut, the report is the first ordered pair (i, j).
    b = g32.index[((1, 2, 4), (3, 3))]
    into = {j: (g32.bwd[x][1], x, 1) for j, x in g32.bwd[b].items() if j != 1}
    for cut, witness in (
        ({into[3]}, ("P5", 0, 1, 3)),
        ({into[2]}, ("P5", 0, 2, 1)),
        ({into[2], into[3]}, ("P5", 0, 1, 3)),
    ):
        g = _cut_with_b_first(g32, b, cut)
        report = check_stembridge_axioms(g)
        assert report == oracles.brute_stembridge_axioms(g)
        assert (report.axiom, report.vertex, report.i, report.j) == witness
    # cutting the color-1 edge into b itself gives a P4 under i = 1 and a P3
    # under i = 3; each lower cover is checked in full before the next
    b = g32.index[((1, 2, 2), (3, 4))]
    g = _cut_with_b_first(g32, b, {(g32.bwd[b][1], b, 1)})
    report = check_stembridge_axioms(g)
    assert report == oracles.brute_stembridge_axioms(g)
    assert (report.axiom, report.vertex, report.i, report.j) == ("P4", 0, 1, 3)


def test_string_table_matches_string_stats(graphs):
    for g in [h for g in graphs.values() for h in (g, g.reverse())]:
        rise, depth = string_table(g)
        for v in range(len(g)):
            for i in g.colors:
                assert oracles.string_stats(g, v, i) == oracles.StringStats(rise[i][v], depth[i][v])


def test_local_structure_base_vertex(g43):
    bottom = g43.index[((1, 1, 1, 2), (2, 3, 4))]
    deg4 = local_structure(g43, bottom, 1, 2)
    assert deg4.degree == 4
    assert g43.vertices[deg4.top] == ((1, 2, 2, 3), (3, 3, 4))
    labels_v = (1, 2, 2, 1)  # colors read along the two hexagon sides
    labels_w = (2, 1, 1, 2)
    for chain, labels in zip(deg4.chains, (labels_v, labels_w)):
        for a, b, i in zip(chain, chain[1:], labels):
            assert g43.fwd[a][i] == b
    deg2 = local_structure(g43, bottom, 1, 3)
    assert deg2.degree == 2
    assert g43.vertices[deg2.top] == ((1, 1, 2, 2), (2, 4, 4))


def test_far_apart_colors_always_commute(g43, g32):
    for g in (g43, g32):
        for u in range(len(g)):
            for i, j in combinations(sorted(g.fwd[u]), 2):
                if abs(i - j) >= 2:
                    assert local_structure(g, u, i, j).degree == 2


def test_local_structure_rejects_bad_input(g21):
    with pytest.raises(ValueError):
        local_structure(g21, g21.minimum, 1, 1)
    with pytest.raises(ValueError):
        local_structure(g21, g21.maximum, 1, 2)


def test_local_structure_names_what_fails_to_close(g21):
    # the hexagon above the minimum of B((2,1),3), colors 1 and 2
    hexagon = local_structure(g21, 0, 1, 2)
    assert (hexagon.degree, hexagon.top) == (4, 7)
    assert hexagon.chains == ((0, 1, 3, 5, 7), (0, 2, 4, 6, 7))
    cut = _direct_graph([e for e in g21.edges if e != (5, 7, 1)])
    no_closure = r"^no degree 2 or 4 closure above vertex 0 for colors \(1, 2\)$"
    with pytest.raises(ValueError, match=no_closure):
        local_structure(cut, 0, 1, 2)
    # f_1 f_2 f_1 u = f_1 f_1 f_2 u, or f_2 f_1 f_2 u = f_2 f_2 f_1 u, would
    # need a second cover of one color into 6 or into 5, which no graph holds
    for extra in ((3, 6, 1), (4, 5, 2)):
        with pytest.raises(ValueError, match="^two covers of one color enter one vertex$"):
            _direct_graph([*g21.edges, extra])
    # f_2 f_1 f_1 u = f_1 f_1 f_2 u, or f_1 f_2 f_2 u = f_2 f_2 f_1 u, through
    # a new vertex 8: the covers f_1 u and f_2 u also close two steps up
    coexists = "^closure of length 2 coexists with degree-4 data at 0$"
    for extra in (((1, 8, 1), (8, 6, 2)), ((2, 8, 2), (8, 5, 1))):
        g = _direct_graph([*g21.edges, *extra])
        for i, j in ((1, 2), (2, 1)):
            with pytest.raises(ValueError, match=coexists):
                local_structure(g, 0, i, j)


def test_json_round_trip(g32):
    data = json.loads(json.dumps(graph_to_json(g32)))
    back = graph_from_json(data)
    assert back.vertices == g32.vertices
    assert back.edges == g32.edges
    assert back.rank == g32.rank
    assert back.minimum == g32.minimum and back.maximum == g32.maximum


def test_index_is_derived_on_first_read():
    # a generated graph and an import alike build their index only when it
    # is read, and both equal the vertex order, which determines them, so
    # == ignores them
    g = generate((3, 2), 4)
    assert "index" not in vars(g)
    back = graph_from_json(json.loads(json.dumps(graph_to_json(g))))
    assert "index" not in vars(back) and back == g
    assert back.index == g.index == {t: k for k, t in enumerate(g.vertices)}
    assert vars(g)["index"] is g.index
    assert back == g


def test_json_export_lists_edges_in_edges_order(graphs):
    # the export reads fwd itself; on a reversed view fwd is the primal's bwd.
    # It lists the graph's own tableau tuples, and its text is the
    # list-based rendering's, byte for byte
    g = graphs[((4, 3), 4)]
    [(u, v)] = oracles.comparable_pairs_sample(g, 1, seed=27)
    itv = interval(g, u, v)
    assert len(itv.edges) > len(itv) > 2
    for h in [h for g in graphs.values() for h in (g, g.reverse())] + [itv]:
        data = graph_to_json(h)
        assert data["edges"] == [list(e) for e in h.edges]
        assert all(t is s for t, s in zip(data["vertices"], h.vertices, strict=True))
        reference = oracles.list_graph_to_json(h)
        for sort_keys in (False, True):
            assert json.dumps(data, sort_keys=sort_keys) == json.dumps(reference, sort_keys=sort_keys)


def test_json_import_rejects_duplicates_and_cycles(g21):
    repeated = graph_to_json(g21)
    repeated["vertices"][1] = repeated["vertices"][2]
    with pytest.raises(ValueError):
        graph_from_json(repeated)
    bad = {
        "shape": [1],
        "n": 2,
        "vertices": [[[1]], [[2]]],
        "edges": [[0, 1, 1], [0, 1, 1]],
        "rank": [0, 1],
    }
    with pytest.raises(ValueError):
        graph_from_json(bad)
    # two edges a -> b of different colors: f_1(a) and f_2(a) differ in weight
    parallel = {**bad, "n": 3, "edges": [[0, 1, 1], [0, 1, 2]]}
    with pytest.raises(ValueError, match="^parallel edges from 0 to 1$"):
        graph_from_json(parallel)
    # two color-1 covers into one vertex: f_1 is injective
    into = {**bad, "vertices": [[[1]], [[2]], [[3]]], "n": 3, "edges": [[0, 2, 1], [1, 2, 1]]}
    with pytest.raises(ValueError, match="^two covers of one color enter one vertex$"):
        graph_from_json(into)
    cyclic = {
        "shape": [1],
        "n": 3,
        "vertices": [[[1]], [[2]]],
        "edges": [[0, 1, 1], [1, 0, 2]],
        "rank": [0, 1],
    }
    # no source reaches the cycle; a cycle that one reaches is ungraded
    with pytest.raises(ValueError, match="^graph has a directed cycle$"):
        graph_from_json(cyclic)
    reached = {**cyclic, "vertices": [[[1]], [[2]], [[3]]], "edges": [[0, 1, 1], [1, 2, 2], [2, 1, 1]]}
    with pytest.raises(ValueError, match=r"^graph is not graded at edge \(2, 1, 1\)$"):
        graph_from_json(reached)
    # each entry below breaks one rule of a valid one-edge graph
    one = {**bad, "edges": [[0, 1, 1]]}
    malformed = [
        {"n": 3},
        {**one, "vertices": 5},
        {**one, "edges": None},
        {**one, "shape": 5},
        {**one, "vertices": [[[0]], [[2]]]},
        {**one, "vertices": [[[3]], [[2]]]},
        # an invalid shape, or a tableau not of the shape given
        {**one, "shape": [-1]},
        {**one, "shape": [0]},
        {**one, "shape": [1, 5]},
        {"shape": [2, 1], "n": 3, "vertices": [[[1, 1, 1]]], "edges": [], "rank": [0]},
        # every later weight and budget would hold n entries
        {**one, "n": 0},
        {**one, "n": crystal.DEFAULT_VERTEX_CAP + 1},
        {**one, "n": 10**19},
        # only a missing or null shape means no shape
        {**one, "shape": []},
        {**one, "shape": 0},
        {**one, "shape": False},
        {**one, "shape": ""},
        # an edge is a [source, target, color] triple
        {**one, "edges": [[0, 1]]},
        {**one, "edges": [[0, 1, 1, 7]]},
    ]
    # only JSON integers: no float (1.7 used to load as 1), string or bool,
    # and no infinity (which used to raise OverflowError)
    not_integers = [
        {**one, "vertices": [[[1.7]], [[2]]]},
        {**one, "edges": [[0, 1, 1.2]]},
        {**one, "vertices": [[["1"]], [[2]]]},
        {**one, "vertices": [[[True]], [[2]]]},
        {**one, "edges": [[0, 1, True]]},
        {**one, "n": "3"},
        {**one, "n": True},
        {**one, "n": 2.0},
        {**one, "shape": ["1"]},
        {**one, "shape": [1.0]},
    ]
    for data in malformed + not_integers:
        with pytest.raises(ValueError):
            graph_from_json(data)
    good = json.dumps(one)
    assert len(graph_from_json(good)) == 2
    assert graph_from_json({**json.loads(good), "shape": None}).shape is None
    # [] and "" reach the shape check as (); 0 and false are not iterable
    for shape, pattern in (
        ([], r"^shape parts must be positive: \(\)$"),
        ("", r"^shape parts must be positive: \(\)$"),
        (0, r"^malformed crystal graph JSON: TypeError"),
        (False, r"^malformed crystal graph JSON: TypeError"),
    ):
        with pytest.raises(ValueError, match=pattern):
            graph_from_json({**one, "shape": shape})
    for edge in ([0, 1], [0, 1, 1, 7]):
        message = f"edge {edge} must be [source, target, color]"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            graph_from_json({**one, "edges": [[0, 1, 1], edge]})
    for old, new in (('"n": 2', '"n": Infinity'), ('"n": 2', '"n": 1e400'),
                     ('"shape": [1]', '"shape": [1e400]'),
                     ("[[[1]], [[2]]]", "[[[1]], [[1e400]]]")):
        assert old in good
        with pytest.raises(ValueError):
            graph_from_json(good.replace(old, new))
    with pytest.raises(ValueError):
        graph_from_json("[1,2]")


# one value of each JSON kind, ints of every size among them
_FUZZ_VALUES = (
    [0, 1, 2, 3, 4, -1, 2**31, 2**63, 10**19, 10**100, -(10**19), crystal.DEFAULT_VERTEX_CAP + 1]
    + [0.0, 1.0, 1.5, -2.5, float("inf"), float("nan"), 1e300]
    + ["", "1", "x", True, False, None, [], [1], [[1]], [[[1]]], [0, 1, 1], {}, {"1": 1}]
)


def _slots(node):
    """(container, key) of every value inside a JSON document."""
    for key in list(node) if isinstance(node, dict) else range(len(node)):
        yield node, key
        if isinstance(node[key], (list, dict)):
            yield from _slots(node[key])


def _mutate(rng, data):
    """One random mutation of a graph export, in place: any field, vertex,
    row, entry, edge or edge entry replaced, a key dropped, or an edge
    appended.  Values are copied in, so a later mutation of the document
    cannot edit ``_FUZZ_VALUES`` itself."""
    kind = rng.randrange(4)
    if kind == 0 and data:
        del data[rng.choice(list(data))]
    elif kind == 1 and isinstance(data.get("edges"), list):
        data["edges"].append([deepcopy(rng.choice(_FUZZ_VALUES + [0, 1, 2])) for _ in range(3)])
    elif slots := list(_slots(data)):
        node, key = rng.choice(slots)
        node[key] = deepcopy(rng.choice(_FUZZ_VALUES))


def _fuzz_documents(g):
    """6,000 seeded mutations of g's export, one or two each."""
    text = json.dumps(graph_to_json(g))
    rng = random.Random(2024)
    for _ in range(6000):
        data = json.loads(text)
        for _ in range(rng.randrange(1, 3)):
            _mutate(rng, data)
        yield data


def _import_outcome(data):
    """The fields of the imported graph, or the ValueError's message."""
    try:
        h = graph_from_json(data)
    except ValueError as exc:
        return str(exc)
    return h.shape, h.n, h.vertices, h.rank, h.fwd


def test_json_import_fuzz_raises_only_value_error(g21):
    """Seeded mutations of an export: each loads or raises ValueError,
    never another exception (a huge n used to raise OverflowError)."""
    outcomes = {"loaded": 0, "rejected": 0}
    for data in _fuzz_documents(g21):
        try:
            graph_from_json(data)
        except ValueError:
            outcomes["rejected"] += 1
        else:
            outcomes["loaded"] += 1
    assert min(outcomes.values()) > 100, outcomes


def test_json_import_treats_text_and_dicts_alike(g21):
    # the import drops what it parsed from a text as it goes, but never
    # edits a dict passed in: both give one graph, or one message
    loaded = 0
    for data in _fuzz_documents(g21):
        before = deepcopy(data)
        outcome = _import_outcome(data)
        assert data == before
        assert _import_outcome(json.dumps(data)) == outcome
        loaded += not isinstance(outcome, str)
    assert loaded > 100


def test_json_import_shares_equal_rows(graphs):
    # one tuple per distinct row, as generate's _replace leaves them
    for g in graphs.values():
        text = json.dumps(graph_to_json(g))
        for h in (graph_from_json(text), graph_from_json(json.loads(text))):
            assert h.vertices == g.vertices
            rows = [r for t in h.vertices for r in t]
            assert len(set(map(id, rows))) == len(set(rows))


def test_json_import_holds_one_copy():
    # the tracemalloc peak of importing B((5,4),6)'s text, over what the
    # graph keeps: 5.24 MiB while the import kept the parsed lists and a
    # copy of the edges, 0.90 MiB since it drops them as it goes
    text = json.dumps(graph_to_json(generate((5, 4), 6)))
    gc.collect()
    tracemalloc.start()
    try:
        h = graph_from_json(text)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(h) == 5880
    assert peak - kept < 2 * 2**20


def test_dot_export(g21):
    dot = graph_to_dot(g21)
    assert dot.splitlines()[0] == "digraph crystal {"
    assert '0 [label="1,1/2"];' in dot
    assert dot.count("->") == len(g21.edges)
    assert graph_to_dot(g21) == dot


def test_tableau_literals():
    rows = crystal.tableau_from_string("1,1,1,2/2,3,4", 4)
    assert rows == ((1, 1, 1, 2), (2, 3, 4))
    assert crystal.tableau_to_string(rows) == "1,1,1,2/2,3,4"
    with pytest.raises(ValueError):
        crystal.tableau_from_string("2,1/1", 4)
    with pytest.raises(ValueError):
        crystal.tableau_from_string("1,x/2", 4)


def test_reverse_view(g32):
    rev = g32.reverse()
    assert rev.minimum == g32.maximum and rev.maximum == g32.minimum
    assert len(rev.edges) == len(g32.edges)
    span = max(g32.rank)
    assert all(rev.rank[v] == span - g32.rank[v] for v in range(len(g32)))
    assert rev.reverse().edges == g32.edges
    # the covers are stored once: the dual shares them, its layers and the index
    assert rev.fwd is g32.bwd and rev.bwd is g32.fwd and rev.index is g32.index
    assert all(a is b for a, b in zip(rev.layers, reversed(g32.layers)))
    assert len(rev.layers) == len(g32.layers)
    fields = {f.name: f for f in dataclasses.fields(CrystalGraph)}
    assert set(fields).isdisjoint({"edges", "weights", "graph_indices"})
    assert not fields["bwd"].init and not fields["layers"].init


def _layers_by_sort(g):
    """The (rank, index) sort of the vertices, grouped by rank."""
    layers = [[] for _ in range(max(g.rank) + 1)]
    for v in sorted(range(len(g)), key=lambda v: (g.rank[v], v)):
        layers[g.rank[v]].append(v)
    return tuple(map(tuple, layers))


def test_layers_are_the_rank_order(graphs, g32):
    for g in graphs.values():
        for h in (g, g.reverse()):
            assert h.layers == _layers_by_sort(h)
            assert h.rank_sizes() == tuple(map(len, h.layers))
            assert h.span == len(h.layers) - 1
    g = graphs[((4, 3), 4)]
    for u, v in oracles.comparable_pairs_sample(g, 10, seed=25):
        itv = interval(g, u, v)
        assert itv.layers == _layers_by_sort(itv)
    back = graph_from_json(json.loads(json.dumps(graph_to_json(g32))))
    assert back.layers == _layers_by_sort(back) == g32.layers


def test_cartan_entries():
    assert crystal.cartan_entry(2, 2) == 2
    assert crystal.cartan_entry(1, 2) == -1
    assert crystal.cartan_entry(1, 3) == 0
