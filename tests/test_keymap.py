"""Key computation, key axioms, adapted strings, fibers, Demazure subsets."""

from itertools import combinations

import pytest

import oracles
from crystalposets import keymap, poset, weyl
from crystalposets.crystal import GraphSizeError, generate
from crystalposets.scenarios import DEFAULT_MATRIX
from crystalposets.keymap import (
    FiberStructureError,
    KeyTable,
    check_key_axioms,
    compute_keys,
    demazure,
    fiber,
    fiber_extremes,
    minimal_fiber_elements,
    shape_stabilizer,
)


@pytest.fixture(scope="module")
def keyed(graphs):
    return {key: (g, compute_keys(g)) for key, g in graphs.items()}


@pytest.fixture(scope="module")
def fiber_views(graphs):
    """The matrix graphs, B((3,2,1),4) and B((3,1),4), each primal and
    reversed, with their key tables."""
    views = []
    for g in (*graphs.values(), generate((3, 2, 1), 4), generate((3, 1), 4)):
        for h in (g, g.reverse()):
            views.append((h, compute_keys(h)))
    return views


def test_minimum_and_atoms(fiber_views):
    # an atom covers only the minimum, which has no cover below it, so the
    # unique-cover rule bumps the identity to s_i, i the cover's color; on
    # every matrix crystal and its reverse, and two more
    for h, table in fiber_views:
        assert table[h.minimum] == weyl.identity(h.n)
        assert h.layers[1]
        for atom in h.layers[1]:
            [(i, bottom)] = h.bwd[atom].items()
            assert bottom == h.minimum
            s_i = list(range(1, h.n + 1))
            s_i[i - 1 : i + 1] = i + 1, i
            assert table[atom] == tuple(s_i)


def test_specific_atom_key(keyed):
    g, table = keyed[((4, 3), 4)]
    atom = g.fwd[g.minimum].get(2)
    assert atom is not None
    assert table[atom] == (1, 3, 2, 4)


def test_maximum_key_is_longest_for_staircase():
    for shape, n, expect in (((2, 1), 3, (3, 2, 1)), ((3, 2, 1), 4, (4, 3, 2, 1))):
        g = generate(shape, n)
        table = compute_keys(g)
        assert table[g.maximum] == expect


def test_keys_are_lowest_coset_representatives(keyed):
    # no right descent inside the stabilizer of the highest weight
    for (shape, n), (g, table) in keyed.items():
        stab = shape_stabilizer(g)
        for v in range(len(g)):
            for k in stab:
                assert k not in weyl.left_descents(weyl.inverse(table[v]))


def test_key_map_is_a_poset_map(keyed):
    for _, (g, table) in keyed.items():
        for a, b, i in g.edges:
            assert oracles.left_weak_leq(table[a], table[b])
            assert table[b] in (table[a], weyl.left_multiply(i, table[a]))


def test_keys_do_not_depend_on_order_within_rank(graphs):
    for key, g in graphs.items():
        for h in (g, g.reverse()):
            table = compute_keys(h)
            for seed in (1, 2, 3):
                assert oracles.compute_keys_shuffled(h, seed) == table.keys


def test_key_axioms_pass(keyed):
    for _, (g, table) in keyed.items():
        assert check_key_axioms(g, table).passed


def test_key_axioms_fail_on_perturbed_table(keyed):
    g, table = keyed[((3, 2), 4)]
    victim = next(
        v for v in range(len(g)) if g.rank[v] == 3
    )
    keys = list(table.keys)
    keys[victim] = weyl.left_multiply(1, keys[victim])
    report = check_key_axioms(g, KeyTable(keys=tuple(keys)))
    assert not report.passed
    assert report.vertex is not None and report.color is not None


def test_key_axioms_match_oracle_on_one_step_perturbations(keyed):
    """Every table that differs from the true one by one left
    multiplication at one vertex gets the oracle's report; all three
    violations occur among them."""
    details = set()
    for key in (((2, 1), 3), ((3, 2), 4)):
        g, table = keyed[key]
        assert check_key_axioms(g, table) == oracles.length_check_key_axioms(g, table)
        for v in range(len(g)):
            for p in g.colors:
                keys = list(table.keys)
                keys[v] = weyl.left_multiply(p, keys[v])
                bad = KeyTable(keys=tuple(keys))
                report = check_key_axioms(g, bad)
                assert report == oracles.length_check_key_axioms(g, bad)
                details.add(report.detail)
    assert len(details) == 3


def test_key_report_names_the_first_color_at_a_vertex(keyed):
    # with the key 132 at 1,2/3 of B((2,1),3), the key changes along its
    # color-1 edge off the string bottom, and the color-2 string bottom has
    # a left descent; colors are checked in increasing order, each in full
    g, table = keyed[((2, 1), 3)]
    b = g.index[((1, 2), (3,))]
    keys = list(table.keys)
    keys[b] = (1, 3, 2)
    bad = KeyTable(keys=tuple(keys))
    report = check_key_axioms(g, bad)
    assert report == oracles.length_check_key_axioms(g, bad)
    assert report == keymap.KeyReport(False, b, 1, "key changed off the string bottom")


def test_adapted_strings_small_graph_exhaustive(keyed):
    g, table = keyed[((2, 1), 3)]
    for v in range(len(g)):
        assert oracles.adapted_string_check(g, table, v)


def test_adapted_strings_big_graph(keyed):
    g, table = keyed[((4, 3), 4)]
    for v in range(len(g)):
        assert oracles.adapted_string_check(g, table, v)


def test_fiber_at_identity(keyed):
    for _, (g, table) in keyed.items():
        fib = fiber(g, table, weyl.identity(g.n))
        assert fib.vertices == (g.minimum,)


def test_disconnected_fiber(keyed):
    g, table = keyed[((3, 2), 4)]
    fib = fiber(g, table, (2, 4, 1, 3))
    assert len(fib.vertices) == 8
    assert sorted(len(c) for c in fib.components) == [2, 6]
    colors = sorted(c for _, _, c in fib.covers)
    assert colors == [1, 1, 1, 1, 1, 3, 3, 3]


def _cover_closure(fib):
    """Every pair (x, y) with x < y in the fiber, from chains of its covers."""
    above = {v: [b for a, b, _ in fib.covers if a == v] for v in fib.vertices}
    less = set()
    for x in fib.vertices:
        stack = list(above[x])
        while stack:
            y = stack.pop()
            if (x, y) not in less:
                less.add((x, y))
                stack.extend(above[y])
    return less


def test_fiber_vertices_match_brute_force(keyed):
    # the covers alone give the whole induced order
    g, table = keyed[((3, 2), 4)]
    fib = fiber(g, table, (2, 4, 1, 3))
    less = _cover_closure(fib)
    comparable = 0
    for a, b in combinations(fib.vertices, 2):
        reachable = b in oracles.brute_upset(g, a) or a in oracles.brute_upset(g, b)
        assert ((a, b) in less or (b, a) in less) == reachable
        comparable += reachable
    assert comparable > len(fib.covers)  # some pairs are not covers


def test_fiber_matches_oracle_on_every_key(fiber_views):
    count = 0
    for g, table in fiber_views:
        for w in sorted(set(table.keys)):
            assert fiber(g, table, w) == oracles.brute_fiber(g, table, w)
            count += 1
    assert count == 144


def test_fiber_extremes_match_oracle_for_every_parabolic(fiber_views):
    for g, table in fiber_views:
        for r in range(len(g.colors) + 1):
            for sub in combinations(g.colors, r):
                w = weyl.longest_parabolic(set(sub), g.n)
                fib = oracles.brute_fiber(g, table, w)
                got = fiber_extremes(g, table, frozenset(sub))
                if not fib.vertices:
                    assert got is None
                    continue
                # a minimum is a vertex no cover ends at, a maximum one no
                # cover starts at
                minima = [v for v in fib.vertices if all(b != v for _, b, _ in fib.covers)]
                maxima = [v for v in fib.vertices if all(a != v for a, _, _ in fib.covers)]
                assert len(minima) == len(maxima) == 1
                assert got == (minima[0], maxima[0])


def test_down_set_bit_cap(monkeypatch, keyed):
    g, table = keyed[((3, 2), 4)]
    expected = fiber(g, table, (2, 4, 1, 3))
    # its pass reaches 18 vertices with 8 fiber members
    monkeypatch.setattr(poset, "DOWN_SET_BIT_CAP", 18 * 8)
    assert fiber(g, table, (2, 4, 1, 3)) == expected
    monkeypatch.setattr(poset, "DOWN_SET_BIT_CAP", 18 * 8 - 1)
    with pytest.raises(GraphSizeError, match="down-set bit cap 143 exceeded"):
        fiber(g, table, (2, 4, 1, 3))


def test_fibers_at_longest_parabolics_have_extremes(keyed):
    for _, (g, table) in keyed.items():
        free = sorted(set(g.colors) - shape_stabilizer(g))
        for r in range(len(free) + 1):
            for sub in combinations(free, r):
                got = fiber_extremes(g, table, frozenset(sub))
                assert got is not None
                lo, hi = got
                fib = fiber(g, table, weyl.longest_parabolic(set(sub), g.n))
                assert len(fib.components) == 1
                for v in fib.vertices:
                    assert poset.interval(g, lo, v) is not None
                    assert poset.interval(g, v, hi) is not None


def test_fiber_extremes_empty_for_stabilizer_indices(keyed):
    g, table = keyed[((3, 2), 4)]
    assert shape_stabilizer(g) == frozenset({3})
    assert fiber_extremes(g, table, {3}) is None
    assert fiber_extremes(g, table, {1, 3}) is None


def test_fiber_extremes_trivial_parabolic(keyed):
    g, table = keyed[((4, 3), 4)]
    assert fiber_extremes(g, table, frozenset()) == (g.minimum, g.minimum)


def test_full_parabolic_fiber_minimum_has_signed_mobius():
    g = generate((3, 2, 1), 4)
    table = compute_keys(g)
    lo, hi = fiber_extremes(g, table, {1, 2, 3})
    assert hi == g.maximum
    mu = poset.lower_mobius_all(g)
    assert mu[lo] == -1


def test_demazure(keyed):
    g, table = keyed[((3, 2), 4)]
    assert demazure(g, table, weyl.identity(4)) == {g.minimum}
    assert demazure(g, table, (4, 3, 2, 1)) == frozenset(range(len(g)))
    perms = oracles.all_permutations(4)
    sets = {w: demazure(g, table, w) for w in perms}
    for u in perms:
        for w in perms:
            if weyl.strong_bruhat_leq(u, w):
                assert sets[u] <= sets[w]


@pytest.mark.parametrize("key", [*DEFAULT_MATRIX, ((3, 1), 5)])
def test_demazure_matches_closure_oracle(key):
    g = generate(*key)
    for h in (g, g.reverse()):
        table = compute_keys(h)
        closure = oracles.demazure_closure(h)
        assert len(closure) == len(oracles.all_permutations(h.n))
        for w, expected in closure.items():
            assert demazure(h, table, w) == expected


@pytest.mark.parametrize("key", DEFAULT_MATRIX)
def test_demazure_matches_bruhat_filter(graphs, key):
    g = graphs[key]
    for h in (g, g.reverse()):
        table = compute_keys(h)
        for w in oracles.all_permutations(h.n):
            expected = {v for v in range(len(h)) if weyl.strong_bruhat_leq(table[v], w)}
            assert demazure(h, table, w) == expected


def test_demazure_sizes_are_sane(keyed):
    g, table = keyed[((2, 1), 3)]
    # strong order on S_3: sizes must interpolate between 1 and all 8 vertices
    sizes = {w: len(demazure(g, table, w)) for w in oracles.all_permutations(3)}
    assert sizes[(1, 2, 3)] == 1
    assert sizes[(3, 2, 1)] == 8
    assert all(1 <= s <= 8 for s in sizes.values())


def test_minimal_fiber_elements_classify_mobius(keyed):
    for _, (g, table) in keyed.items():
        minima = minimal_fiber_elements(g, table)
        assert minima[frozenset()] == g.minimum
        mu = poset.lower_mobius_all(g)
        predicted = {v: (-1) ** len(j) for j, v in minima.items()}
        for v in range(len(g)):
            assert mu[v] == predicted.get(v, 0)


def test_unique_maximal_fiber_minimum_below_every_vertex(keyed):
    # among the fiber minima weakly below a vertex there is always a single
    # maximal one; this is the matching that collapses lower intervals
    for _, (g, table) in keyed.items():
        minima = sorted(set(minimal_fiber_elements(g, table).values()))
        below = {
            x: [z for z in minima if poset.interval(g, z, x) is not None]
            for x in range(len(g))
        }
        for x, candidates in below.items():
            maximal = [
                z for z in candidates
                if not any(z != y and poset.interval(g, z, y) is not None for y in candidates)
            ]
            assert len(maximal) == 1


def test_fiber_structure_error_on_stabilizer_violation(keyed):
    g, table = keyed[((2, 2), 4)]
    # stabilizer is {1, 3}; asking for those indices must report empty (None)
    assert fiber_extremes(g, table, {1}) is None
    with pytest.raises(FiberStructureError):
        minimal_fiber_elements(
            g, KeyTable(keys=tuple(weyl.identity(4) for _ in range(len(g))))
        )


def test_key_table_export(keyed):
    g, table = keyed[((2, 1), 3)]
    data = keymap.key_table_to_json(table)
    assert data["0"] == "123"
    assert len(data) == len(g)


def test_fiber_export(keyed):
    g, table = keyed[((3, 2), 4)]
    fib = fiber(g, table, (2, 4, 1, 3))
    data = keymap.fiber_to_json(fib)
    assert data["key"] == "2413"
    assert sorted(len(c) for c in data["components"]) == [2, 6]
