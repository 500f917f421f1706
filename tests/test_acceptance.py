"""
Acceptance criteria, one test per criterion, every value exact (tolerance is
equality) and every stated runtime budget enforced.  Each test prints one
pass/fail line; run with ``pytest -s tests/test_acceptance.py`` to see them.
"""

import time
from itertools import combinations

import pytest

import oracles
from crystalposets import keymap, poset, scenarios, weyl
from crystalposets.crystal import check_stembridge_axioms, generate, local_structure
from crystalposets.keymap import compute_keys, shape_stabilizer

MATRIX = scenarios.DEFAULT_MATRIX


def report(number: int, ok: bool, text: str, seconds: float) -> None:
    mark = "PASS" if ok else "FAIL"
    print(f"[{mark}] acceptance {number}: {text} ({seconds:.2f}s)")
    assert ok, f"acceptance criterion {number} failed: {text}"


def test_criterion_1_base_interval_mobius():
    start = time.perf_counter()
    cert = scenarios.s1_base_interval(generate, poset.free_interval)
    ok = (
        cert.passed
        and cert.computed["mobius"] == 2
        and cert.computed["euler"] == 2
    )
    elapsed = time.perf_counter() - start
    ok &= elapsed < 1.0
    report(1, ok, "mu = 2 with Euler agreement on the base interval, under 1 s", elapsed)


def test_criterion_2_catalan_components():
    start = time.perf_counter()
    ok = True
    for n, count in ((3, 1), (4, 2), (5, 5)):
        cert = scenarios.s2_disconnected_chains(poset.free_interval, n)
        ok &= cert.passed
        ok &= cert.computed["increasing_component_chains"] == count
        ok &= cert.computed["components_at_least_2"]
        ok &= cert.computed["extremal_chains_separated"]
    elapsed = time.perf_counter() - start
    ok &= elapsed < 60.0
    report(2, ok, "two-row intervals split with component sizes 1, 2, 5, under 60 s", elapsed)


def test_criterion_3_product_interval():
    start = time.perf_counter()
    cert = scenarios.s3_product_mobius(poset.free_interval, 2)
    ok = (
        cert.passed
        and cert.computed["mobius"] == 4
        and cert.computed["vertices"] == 144
        and cert.computed["product_isomorphism"] is True
        and cert.computed["rank_sizes"] == cert.expected["rank_sizes"]
    )
    elapsed = time.perf_counter() - start
    ok &= elapsed < 300.0
    report(3, ok, "doubled interval: mu = 4, 144 vertices, product structure, under 5 min", elapsed)


def test_criterion_4_disconnected_fiber():
    start = time.perf_counter()
    cert = scenarios.s5_disconnected_fiber(generate)
    ok = (
        cert.passed
        and cert.computed["size"] == 8
        and cert.computed["component_sizes"] == [2, 6]
    )
    elapsed = time.perf_counter() - start
    ok &= elapsed < 5.0
    report(4, ok, "fiber at 2413 in B((3,2),4): 8 elements in parts 2 + 6, under 5 s", elapsed)


def test_criterion_5_mobius_classification():
    start = time.perf_counter()
    ok = True
    for shape, n in MATRIX:
        cert = scenarios.s6_lower_interval_mobius(generate, shape, n)
        ok &= cert.passed
    elapsed = time.perf_counter() - start
    ok &= elapsed < 300.0
    report(5, ok, "mu(0,x) in {0,(-1)^|J|} classification, primal and dual, under 5 min", elapsed)


def test_criterion_6_fiber_extremes():
    start = time.perf_counter()
    ok = True
    for shape, n in MATRIX:
        g = generate(shape, n)
        table = compute_keys(g)
        stabilizer = shape_stabilizer(g)
        colors = set(g.colors)
        for r in range(len(colors) + 1):
            for sub in map(frozenset, combinations(sorted(colors), r)):
                got = keymap.fiber_extremes(g, table, sub)
                if sub <= colors - stabilizer:
                    ok &= got is not None  # unique extremes verified inside
                else:
                    ok &= got is None
    elapsed = time.perf_counter() - start
    report(6, ok, "fibers at longest parabolics: nonempty iff indices avoid the "
                  "stabilizer, each with unique extremes", elapsed)


def test_criterion_7_axioms_and_connectivity():
    start = time.perf_counter()
    ok = True
    for shape, n in MATRIX:
        cert = scenarios.s7_axioms_and_connectivity(generate, shape, n)
        ok &= cert.passed
    elapsed = time.perf_counter() - start
    report(7, ok, "local axioms hold and all lower/upper intervals have one "
                  "chain-move component", elapsed)


def test_criterion_8_witnesses():
    start = time.perf_counter()
    cert = scenarios.s8_witness_from_mobius(generate, poset.free_interval)
    ok = cert.passed
    ok &= scenarios.s4_non_lattice(generate).passed
    elapsed = time.perf_counter() - start
    report(8, ok, "every |mu| >= 2 interval yields a witness; local upper bounds "
                  "are minimal; the two incomparable bounds are found", elapsed)


def test_criterion_9_staircase_values():
    start = time.perf_counter()
    cert = scenarios.s10_staircase_sphere(generate)
    ok = cert.passed and cert.computed == {
        "2,1|n=3": 1,
        "3,2,1|n=4": -1,
        "3,1|n=3": 0,
        "4,2,1|n=4": 0,
        "2,2|n=4": 0,
    }
    elapsed = time.perf_counter() - start
    ok &= elapsed < 60.0
    report(9, ok, "mu(min,max): +1 and -1 on staircases, 0 elsewhere, under 1 min", elapsed)


def test_criterion_10_oracle_equivalences():
    start = time.perf_counter()
    ok = True

    # mobius == euler: exhaustive on the 8-vertex crystal
    g21 = generate((2, 1), 3)
    for u in range(len(g21)):
        for v in oracles.brute_upset(g21, u):
            if u == v:
                continue
            itv = poset.interval(g21, u, v)
            ok &= poset.interval_mobius(itv) == poset.euler_mobius(itv)

    # mobius == euler: 200 seeded random intervals per larger graph
    for (shape, n), seed in zip((((3, 2), 4), ((4, 3), 4), ((2, 2), 4)), (32, 43, 22)):
        g = generate(shape, n)
        pairs = oracles.comparable_pairs_sample(g, 200, seed=seed)
        ok &= len(pairs) == 200
        for u, v in pairs:
            itv = poset.interval(g, u, v)
            ok &= poset.interval_mobius(itv) == poset.euler_mobius(itv)

    # budgeted extraction == brute-force intersection on every graph <= 500
    for shape, n in MATRIX:
        g = generate(shape, n)
        ok &= len(g) <= 500
        for u in range(len(g)):
            upset = oracles.brute_upset(g, u)
            for v in range(len(g)):
                itv = poset.interval(g, u, v)
                if v in upset:
                    ok &= itv is not None and {g.index[t] for t in itv.vertices} == (
                        upset & oracles.brute_downset(g, v)
                    )
                else:
                    ok &= itv is None

    # weak-order join == brute-force lattice join on all pairs in S_4
    perms = oracles.all_permutations(4)
    for u, w in combinations(perms, 2):
        ok &= weyl.left_weak_join([u, w]) == oracles.brute_left_weak_join([u, w])

    # key table: axioms and adapted strings at every vertex
    for shape, n in MATRIX:
        g = generate(shape, n)
        table = compute_keys(g)
        ok &= keymap.check_key_axioms(g, table).passed
        for v in range(len(g)):
            ok &= oracles.adapted_string_check(g, table, v)

    elapsed = time.perf_counter() - start
    report(10, ok, "mobius/euler, budgeted/brute intervals, join, and key "
                   "table oracles all agree", elapsed)


def test_criterion_extras_guard_rails():
    # the asymptotic families are represented at their stated small sizes:
    # the suite as a whole must be green
    start = time.perf_counter()
    certs = scenarios.run_all(n_max=5)
    ok = all(c.passed for c in certs) and len(certs) == 17
    report(0, ok, "full certificate suite green (17 certificates)",
           time.perf_counter() - start)


def test_axioms_also_hold_on_reversed_graphs():
    start = time.perf_counter()
    ok = True
    for shape, n in MATRIX:
        ok &= check_stembridge_axioms(generate(shape, n).reverse()).passed
    report(0, ok, "reversed graphs satisfy the local axioms",
           time.perf_counter() - start)


def test_degree2_and_degree4_cover_all_color_pairs():
    start = time.perf_counter()
    ok = True
    for shape, n in MATRIX:
        g = generate(shape, n)
        for u in range(len(g)):
            for i, j in combinations(sorted(g.fwd[u]), 2):
                ok &= local_structure(g, u, i, j).degree in (2, 4)
    report(0, ok, "every covering color pair closes with degree 2 or 4",
           time.perf_counter() - start)
