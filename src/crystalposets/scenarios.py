"""
Executable reproduction of the concrete structural facts about tableau
crystal posets that this package exists to check: the rank-4 interval with
Mobius value 2, chain-move disconnectivity with Catalan-counted components,
product intervals with Mobius value 2^r, the non-lattice witness, the
disconnected key fiber, the 0/+-1 classification of lower and upper interval
Mobius values, axiom and chain-connectivity sweeps, and witness extraction
wherever |mu| >= 2.

Every scenario returns a :class:`Certificate` whose expected side carries a
provenance tag: "reported" values are fixed targets, "derived" values are
recomputed inline by an independent brute-force oracle before being
compared.  The certificate stream is deterministic; runtimes are kept out
of the canonical JSON so that two runs agree byte for byte.

:func:`run_all` is the driver.  The scenarios that read a generated crystal
take a lookup ``crystal(shape, n)`` as their first argument, and one run
passes them all one cached lookup, so it generates each crystal once; s1,
s2, s3 and s8 likewise share one cached ``interval(u, v, n)`` lookup, so
each interval, the base interval included, is extracted once per run.
``poset.interval`` serves only as s4's order test; s10's Euler
cross-check reads each whole crystal as it is.  :func:`run_all` also
times each scenario call and records it as the certificate's
``runtime``.
"""

from __future__ import annotations

import functools
import json
import math
import time
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterable

from . import keymap, poset, weyl
from .crystal import (
    CrystalGraph,
    Tableau,
    apply_word,
    check_stembridge_axioms,
    generate,
    local_structure,
)

DEFAULT_MATRIX: tuple[tuple[tuple[int, ...], int], ...] = (
    ((2, 1), 3),
    ((3, 2), 4),
    ((4, 3), 4),
    ((2, 2), 4),
)

# the two-row parameters n that s2 and run_all(n_max=...) accept; s2[n=7]
# has 323,823 maximal chains
TWO_ROW_N = range(3, 8)

BASE_BOTTOM = ((1, 1, 1, 2), (2, 3, 4))
BASE_TOP = ((1, 1, 2, 3), (3, 4, 4))

# crystal(shape, n): the crystal graph B(shape, n); run_all passes one
# cached lookup to every scenario that reads a generated crystal
CrystalLookup = Callable[[tuple[int, ...], int], CrystalGraph]
# interval(u, v, n): poset.free_interval(u, v, n); run_all passes one cached
# lookup to the scenarios that extract intervals (s1, s2, s3 and s8)
IntervalLookup = Callable[[Tableau, Tableau, int], CrystalGraph | None]


@dataclass
class Certificate:
    scenario: str
    claim: str
    provenance: str
    expected: object
    computed: object
    passed: bool
    runtime: float = 0.0  # set by run_all, which times each scenario

    def to_json(self) -> dict:
        # runtime deliberately omitted: the certificate stream must be
        # byte-identical across runs
        return {
            "scenario": self.scenario,
            "claim": self.claim,
            "provenance": self.provenance,
            "expected": self.expected,
            "computed": self.computed,
            "passed": self.passed,
        }


def _certify(scenario: str, claim: str, provenance: str,
             expected: object, computed: object) -> Certificate:
    return Certificate(scenario, claim, provenance, expected, computed, expected == computed)


# -- independent brute-force oracles (used to recompute derived targets) ----

def _catalan(k: int) -> int:
    return math.comb(2 * k, k) // (k + 1)


# -- scenarios ---------------------------------------------------------------

def s1_base_interval(crystal: CrystalLookup, interval: IntervalLookup) -> Certificate:
    """Mobius value 2 on the 12-vertex rank-4 interval of B((4,3),4).

    The interval comes from the shared ``interval`` lookup; its vertex count
    is checked against the up-sets of its ends in the generated crystal."""
    graph = crystal((4, 3), 4)
    u, v = graph.index[BASE_BOTTOM], graph.index[BASE_TOP]
    itv = interval(BASE_BOTTOM, BASE_TOP, 4)
    chains = poset.saturated_chains(itv)
    expected = {
        "mobius": 2,
        "euler": 2,
        "vertices": len(set(poset._upset(graph, u)) & set(poset._upset(graph.reverse(), v))),
        "chain_label_multiset": [1, 2, 2, 3],
    }
    computed = {
        "mobius": poset.interval_mobius(itv),
        "euler": poset.euler_mobius(itv),
        "vertices": len(itv),
        "chain_label_multiset": sorted(chains[0])
        if all(sorted(c) == sorted(chains[0]) for c in chains)
        else None,
    }
    return _certify(
        "s1",
        "interval [1,1,1,2/2,3,4, 1,1,2,3/3,4,4] of B((4,3),4): mu = 2, "
        "Euler characteristic agrees, 12 vertices, labels {1,2,2,3}",
        "reported mu; derived vertex count",
        expected,
        computed,
    )


def _check_two_row(n: int) -> None:
    if n not in TWO_ROW_N:
        raise ValueError(
            f"two-row parameter must be between {TWO_ROW_N[0]} and {TWO_ROW_N[-1]}, got {n}"
        )


def _two_row_endpoints(n: int) -> tuple[Tableau, Tableau]:
    """Endpoints of the disconnected interval in B((n+1, n), n+1)."""
    bottom = (
        (1, 1, 1) + tuple(range(2, n)),
        tuple(range(2, n + 2)),
    )
    top = (
        (1, 1) + tuple(range(2, n + 1)),
        tuple(range(3, n + 2)) + (n + 1,),
    )
    return bottom, top


def s2_disconnected_chains(interval: IntervalLookup, n: int) -> Certificate:
    """The rank 2n-1 two-row interval splits under chain moves, with the
    label-increasing chain's component counted by a Catalan number.  The
    class counts come from the move-class summaries and the extremal
    chains' classes from their ``class_of`` walk, so no chain is listed.
    At n = 3 the interval is the base interval of s3 and s8."""
    _check_two_row(n)
    itv = interval(*_two_row_endpoints(n), n + 1)
    classes, class_of = poset._class_summaries(itv, poset.DEFAULT_CHAIN_CAP)
    increasing = (1,) + tuple(c for i in range(2, n) for c in (i, i)) + (n,)
    inc_comp = class_of(increasing)
    dec_comp = class_of(tuple(reversed(increasing)))
    expected = {
        "components_at_least_2": True,
        "extremal_chains_separated": True,
        "increasing_component_chains": _catalan(n - 2),
    }
    computed = {
        "components_at_least_2": len(classes) >= 2,
        "extremal_chains_separated": (
            inc_comp is not None and dec_comp is not None and inc_comp != dec_comp
        ),
        "increasing_component_chains": (
            classes[inc_comp][0] if inc_comp is not None else None
        ),
    }
    return _certify(
        f"s2[n={n}]",
        f"two-row interval in B(({n + 1},{n}),{n + 1}): >= 2 chain-move components, "
        f"increasing/decreasing chains separated, increasing component has "
        f"C_{n - 2} = {_catalan(n - 2)} chains",
        "reported",
        expected,
        computed,
    )


def _composite_endpoints(r: int) -> tuple[Tableau, Tableau, int]:
    """Stacked copies of the base interval endpoints, letters shifted by 4
    per copy and glued along a frozen staircase; alphabet size 4r."""
    n = 4 * r
    rows_bottom: list[tuple[int, ...]] = []
    rows_top: list[tuple[int, ...]] = []
    for k in range(1, r + 1):
        pad = 4 * (r - k)
        offset = 4 * (k - 1)
        for row_idx, base_b, base_t in (
            (2 * k - 1, BASE_BOTTOM[0], BASE_TOP[0]),
            (2 * k, BASE_BOTTOM[1], BASE_TOP[1]),
        ):
            frozen = (row_idx,) * pad
            rows_bottom.append(frozen + tuple(x + offset for x in base_b))
            rows_top.append(frozen + tuple(x + offset for x in base_t))
    return tuple(rows_bottom), tuple(rows_top), n


def _split_composite(rows: Tableau, r: int) -> tuple[Tableau, ...]:
    """Project a composite tableau back onto its r base-shaped copies."""
    parts = []
    for k in range(1, r + 1):
        pad = 4 * (r - k)
        offset = 4 * (k - 1)
        row1 = tuple(x - offset for x in rows[2 * k - 2][pad:])
        row2 = tuple(x - offset for x in rows[2 * k - 1][pad:])
        parts.append((row1, row2))
    return tuple(parts)


def s3_product_mobius(interval: IntervalLookup, r: int = 2) -> Certificate:
    """Mobius value 2^r on the composite interval, which is verified to be
    isomorphic to the r-fold product of the base interval."""
    base = interval(BASE_BOTTOM, BASE_TOP, 4)
    bottom, top, n = _composite_endpoints(r)
    itv = interval(bottom, top, n)

    base_vertices = set(base.vertices)
    base_edges = {
        (base.vertices[a], base.vertices[b], i) for a, b, i in base.edges
    }
    split = [_split_composite(t, r) for t in itv.vertices]
    iso_ok = len(set(split)) == len(itv)
    iso_ok &= all(part in base_vertices for parts in split for part in parts)
    for a, b, color in itv.edges:
        pa, pb = split[a], split[b]
        copy, local_color = divmod(color - 1, 4)
        local_color += 1
        changed = [k for k in range(r) if pa[k] != pb[k]]
        iso_ok &= changed == [copy] and local_color <= 3
        iso_ok &= (pa[copy], pb[copy], local_color) in base_edges

    product_sizes = [0] * (r * base.span + 1)
    for profile in _rank_profiles(base.rank_sizes(), r):
        product_sizes[profile[0]] += profile[1]

    expected = {
        "mobius": 2 ** r,
        "vertices": len(base) ** r,
        "edges": r * len(base.edges) * len(base) ** (r - 1),
        "rank_sizes": product_sizes,
        "product_isomorphism": True,
    }
    computed = {
        "mobius": poset.interval_mobius(itv),
        "vertices": len(itv),
        "edges": len(itv.edges),
        "rank_sizes": list(itv.rank_sizes()),
        "product_isomorphism": iso_ok,
    }
    return _certify(
        f"s3[r={r}]",
        f"composite interval built from {r} letter-shifted copies of the base "
        f"interval: mu = 2^{r}, {len(base) ** r} vertices, isomorphic to the "
        "product of the copies",
        "reported mu; derived isomorphism",
        expected,
        computed,
    )


def _rank_profiles(base_sizes: tuple[int, ...], r: int) -> Iterable[tuple[int, int]]:
    """(total rank, count) pairs of the r-fold product of a rank-size vector."""
    profile = {0: 1}
    for _ in range(r):
        nxt: dict[int, int] = {}
        for total, count in profile.items():
            for rk, size in enumerate(base_sizes):
                nxt[total + rk] = nxt.get(total + rk, 0) + count * size
        profile = nxt
    return sorted(profile.items())


def s4_non_lattice(crystal: CrystalLookup) -> Certificate:
    """Two incomparable minimal upper bounds inside B((4,3),4)."""
    graph = crystal((4, 3), 4)
    t = graph.index[((1, 1, 2, 2), (2, 3, 4))]
    s = graph.index[((1, 1, 1, 2), (3, 3, 4))]
    bound_one = graph.index[BASE_TOP]
    bound_two = graph.index[((1, 2, 2, 3), (3, 3, 4))]
    mubs = poset.minimal_upper_bounds(graph, t, s)

    expected = {
        "contains_both_bounds": True,
        "bounds_incomparable": True,
        "second_equals_f1f2f2_of_t": True,
        "second_equals_f2f1f1_of_s": True,
        "at_least_two": True,
    }
    computed = {
        "contains_both_bounds": bound_one in mubs and bound_two in mubs,
        "bounds_incomparable": poset.interval(graph, bound_one, bound_two) is None
        and poset.interval(graph, bound_two, bound_one) is None,
        "second_equals_f1f2f2_of_t": apply_word(graph, t, (2, 2, 1)) == bound_two,
        "second_equals_f2f1f1_of_s": apply_word(graph, s, (1, 1, 2)) == bound_two,
        "at_least_two": len(mubs) >= 2,
    }
    return _certify(
        "s4",
        "B((4,3),4) is not a lattice: 1,1,2,2/2,3,4 and 1,1,1,2/3,3,4 have two "
        "incomparable minimal upper bounds",
        "reported",
        expected,
        computed,
    )


def s5_disconnected_fiber(crystal: CrystalLookup) -> Certificate:
    """The key fiber at 2413 in B((3,2),4) has components of sizes 2 and 6."""
    graph = crystal((3, 2), 4)
    table = keymap.compute_keys(graph)
    fib = keymap.fiber(graph, table, (2, 4, 1, 3))
    identity_fiber = keymap.fiber(graph, table, weyl.identity(4))
    cover_colors = sorted(c for _, _, c in fib.covers if c is not None)
    expected = {
        "size": 8,
        "component_sizes": [2, 6],
        "cover_colors": [1, 1, 1, 1, 1, 3, 3, 3],
        "identity_fiber": [graph.minimum],
    }
    computed = {
        "size": len(fib.vertices),
        "component_sizes": sorted(len(c) for c in fib.components),
        "cover_colors": cover_colors if len(cover_colors) == len(fib.covers) else None,
        "identity_fiber": list(identity_fiber.vertices),
    }
    return _certify(
        "s5",
        "key fiber at 2413 in B((3,2),4): 8 elements in components of sizes 2 "
        "and 6 with cover colors drawn from {1,3}",
        "reported",
        expected,
        computed,
    )


def s6_lower_interval_mobius(
    crystal: CrystalLookup, shape: tuple[int, ...], n: int
) -> Certificate:
    """mu(min, x) lands in {0, +-1}, vanishing except at fiber minima of
    longest parabolic elements, where the sign is (-1)^|J|; dually for
    mu(x, max) on the reversed graph."""
    graph = crystal(shape, n)

    def classify(g: CrystalGraph) -> tuple[bool, int]:
        table = keymap.compute_keys(g)
        minima = keymap.minimal_fiber_elements(g, table)
        predicted = {v: (-1) ** len(j) for j, v in minima.items()}
        mu = poset.lower_mobius_all(g)
        ok = all(mu[v] == predicted.get(v, 0) for v in range(len(g)))
        ok &= all(abs(m) <= 1 for m in mu)
        return ok, sum(1 for m in mu if m != 0)

    primal_ok, primal_nonzero = classify(graph)
    dual_ok, dual_nonzero = classify(graph.reverse())
    expected = {
        "primal_classification": True,
        "dual_classification": True,
        "nonzero_counts_match": True,
    }
    computed = {
        "primal_classification": primal_ok,
        "dual_classification": dual_ok,
        "nonzero_counts_match": primal_nonzero == dual_nonzero,
    }
    return _certify(
        f"s6[{_shape_tag(shape, n)}]",
        f"B({shape},{n}): lower-interval Mobius values are 0 or (-1)^|J| exactly "
        "at fiber minima of longest parabolic elements; dually on the reversed graph",
        "reported",
        expected,
        computed,
    )


def _lower_intervals_connected(graph: CrystalGraph) -> bool:
    """Every interval [min, v] has one chain-move component."""
    return all(c == 1 for c in poset.move_classes_from(graph, graph.minimum))


def s7_axioms_and_connectivity(
    crystal: CrystalLookup, shape: tuple[int, ...], n: int
) -> Certificate:
    """Local axioms hold everywhere and chain moves connect the maximal
    chains of every lower interval, and dually of every upper interval."""
    graph = crystal(shape, n)
    report = check_stembridge_axioms(graph)
    expected = {
        "axioms": True,
        "lower_intervals_connected": True,
        "upper_intervals_connected": True,
    }
    computed = {
        "axioms": report.passed,
        "lower_intervals_connected": _lower_intervals_connected(graph),
        "upper_intervals_connected": _lower_intervals_connected(graph.reverse()),
    }
    return _certify(
        f"s7[{_shape_tag(shape, n)}]",
        f"B({shape},{n}): local structure axioms pass and every lower and upper "
        "interval has exactly one chain-move component",
        "reported",
        expected,
        computed,
    )


def _local_top_minimal(graph: CrystalGraph, up: list[int], u: int, i: int, j: int) -> bool:
    """Whether the top t of the square or hexagon that ``local_structure``
    finds over f_i(u) and f_j(u) is a minimal upper bound of the two: t is
    above both, and no lower cover of t is.  ``up[v]`` is the up-set of v as
    a bitmask (bit w set when w >= v), as ``poset._down_sets`` gives it on
    the reversed graph."""
    t = local_structure(graph, u, i, j).top
    common = up[graph.fwd[u][i]] & up[graph.fwd[u][j]]
    return bool(common >> t & 1) and not any(common >> p & 1 for p in graph.bwd[t].values())


def s8_witness_from_mobius(crystal: CrystalLookup, interval: IntervalLookup) -> Certificate:
    """Wherever |mu| >= 2 in the test matrix there is a covering pair with
    no least upper bound inside the interval; and every degree-2/degree-4
    local upper bound is a minimal upper bound.

    mu comes from one :func:`poset.mobius_from` pass per source, which walks
    only the source's up-set, and only that up-set is scanned for
    |mu| >= 2.  Each such interval comes from the shared ``interval``
    lookup by its end tableaux, so the base interval, which is one of them,
    is not extracted again.  The local upper bounds of B((4,3),4) are
    checked against up-set masks read off one ``poset._down_sets`` pass on
    the reversed graph (see :func:`_local_top_minimal`), not by two
    searches per pair."""
    big_intervals = 0
    witnesses = 0
    for shape, n in DEFAULT_MATRIX:
        graph = crystal(shape, n)
        for u in range(len(graph)):
            upset, mu = poset._mobius_upset(graph, u)
            for v in upset:
                if abs(mu[v]) >= 2:
                    big_intervals += 1
                    itv = interval(graph.vertices[u], graph.vertices[v], n)
                    if poset.non_stembridge_witness(itv) is not None:
                        witnesses += 1

    composite = interval(*_composite_endpoints(2)[:2], 8)
    composite_witness = poset.non_stembridge_witness(composite) is not None
    big_intervals += 1
    witnesses += 1 if composite_witness else 0

    graph = crystal((4, 3), 4)
    up = poset._down_sets(graph.reverse(), range(len(graph)))
    local_bounds_minimal = all(
        _local_top_minimal(graph, up, u, i, j)
        for u in range(len(graph))
        for i, j in combinations(sorted(graph.fwd[u]), 2)
    )

    expected = {
        "intervals_with_large_mobius": big_intervals,
        "witnesses_found": big_intervals,
        "witness_in_base_interval": True,
        "local_upper_bounds_minimal": True,
    }
    computed = {
        "intervals_with_large_mobius": big_intervals,
        "witnesses_found": witnesses,
        "witness_in_base_interval": poset.non_stembridge_witness(
            interval(BASE_BOTTOM, BASE_TOP, 4)
        )
        is not None,
        "local_upper_bounds_minimal": local_bounds_minimal,
    }
    return _certify(
        "s8",
        "every interval with |mu| >= 2 found in the matrix carries a covering "
        "pair without a least upper bound, and local upper bounds are minimal",
        "reported",
        expected,
        computed,
    )


def s10_staircase_sphere(crystal: CrystalLookup) -> Certificate:
    """mu(min, max) is (-1)^rank for staircase shapes and 0 otherwise."""
    cases = (
        ((2, 1), 3, 1),
        ((3, 2, 1), 4, -1),
        ((3, 1), 3, 0),
        ((4, 2, 1), 4, 0),
        ((2, 2), 4, 0),
    )
    expected = {}
    computed = {}
    for shape, n, target in cases:
        graph = crystal(shape, n)
        tag = _shape_tag(shape, n)
        expected[tag] = target
        mu = poset.lower_mobius_all(graph)[graph.maximum]
        # inline oracle: the chain-counting Euler characteristic must agree
        euler = poset.euler_mobius(graph)
        computed[tag] = mu if mu == euler else f"mu={mu} euler={euler}"
    return _certify(
        "s10",
        "mu(min, max) equals 1 for B((2,1),3), -1 for B((3,2,1),4), and 0 for "
        "the non-staircase shapes (3,1), (4,2,1), (2,2)",
        "derived",
        expected,
        computed,
    )


def _shape_tag(shape: tuple[int, ...], n: int) -> str:
    return f"{','.join(str(p) for p in shape)}|n={n}"


# -- driver -------------------------------------------------------------------

def _scenario_thunks(
    n_max: int, crystal: CrystalLookup, interval: IntervalLookup
) -> list[tuple[str, Callable, tuple]]:
    """(scenario id, function, arguments) for every scenario of a run."""
    thunks: list[tuple[str, Callable, tuple]] = [
        ("s1", s1_base_interval, (crystal, interval)),
        ("s4", s4_non_lattice, (crystal,)),
        ("s5", s5_disconnected_fiber, (crystal,)),
        ("s8", s8_witness_from_mobius, (crystal, interval)),
        ("s10", s10_staircase_sphere, (crystal,)),
        ("s3", s3_product_mobius, (interval,)),
    ]
    for n in range(TWO_ROW_N[0], n_max + 1):
        thunks.append(("s2", s2_disconnected_chains, (interval, n)))
    for shape, n in DEFAULT_MATRIX:
        thunks.append(("s6", s6_lower_interval_mobius, (crystal, shape, n)))
        thunks.append(("s7", s7_axioms_and_connectivity, (crystal, shape, n)))
    return thunks


def _sort_key(cert: Certificate) -> tuple[int, str]:
    head = cert.scenario.split("[")[0]
    return int(head[1:]), cert.scenario


def run_all(n_max: int = 5, only: str | None = None) -> list[Certificate]:
    """Run the certificate suite; ``only`` filters by scenario id (e.g. "s2").
    ``n_max`` is the largest two-row parameter of s2, in :data:`TWO_ROW_N`.

    The scenarios share one crystal lookup and one interval lookup, so each
    crystal is generated and each shared interval extracted at most once
    per run, and both are dropped when the run ends; each certificate's
    ``runtime`` is the time of its scenario call, generation and extraction
    included."""
    _check_two_row(n_max)
    thunks = _scenario_thunks(
        n_max, functools.cache(generate), functools.cache(poset.free_interval)
    )
    if only is not None:
        thunks = [thunk for thunk in thunks if thunk[0] == only]
        if not thunks:
            raise ValueError(f"unknown scenario id {only!r}")
    certificates = []
    for sid, fn, args in thunks:
        started = time.perf_counter()
        try:
            cert = fn(*args)
        except Exception as exc:  # a crashed scenario is a failed scenario
            cert = Certificate(sid, "scenario crashed", "reported", "completion",
                               f"{type(exc).__name__}: {exc}", False)
        cert.runtime = time.perf_counter() - started
        certificates.append(cert)
    return sorted(certificates, key=_sort_key)


def certificates_to_json(certificates: list[Certificate]) -> str:
    payload = {
        "all_passed": all(c.passed for c in certificates),
        "certificates": [c.to_json() for c in certificates],
    }
    return json.dumps(payload, indent=2, sort_keys=True)
