"""One workload of the crystalposets benchmark, run in a fresh process.

    python3 perfbench/workloads.py --workload NAME --seed N --seconds S \
        --trace 0|1 [--setup-only]

The process imports crystalposets from ``src/`` of the checkout, builds the
workload's inputs from the seed, and (unless ``--setup-only``) repeats the
workload's fixed work while another pass fits into ``--seconds``, with at
least one pass.  It then checks the outputs and prints one JSON line: the
monotonic clock reading when the inputs were ready, per-pass wall times,
per-query latency quantiles, peak RSS, operation counts and, when traced,
the per-layer numbers.  ``run.py`` starts it and turns that line into the
benchmark's metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import random
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from tracing import OFF, Tracer

ROOT = Path(__file__).resolve().parent.parent
SPANS_DIR = ROOT / ".bench_out"

# -- certify: the certificate suite that `crystalposets verify --n-max 6` runs
CERTIFY_N_MAX = 6
CERTIFY_COUNT = 18
# sha256 of certificates_to_json(run_all(n_max=6)), recorded from the
# unmodified library; the canonical stream must stay byte-identical
CERTIFY_DIGEST = "0e303205cd2f69b5c3f7598b9007f6eda9e6085d6e47c803682d2905930f35d3"

# -- whole_crystal: every whole-graph kernel on B((5,4),6), primal and dual
WHOLE_SHAPE, WHOLE_N = (5, 4), 6
# sha256 of the key tables, lower Mobius vectors, fiber minima and Demazure
# sets of both directions (see _whole_digest), recorded from the unmodified
# library
WHOLE_DIGEST = "f1d41646c6ce741646a88a11b27f566058669e1a8834a931998f1c33314be606"

# -- interval_queries: seeded comparable pairs in crystals never generated
QUERY_CASES = (
    ((4, 3), 5), ((3, 2, 1), 5), ((5, 4), 6), ((4, 2, 1), 6),
    ((6, 5), 7), ((3, 3, 2), 7), ((7, 6), 8), ((4, 3, 2, 1), 8),
)
QUERY_COUNT = 8000
QUERY_STEPS = range(2, 10)  # f-steps from u up to v; k is drawn with weight 2^-k
QUERY_MAX_DEPTH = 24  # u is a walk of 0..24 f-steps from the highest tableau
GATE_SAMPLE = 100  # queries re-checked against independent oracles


@dataclass
class Outcome:
    """What one pass did: latencies of its operations and their failures."""

    latencies_ms: list[float | None] = field(default_factory=list)  # None: failed
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    outputs: object = None  # checked by the workload's gate, then dropped
    properties: dict[str, float] = field(default_factory=dict)  # reported per-layer

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)


def _import_library():
    """crystalposets from this checkout's sources, never an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import crystalposets

    if Path(crystalposets.__file__).resolve().parent != (src / "crystalposets").resolve():
        sys.exit(f"imported crystalposets from {crystalposets.__file__}, not from {src}")
    return crystalposets


# -- certify ------------------------------------------------------------------

def certify_inputs(cp, seed: int) -> int:
    return CERTIFY_N_MAX


def certify_pass(cp, n_max: int, tracer) -> Outcome:
    """What `crystalposets verify --n-max 6 --format json` computes."""
    certificates = cp.scenarios.run_all(n_max=n_max)
    canonical = cp.scenarios.certificates_to_json(certificates)
    return Outcome(outputs=(certificates, canonical))


def certify_gate(cp, n_max: int, outcome: Outcome, seed: int) -> None:
    """Every certificate passes and the canonical stream is byte-identical."""
    certificates, canonical = outcome.outputs
    # the certificates and the canonical stream; missing certificates fail
    outcome.attempted = max(len(certificates), CERTIFY_COUNT) + 1
    outcome.failed = outcome.attempted - 1 - len(certificates)
    for cert in certificates:
        if not cert.passed:
            outcome.fail(f"certificate {cert.scenario} failed: {cert.computed}")
    if hashlib.sha256(canonical.encode()).hexdigest() != CERTIFY_DIGEST:
        outcome.fail("canonical certificate JSON differs from the recorded digest")
    for cert in certificates:  # Certificate.runtime summed per scenario family
        name = f"scenarios.{cert.scenario.split('[')[0]}_s"
        outcome.properties[name] = outcome.properties.get(name, 0.0) + cert.runtime


# -- whole_crystal --------------------------------------------------------------

def whole_inputs(cp, seed: int) -> tuple[tuple[int, ...], int]:
    return WHOLE_SHAPE, WHOLE_N


def whole_pass(cp, inputs, tracer) -> Outcome:
    out = Outcome()

    def op(fn, *args, check=None):
        """One library call; a raise or a failed check is a failure."""
        out.attempted += 1
        try:
            result = fn(*args)
        except Exception as exc:
            out.fail(f"{fn.__name__}: {type(exc).__name__}: {exc}")
            raise
        if check is not None and not check(result):
            out.fail(f"{fn.__name__} check failed")
        return result

    def reverse(g):
        with tracer.span("crystal.reverse"):
            return g.reverse()

    def roundtrip(g):
        with tracer.span("crystal.json_roundtrip"):
            return cp.graph_from_json(json.dumps(cp.graph_to_json(g)))

    shape, n = inputs
    record = {}
    try:
        graph = op(cp.generate, shape, n)
        for direction, g in (("primal", graph), ("dual", op(reverse, graph))):
            table = op(cp.compute_keys, g)
            op(cp.check_key_axioms, g, table, check=bool)
            mu = op(cp.poset.lower_mobius_all, g)
            minima = op(cp.minimal_fiber_elements, g, table)
            op(cp.check_stembridge_axioms, g, check=bool)
            keys = sorted(set(table.keys))
            demazure = [op(cp.demazure, g, table, w) for w in keys]
            record[direction] = (table, mu, minima, keys, demazure)
        op(roundtrip, graph, check=lambda h: (
            h.vertices == graph.vertices and h.edges == graph.edges and h.rank == graph.rank
        ))
    except Exception:
        return out
    out.outputs = record
    return out


def _whole_digest(record) -> str:
    payload = {
        direction: {
            "keys": [list(k) for k in table.keys],
            "mu": mu,
            "minima": sorted([sorted(j), v] for j, v in minima.items()),
            "demazure": [[list(w), sorted(d)] for w, d in zip(keys, demazure)],
        }
        for direction, (table, mu, minima, keys, demazure) in record.items()
    }
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def whole_gate(cp, inputs, outcome: Outcome, seed: int) -> None:
    """Dual Mobius counts agree and the outputs match the recorded digest."""
    record = outcome.outputs
    outcome.attempted += 2
    nonzero = {d: sum(1 for m in rec[1] if m) for d, rec in record.items()}
    if nonzero["primal"] != nonzero["dual"]:
        outcome.fail(f"nonzero Mobius counts differ: {nonzero}")
    if _whole_digest(record) != WHOLE_DIGEST:
        outcome.fail("whole-crystal outputs differ from the recorded digest")


# -- interval_queries -----------------------------------------------------------

def _lowest_rank(shape: tuple[int, ...], n: int) -> int:
    """Rank of the lowest-weight tableau: a column of height h adds h(n - h)."""
    heights = [sum(1 for part in shape if part > c) for c in range(shape[0])]
    return sum(h * (n - h) for h in heights)


def query_plan(total: int) -> list[tuple[int, int]]:
    """(case, k) of every query: k has weight 2^-k and cases alternate, so
    every seed runs the same mix and only the walks differ."""
    weights = [2.0 ** -k for k in QUERY_STEPS]
    scale = total / sum(weights)
    plan = []
    for k, w in zip(QUERY_STEPS, weights):
        count = max(1, round(w * scale))
        plan.extend((j % len(QUERY_CASES), k) for j in range(count))
    return plan


def query_inputs(cp, seed: int) -> tuple[list[tuple[object, object, int]], list[int]]:
    """Comparable pairs (u, v, n) and their step counts k: u is a random
    f-walk from the highest tableau, v a further k random f-steps above u.
    The library only ever sees the triples."""
    rng = random.Random(seed)
    plan = query_plan(QUERY_COUNT)
    rng.shuffle(plan)

    def step(x, n):
        colors = list(range(1, n))
        while True:  # uniform among the colors whose f applies
            y = cp.apply_f(x, colors.pop(rng.randrange(len(colors))))
            if y is not None:
                return y

    triples = []
    for case, k in plan:
        shape, n = QUERY_CASES[case]
        depth = rng.randint(0, min(QUERY_MAX_DEPTH, _lowest_rank(shape, n) - k))
        x = cp.highest(shape, n)
        for _ in range(depth):
            x = step(x, n)
        u = x
        for _ in range(k):
            x = step(x, n)
        triples.append((u, x, n))
    return triples, [k for _, k in plan]


def query_pass(cp, inputs, tracer) -> Outcome:
    """Per query exactly the library path of `mobius` and `chains --components`."""
    triples, _ = inputs
    out = Outcome(attempted=len(triples))
    results = []
    for q, (u, v, n) in enumerate(triples):
        tracer.query = q
        started = time.perf_counter()
        try:
            itv = cp.free_interval(u, v, n)
            if itv is None:
                raise ValueError("no interval")
            mu = cp.interval_mobius(itv)
            chains, components = cp.stembridge_components(itv)
        except Exception as exc:
            out.fail(f"query {q}: {type(exc).__name__}: {exc}")
            out.latencies_ms.append(None)
            results.append(None)
            continue
        out.latencies_ms.append((time.perf_counter() - started) * 1e3)
        results.append((len(itv), itv.span, mu, len(chains), len(components)))
    out.outputs = results
    return out


def query_gate(cp, inputs, outcome: Outcome, seed: int) -> None:
    """Every interval spans its step count; a seeded subsample agrees with
    the Euler-characteristic oracle and with plain chain enumeration."""
    triples, steps = inputs
    rng = random.Random(seed + 1)
    sample = set(rng.sample(range(len(triples)), min(GATE_SAMPLE, len(triples))))
    for q, ((u, v, n), k, got) in enumerate(zip(triples, steps, outcome.outputs)):
        if got is None:
            continue
        size, span, mu, chain_count, _ = got
        ok = span == k
        if ok and q in sample:
            itv = cp.free_interval(u, v, n)
            chains, components = cp.stembridge_components(itv)
            ok = (
                len(itv) == size
                and cp.euler_mobius(itv) == mu
                and len(cp.saturated_chains(itv)) == chain_count == len(chains)
                and sorted(c for comp in components for c in comp) == list(range(len(chains)))
            )
        if not ok:
            outcome.fail(f"query {q} disagrees with the oracles")
    outcome.properties.update(query_properties(outcome.outputs))


def query_properties(results) -> dict[str, float]:
    """Input properties later changes can cite: interval size and chain
    count quantiles, and the shares of queries with >= 2 move components
    and with |mu| >= 2."""
    done = [r for r in results if r is not None]
    if not done:
        return {}
    sizes = sorted(r[0] for r in done)
    chains = sorted(r[3] for r in done)
    props = {}
    for name, values in (("interval_vertices", sizes), ("chains", chains)):
        for label, q in (("p50", 0.5), ("p90", 0.9), ("p99", 0.99)):
            props[f"inputs.{name}_{label}"] = float(_nearest_rank(values, q))
        props[f"inputs.{name}_max"] = float(values[-1])
    props["inputs.multi_component_share"] = sum(r[4] >= 2 for r in done) / len(done)
    props["inputs.big_mu_share"] = sum(abs(r[2]) >= 2 for r in done) / len(done)
    return props


def _nearest_rank(sorted_values: list[float], q: float) -> float:
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


WORKLOADS = {
    "certify": (certify_inputs, certify_pass, certify_gate),
    "whole_crystal": (whole_inputs, whole_pass, whole_gate),
    "interval_queries": (query_inputs, query_pass, query_gate),
}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    cp = _import_library()
    make_inputs, run_pass, gate = WORKLOADS[args.workload]
    inputs = make_inputs(cp, args.seed)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return
    # the inputs live for the whole run; a user's process would not hold
    # them, so keep the cyclic collector from rescanning them
    gc.freeze()

    tracer = OFF
    if args.trace:
        tracer = Tracer()
        tracer.install(cp)
    walls: list[float] = []
    outcomes: list[Outcome] = []
    begun = time.perf_counter()
    while True:
        started = time.perf_counter()
        with tracer.span("bench.pass"):
            outcome = run_pass(cp, inputs, tracer)
        walls.append(time.perf_counter() - started)
        outcomes.append(outcome)
        if outcome.outputs is not None:
            with tracer.paused():
                gate(cp, inputs, outcome, args.seed)
            outcome.outputs = None  # so that no pass holds memory of the previous one
        if outcome.failed or time.perf_counter() - begun + walls[-1] > args.seconds:
            break
    # a request's latency is its best over the passes, so that a slow phase
    # of a shared machine does not land in the tail; certify and whole_crystal
    # are one request each, answered once per pass
    per_query = [min(ts) for ts in zip(*(o.latencies_ms for o in outcomes)) if None not in ts]
    latencies = sorted(per_query or [min(walls) * 1e3])

    result = {
        "ready": ready,
        "walls": walls,
        "query_samples": f"n={len(latencies)}, best of {len(walls)} passes each",
        "query_p50_ms": statistics.median(latencies),
        "query_p99_ms": _nearest_rank(latencies, 0.99),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": sum(o.attempted for o in outcomes),
        "failed": sum(o.failed for o in outcomes),
        "errors": [e for o in outcomes for e in o.errors][:5],
        "properties": outcomes[0].properties,
        "layers": tracer.summary(len(outcomes)) if args.trace else {},
    }
    if args.trace:
        tracer.dump(SPANS_DIR / f"spans_{args.workload}_seed{args.seed}.json")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
