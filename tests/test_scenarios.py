"""The certificate suite: individual scenarios, determinism, crash reporting."""

import hashlib

import pytest

from crystalposets import poset, scenarios
from crystalposets.crystal import generate

# sha256 of certificates_to_json(run_all(n_max=6)); the canonical stream of
# `crystalposets verify --n-max 6 --format json` must stay byte-identical
CERTIFY_DIGEST = "0e303205cd2f69b5c3f7598b9007f6eda9e6085d6e47c803682d2905930f35d3"


def test_s1():
    cert = scenarios.s1_base_interval(generate, poset.free_interval)
    assert cert.passed
    assert cert.computed["mobius"] == 2
    assert cert.computed["vertices"] == 12


@pytest.mark.parametrize("n,component", [(3, 1), (4, 2), (5, 5)])
def test_s2(n, component):
    cert = scenarios.s2_disconnected_chains(poset.free_interval, n)
    assert cert.passed
    assert cert.computed["increasing_component_chains"] == component


def test_s2_rejects_out_of_range():
    for n in (2, 8):
        with pytest.raises(ValueError):
            scenarios.s2_disconnected_chains(poset.free_interval, n)


def test_s2_at_the_largest_parameter():
    n = scenarios.TWO_ROW_N[-1]
    assert n == 7
    cert = scenarios.s2_disconnected_chains(poset.free_interval, n)
    assert cert.passed
    assert cert.computed["increasing_component_chains"] == 42
    itv = poset.free_interval(*scenarios._two_row_endpoints(n), n + 1)
    assert len(itv) == 750
    paths = [0] * len(itv)  # maximal chains from the bottom, by rank order
    paths[itv.minimum] = 1
    for z in sorted(range(len(itv)), key=itv.rank.__getitem__):
        paths[z] += sum(paths[a] for a in itv.bwd[z].values())
    assert paths[itv.maximum] == 323_823
    assert poset.move_classes_from(itv, itv.minimum)[itv.maximum] == 33
    summary = poset.move_class_summary(itv, 323_823)
    assert len(summary) == 33
    assert sum(size for size, _ in summary) == 323_823
    # the increasing chain is the least of all, so its class comes first
    assert summary[0] == (42, (1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7))
    with pytest.raises(poset.ChainCapError, match="^chain cap 323822 exceeded$"):
        poset.move_class_summary(itv, 323_822)


def test_s2_lists_no_chain(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("s2 enumerated chains")

    monkeypatch.setattr(poset, "stembridge_components", refuse)
    monkeypatch.setattr(poset, "saturated_chains", refuse)
    cert = scenarios.s2_disconnected_chains(poset.free_interval, 6)
    assert cert.passed
    assert cert.computed["increasing_component_chains"] == 14


def test_s3():
    cert = scenarios.s3_product_mobius(poset.free_interval, 2)
    assert cert.passed
    assert cert.computed["mobius"] == 4
    assert cert.computed["vertices"] == 144
    assert cert.computed["rank_sizes"] == [1, 6, 17, 30, 36, 30, 17, 6, 1]


def test_s3_degenerates_to_base_interval():
    cert = scenarios.s3_product_mobius(poset.free_interval, 1)
    assert cert.passed
    assert cert.computed["mobius"] == 2
    assert cert.computed["vertices"] == 12


def test_s4():
    assert scenarios.s4_non_lattice(generate).passed


def test_s5():
    cert = scenarios.s5_disconnected_fiber(generate)
    assert cert.passed
    assert cert.computed["component_sizes"] == [2, 6]


@pytest.mark.parametrize("shape,n", scenarios.DEFAULT_MATRIX)
def test_s6(shape, n):
    assert scenarios.s6_lower_interval_mobius(generate, shape, n).passed


@pytest.mark.parametrize("shape,n", scenarios.DEFAULT_MATRIX)
def test_s7(shape, n):
    assert scenarios.s7_axioms_and_connectivity(generate, shape, n).passed


def test_s8():
    cert = scenarios.s8_witness_from_mobius(generate, poset.free_interval)
    assert cert.passed
    assert cert.computed["intervals_with_large_mobius"] >= 2


def test_s10():
    cert = scenarios.s10_staircase_sphere(generate)
    assert cert.passed
    assert cert.computed["2,1|n=3"] == 1
    assert cert.computed["3,2,1|n=4"] == -1
    assert cert.computed["2,2|n=4"] == 0


def test_run_all_passes_and_sorts():
    certs = scenarios.run_all(n_max=3)
    assert all(c.passed for c in certs)
    ids = [c.scenario for c in certs]
    assert ids == sorted(ids, key=lambda s: (int(s.split("[")[0][1:]), s))


def test_run_all_rejects_n_max_out_of_range():
    for n_max in (2, 8):
        with pytest.raises(ValueError):
            scenarios.run_all(n_max=n_max)


def test_certificate_digest():
    certs = scenarios.run_all(n_max=6)
    assert len(certs) == 18 and all(c.passed for c in certs)
    canonical = scenarios.certificates_to_json(certs)
    assert hashlib.sha256(canonical.encode()).hexdigest() == CERTIFY_DIGEST


def test_run_all_generates_each_crystal_once_per_run(monkeypatch):
    calls = []

    def counting(shape, n):
        calls.append((shape, n))
        return generate(shape, n)

    monkeypatch.setattr(scenarios, "generate", counting)
    for _ in range(2):  # the lookup lives for one run, so a second run generates again
        calls.clear()
        canonical = scenarios.certificates_to_json(scenarios.run_all(n_max=6))
        assert hashlib.sha256(canonical.encode()).hexdigest() == CERTIFY_DIGEST
        assert len(calls) == len(set(calls)) == 7
    assert all(c.runtime > 0 for c in scenarios.run_all(n_max=3))


def test_run_all_extracts_each_interval_once_per_run(monkeypatch):
    # s1, s2, s3 and s8 share one free_interval lookup: the composite
    # interval, the base interval (which is also s2[n=3]), s8's other
    # |mu| >= 2 interval and the two-row intervals of s2[n=4..6] are
    # extracted once each; poset.interval serves only s4's order test (s10
    # reads its whole crystals as they are), and never extracts the base pair
    free, ambient = [], []
    extract, extract_in = poset.free_interval, poset.interval

    def counting(u, v, n):
        free.append((u, v, n))
        return extract(u, v, n)

    def counting_in(graph, u, v):
        ambient.append((graph.vertices[u], graph.vertices[v], graph.n))
        return extract_in(graph, u, v)

    monkeypatch.setattr(poset, "free_interval", counting)
    monkeypatch.setattr(poset, "interval", counting_in)
    canonical = scenarios.certificates_to_json(scenarios.run_all(n_max=6))
    assert hashlib.sha256(canonical.encode()).hexdigest() == CERTIFY_DIGEST
    composite = scenarios._composite_endpoints(2)
    base = (scenarios.BASE_BOTTOM, scenarios.BASE_TOP, 4)
    other = (((1, 1, 2, 4), (2, 3, 4)), ((1, 2, 3, 4), (3, 4, 4)), 4)
    assert base == (*scenarios._two_row_endpoints(3), 4)
    assert len(free) == len(set(free)) == 6 and {composite, base, other} <= set(free)
    assert len(ambient) == 2 and (free + ambient).count(base) == 1
    free.clear()
    scenarios.run_all(n_max=3, only="s8")  # a second run extracts again
    assert sorted(free) == sorted([composite, base, other])


def test_run_all_filter():
    certs = scenarios.run_all(n_max=4, only="s2")
    assert [c.scenario for c in certs] == ["s2[n=3]", "s2[n=4]"]
    with pytest.raises(ValueError):
        scenarios.run_all(only="s99")


def test_certificate_stream_is_deterministic():
    first = scenarios.certificates_to_json(scenarios.run_all(n_max=3, only="s6"))
    second = scenarios.certificates_to_json(scenarios.run_all(n_max=3, only="s6"))
    assert first == second


def test_crashed_scenario_reports_failure(monkeypatch):
    def boom(crystal):
        raise RuntimeError("deliberate")

    monkeypatch.setattr(scenarios, "s4_non_lattice", boom)
    certs = scenarios.run_all(n_max=3, only="s4")
    assert len(certs) == 1
    assert not certs[0].passed
    assert "deliberate" in str(certs[0].computed)
