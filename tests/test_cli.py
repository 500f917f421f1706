"""Command-line surface: output formats, exit codes, error handling."""

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from crystalposets import cli, poset, scenarios
from crystalposets.crystal import graph_from_json
from crystalposets.scenarios import Certificate

# sha256 of the stdout of `generate --shape 6,5 --n 6 --format json`
EXPORT_DIGEST = "27d5159d28a16c615a6a64d361e52177c3836dfddb1d062e94c56c10d38e5cfc"
# sha256 of the stdout of `fiber --shape 5,4 --n 6 --w 561234 --format json`:
# 1,274 vertices, 3,414 covers
FIBER_DIGEST = "c02358900cf24378be00282fcd2eb3e90d8b745935b5fde580a76216c049e455"

# sha256 of the stdout of `chains` on the s2[n=6] endpoints (TWO_ROW_ARGS),
# 9,014 chains, in the human and the JSON format
CHAINS_DIGEST = "6cabfafa439b36987701ea06c013d2f2550d1cdd8146a1d34bd03d0a76bb3133"
CHAINS_JSON_DIGEST = "a79b68e9d6286f297e530e22f23b978933a9861e33cbdc29f7373325f9e56a4d"
TWO_ROW_ARGS = [
    "--shape", "7,6", "--n", "7",
    "--u", "1,1,1,2,3,4,5/2,3,4,5,6,7", "--v", "1,1,2,3,4,5,6/3,4,5,6,7,7",
]

FIG_ARGS = [
    "--shape", "4,3", "--n", "4",
    "--u", "1,1,1,2/2,3,4", "--v", "1,1,2,3/3,4,4",
]


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_bounded(*argv, memory=1 << 30):
    """Run ``python -m crystalposets.cli`` in a subprocess whose address
    space is capped at ``memory`` bytes, so only that child is limited;
    return its exit code and stderr."""
    resource = pytest.importorskip("resource")

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (memory, memory))

    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-m", "crystalposets.cli", *argv],
        capture_output=True, text=True, env=env, preexec_fn=limit, timeout=300,
    )
    return done.returncode, done.stderr


def test_generate_human(capsys):
    code, out, _ = run(capsys, "generate", "--shape", "2,1", "--n", "3")
    assert code == 0
    assert "8 vertices" in out


def test_generate_json_round_trips(capsys):
    code, out, _ = run(capsys, "generate", "--shape", "3,2", "--n", "4",
                       "--format", "json")
    assert code == 0
    graph = graph_from_json(json.loads(out))
    assert len(graph) == 60
    assert graph.minimum == 0


def test_generate_export_digest(capsys):
    code, out, _ = run(capsys, "generate", "--shape", "6,5", "--n", "6", "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == EXPORT_DIGEST


def test_generate_dot(capsys):
    code, out, _ = run(capsys, "generate", "--shape", "1", "--n", "2",
                       "--format", "dot")
    assert code == 0
    assert out.startswith("digraph crystal {")
    assert '0 -> 1 [label="1"' in out


def test_mobius_prints_value(capsys):
    code, out, _ = run(capsys, "mobius", *FIG_ARGS)
    assert code == 0
    assert out.strip() == "2"


def test_mobius_json(capsys):
    code, out, _ = run(capsys, "mobius", *FIG_ARGS, "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data == {"mobius": 2, "vertices": 12, "span": 4}


def test_mobius_incomparable_is_an_argument_error(capsys):
    code, _, err = run(
        capsys, "mobius", "--shape", "4,3", "--n", "4",
        "--u", "1,1,2,3/3,4,4", "--v", "1,1,1,2/2,3,4",
    )
    assert code == 2
    assert "not below" in err


def test_interval_human_and_json(capsys):
    code, out, _ = run(capsys, "interval", *FIG_ARGS)
    assert code == 0
    assert "12 vertices" in out
    code, out, _ = run(capsys, "interval", *FIG_ARGS, "--format", "json")
    data = json.loads(out)
    assert len(data["vertices"]) == 12


def test_chains(capsys):
    code, out, _ = run(capsys, "chains", *FIG_ARGS)
    assert code == 0
    assert out.split() == ["1223", "2132", "2312", "3221"]


def test_chains_digest(capsys):
    # the chain list printed as label words, byte for byte
    for extra, digest in (([], CHAINS_DIGEST), (["--format", "json"], CHAINS_JSON_DIGEST)):
        code, out, _ = run(capsys, "chains", *TWO_ROW_ARGS, *extra)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest
    assert out.count("],") == 9013 and len(json.loads(out)) == 9014


def test_chain_components(capsys):
    code, out, _ = run(capsys, "chains", *FIG_ARGS, "--components",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["chain_count"] == 4
    assert data["component_count"] == 3


def test_chain_components_cap_counts_chains(capsys):
    code, out, _ = run(capsys, "chains", *FIG_ARGS, "--components", "--cap", "4")
    assert code == 0
    assert "4 chains in 3 move component(s)" in out
    code, _, err = run(capsys, "chains", *FIG_ARGS, "--components", "--cap", "3")
    assert code == 2 and "chain cap 3 exceeded" in err


def test_chain_cap_refuses_within_bounded_memory():
    # the whole interval of B((5,4),6) has more chains than the default cap;
    # the count refuses them before any list grows, so 1 GB is plenty
    code, err = run_bounded(
        "chains", "--shape", "5,4", "--n", "6",
        "--u", "1,1,1,1,1/2,2,2,2", "--v", "5,5,5,5,6/6,6,6,6",
    )
    assert code == 2
    assert err == f"error: chain cap {poset.DEFAULT_CHAIN_CAP} exceeded\n"


def test_keys(capsys):
    code, out, _ = run(capsys, "keys", "--shape", "2,1", "--n", "3",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["0"] == "123"


def test_fiber_identity_is_minimum(capsys):
    code, out, _ = run(capsys, "fiber", "--shape", "3,2", "--n", "4",
                       "--w", "1234")
    assert code == 0
    assert "1 vertices" in out or "1 vertex" in out.replace("vertices", "vertex")


def test_fiber_json(capsys):
    code, out, _ = run(capsys, "fiber", "--shape", "3,2", "--n", "4",
                       "--w", "2413", "--format", "json")
    data = json.loads(out)
    assert sorted(len(c) for c in data["components"]) == [2, 6]


def test_largest_fiber_digest_within_budget(capsys):
    started = time.perf_counter()
    code, out, _ = run(capsys, "fiber", "--shape", "5,4", "--n", "6",
                       "--w", "561234", "--format", "json")
    assert time.perf_counter() - started < 10.0
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == FIBER_DIGEST


def test_down_set_bit_cap_exits_2(capsys, monkeypatch):
    # the 2413 fiber of B((3,2),4) needs 18 vertices times 8 members
    monkeypatch.setattr(poset, "DOWN_SET_BIT_CAP", 18 * 8 - 1)
    code, out, err = run(capsys, "fiber", "--shape", "3,2", "--n", "4", "--w", "2413")
    assert (code, out) == (2, "")
    assert err.startswith("error: down-set bit cap 143 exceeded")


def test_demazure(capsys):
    code, out, _ = run(capsys, "demazure", "--shape", "2,1", "--n", "3",
                       "--w", "321", "--format", "json")
    data = json.loads(out)
    assert len(data["vertices"]) == 8


def test_verify_single_scenario(capsys):
    code, out, _ = run(capsys, "verify", "--scenario", "s1")
    assert code == 0
    assert "[PASS] s1" in out


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "--scenario", "s5", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["all_passed"] is True
    assert "runtime" not in data["certificates"][0]


def test_verify_failure_exit_code(capsys, monkeypatch):
    failed = Certificate(
        scenario="s1", claim="x", provenance="reported",
        expected=1, computed=2, passed=False, runtime=0.0,
    )
    monkeypatch.setattr(scenarios, "run_all", lambda **kw: [failed])
    code, out, _ = run(capsys, "verify")
    assert code == 1
    assert "[FAIL]" in out


def test_argument_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["mobius", "--shape", "4,3"])
    assert exc.value.code == 2

    code, _, err = run(capsys, "mobius", "--shape", "4,3", "--n", "4",
                       "--u", "1,1/2", "--v", "1,2/2")
    assert code == 2
    assert "shape" in err

    code, _, err = run(capsys, "generate", "--shape", "x", "--n", "3")
    assert code == 2

    code, _, err = run(capsys, "verify", "--n-max", "9")
    assert code == 2

    for command in (
        ["generate", "--shape", "1", "--n", "1", "--max-vertices"],
        ["chains", *FIG_ARGS, "--cap"],
    ):
        for value in ("0", "-1"):
            with pytest.raises(SystemExit) as exc:
                cli.main([*command, value])
            assert exc.value.code == 2
            assert f"argument {command[-1]}: must be a positive integer" in capsys.readouterr().err

    code, _, err = run(capsys, "fiber", "--shape", "2,1", "--n", "3", "--w", "2413")
    assert code == 2
    assert "size" in err

    messages = set()
    for command in (["keys"], ["fiber", "--w", "1"], ["demazure", "--w", "1"]):
        code, _, err = run(capsys, *command, "--shape", "1", "--n", "13")
        assert code == 2
        messages.add(err)
    assert len(messages) == 1


def test_one_row_interval_past_the_slot_cap_exits_2_at_once(capsys):
    # [1, 20000] in B((1,), 20000): 19,999 budgeted colors give a vertex
    # limit of 500, and its chain alone has 20,000 vertices, so the search,
    # which tries every budgeted color at each id, never starts
    start = time.perf_counter()
    code, out, err = run(
        capsys, "mobius", "--shape", "1", "--n", "20000", "--u", "1", "--v", "20000"
    )
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err.startswith("error: interval vertex cap 500 exceeded") and "Traceback" not in err


def test_malformed_tableau_literal(capsys):
    code, _, err = run(capsys, "mobius", "--shape", "2,1", "--n", "3",
                       "--u", "2,1/1", "--v", "1,1/2")
    assert code == 2
    assert "semistandard" in err or "malformed" in err


def test_oversized_n_exits_2_at_once(capsys):
    huge = "10000000000000000000"
    for command in (
        ["generate", "--shape", "1", "--n", huge],
        ["generate", "--shape", "2,1", "--n", "11", "--max-vertices", "10"],
        *([name, "--shape", "1", "--n", huge, "--u", "1", "--v", "2"]
          for name in ("mobius", "interval", "chains")),
        ["chains", "--shape", "1", "--n", "2000001", "--u", "1", "--v", "2", "--components"],
    ):
        code, out, err = run(capsys, *command)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "Traceback" not in err
    for value in ("0", "-3"):
        with pytest.raises(SystemExit) as exc:
            cli.main(["mobius", "--shape", "1", "--n", value, "--u", "1", "--v", "1"])
        assert exc.value.code == 2
        assert "argument --n: must be a positive integer" in capsys.readouterr().err
