"""
Command-line front end.

Subcommands: ``generate`` (export a crystal as JSON or DOT), ``mobius``,
``interval`` and ``chains`` (budgeted interval analytics straight from the
operators, so huge ambient crystals are fine), ``keys``, ``fiber``,
``demazure``, and ``verify`` (the certificate suite).

Human-readable output goes to stdout, JSON sits behind ``--format json``,
errors go to stderr.  Exit codes: 0 success, 1 failed verification, 2
argument errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import keymap, poset, scenarios, weyl
from .crystal import (
    DEFAULT_VERTEX_CAP,
    CrystalGraph,
    GraphSizeError,
    generate,
    graph_to_dot,
    graph_to_json,
    tableau_from_string,
    tableau_to_string,
)


def _parse_shape(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise ValueError(f"malformed shape {text!r}") from exc


def _positive_int(text: str) -> int:
    """argparse type of --n and the caps; argparse names the flag."""
    try:
        value = int(text)
        if value >= 1:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crystalposets",
        description="tableau crystal posets: generation, Mobius values, chain "
        "moves, keys, fibers, and the verification suite",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_shape_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--shape", required=True, help="partition, e.g. 4,3")
        p.add_argument("--n", required=True, type=_positive_int, help="alphabet size")

    p = sub.add_parser("generate", help="generate a crystal graph and export it")
    add_shape_args(p)
    p.add_argument("--format", choices=("human", "json", "dot"), default="human")
    p.add_argument("--max-vertices", type=_positive_int, default=DEFAULT_VERTEX_CAP)

    for name, help_text in (
        ("mobius", "Mobius value of the interval [u, v]"),
        ("interval", "extract the interval [u, v]"),
        ("chains", "saturated chains of [u, v], optionally their move components"),
    ):
        p = sub.add_parser(name, help=help_text)
        add_shape_args(p)
        p.add_argument("--u", required=True, help="tableau literal, e.g. 1,1,1,2/2,3,4")
        p.add_argument("--v", required=True, help="tableau literal")
        p.add_argument("--format", choices=("human", "json"), default="human")
        if name == "chains":
            p.add_argument("--components", action="store_true",
                           help="group chains by move connectivity")
            p.add_argument("--cap", type=_positive_int, default=poset.DEFAULT_CHAIN_CAP)

    p = sub.add_parser("keys", help="key permutation of every vertex")
    add_shape_args(p)
    p.add_argument("--format", choices=("human", "json"), default="human")

    p = sub.add_parser("fiber", help="key-map fiber at a permutation")
    add_shape_args(p)
    p.add_argument("--w", required=True, help="one-line permutation, e.g. 2413")
    p.add_argument("--format", choices=("human", "json"), default="human")

    p = sub.add_parser("demazure", help="vertices whose key is below w (strong order)")
    add_shape_args(p)
    p.add_argument("--w", required=True, help="one-line permutation")
    p.add_argument("--format", choices=("human", "json"), default="human")

    p = sub.add_parser("verify", help="run the certificate suite")
    p.add_argument("--scenario", help="run one scenario family, e.g. s2")
    p.add_argument("--n-max", type=int, default=5,
                   help="largest two-row parameter for the chain scenario "
                   f"(max {scenarios.TWO_ROW_N[-1]})")
    p.add_argument("--format", choices=("human", "json"), default="human")
    return parser


def _interval_or_fail(args) -> CrystalGraph:
    shape = _parse_shape(args.shape)
    u = tableau_from_string(args.u, args.n, shape)
    v = tableau_from_string(args.v, args.n, shape)
    itv = poset.free_interval(u, v, args.n)
    if itv is None:
        raise ValueError(
            f"{tableau_to_string(u)} is not below {tableau_to_string(v)}"
        )
    return itv


def _cmd_generate(args) -> int:
    graph = generate(_parse_shape(args.shape), args.n, max_vertices=args.max_vertices)
    if args.format == "json":
        print(json.dumps(graph_to_json(graph), sort_keys=True))
    elif args.format == "dot":
        print(graph_to_dot(graph))
    else:
        print(
            f"B({args.shape}, n={args.n}): {len(graph)} vertices, "
            f"{sum(map(len, graph.fwd))} edges, rank sizes {list(graph.rank_sizes())}"
        )
    return 0


def _cmd_mobius(args) -> int:
    itv = _interval_or_fail(args)
    value = poset.interval_mobius(itv)
    if args.format == "json":
        print(json.dumps({"mobius": value, "vertices": len(itv), "span": itv.span}, sort_keys=True))
    else:
        print(value)
    return 0


def _cmd_interval(args) -> int:
    itv = _interval_or_fail(args)
    if args.format == "json":
        print(json.dumps(poset.interval_to_json(itv), sort_keys=True))
    else:
        budget = ", ".join(f"{i}:{m}" for i, m in sorted(itv.budget.items()) if m)
        print(f"{len(itv)} vertices, rank span {itv.span}, color budget {{{budget}}}")
    return 0


def _cmd_chains(args) -> int:
    itv = _interval_or_fail(args)
    if args.components:
        report = poset.components_to_json(poset.move_class_summary(itv, args.cap))
        if args.format == "json":
            print(json.dumps(report, sort_keys=True))
        else:
            print(f"{report['chain_count']} chains in "
                  f"{report['component_count']} move component(s)")
            for k, comp in enumerate(report["components"]):
                rep = weyl.permutation_to_string(comp["representative"])
                print(f"  component {k}: {comp['size']} chains, e.g. labels {rep}")
    else:
        chains = poset.saturated_chains(itv, cap=args.cap)
        if args.format == "json":
            print(json.dumps(chains))
        else:
            for c in chains:
                print(weyl.permutation_to_string(c))
    return 0


def _graph_and_keys(args):
    if args.n > weyl.MAX_N:
        raise ValueError(f"--n must be at most {weyl.MAX_N} for the key map, got {args.n}")
    graph = generate(_parse_shape(args.shape), args.n)
    return graph, keymap.compute_keys(graph)


def _cmd_keys(args) -> int:
    graph, table = _graph_and_keys(args)
    if args.format == "json":
        print(json.dumps(keymap.key_table_to_json(table), sort_keys=True))
    else:
        for v in range(len(graph)):
            print(
                f"{tableau_to_string(graph.vertices[v])}  ->  "
                f"{weyl.permutation_to_string(table[v])}"
            )
    return 0


def _cmd_fiber(args) -> int:
    graph, table = _graph_and_keys(args)
    fib = keymap.fiber(graph, table, weyl.permutation_from_string(args.w))
    if args.format == "json":
        print(json.dumps(keymap.fiber_to_json(fib), sort_keys=True))
    else:
        print(f"fiber at {args.w}: {len(fib.vertices)} vertices, "
              f"{len(fib.components)} component(s)")
        for comp in fib.components:
            print("  " + "  ".join(tableau_to_string(graph.vertices[v]) for v in comp))
    return 0


def _cmd_demazure(args) -> int:
    graph, table = _graph_and_keys(args)
    members = sorted(keymap.demazure(graph, table, weyl.permutation_from_string(args.w)))
    if args.format == "json":
        print(json.dumps({"w": args.w, "vertices": members}, sort_keys=True))
    else:
        print(f"{len(members)} vertices with key below {args.w}")
        for v in members:
            print("  " + tableau_to_string(graph.vertices[v]))
    return 0


def _cmd_verify(args) -> int:
    certificates = scenarios.run_all(n_max=args.n_max, only=args.scenario)
    if args.format == "json":
        print(scenarios.certificates_to_json(certificates))
    else:
        for cert in certificates:
            mark = "PASS" if cert.passed else "FAIL"
            print(f"[{mark}] {cert.scenario}: {cert.claim} ({cert.runtime:.2f}s)")
            if not cert.passed:
                print(f"       expected {cert.expected}")
                print(f"       computed {cert.computed}")
        total = sum(1 for c in certificates if c.passed)
        print(f"{total}/{len(certificates)} certificates passed")
    return 0 if all(c.passed for c in certificates) else 1


_COMMANDS = {
    "generate": _cmd_generate,
    "mobius": _cmd_mobius,
    "interval": _cmd_interval,
    "chains": _cmd_chains,
    "keys": _cmd_keys,
    "fiber": _cmd_fiber,
    "demazure": _cmd_demazure,
    "verify": _cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, poset.ChainCapError, GraphSizeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
