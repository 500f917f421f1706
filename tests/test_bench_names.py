"""The library names the benchmark reaches for still resolve.

``perfbench/tracing.py`` wraps the functions listed in its ``WRAPPED``
table, and ``perfbench/workloads.py`` calls ``cp.<name>(...)`` on the
imported package, directly or through its ``op(cp.<name>, *args)`` helper.
Both files are only read here, as source.
"""

import ast
import inspect
from pathlib import Path

import crystalposets

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _literal(path: Path, name: str):
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} not found in {path.name}")


def _cp_path(node: ast.AST) -> tuple[str, ...] | None:
    """("poset", "lower_mobius_all") for ``cp.poset.lower_mobius_all``."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name) and node.id == "cp" and parts:
        return tuple(reversed(parts))
    return None


def _workload_calls() -> set[tuple[tuple[str, ...], int, tuple[str, ...]]]:
    """(name path, positional count, keyword names) of every call of a
    package function in workloads.py."""
    calls = set()
    for node in ast.walk(ast.parse((PERFBENCH / "workloads.py").read_text())):
        if not isinstance(node, ast.Call):
            continue
        if (path := _cp_path(node.func)) is not None:
            args, keywords = node.args, [k.arg for k in node.keywords]
        elif (
            isinstance(node.func, ast.Name) and node.func.id == "op"
            and node.args and (path := _cp_path(node.args[0])) is not None
        ):
            args, keywords = node.args[1:], []  # op's own keywords stay with op
        else:
            continue
        assert not any(isinstance(a, ast.Starred) for a in args)
        calls.add((path, len(args), tuple(keywords)))
    return calls


def _resolve(path: tuple[str, ...]):
    obj = crystalposets
    for part in path:
        assert hasattr(obj, part), f"crystalposets.{'.'.join(path)} does not resolve"
        obj = getattr(obj, part)
    return obj


def test_wrapped_names_resolve():
    modules = _literal(PERFBENCH / "tracing.py", "PACKAGE_MODULES")
    for module in modules:
        assert inspect.ismodule(_resolve((module,)))
    wrapped = _literal(PERFBENCH / "tracing.py", "WRAPPED")
    assert wrapped
    for module, name, _ in wrapped:
        assert inspect.isfunction(_resolve((module, name)))


def test_workload_calls_bind():
    calls = _workload_calls()
    assert (("free_interval",), 3, ()) in calls
    for path, positional, keywords in calls:
        fn = _resolve(path)
        inspect.signature(fn).bind(*[None] * positional, **dict.fromkeys(keywords))
