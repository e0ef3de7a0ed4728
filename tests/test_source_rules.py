"""Rules on the source of `src/lexflow`, read from its syntax trees."""

from __future__ import annotations

import ast
import re
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "lexflow"


def modules(pattern: str = "**/*.py") -> list[Path]:
    paths = sorted(SOURCE.glob(pattern))
    assert paths, f"no module under {SOURCE}"
    return paths


def test_no_assert_statement():
    """Invariants hold under python -O, which strips assert statements."""
    found = [
        f"{path}:{node.lineno}"
        for path in modules()
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


# Imports that only the benchmark's tracer reads, as (module, name): each is a
# name that `perfbench/tracer.py` replaces in that module, which it can only
# do while the module has it. ROADMAP item 1 deletes them.
TRACER_ONLY = {("balancer", "has_fatal_cut"), ("ratio_search", "cut_stats")}


def tracer_patches() -> set[tuple[str, str]]:
    """(module, name) for every `_patch(module, "name", ...)` call in
    `Tracer.install`, a loop's call once per module the loop names."""
    tracer = SOURCE.parents[1] / "perfbench" / "tracer.py"
    install = next(
        node for node in ast.walk(ast.parse(tracer.read_text()))
        if isinstance(node, ast.FunctionDef) and node.name == "install"
    )
    # `gh, rs, bal, cli = api.gale_hoffman, ...` names the modules.
    modules = {}
    for node in ast.walk(install):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Tuple):
            for target, value in zip(node.targets[0].elts, node.value.elts):
                modules[target.id] = value.attr
    found = set()
    for node in ast.walk(install):
        if node is install:
            scope = {alias: [module] for alias, module in modules.items()}
        elif isinstance(node, ast.For):
            scope = {node.target.id: [modules[elt.id] for elt in node.iter.elts]}
        else:
            continue
        for call in ast.walk(node):
            if isinstance(call, ast.Call) and getattr(call.func, "attr", None) == "_patch":
                module, name = call.args[:2]
                found.update((m, name.value) for m in scope.get(module.id, []))
    return found


def test_no_unused_import():
    """Every import is used, or listed in TRACER_ONLY; every entry there is
    an unused import that the tracer patches."""
    found, tracer_only = [], set()
    for path in modules("*.py"):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name in used:
                    continue
                if (path.stem, name) in TRACER_ONLY:
                    tracer_only.add((path.stem, name))
                else:
                    found.append(f"{path}:{alias.lineno}: {alias.name}")
    assert found == []
    assert tracer_only == TRACER_ONLY
    assert TRACER_ONLY <= tracer_patches()


def test_no_print_or_stdout_outside_cli():
    """Only `cli.py` writes to stdout, so documents stay byte-stable."""
    found = []
    for path in modules():
        if path.name == "cli.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            printing = (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "print"
            )
            stdout = (
                isinstance(node, ast.Attribute)
                and node.attr in ("stdout", "__stdout__")
                and isinstance(node.value, ast.Name)
                and node.value.id == "sys"
            ) or (
                isinstance(node, ast.ImportFrom)
                and node.module == "sys"
                and any(alias.name in ("stdout", "__stdout__") for alias in node.names)
            )
            if printing or stdout:
                found.append(f"{path}:{node.lineno}")
    assert found == []


def test_no_function_calls_itself_by_name():
    """No recursion limit caps the size of input that can be solved."""
    found = []
    for path in modules():
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for call in ast.walk(node):
                if not isinstance(call, ast.Call):
                    continue
                func = call.func
                if (isinstance(func, ast.Name) and func.id == node.name) or (
                    isinstance(func, ast.Attribute)
                    and func.attr == node.name
                    and isinstance(func.value, ast.Name)
                    and func.value.id in ("self", "cls")
                ):
                    found.append(f"{path}:{call.lineno}: {node.name}")
    assert found == []


# Rejections of `verify_certificate` that no certificate can reach, with the
# reason each stays, keyed by check and detail as the source spells them.
UNREACHABLE = {
    ("stage_optimality", "{where}: ratio is not minimal"): (
        "a replayed level's cut is violated at every factor below its ratio; the "
        "benchmark counts this probe, and ROADMAP item 2 deletes it"
    ),
}


def rejections() -> list[tuple[str, str, re.Pattern]]:
    """(check, detail as spelled, pattern of the detail) for every
    `reject(...)` call in `verify_certificate`; a `{...}` field of the
    detail matches any text."""
    tree = ast.parse((SOURCE / "balancer.py").read_text())
    verify = next(
        node for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "verify_certificate"
    )
    found = []
    for call in ast.walk(verify):
        if not (isinstance(call, ast.Call) and getattr(call.func, "id", None) == "reject"):
            continue
        check, detail = call.args
        parts = detail.values if isinstance(detail, ast.JoinedStr) else [detail]
        spelled = pattern = ""
        for part in parts:
            if isinstance(part, ast.Constant):
                spelled += part.value
                pattern += re.escape(part.value)
            else:
                spelled += "{" + ast.unparse(part.value) + "}"
                pattern += ".+"
        found.append((check.value, spelled, re.compile(pattern)))
    return found


def test_every_rejection_is_reached_in_process():
    """Each rejection of `verify_certificate` has a row in
    `test_balancer.REJECTIONS`, a certificate that fails there with that
    exact check and detail, or is listed in UNREACHABLE with its reason."""
    from test_balancer import REJECTIONS

    found = rejections()
    assert len(found) > len(UNREACHABLE)
    missing = [
        (check, spelled)
        for check, spelled, pattern in found
        if (check, spelled) not in UNREACHABLE
        and not any(row[0] == check and pattern.fullmatch(row[1]) for row in REJECTIONS)
    ]
    assert missing == []
    assert set(UNREACHABLE) <= {(check, spelled) for check, spelled, _ in found}
