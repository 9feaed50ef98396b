"""Every top-level function, class and constant in src/samt has a use.

A use of `name` from module `m` is a load of `name` in `m` outside its
own definition, or `from m import name` or `m.name` in src/samt or
perfbench.  Uses are resolved on the syntax tree, so a local variable
that shares a definition's name in another module is not a use of it.
Dunder names such as `__all__` belong to the import protocol.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def read_sources() -> dict[Path, str]:
    paths = sorted((ROOT / "src" / "samt").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    return {p.relative_to(ROOT): p.read_text(encoding="utf-8") for p in paths}


def definitions(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                if isinstance(target, ast.Name):
                    yield target.id, node


def uses_from_outside(tree: ast.Module, module: str) -> set[str]:
    """Names of `module` that `tree` imports by name or reads as `module.name`."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level, node.module) in (
            (1, module),
            (0, f"samt.{module}"),
        ):
            used.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == module:
            used.add(node.attr)
    return used


def unused_names(sources: dict[Path, str]) -> list[str]:
    trees = {path: ast.parse(text) for path, text in sources.items()}
    unused = []
    for path, tree in trees.items():
        if path.parts[:2] != ("src", "samt"):
            continue
        module = path.stem
        elsewhere = set().union(*(uses_from_outside(t, module) for p, t in trees.items() if p != path))
        for name, definition in definitions(tree):
            if name.startswith("__") or name in elsewhere:
                continue
            inside = {id(n) for n in ast.walk(definition)}
            loads = (
                n for n in ast.walk(tree)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load) and id(n) not in inside
            )
            if not any(n.id == name for n in loads):
                unused.append(f"{module}.{name}")
    return unused


def test_every_top_level_name_in_src_is_used():
    assert unused_names(read_sources()) == []


@pytest.mark.parametrize(
    "module,name",
    [
        ("model", "softmax_columns"),  # a helper only a test would call
        ("numerics", "matrix"),  # cli.py's local `matrix` is no use of it
    ],
)
def test_guard_flags_a_function_only_tests_would_reach(module, name):
    sources = read_sources()
    sources[Path("src", "samt", f"{module}.py")] += f"\n\ndef {name}(values):\n    return values\n"
    assert unused_names(sources) == [f"{module}.{name}"]
