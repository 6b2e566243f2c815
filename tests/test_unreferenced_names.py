"""Every top-level definition of ``src/rbaddr`` is reached from ``src/`` or
``scripts/``: a name that only tests use, or nothing, leaves ``src/``.

A reference is a name read, an attribute read or a name imported, in any
module of ``src/rbaddr`` or in ``scripts/``, outside the definition's own
body.  A function decorated by a call of a function that ``src/rbaddr``
defines, as ``@_check(name)`` registers a ``rbaddr verify`` check, is
reached through that registration.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "rbaddr").glob("*.py"))
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))

# Definitions kept without a caller, each with its reason.
ALLOWED = {
    # bench views: bench/run.py wraps them by name and
    # tests/test_bench_contract.py pins them (ROADMAP item 5)
    "protocol.generate_sequence",
    "protocol.run_experiment",
}


def definitions(tree: ast.Module):
    """(name, node) of each top-level function, class and assigned name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from ((t.id, node) for t in targets if isinstance(t, ast.Name))


def references(node: ast.AST) -> Counter:
    """How often each name is read, read as an attribute or imported in ``node``."""
    names = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            names[sub.attr] += 1
        elif isinstance(sub, ast.ImportFrom):
            names.update(alias.name for alias in sub.names)
    return names


def registered(node: ast.AST, own: set[str]) -> bool:
    """Whether ``node`` is decorated by a call of one of the ``own`` functions."""
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Name) and d.func.id in own
               for d in getattr(node, "decorator_list", ()))


def unreferenced(modules=MODULES) -> set[str]:
    trees = {path: ast.parse(path.read_text()) for path in modules + SCRIPTS}
    everywhere = sum((references(tree) for tree in trees.values()), Counter())
    own = {name for path in modules for name, node in definitions(trees[path])
           if isinstance(node, ast.FunctionDef)}
    return {
        f"{path.stem}.{name}"
        for path in modules
        for name, node in definitions(trees[path])
        if everywhere[name] == references(node)[name] and not registered(node, own)
    }


def test_every_definition_in_src_has_a_caller():
    assert unreferenced() == ALLOWED


def test_the_guard_sees_a_definition_without_a_caller(tmp_path):
    module = tmp_path / "orphan.py"
    module.write_text("from functools import cache\n\n\n"
                      "def orphan(n):\n    return orphan(n - 1) if n else 0\n\n\n"
                      "def used():\n    pass\n\n\nLIMIT = used()\n\n\n"
                      "def register(name):\n    return lambda f: f\n\n\n"
                      "@register('a')\ndef registered():\n    pass\n\n\n"
                      "@cache\ndef cached():\n    pass\n")
    assert unreferenced(MODULES + [module]) == ALLOWED | {
        "orphan.orphan", "orphan.LIMIT", "orphan.cached"}
