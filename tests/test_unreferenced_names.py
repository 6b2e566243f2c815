"""Every top-level definition of ``src/rbaddr`` is reached from ``src/`` or
``scripts/``: a name that only tests use, or nothing, leaves ``src/``.

A reference is a name read, an attribute read or a name imported, in any
module of ``src/rbaddr`` but ``__init__.py`` (whose re-exports would reach
everything) or in ``scripts/``, outside the definition's own body.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in (ROOT / "src" / "rbaddr").glob("*.py") if p.name != "__init__.py")
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))

# Definitions kept without a caller, each with its reason.
ALLOWED = {
    # bench views: bench/run.py wraps them by name and
    # tests/test_bench_contract.py pins them (ROADMAP item 5)
    "protocol.generate_sequence",
    "protocol.run_experiment",
    # the CPTP margin of a slot channel, for the manifest's health report
    # (ROADMAP item 6)
    "paulis.cptp_diagnostic",
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


def unreferenced(modules=MODULES) -> set[str]:
    trees = {path: ast.parse(path.read_text()) for path in modules + SCRIPTS}
    everywhere = sum((references(tree) for tree in trees.values()), Counter())
    return {
        f"{path.stem}.{name}"
        for path in modules
        for name, node in definitions(trees[path])
        if everywhere[name] == references(node)[name]
    }


def test_every_definition_in_src_has_a_caller():
    assert unreferenced() == ALLOWED


def test_the_guard_sees_a_definition_without_a_caller(tmp_path):
    module = tmp_path / "orphan.py"
    module.write_text("def orphan(n):\n    return orphan(n - 1) if n else 0\n\n\n"
                      "def used():\n    pass\n\n\nLIMIT = used()\n")
    assert unreferenced(MODULES + [module]) == ALLOWED | {"orphan.orphan", "orphan.LIMIT"}
