"""Every module-level function and class in ``src/mapcalc`` is used outside tests.

Code that only tests call belongs with the tests (``tests/oracles.py``).  The
test parses the package and lists each function and class defined at the top
of a module (``__init__.py`` only re-exports).  A definition passes when its
name appears in code elsewhere in ``src/mapcalc``, as a name or an attribute
outside its own definition; or in ``perfbench/*.py`` as a name, an attribute
or a string, since the tracer names the functions it wraps by string; or when
it is in ``ALLOWED``, with the reason it stays.  Re-exports in
``__init__.py`` are imports, not uses.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "mapcalc"
BENCH = ROOT / "perfbench"

ALLOWED = {
    "io.read_map_csv": "public API: the readers' rejections are a guarantee",
    "io.read_section_csv": "public API: the readers' rejections are a guarantee",
    "io.read_trace_csv": "public API: the readers' rejections are a guarantee",
    "io.write_section_csv": "public API, the writer of read_section_csv's format",
    "maps.torus2_wave": "the 2-torus domain's map, which the check table does not run yet",
}


def _used(node: ast.AST) -> set[str]:
    """Names and attributes read anywhere under ``node``."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def _modules() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def definitions(modules: dict[str, ast.Module]) -> list[tuple[str, ast.stmt]]:
    """(module, node) of every top-level function and class."""
    return [(module, node) for module, tree in modules.items() if module != "__init__"
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]


def _bench_names() -> set[str]:
    out = set()
    for path in sorted(BENCH.glob("*.py")):
        tree = ast.parse(path.read_text())
        out |= _used(tree)
        out |= {c.value for c in ast.walk(tree)
                if isinstance(c, ast.Constant) and isinstance(c.value, str)}
    return out


def unreferenced() -> list[str]:
    """``module.name`` of every definition that only tests can reach."""
    modules = _modules()
    uses = [(top, _used(top)) for tree in modules.values() for top in tree.body]
    bench = _bench_names()
    return [f"{module}.{node.name}" for module, node in definitions(modules)
            if node.name not in bench
            and not any(node.name in names for top, names in uses if top is not node)]


def test_every_allowed_definition_is_still_unreferenced():
    # an entry that is gone or has gained a use is no longer an exception;
    # this also fails if the guard finds no definitions at all
    assert set(ALLOWED) <= set(unreferenced())


def test_no_definition_is_test_only():
    assert [name for name in unreferenced() if name not in ALLOWED] == []
