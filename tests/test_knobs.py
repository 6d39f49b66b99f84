"""Every defaulted parameter in ``src/mapcalc`` is one that some caller sets.

A parameter whose default is the only value ever used is a constant in
disguise.  The test parses the package, lists the defaulted parameters of
every module-level function and method, and looks for a call in ``src/``,
``tests/`` or ``perfbench/`` that passes each one, by position or by
keyword.  Calls are matched by the called name; a call that spreads
``*args`` or ``**kwargs`` counts as passing everything, and
``partial(fn, ...)`` counts as a call of ``fn``.  Nested functions and
lambdas are exempt: their defaults bind loop variables.
"""

from __future__ import annotations

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "mapcalc"
CALLER_DIRS = ("src", "tests", "perfbench")


def _defaulted(fn: ast.FunctionDef, is_method: bool) -> list[tuple[str, int | None]]:
    """(name, position as seen by a caller, or None for keyword-only) of each
    defaulted parameter."""
    args = fn.args
    positional = [*args.posonlyargs, *args.args]
    bound = is_method and not any(
        isinstance(d, ast.Name) and d.id == "staticmethod" for d in fn.decorator_list
    )
    shift = 1 if bound else 0
    first = len(positional) - len(args.defaults)
    out = [(a.arg, i - shift) for i, a in enumerate(positional) if i >= first]
    out += [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return out


def knobs() -> list[tuple[str, str, str, int | None]]:
    """(module, qualified name, parameter, position) of every defaulted parameter."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                found += [(path.stem, node.name, p, i) for p, i in _defaulted(node, False)]
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        found += [
                            (path.stem, f"{node.name}.{item.name}", p, i)
                            for p, i in _defaulted(item, True)
                        ]
    return found


def _called_name(func: ast.expr) -> str | None:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def calls() -> dict[str, list[tuple[int, set[str] | None]]]:
    """Called name -> (positional count, keyword names or None for "all") per call."""
    out: dict[str, list] = defaultdict(list)
    for folder in CALLER_DIRS:
        for path in sorted((ROOT / folder).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.Call):
                    continue
                args, func = node.args, node.func
                if _called_name(func) == "partial" and args:
                    func, args = args[0], args[1:]
                name = _called_name(func)
                if name is None:
                    continue
                spread = any(isinstance(a, ast.Starred) for a in args) or any(
                    k.arg is None for k in node.keywords
                )
                out[name].append(
                    (len(args), None if spread else {k.arg for k in node.keywords})
                )
    return out


def unturned() -> list[str]:
    seen = calls()
    missing = []
    for module, qualname, param, position in knobs():
        name = qualname.rsplit(".", 1)[-1]
        if not any(
            keywords is None
            or param in keywords
            or (position is not None and count > position)
            for count, keywords in seen.get(name, ())
        ):
            missing.append(f"{module}.{qualname}({param})")
    return missing


def test_guard_sees_known_knobs():
    found = {f"{m}.{q}({p})" for m, q, p, _ in knobs()}
    assert "energy.descend(grad_tol)" in found
    assert "topology.neighborhood(cover)" in found


def test_every_defaulted_parameter_is_set_by_a_caller():
    assert unturned() == []
