"""src/ holds what a command reaches: every function, class and method
defined in src/cityguard is named somewhere in src/.

A definition that only the tests call belongs with the tests
(tests/references.py).  Exempt are the package's public names
(`cityguard.__all__`), dunders, and the few references that the tests
and the benchmark share; an exemption that src/ no longer defines, or
whose name src/ itself reads, is stale and fails.

The scan goes by name: a method that shares its name with one that src/
reads (as a second class's `contains_open` would with
`AxisRect.contains_open`) counts as named and escapes it.

The other way round, every attribute that perfbench/tracing.py wraps
(`Tracer.patch`) must still be defined in the module it wraps it in.
"""

import ast
import importlib
from functools import lru_cache
from pathlib import Path

import cityguard

SRC = Path(__file__).resolve().parents[1] / "src" / "cityguard"

SHARED_REFERENCES = {"PolygonSet.is_empty", "exhaustive_min_cover", "min_roof_guards"}


def definitions(tree):
    """(qualified name, name) of every function, class and method."""
    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                qualname = prefix + child.name
                yield qualname, child.name
                yield from walk(child, qualname + ".")
            else:
                yield from walk(child, prefix)
    return walk(tree, "")


def names(tree):
    """Every identifier the code reads: plain names and attributes."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


@lru_cache(maxsize=1)
def trees():
    return {p.stem: ast.parse(p.read_text(encoding="utf-8"))
            for p in sorted(SRC.glob("*.py"))}


def unreached():
    modules = trees()
    named = set().union(*map(names, modules.values()))
    exempt = set(cityguard.__all__) | SHARED_REFERENCES
    return [f"{module}.{qualname}"
            for module, tree in modules.items()
            for qualname, name in definitions(tree)
            if name not in named and name not in exempt and qualname not in exempt
            and not (name.startswith("__") and name.endswith("__"))]


def test_scan_sees_the_package():
    defined = {q for tree in trees().values() for q, _ in definitions(tree)}
    assert {"Scene", "PolygonSet.difference", "min_hitting_set.search"} <= defined


def test_every_definition_is_named_in_src():
    assert unreached() == []


def test_no_stale_exemption():
    modules = trees()
    defined = {q for tree in modules.values() for q, _ in definitions(tree)}
    named = set().union(*map(names, modules.values()))
    stale = sorted(ref for ref in SHARED_REFERENCES
                   if ref not in defined or ref.rsplit(".", 1)[-1] in named)
    assert stale == []


PERFBENCH_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def traced_attributes():
    """(module, attribute) of every `self.patch(<alias>, <attr>, ...)` in
    perfbench/tracing.py, the alias resolved through the `import
    cityguard.X as <alias>` lines and the attribute a string or the
    variable of a `for` over a tuple of strings."""
    tree = ast.parse(PERFBENCH_TRACING.read_text(encoding="utf-8"))
    aliases = {a.asname or a.name: a.name for node in ast.walk(tree)
               if isinstance(node, ast.Import) for a in node.names
               if a.name.startswith("cityguard.")}
    loops = {node.target.id: [c.value for c in node.iter.elts]
             for node in ast.walk(tree)
             if isinstance(node, ast.For) and isinstance(node.target, ast.Name)
             and isinstance(node.iter, (ast.Tuple, ast.List))}
    out = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "patch"
                and isinstance(node.func.value, ast.Name) and node.func.value.id == "self"):
            continue
        module, attr = node.args[0], node.args[1]
        assert isinstance(module, ast.Name) and module.id in aliases, ast.dump(module)
        if isinstance(attr, ast.Constant):
            attrs = [attr.value]
        else:
            assert isinstance(attr, ast.Name) and attr.id in loops, ast.dump(attr)
            attrs = loops[attr.id]
        out += [(aliases[module.id], a) for a in attrs]
    return out


def test_traced_attributes_exist():
    """Every name the benchmark's tracer wraps is still defined where it
    looks for it; a renamed or deleted one would otherwise show only when
    a traced run starts."""
    traced = traced_attributes()
    assert ("cityguard.placement", "covers") in traced
    assert ("cityguard.instances", "gen_random") in traced
    missing = [(module, attr) for module, attr in traced
               if not hasattr(importlib.import_module(module), attr)]
    assert missing == []
