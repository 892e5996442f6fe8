"""src/ is the program: every top-level function and class in rdlab is reached from
the command-line entry point, and no module imports inside a function.

Reachability is read from the AST. The roots are the module-level code of
rdlab.cli and its `main`, plus the functions that BENCHMARK.json's per-layer
metrics name. From a reached definition, every name it mentions that is a
top-level definition of its own module, or one imported from another rdlab
module, is reached in turn; a reached class brings its whole body.
"""
from __future__ import annotations

import ast
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "rdlab"


MODULES = {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}


def _tables():
    """Top-level definitions {(module, name): node} and rdlab imports {module: {alias: (module, name)}}."""
    defs, imports = {}, {}
    for mod, tree in MODULES.items():
        imports[mod] = {}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs[(mod, node.name)] = node
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    for name in ast.walk(target):
                        if isinstance(name, ast.Name):
                            defs[(mod, name.id)] = node
            elif isinstance(node, ast.ImportFrom) and node.level == 1:
                source = node.module or "__init__"
                for alias in node.names:
                    imports[mod][alias.asname or alias.name] = (source, alias.name)
    return defs, imports


DEFS, IMPORTS = _tables()


def _reached(roots) -> set[tuple[str, str]]:
    """(module, name) of every top-level definition reached from `roots`, (module, node) pairs."""
    seen_nodes = set()
    reached = {(mod, node.name) for mod, node in roots if hasattr(node, "name")}
    todo = list(roots)
    while todo:
        mod, node = todo.pop()
        if id(node) in seen_nodes:
            continue
        seen_nodes.add(id(node))
        for name in ast.walk(node):
            if not isinstance(name, ast.Name):
                continue
            key = (mod, name.id)
            while key not in DEFS and key[1] in IMPORTS.get(key[0], {}):
                key = IMPORTS[key[0]][key[1]]
            if key in DEFS:
                reached.add(key)
                todo.append((key[0], DEFS[key]))
    return reached


def _cli_roots():
    roots = [("cli", node) for node in MODULES["cli"].body
             if not isinstance(node, (ast.FunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom))]
    return roots + [("cli", DEFS[("cli", "main")])]


def _metric_roots():
    """The rdlab functions named by `<module>.<function>.<metric>` per-layer metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    keys = {tuple(m["name"].split(".")[:2]) for m in spec["per_layer"] if m["name"].count(".") == 2}
    return [(key[0], DEFS[key]) for key in sorted(keys) if key in DEFS]


def _top_level() -> set[tuple[str, str]]:
    return {key for key, node in DEFS.items()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}


def test_every_function_and_class_is_reached_from_the_cli():
    unreached = _top_level() - _reached(_cli_roots() + _metric_roots())
    assert not unreached, sorted(f"{mod}.{name}" for mod, name in unreached)


def test_names_reached_only_through_metrics_are_the_pinned_references():
    # the tests' references that the benchmark's per-layer metric names still pin
    only_metrics = _top_level() & (_reached(_cli_roots() + _metric_roots()) - _reached(_cli_roots()))
    assert sorted(f"{mod}.{name}" for mod, name in only_metrics) == [
        "clifford.sigma_pair",
        "fields.current_density",
        "fields.evolve",
        "fields.to_coordinate",
        "positionops.apply_dirac_coordinate",
    ]


def test_no_import_inside_a_function():
    nested = []
    for mod, tree in MODULES.items():
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested += [f"{mod}.{fn.name}:{node.lineno}" for node in ast.walk(fn)
                           if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert not nested, nested


def test_no_expression_reads_an_attribute_named_p():
    # the stacked (n, n, n, 3) momentum lattice stays out of the program: a momentum is
    # the axis factors Grid.p_axes, the block kernel's pair (Grid.q, p_z), or clifford.AXES
    reads = [f"{mod}:{node.lineno}" for mod, tree in MODULES.items() for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "p"]
    assert not reads, reads
