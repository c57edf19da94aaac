"""Package layout: the modules import one another without a cycle, and the
CLI writes reports and builds base colourings in one place each."""

import ast
import pathlib

import ramseykit

PACKAGE = pathlib.Path(ramseykit.__file__).parent


def relative_imports(path, modules):
    """Sibling modules that ``path`` imports anywhere, function bodies too."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.ImportFrom) or node.level != 1:
            continue
        if node.module is not None:  # from .stepup import Colouring
            names = [node.module.split(".")[0]]
        else:  # from . import delta, seqpat
            names = [alias.name for alias in node.names]
        out.update(name for name in names if name in modules)
    return out


def find_cycle(graph):
    """One import cycle as a list of modules, first repeated at the end, or
    ``None``."""
    state = {}  # absent: unvisited, 1: on the DFS path, 2: done
    path = []

    def visit(m):
        state[m] = 1
        path.append(m)
        for n in sorted(graph[m]):
            if state.get(n) == 1:
                return path[path.index(n):] + [n]
            if n not in state:
                cycle = visit(n)
                if cycle:
                    return cycle
        path.pop()
        state[m] = 2
        return None

    for m in sorted(graph):
        if m not in state:
            cycle = visit(m)
            if cycle:
                return cycle
    return None


def test_find_cycle_reports_a_cycle():
    assert find_cycle({"a": {"b"}, "b": {"c"}, "c": set()}) is None
    assert find_cycle({"a": {"b"}, "b": {"a"}}) == ["a", "b", "a"]


def test_relative_imports_are_acyclic():
    files = {p.stem: p for p in PACKAGE.glob("*.py")}
    graph = {m: relative_imports(p, files) - {m} for m, p in files.items()}
    assert "stepup" in graph and "hedgehog" in graph["cli"]
    cycle = find_cycle(graph)
    assert cycle is None, " -> ".join(cycle)


def calls_by_function(path):
    """``{function name: [dotted callee, ...]}`` for the top-level functions
    of ``path``; a callee is ``f`` or ``module.f``."""
    out = {}
    for fn in ast.parse(path.read_text(), filename=str(path)).body:
        if not isinstance(fn, ast.FunctionDef):
            continue
        names = out.setdefault(fn.name, [])
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            if isinstance(f, ast.Name):
                names.append(f.id)
            elif isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name):
                names.append(f"{f.value.id}.{f.attr}")
    return out


def test_cli_has_one_way_out_and_one_base_loader():
    calls = calls_by_function(PACKAGE / "cli.py")
    emitters = [name for name, callees in calls.items() for c in callees if c == "_emit"]
    assert emitters == ["main"]
    builders = {"stepup.random_colouring", "stepup.parse_tabulated"}
    loaders = sorted(name for name, callees in calls.items() if builders & set(callees))
    assert loaders == ["_load_base"]
