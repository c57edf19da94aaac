"""Package layout: the modules import one another without a cycle, the
CLI writes reports and builds base colourings in one place each, and every
public name of the library is reached by a command, the benchmark or an
acceptance test and takes no test hook."""

import ast
import pathlib

import ramseykit

PACKAGE = pathlib.Path(ramseykit.__file__).parent
ROOT = pathlib.Path(__file__).resolve().parent.parent


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



def test_cli_holds_no_preset_logic():
    """The preset recipes live in ``presets``: no function of ``cli.py``
    steps up, hunts witnesses, samples sets or certifies a spread, and only
    ``search-random`` searches for a random base."""
    calls = calls_by_function(PACKAGE / "cli.py")
    recipe = {
        "stepup.witness_p_colours", "hedgehog.verify_hedgehog_spread",
        "stepup.step_up_1", "stepup.step_up_1b", "stepup._sample_set",
    }
    assert sorted(name for name, callees in calls.items() if recipe & set(callees)) == []
    searchers = sorted(
        name for name, callees in calls.items()
        if "rainbow.search_random_rainbow" in callees
    )
    assert searchers == ["cmd_search_random"]

def public_defs(path):
    """``(name, node)`` of each public top-level function or class of
    ``path`` and of each public method of a public class."""
    out = []
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name[0] != "_":
            out.append((node.name, node))
            if isinstance(node, ast.ClassDef):
                out.extend(
                    (f"{node.name}.{m.name}", m)
                    for m in node.body
                    if isinstance(m, ast.FunctionDef) and m.name[0] != "_"
                )
    return out


def referenced_names(path):
    """Every name ``path`` reads: ``f`` in ``f(...)`` and ``m`` in ``x.m``.
    Definitions and the strings of ``__all__`` are not references."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def unreached(modules, sources):
    """Public names of ``modules`` that no file of ``sources`` reads."""
    used = set().union(*map(referenced_names, sources))
    return [
        f"{path.name}:{node.lineno}: {name}"
        for path in modules
        for name, node in public_defs(path)
        if name.rpartition(".")[2] not in used
    ]


def test_unreached_flags_unread_names(tmp_path):
    lib = tmp_path / "lib.py"
    lib.write_text(
        "__all__ = ['used', 'unused']\n"
        "def used(): pass\n"
        "def unused(): pass\n"
        "class K:\n"
        "    def read(self): pass\n"
        "    def idle(self): pass\n"
        "    def _private(self): pass\n"
    )
    app = tmp_path / "app.py"
    app.write_text("used(K().read())\n")
    assert unreached([lib], [lib, app]) == ["lib.py:3: unused", "lib.py:6: K.idle"]


def test_every_public_name_is_reached():
    """A public function, class or method is read by another library
    module, the benchmark or an acceptance test; one read only by its own
    unit tests, or by ``__init__`` and ``__all__``, is dead code."""
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    bench = sorted((ROOT / "bench").glob("*.py"))
    assert modules and bench
    sources = modules + bench + [ROOT / "tests" / "test_acceptance.py"]
    assert unreached(modules, sources) == []


def hook_parameters(path):
    """``_``-prefixed parameters of the public functions and methods of
    ``path``, that is, test hooks in public signatures."""
    out = []
    for name, node in public_defs(path):
        if isinstance(node, ast.FunctionDef):
            a = node.args
            params = a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]
            out.extend(
                f"{path.name}:{node.lineno}: {name}({p.arg})"
                for p in params
                if p is not None and p.arg[0] == "_"
            )
    return out


def test_no_public_signature_has_a_test_hook(tmp_path):
    """A public function or method takes no ``_``-prefixed parameter: a
    behaviour only a test can select is one no command runs."""
    lib = tmp_path / "lib.py"
    lib.write_text(
        "def f(s, _eps=None): pass\n"
        "def _g(s, _eps=None): pass\n"
        "class K:\n"
        "    def m(self, *, _seed=0): pass\n"
    )
    assert hook_parameters(lib) == ["lib.py:1: f(_eps)", "lib.py:4: K.m(_seed)"]
    modules = sorted(PACKAGE.glob("*.py"))
    assert [h for p in modules for h in hook_parameters(p)] == []


def isinstance_names(path):
    """``(line, name)`` of every name that an ``isinstance`` call in
    ``path`` tests against, tuple members included."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2):
            kinds = node.args[1]
            for n in kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]:
                if isinstance(n, ast.Name):
                    out.append((node.lineno, n.id))
    return out


def test_witnesses_dispatch_on_no_concrete_construction(tmp_path):
    """Witness extraction and re-validation ask each stepped colouring for
    its own targets and fallback; no ``isinstance`` in ``stepup.py`` picks
    a concrete construction."""
    lib = tmp_path / "lib.py"
    lib.write_text("isinstance(c, SteppedDouble)\nisinstance(c, (A, SteppedPlusOne))\n")
    assert isinstance_names(lib) == [
        (1, "SteppedDouble"), (2, "A"), (2, "SteppedPlusOne"),
    ]
    concrete = {"SteppedPlusOne", "SteppedDouble"}
    named = isinstance_names(PACKAGE / "stepup.py")
    assert named and [(line, n) for line, n in named if n in concrete] == []


def budget_refusals(path):
    """``(line, scope)`` of every ``BudgetExceededError(...)`` call in
    ``path``; ``scope`` is the enclosing ``Class.method`` or function."""
    out = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            f = getattr(child, "func", None)
            if isinstance(child, ast.Call) and "BudgetExceededError" in (
                    getattr(f, "id", None), getattr(f, "attr", None)):
                out.append((child.lineno, scope))
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            visit(child, inner)

    visit(ast.parse(path.read_text(), filename=str(path)), "")
    return out


def test_work_is_refused_only_through_charge(tmp_path):
    """Every stage refuses work over its budget through ``errors.charge``;
    the one other ``BudgetExceededError`` is an inexact piercing number
    asked for its value, which charges nothing."""
    lib = tmp_path / "lib.py"
    lib.write_text(
        "raise BudgetExceededError('a')\n"
        "class K:\n"
        "    def f(self):\n"
        "        raise errors.BudgetExceededError('b')\n"
    )
    assert budget_refusals(lib) == [(1, ""), (4, "K.f")]
    sites = [
        f"{path.name}:{line}: {scope}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "errors.py"
        for line, scope in budget_refusals(path)
    ]
    assert [s.split(": ", 1)[1] for s in sites] == ["PiercingResult.value"], sites
    assert sites[0].startswith("hedgehog.py:")


def colouring_classes():
    """Names of the package's classes that derive from ``Colouring``."""
    bases = {}
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ClassDef):
                bases[node.name] = {getattr(b, "id", getattr(b, "attr", None))
                                    for b in node.bases}
    found = {"Colouring"}
    while True:
        more = {name for name, parents in bases.items() if parents & found}
        if more <= found:
            return found
        found |= more


def test_rainbow_picks_no_kernel_by_colouring_class():
    """``verify_rainbow`` chooses between the prefix scan and the per-set
    scan through ``Colouring.palette_codes`` alone: no ``isinstance`` in
    ``rainbow.py`` tests a colouring class."""
    kinds = colouring_classes()
    assert {"TabulatedColouring", "_Stepped", "LiftedColouring",
            "BurrErdosHost"} <= kinds
    named = isinstance_names(PACKAGE / "rainbow.py")
    assert [(line, n) for line, n in named if n in kinds] == []
