"""Source hygiene: every module of the package, script and test uses
what it imports and binds every global it reads, every private module-level name is read somewhere in
the package, every public function is read by the package, the scripts
or the benchmark, every option of a module-level function is set by
one of them, every parameter is read, every error type is named outside
errors.py, and the judge shares no step with what it judges.

The package's own __init__ is left out of the import check: it imports
to re-export.
"""

import ast
import builtins
import symtable
from pathlib import Path

import pytest

import zpwalk

PACKAGE = sorted(Path(zpwalk.__file__).parent.glob("*.py"))
MODULES = [p for p in PACKAGE if p.name != "__init__.py"]
ROOT = Path(__file__).resolve().parent.parent
#: the scripts and tests, whose imports are checked like the package's
AUXILIARY = sorted(ROOT.glob("scripts/*.py")) + sorted(ROOT.glob("tests/*.py"))
#: the scripts and the benchmark, whose reads keep a public function alive
#: and whose calls keep an option alive
CALLERS = sorted(ROOT.glob("scripts/*.py")) + sorted(ROOT.glob("perfbench/*.py"))


def unused_imports(source: str) -> list[str]:
    """Names a module binds by import and never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


#: what every module reads without binding it: the builtins and the
#: attributes the import system sets
PREBOUND = set(dir(builtins)) | {"__file__", "__builtins__"}


def unbound_globals(source: str) -> list[str]:
    """Names a module reads as globals and never binds at module level.

    symtable resolves every name: one read at module level, or global in
    a function or class body, must be bound at module level (import,
    def, class or assignment, or an assignment under `global` in a
    function) or be a builtin.
    """
    top = symtable.symtable(source, "<source>", "exec")
    tables = [top]
    for table in tables:
        tables += table.get_children()
    bound = PREBOUND | {s.get_name() for table in tables for s in table.get_symbols()
                        if (table is top or s.is_declared_global())
                        and (s.is_assigned() or s.is_imported())}
    return [f"{s.get_name()} (read in {table.get_name()})" for table in tables
            for s in table.get_symbols()
            if s.is_referenced() and (table is top or s.is_global())
            and s.get_name() not in bound]


def statement_reads(sources: dict[str, str]):
    """(module, statement, names read) per top-level statement of sources.

    A statement reads a name when it loads it or reads it as an
    attribute; an import alone is no read.
    """
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            read = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    read.add(node.id)
                elif isinstance(node, ast.Attribute):
                    read.add(node.attr)
            yield module, stmt, read


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level private names (_x) that no other statement reads.

    sources maps a module name to its text.  A name counts as read when
    a top-level statement other than the one defining it, in any of the
    modules, reads it, so a helper that only calls itself is still
    unread.
    """
    defined, reads = [], []
    for module, stmt, read in statement_reads(sources):
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [stmt.name]
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            names = []
        reads.append(read)
        defined += [(module, name, len(reads) - 1) for name in names
                    if name.startswith("_") and not name.startswith("__")]
    return [f"{module}.{name}" for module, name, own in defined
            if not any(name in read for k, read in enumerate(reads) if k != own)]


def unread_public_functions(sources: dict[str, str], callers: list[str]) -> list[str]:
    """Public module-level functions of sources that nothing else reads.

    A function counts as read when another top-level statement of
    sources reads it (a re-export by import alone does not), or when one
    of the callers' texts names it as an identifier, an attribute or a
    string (the benchmark lists the functions it wraps as strings).
    """
    named = set()
    for source in callers:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                named.add(node.value)
    statements = list(statement_reads(sources))
    return [f"{module}.{stmt.name}" for own, (module, stmt, _) in enumerate(statements)
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not stmt.name.startswith("_") and stmt.name not in named
            and not any(stmt.name in read
                        for k, (_, _, read) in enumerate(statements) if k != own)]


def _defaults(args: ast.arguments) -> list[str]:
    """The parameters of a signature that have a default value."""
    positional = args.posonlyargs + args.args
    return ([a.arg for a in positional[len(positional) - len(args.defaults):]]
            + [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None])


def unset_options(sources: dict[str, str], callers: list[str]) -> list[str]:
    """Default-valued parameters of module-level functions that no call passes.

    A call to a function of that name, in sources or in the callers'
    texts, passes a parameter by keyword or by position; a `**` splat
    passes every option and a `*` splat every positional one.
    """
    passed: dict[str, set] = {}  # per called name: keywords, positions, "**" and "*"
    for source in [*sources.values(), *callers]:
        for call in ast.walk(ast.parse(source)):
            if isinstance(call, ast.Call):
                func = call.func
                got = passed.setdefault(getattr(func, "id", getattr(func, "attr", None)), set())
                got.update(k.arg or "**" for k in call.keywords)
                got.update("*" if isinstance(a, ast.Starred) else i
                           for i, a in enumerate(call.args))
    found = []
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            got = passed.get(stmt.name, set())
            positional = [a.arg for a in stmt.args.posonlyargs + stmt.args.args]
            for option in _defaults(stmt.args):
                ways = {option, "**"}
                if option in positional:
                    ways |= {positional.index(option), "*"}
                if not ways & got:
                    found.append(f"{module}.{stmt.name}({option})")
    return found


def _functions(node: ast.AST, prefix: str = ""):
    """(qualified name, node) per function under node, methods and nested ones too."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = prefix + child.name
            if not isinstance(child, ast.ClassDef):
                yield name, child
            yield from _functions(child, name + ".")
        else:
            yield from _functions(child, prefix)


def unread_parameters(sources: dict[str, str]) -> list[str]:
    """Parameters that their function's body never reads.

    A method's self or cls is no parameter a caller passes: a cached
    property may return a fresh value without reading its instance.
    """
    found = []
    for module, source in sources.items():
        for name, func in _functions(ast.parse(source)):
            args = func.args
            params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs
                      if a.arg not in ("self", "cls")]
            params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
            read = {node.id for stmt in func.body for node in ast.walk(stmt)
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            found += [f"{module}.{name}({param})" for param in params if param not in read]
    return found


#: parameters no body reads, each with why it stays
UNREAD_PARAMETERS = {
    f"synthesis.synthesize_schedule({param})": "perfbench passes it; it goes with the "
                                               "benchmark change (ROADMAP item 6)"
    for param in ("max_states", "cap")
}


def unnamed_errors(errors_source: str, sources: dict[str, str]) -> list[str]:
    """Classes of errors_source that none of sources names.

    A module names a class when it loads it or reads it as an attribute;
    an import alone does not count, since every import must be used.
    """
    named = set()
    for source in sources.values():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    return [stmt.name for stmt in ast.parse(errors_source).body
            if isinstance(stmt, ast.ClassDef) and stmt.name not in named]


#: error types no package module names, each with why it stays
UNNAMED_ERRORS = {
    "SynthesisIncomplete": "perfbench imports it; it goes with the benchmark change "
                           "(ROADMAP item 3)",
}


#: the judge's ground truth, which may import nothing from the package but errors
GROUND_TRUTH = "zp_algebra"
#: the modules that answer, and the only names they may take from the ground truth's module
ANSWERING = ("decision", "synthesis", "dynamics", "hypergraph")
SHARED = {"MAX_MODULUS", "is_odd_prime", "validate_modulus", "ZpMatrixSystem"}


def package_imports(source: str):
    """(module, name, line) per name a source takes from the package.

    `from .m import x` and `from zpwalk.m import x` give (m, x);
    `from . import m` and `import zpwalk.m` give (m, None), the whole
    module.
    """
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            parts = node.module.split(".") if node.module else []
            if node.level == 0:
                if parts[0] != "zpwalk":
                    continue
                parts = parts[1:]
            for alias in node.names:
                if parts:
                    yield parts[0], alias.name, node.lineno
                else:
                    yield alias.name, None, node.lineno
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "zpwalk" and len(parts) > 1:
                    yield parts[1], None, node.lineno


def import_rule_violations(sources: dict[str, str]) -> list[str]:
    """Imports that let the judge and what it judges share a step.

    sources maps a module name to its text.  The ground truth may take
    only errors from the package; an answering module may take only the
    SHARED names from the ground truth's module.  Other modules, the
    sweeps among them, call both sides and are exempt.
    """
    found = []
    for module, source in sources.items():
        for origin, name, line in package_imports(source):
            if (module == GROUND_TRUTH and origin != "errors") or (
                    module in ANSWERING and origin == GROUND_TRUTH and name not in SHARED):
                found.append(f"{module} imports {name or 'the module'} from {origin} "
                             f"(line {line})")
    return found


def test_the_check_sees_unused_imports():
    source = ("from __future__ import annotations\n"
              "import os.path\nfrom collections import deque, Counter as C\n"
              "x: C = os.sep\n")
    assert unused_imports(source) == ["deque (line 3)"]


def test_the_check_sees_unbound_globals():
    source = ("from .errors import NotGood\n"
              "def sweep():\n    try:\n        pass\n    except Unsolvable:\n        pass\n"
              "def limit(k):\n    return len(range(k)) + LIMIT + TOTAL\n"
              "def tally():\n    global TOTAL\n    TOTAL = 0\n"
              "class Box:\n    size = 1\n    area = size * WIDTH\n"
              "if __name__ == '__main__':\n    print(__file__, NotGood, Missing)\n")
    assert unbound_globals(source) == ["Missing (read in top)", "Unsolvable (read in sweep)",
                                       "LIMIT (read in limit)", "WIDTH (read in Box)"]


def test_the_check_sees_unread_private_names():
    sources = {
        "a": ("_LIMIT = 3\n_SPARE: int = 4\n"
              "def _dead(k):\n    return _dead(k - 1) if k else _LIMIT\n"
              "def _kept():\n    return 1\nclass _Box:\n    pass\n"),
        "b": "from a import _kept\nimport a\nx = _kept() + a._SPARE\n",
    }
    assert unread_private_names(sources) == ["a._dead", "a._Box"]


def test_the_check_sees_unread_public_functions():
    sources = {
        "a": ("def used():\n    return 1\ndef dead(k):\n    return dead(k - 1)\n"
              "def exported():\n    pass\ndef spanned():\n    pass\n"
              "def scripted():\n    pass\ndef _private():\n    pass\n"),
        "b": "from .a import used\nx = used()\n",
        "__init__": "from .a import exported, used\n",
    }
    callers = ['SPANNED = (("a", "spanned"),)\n', "import a\na.scripted()\n"]
    assert unread_public_functions(sources, callers) == ["a.dead", "a.exported"]


def test_the_check_sees_unset_options():
    sources = {
        "a": ("def plain(x, limit=3):\n    return x\n"
              "def tested(x, cap=3):\n    return x\n"
              "def splatted(x, *, seed=0, depth=1):\n    return x\n"
              "def starred(x, y=0, z=0):\n    return x\n"
              "def positional(x, y=0, z=0):\n    return x\n"
              "def keyword(x, *, mode=None):\n    return x\n"),
        "b": "from .a import plain, positional\nplain(1)\npositional(1, 2)\n",
    }
    callers = ["import a\na.splatted(1, **SCOPE)\na.starred(*ARGS)\n"
               "a.keyword(1, mode='fast')\n"]
    tests = "from a import tested\ntested(1, cap=2)\n"
    assert unset_options(sources, callers) == [
        "a.plain(limit)", "a.tested(cap)", "a.positional(z)"]
    assert unset_options(sources, [*callers, tests]) == ["a.plain(limit)", "a.positional(z)"]


def test_the_check_sees_unread_parameters():
    sources = {
        "a": ("def used(x, *rest, **opts):\n    return x, rest, opts\n"
              "def ignored(x, spare):\n    return x\n"
              "def outer(k):\n    def inner(j):\n        return k\n    return inner\n"
              "class Box:\n    def size(self, unit):\n        return self\n"),
    }
    assert unread_parameters(sources) == [
        "a.ignored(spare)", "a.outer.inner(j)", "a.Box.size(unit)"]


def test_the_check_sees_unnamed_errors():
    errors = ("class Raised(Exception):\n    pass\n"
              "class Caught(Exception):\n    pass\n"
              "class Imported(Exception):\n    pass\n"
              "class Dead(Exception):\n    pass\n")
    sources = {
        "a": "from .errors import Imported, Raised\nraise Raised()\n",
        "b": "from . import errors\ntry:\n    pass\nexcept errors.Caught:\n    pass\n",
    }
    assert unnamed_errors(errors, sources) == ["Imported", "Dead"]


def test_the_check_sees_a_shared_step():
    sources = {
        "zp_algebra": ("from .errors import ShapeError\nfrom .dynamics import all_moves\n"
                       "from zpwalk import hypergraph\n"),
        "synthesis": ("from .zp_algebra import condense, validate_modulus\n"
                      "from .zp_algebra import gaussian_solve\n"),
        "decision": "from . import zp_algebra\nfrom .dynamics import orbit_bfs\n",
        "selftest": "from .zp_algebra import enumerate_digraph, gaussian_solve\n",
    }
    assert import_rule_violations(sources) == [
        "zp_algebra imports all_moves from dynamics (line 2)",
        "zp_algebra imports the module from hypergraph (line 3)",
        "synthesis imports condense from zp_algebra (line 1)",
        "synthesis imports gaussian_solve from zp_algebra (line 2)",
        "decision imports the module from zp_algebra (line 1)",
    ]


def test_the_package_modules_are_found():
    assert {"decision.py", "dynamics.py", "hypergraph.py"} <= {p.name for p in MODULES}
    assert {"scripts/oracle_ladder.py", "tests/test_hygiene.py"} <= {
        p.relative_to(ROOT).as_posix() for p in AUXILIARY}


@pytest.mark.parametrize("path", MODULES + AUXILIARY, ids=lambda p: (
    p.name if p in MODULES else p.relative_to(ROOT).as_posix()))
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", PACKAGE + AUXILIARY, ids=lambda p: (
    p.name if p in PACKAGE else p.relative_to(ROOT).as_posix()))
def test_every_global_read_is_bound(path):
    assert unbound_globals(path.read_text()) == []


def test_every_private_name_is_read():
    assert unread_private_names({p.stem: p.read_text() for p in PACKAGE}) == []


def test_every_public_function_is_read():
    sources = {p.stem: p.read_text() for p in PACKAGE}
    assert unread_public_functions(sources, [p.read_text() for p in CALLERS]) == []


def test_every_option_is_set_by_a_caller():
    sources = {p.stem: p.read_text() for p in PACKAGE}
    assert unset_options(sources, [p.read_text() for p in CALLERS]) == []


def test_every_parameter_is_read():
    sources = {p.stem: p.read_text() for p in PACKAGE}
    assert sorted(unread_parameters(sources)) == sorted(UNREAD_PARAMETERS)


def test_every_error_type_is_named_outside_errors():
    errors = next(p for p in MODULES if p.name == "errors.py")
    sources = {p.stem: p.read_text() for p in MODULES if p != errors}
    assert sorted(unnamed_errors(errors.read_text(), sources)) == sorted(UNNAMED_ERRORS)


def test_the_judge_shares_no_step_with_what_it_judges():
    assert import_rule_violations({p.stem: p.read_text() for p in MODULES}) == []
