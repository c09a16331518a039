"""Source lints: no module of the package contains an `assert` statement
(`python -O` strips them; checks raise explicitly instead), every public
function, method and property is used somewhere in the package (a test
alone does not keep a name), every record field (of a NamedTuple class,
private bases included, or of a dataclass) is read somewhere in the
package as an attribute, no module-level public
function is a generator (the benchmark's tracer wraps every public function
of a layer module, and on a generator it would time only the generator's
creation, not the work done as it is consumed).  No NamedTuple declares a
field named `ok`: a stored verdict restates a comparison that its caller
makes.  The package's `__init__`
binds no names: it re-exports nothing.  No module imports anything from
`fractions`: the exact kernel's points, entries, determinants and ranks,
the signature's diagonal pairs and the dimension quotients are all ints.
No module imports `dataclasses`: its generated methods cost about 1 ms of
import per record class, and records are NamedTuples.  A `functools.cache`
or `lru_cache` decorates only functions without parameters: output must
not depend on call history, and a repeated job pays for its own
mathematics.  No module reads a private name of another, or imports one:
so only `exact` knows how monomials are packed and how a polynomial's ring
names their fields.  `kacmoody` reads the finite-type
case list, `formats.tpqr_kind`, only where the root supply is made and
where the BGG check refuses a type; every other engine takes its roots as
an argument.  No certificate of `kacmoody`, `rings` or `complexes` (a
function named `verify_*`, `*_check`, `*_certificate` or `*_crosscheck`)
is annotated to return a bare bool: each returns nothing when its fact
holds and what broke otherwise."""

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "resatlas"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_no_assert_statements(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name}: assert statements at lines {lines}"


def _docstrings(tree):
    """The docstring nodes of a module and of its classes and functions."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                yield body[0].value


def _references(tree):
    """Counter of (kind, identifier) for every use in a tree: "name" for a
    bare name, "attr" for an attribute, "str" for an identifier inside a
    string constant other than a docstring (`monkeypatch.setattr(module,
    "name", ...)`, code run by a subprocess)."""
    docstrings = {id(n) for n in _docstrings(tree)}
    uses = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            uses["name", node.id] += 1
        elif isinstance(node, ast.Attribute):
            uses["attr", node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if id(node) not in docstrings:
                uses.update(("str", word) for word in re.findall(r"[A-Za-z_]\w*", node.value))
    return uses


def _public_definitions(tree):
    """(qualified name, node, the kinds of use that count) for the public
    module-level functions and the public methods and properties: a method
    is used only as an attribute, so a local variable of the same name is
    not a use."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node, ("name", "attr", "str")
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item, ("attr",)


def dead_names(src=SRC):
    """Public functions, methods and properties of the package that nothing in
    the package uses, apart from their own definition."""
    modules = [path for path in sorted(src.glob("*.py")) if path.name != "__init__.py"]
    uses = Counter()
    trees = {}
    for path in modules:
        trees[path] = ast.parse(path.read_text(), filename=str(path))
        uses += _references(trees[path])
    dead = []
    for path in modules:
        for qualname, node, kinds in _public_definitions(trees[path]):
            own = _references(node)
            if not any(uses[kind, node.name] > own[kind, node.name] for kind in kinds):
                dead.append(f"{path.stem}.{qualname}")
    return dead


def test_every_public_name_is_used():
    assert dead_names() == []


def test_dead_name_lint_flags_an_unused_function_and_property(tmp_path):
    (tmp_path / "__init__.py").write_text("from .mod import tested, unused\n")
    (tmp_path / "mod.py").write_text(
        "class C:\n"
        "    @property\n"
        "    def size(self):\n"
        '        """unused: a docstring is not a use"""\n'
        "        return self.size\n"
        "\n"
        "def used():\n"
        "    size = 1\n"
        "    return size\n"
        "\n"
        "def tested():\n"
        '    """Called by a test only."""\n'
        "    return used()\n"
        "\n"
        "def unused():\n"
        "    return unused()\n"
    )
    assert dead_names(tmp_path) == ["mod.C.size", "mod.tested", "mod.unused"]


def _named(node, name):
    """`name` or `module.name`, called or not."""
    target = node.func if isinstance(node, ast.Call) else node
    return (getattr(target, "id", None) or getattr(target, "attr", None)) == name


def _is_record(node):
    """A dataclass, or a NamedTuple class such as the private base that
    holds a validated record's fields."""
    return any(_named(d, "dataclass") for d in node.decorator_list) or any(
        _named(b, "NamedTuple") for b in node.bases
    )


def unread_fields(src=SRC):
    """The fields of the package's records (NamedTuple classes and
    dataclasses) that nothing in the package reads as an attribute
    (`obj.field`); a keyword to the constructor is not a read."""
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in sorted(src.glob("*.py"))}
    reads = {
        node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    return [
        f"{path.stem}.{node.name}.{item.target.id}"
        for path, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.ClassDef) and _is_record(node)
        for item in node.body
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
        and item.target.id not in reads
    ]


def test_every_record_field_is_read():
    assert unread_fields() == []


VERDICT_FIELDS = {"ok", "valid", "exhaustive"}


def verdict_fields(src=SRC):
    """`file:line` of each field named `ok`, `valid` or `exhaustive` that a
    NamedTuple class of the package declares, at any depth."""
    return [
        f"{path.name}:{item.lineno}"
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.ClassDef) and any(_named(b, "NamedTuple") for b in node.bases)
        for item in node.body
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name) and item.target.id in VERDICT_FIELDS
    ]


def test_no_record_stores_a_verdict():
    assert verdict_fields() == []


def test_verdict_field_lint_flags_an_ok_field_by_line(tmp_path):
    (tmp_path / "mod.py").write_text(
        "import typing\n"
        "from typing import NamedTuple\n"
        "\n"
        "class Report(NamedTuple):\n"
        "    ranks: tuple\n"
        "    ok: bool\n"
        "\n"
        "class Plain:\n"
        "    ok: bool\n"
        "    valid: bool\n"
        "\n"
        "class Format(NamedTuple):\n"
        "    diagnosis: str\n"
        "    valid: bool\n"
        "\n"
        "class Derived(NamedTuple):\n"
        "    diagnosis: str\n"
        "\n"
        "    @property\n"
        "    def valid(self) -> bool:\n"
        "        return self.diagnosis is None\n"
        "\n"
        "class Dims(typing.NamedTuple):\n"
        "    total: int\n"
        "    exhaustive: bool\n"
        "\n"
        "def build():\n"
        "    class Inner(typing.NamedTuple):\n"
        "        ok: bool = True\n"
        "    ok = True\n"
        "    return Inner(ok)\n"
    )
    assert verdict_fields(tmp_path) == ["mod.py:6", "mod.py:14", "mod.py:25", "mod.py:29"]


def test_field_lint_flags_an_unread_field(tmp_path):
    (tmp_path / "mod.py").write_text(
        "from dataclasses import dataclass\n"
        "import dataclasses\n"
        "import typing\n"
        "from typing import NamedTuple\n"
        "\n"
        "class Root(NamedTuple):\n"
        "    coords: tuple\n"
        "    mult: int\n"
        "\n"
        "class _Graph(typing.NamedTuple):\n"
        "    p: int\n"
        "    q: int\n"
        "\n"
        "class Graph(_Graph):\n"
        "    __slots__ = ()\n"
        "\n"
        "@dataclass(frozen=True)\n"
        "class Report:\n"
        "    ok: bool\n"
        "    detail: str = ''\n"
        "\n"
        "@dataclasses.dataclass\n"
        "class Point:\n"
        "    x: int\n"
        "    y: int\n"
        "\n"
        "class Plain:\n"
        "    z: int\n"
        "\n"
        "def check(p, g):\n"
        "    p.y = 1\n"
        "    return Report(ok=p.x > 0 and g.p > 0, detail='x')\n"
    )
    (tmp_path / "cli.py").write_text("def main(rep, root):\n    return rep.ok, root.mult\n")
    assert unread_fields(tmp_path) == ["mod.Root.coords", "mod._Graph.q", "mod.Report.detail", "mod.Point.y"]


def public_generators(tree):
    """The public module-level functions whose own body yields; a yield
    inside a nested function or lambda belongs to that one."""
    found = []

    def yields(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(child, (ast.Yield, ast.YieldFrom)) or yields(child):
                return True
        return False

    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_") and yields(node):
            found.append(node.name)
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_no_public_generator_function(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert public_generators(tree) == [], f"{path.name}: public generator functions"


def test_generator_lint_flags_only_a_public_generator():
    tree = ast.parse(
        "def walk(n):\n"
        "    for i in range(n):\n"
        "        if i:\n"
        "            yield i\n"
        "\n"
        "def _walk(n):\n"
        "    yield from range(n)\n"
        "\n"
        "def listed(n):\n"
        "    def gen():\n"
        "        yield n\n"
        "    return list(gen())\n"
        "\n"
        "def squares(n):\n"
        "    return [i * i for i in range(n)]\n"
    )
    assert public_generators(tree) == ["walk"]


def init_bindings(init=SRC / "__init__.py"):
    """The names that the package's `__init__` binds at module level, by
    import, assignment, definition or any other statement.  The package
    re-exports nothing: every caller imports the module that defines a
    name, so the re-export layer cannot grow back."""
    tree = ast.parse(init.read_text(), filename=str(init))
    names = []
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names += [(alias.asname or alias.name).split(".")[0] for alias in node.names]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif not (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)):
            names += [n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]
    return names


def test_the_package_init_binds_no_names():
    assert init_bindings() == []


def test_init_lint_flags_every_binding(tmp_path):
    init = tmp_path / "__init__.py"
    init.write_text(
        '"""Docstring."""\n'
        "from .mod import kept, hidden as shown\n"
        "import os.path\n"
        "__version__ = '1'\n"
        "__all__: list = ['kept']\n"
        "def helper():\n"
        "    local = 1\n"
        "    return local\n"
        "class Record:\n"
        "    field = 0\n"
        "for i in range(1):\n"
        "    pass\n"
        "'a string statement'\n"
    )
    assert init_bindings(init) == ["kept", "shown", "os", "__version__", "__all__", "helper", "Record", "i"]


def module_imports(tree, module):
    """The lines, ascending, where a tree imports `module` or a name from
    it, at any depth; a relative import is not that module."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            modules = [node.module]
        else:
            continue
        if any(m.split(".")[0] == module for m in modules):
            lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_the_exact_kernel_imports_nothing_from_fractions(path):
    lines = module_imports(ast.parse(path.read_text(), filename=str(path)), "fractions")
    assert lines == [], f"{path.name}: imports from fractions at lines {lines}"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_the_package_imports_nothing_from_dataclasses(path):
    lines = module_imports(ast.parse(path.read_text(), filename=str(path)), "dataclasses")
    assert lines == [], f"{path.name}: imports from dataclasses at lines {lines}"


@pytest.mark.parametrize("module", ["fractions", "dataclasses"])
def test_import_lint_flags_every_import_of_the_module(module):
    tree = ast.parse(
        "import {m}\n"
        "from {m} import Name\n"
        "import math, {m} as alias\n"
        "def f():\n"
        "    from {m} import Name as Q\n"
        "from .{m} import helper\n"
        "import math\n"
        "Name = int\n".format(m=module)
    )
    assert module_imports(tree, module) == [1, 2, 3, 5]
    assert module_imports(tree, "math") == [3, 7]


def private_reads(tree, module):
    """The lines, ascending, where a tree reads a private name of `module`:
    `module._name` on a name bound to the module, or `_name` imported from
    it."""
    modules = {module} | {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name == module
    }
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in modules and node.attr.startswith("_"):
                lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == module:
            if any(alias.name.startswith("_") for alias in node.names):
                lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_no_module_reads_another_modules_private_names(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    others = sorted(p.stem for p in SRC.glob("*.py") if p.stem not in (path.stem, "__init__"))
    reads = {m: lines for m in others if (lines := private_reads(tree, m))}
    assert reads == {}, f"{path.name}: reads private names of {reads} (module: lines)"


def test_exact_internals_lint_flags_every_read_of_the_registry_or_a_private_name():
    tree = ast.parse(
        "from . import exact\n"
        "from .exact import MPoly, _unpack\n"
        "from resatlas.exact import ring, _BITS as B\n"
        "from resatlas import exact as ex\n"
        "def f(m):\n"
        "    return [exact._MASK & e for _, e in exact._unpack(m)]\n"
        "ex._BITS\n"
        "exact.variables([])\n"
        "other._unpack(0)\n"
        "MPoly._private\n"
    )
    assert private_reads(tree, "exact") == [2, 3, 6, 6, 7]


def test_private_name_lint_flags_a_read_of_formats_on_both_lines():
    tree = ast.parse(
        "from . import formats\n"
        "from .formats import TpqrGraph, _check_pqr\n"
        "formats.classify(2, 3, 7)\n"
        "formats._check_pqr(2, 3, 7)\n"
        "exact._BITS\n"
    )
    assert private_reads(tree, "formats") == [2, 4]


def run_check_names(tree):
    """The string constants passed as the first argument of `run_check(...)`."""
    return {
        node.args[0].value
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "run_check"
        and node.args
        and isinstance(node.args[0], ast.Constant)
    }


def test_every_check_has_a_must_fail_twin():
    from resatlas.checks import CHECKS

    path = SRC.parents[1] / "tests" / "test_checks.py"
    named = run_check_names(ast.parse(path.read_text(), filename=str(path)))
    assert [name for name, _ in CHECKS if name not in named] == []


def test_twin_lint_reads_only_run_check_calls():
    tree = ast.parse(
        'def test_a(monkeypatch):\n'
        '    run_check("classification")\n'
        '    other("defect-dims")\n'
        '    run_check(name)\n'
        '    "spin-branching"\n'
    )
    assert run_check_names(tree) == {"classification"}


def _is_cache(decorator):
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    return (getattr(target, "id", None) or getattr(target, "attr", None)) in {"cache", "lru_cache"}


def memoized_with_parameters(tree):
    """The qualified names of the functions and methods, at any depth, that a
    `cache` or `lru_cache` decorator memoizes on their parameters (`self`
    included)."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                name = scope + (child.name,)
                if not isinstance(child, ast.ClassDef) and any(map(_is_cache, child.decorator_list)):
                    a = child.args
                    if a.posonlyargs or a.args or a.vararg or a.kwonlyargs or a.kwarg:
                        found.append(".".join(name))
                visit(child, name)

    visit(tree, ())
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_no_memoized_mathematics(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert memoized_with_parameters(tree) == [], f"{path.name}: memoized on arguments"


def test_cache_lint_flags_only_a_function_with_parameters():
    tree = ast.parse(
        "import functools\n"
        "from functools import cache, lru_cache\n"
        "\n"
        "@lru_cache\n"
        "def f(x):\n"
        "    return x\n"
        "\n"
        "@cache\n"
        "def g():\n"
        "    return 1\n"
        "\n"
        "@functools.lru_cache(maxsize=None)\n"
        "def h(*, n):\n"
        "    return n\n"
        "\n"
        "class C:\n"
        "    @functools.cache\n"
        "    def m(self):\n"
        "        return 2\n"
        "\n"
        "def outer():\n"
        "    @cache\n"
        "    def inner(y):\n"
        "        return y\n"
        "    return inner\n"
        "\n"
        "def plain(z):\n"
        "    return z\n"
    )
    assert memoized_with_parameters(tree) == ["f", "h", "C.m", "outer.inner"]


def readers(tree, name):
    """The top-level functions and methods, sorted, whose code reads `name`
    as a bare name or an attribute; "<module>" for a read outside them.
    An import binds the name but does not read it."""
    found = set()

    def reads(node):
        return any(
            isinstance(n, ast.Name) and n.id == name or isinstance(n, ast.Attribute) and n.attr == name
            for n in ast.walk(node)
        )

    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            scope = [(f"{node.name}.", item) for item in node.body]
        else:
            scope = [("", node)]
        for prefix, item in scope:
            if reads(item):
                is_def = isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                found.add(prefix + item.name if is_def else "<module>")
    return sorted(found)


def test_kacmoody_reads_the_case_list_only_where_the_supply_is_made_and_the_bgg_check_refuses():
    # A ratchet: a place that stops reading `tpqr_kind` leaves this list,
    # and none joins it.
    path = SRC / "kacmoody.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    assert readers(tree, "tpqr_kind") == ["bgg_euler_check", "root_multiplicities"]


def test_reader_lint_flags_a_new_reader():
    tree = ast.parse(
        "from .formats import tpqr_kind\n"
        "from . import formats\n"
        "\n"
        "def root_multiplicities(graph):\n"
        "    return tpqr_kind(*graph)\n"
        "\n"
        "def character_series(graph):\n"
        "    if formats.tpqr_kind(*graph) != 'finite':\n"
        "        raise ValueError(graph)\n"
        "\n"
        "class Graph:\n"
        "    def kind(self):\n"
        "        return tpqr_kind(*self)\n"
        "\n"
        "    def name(self):\n"
        "        return self.kind()\n"
        "\n"
        "KIND = tpqr_kind\n"
    )
    assert readers(tree, "tpqr_kind") == ["<module>", "Graph.kind", "character_series", "root_multiplicities"]


def bool_verdicts(tree):
    """The functions and methods, at any depth, named as certificates
    (`verify_*`, `*_check`, `*_certificate`, `*_crosscheck`) and annotated
    `-> bool`."""
    return [
        node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and (node.name.startswith("verify_") or node.name.endswith(("_check", "_certificate", "_crosscheck")))
        and node.returns is not None
        and ast.unparse(node.returns).strip("'\"") == "bool"
    ]


@pytest.mark.parametrize("module", ["kacmoody", "rings", "complexes"])
def test_no_certificate_returns_a_bare_bool(module):
    path = SRC / f"{module}.py"
    assert bool_verdicts(ast.parse(path.read_text(), filename=str(path))) == []


def test_verdict_lint_flags_a_certificate_annotated_bool():
    tree = ast.parse(
        "def verify_identity(A) -> bool:\n"
        "    return True\n"
        "\n"
        "def euler_check(g) -> 'bool':\n"
        "    return True\n"
        "\n"
        "def thm_certificate(res) -> Optional[str]:\n"
        "    return None\n"
        "\n"
        "def is_dominant(w) -> bool:\n"
        "    return True\n"
        "\n"
        "class C:\n"
        "    def dictionary_crosscheck(self) -> bool:\n"
        "        return True\n"
    )
    assert bool_verdicts(tree) == ["verify_identity", "euler_check", "dictionary_crosscheck"]
