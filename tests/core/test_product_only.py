"""Product code only: every name ``src/repro`` defines has a product use.

A name that only tests reach is a setting nobody notices is in play
(a parameter only a test sets) or code the product carries for a
test's sake (a method only a test calls).  This check walks the
product with :mod:`ast` and lists three kinds of finding:

1. module-level functions, classes and assignments no product code
   references;
2. public methods and properties no product code references;
3. keyword parameters (those with a default, or ``**kwargs``) no
   product call can set.

*Product files* are ``src/repro/**``, ``examples/*.py`` and
``benchmarks/ledger/*.py`` other than its ``test_*.py``; everything
else is test code.  A *reference* is an identifier in code: a name or
an attribute, a keyword-argument name, an imported name, or a word in
a string constant that is not a docstring (the ledger's probes name
methods in strings).  Comments and docstrings are not references, and
in an ``__init__.py`` an import or an ``__all__`` entry is a
re-export, not a use.

A product call can set a parameter when it passes it by keyword,
passes enough positional arguments to reach it, or unpacks ``*`` or
``**``.  A product reference to a callable that is not a call (an
alias such as ``backlog_at = self._ssd.backlog_seconds``, or an entry
in a registry) counts as setting all its parameters.  Matching is by
name, so two definitions that share a name share their uses; a
constructor's calls are those of its class's name (and a subclass's
``super().__init__``).  An unpacking assignment (``READ, SCAN,
DELETE, UPDATE = 0, 1, 2, 3``) is one enumeration: used when any of
its names is.

An oracle belongs beside the test that uses it (``tests/flash/
naive_ftl.py``, ``tests/flash/wa_model.py``, ``tests/obs/schema.py``).
"""

from __future__ import annotations

import ast
import re
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

#: Methods that read private state for white-box tests.  They are
#: safety code (the invariants a test asserts after every step), and
#: moving them to ``tests/`` would make the tests read private
#: attributes instead.
EXEMPT = frozenset({"check_invariants", "state_arrays"})

_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def product_files(root: Path) -> list[Path]:
    """The product: ``src/repro``, the examples and the ledger."""
    ledger = [p for p in sorted((root / "benchmarks" / "ledger").glob("*.py"))
              if not p.name.startswith("test_")]
    return (sorted((root / "src" / "repro").rglob("*.py"))
            + sorted((root / "examples").glob("*.py")) + ledger)


def _is_bare_string(node: ast.AST) -> bool:
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def _callee(func: ast.expr) -> str | None:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


class _Uses(ast.NodeVisitor):
    """Every reference in one product file, and every call by name."""

    def __init__(self, names: set[str], calls: dict[str, list],
                 reexport: bool):
        self.names = names
        self.calls = calls
        self.reexport = reexport
        self.called: set[int] = set()   # id() of callee nodes
        self.bases: list[list[str]] = []

    def visit_Module(self, node):
        self._body(node.body)

    def visit_ClassDef(self, node):
        for child in node.bases + node.keywords + node.decorator_list:
            self.visit(child)
        self.bases.append([b for b in map(_callee, node.bases) if b])
        self._body(node.body)
        self.bases.pop()

    def visit_FunctionDef(self, node):
        for child in node.decorator_list + [node.args]:
            self.visit(child)
        if node.returns is not None:
            self.visit(node.returns)
        self._body(node.body)

    visit_AsyncFunctionDef = visit_FunctionDef

    def _body(self, body):
        for stmt in body:
            if not _is_bare_string(stmt):   # docstrings are prose
                self.visit(stmt)

    def visit_Call(self, node):
        name = _callee(node.func)
        if (name == "__init__" and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Call)
                and _callee(node.func.value.func) == "super" and self.bases):
            for base in self.bases[-1]:   # super().__init__ sets the base's
                self.calls.setdefault(base, []).append(node)
        elif name is not None:
            self.calls.setdefault(name, []).append(node)
            self.called.add(id(node.func))
        self.generic_visit(node)

    def visit_Name(self, node):
        if not isinstance(node.ctx, ast.Store):
            self._use(node, node.id)

    def visit_Attribute(self, node):
        self._use(node, node.attr)
        self.visit(node.value)

    def _use(self, node, name):
        self.names.add(name)
        if id(node) not in self.called:
            self.calls.setdefault(name, []).append(None)   # an alias

    def visit_keyword(self, node):
        if node.arg is not None:
            self.names.add(node.arg)
        self.visit(node.value)

    def visit_ImportFrom(self, node):
        if not self.reexport:
            self.names.update(a.name for a in node.names)

    def visit_Import(self, node):
        if not self.reexport:
            for alias in node.names:
                self.names.update(alias.name.split("."))

    def visit_Assign(self, node):
        if self.reexport and any(isinstance(t, ast.Name) and t.id == "__all__"
                                 for t in node.targets):
            return
        self.generic_visit(node)

    def visit_Constant(self, node):
        if isinstance(node.value, str):
            self.names.update(_WORD.findall(node.value))


def product_uses(files: list[Path]) -> tuple[set[str], dict[str, list]]:
    """Names the product references, and its calls keyed by callee name.

    A ``None`` entry among the calls is a reference that is not a call.
    """
    names: set[str] = set()
    calls: dict[str, list] = {}
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        _Uses(names, calls, path.name == "__init__.py").visit(tree)
    return names, calls


def _settable(fn: ast.FunctionDef, skip: int,
              calls: list) -> tuple[set[str], bool]:
    """Parameters some call in *calls* can set, and whether ``**`` can."""
    args = fn.args
    positional = [a.arg for a in args.posonlyargs + args.args][skip:]
    named = set(positional) | {a.arg for a in args.kwonlyargs}
    settable: set[str] = set()
    extra = False
    for call in calls:
        if call is None or any(isinstance(a, ast.Starred) for a in call.args) \
                or any(k.arg is None for k in call.keywords):
            return named, True
        settable.update(positional[:len(call.args)])
        for kw in call.keywords:
            if kw.arg in named:
                settable.add(kw.arg)
            else:
                extra = True
    return settable, extra


def _keyword_params(fn: ast.FunctionDef) -> list[str]:
    args = fn.args
    positional = args.posonlyargs + args.args
    with_default = positional[len(positional) - len(args.defaults):]
    params = [a.arg for a in with_default]
    params += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults)
               if d is not None]
    return params


def _decorators(fn) -> set[str]:
    return {n for n in map(_callee, fn.decorator_list) if n}


def _module_names(stmt: ast.stmt) -> list[list[str]]:
    """The names *stmt* defines, one group per assignment target."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [[stmt.name]]
    targets = (stmt.targets if isinstance(stmt, ast.Assign)
               else [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
    return [[node.id for node in ast.walk(target) if isinstance(node, ast.Name)]
            for target in targets]


def find_test_only(src: Path, files: list[Path]) -> list[str]:
    """Every name under *src* that no file in *files* uses, one a line.

    *files* is the product; the definitions checked are those under
    *src* (a package directory).
    """
    names, calls = product_uses(files)
    findings: list[str] = []

    def check_params(where: str, fn, callee: str, skip: int) -> None:
        params = _keyword_params(fn)
        if not params and fn.args.kwarg is None:
            return
        settable, extra = _settable(fn, skip, calls.get(callee, []))
        for param in params:
            if param not in settable:
                findings.append(f"{where}({param}=)")
        if fn.args.kwarg is not None and not extra:
            findings.append(f"{where}(**{fn.args.kwarg.arg})")

    for path in sorted(src.rglob("*.py")):
        module = path.relative_to(src.parent).with_suffix("")
        module = ".".join(module.parts)
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for stmt in tree.body:
            for group in _module_names(stmt):
                if not names.intersection(group):
                    findings.extend(f"{module}.{name}" for name in group
                                    if not name.startswith("__"))
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                check_params(f"{module}.{stmt.name}", stmt, stmt.name, 0)
            if not isinstance(stmt, ast.ClassDef):
                continue
            for fn in stmt.body:
                if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                where = f"{module}.{stmt.name}.{fn.name}"
                public = not fn.name.startswith("_")
                if public and fn.name not in names and fn.name not in EXEMPT:
                    findings.append(where)
                decorators = _decorators(fn)
                if "property" in decorators or "setter" in decorators:
                    continue
                skip = 0 if "staticmethod" in decorators else 1
                if fn.name == "__init__":
                    check_params(where, fn, stmt.name, skip)
                elif not fn.name.startswith("__"):
                    check_params(where, fn, fn.name, skip)
    return sorted(set(findings))


def test_no_name_in_src_is_reached_only_by_tests():
    found = find_test_only(ROOT / "src" / "repro", product_files(ROOT))
    assert found == [], (
        "only tests reach these; delete them, make a parameter a "
        "constant, or move an oracle to tests/:\n  " + "\n  ".join(found))


# -- the check catches what it claims -----------------------------------

_FIXTURE = {
    "src/repro/__init__.py": '''
        """A package whose re-export is not a use."""
        from repro.mod import Reexported, Store, forward, open_store
        __all__ = ["Reexported", "Store", "forward", "open_store"]
    ''',
    "src/repro/mod.py": '''
        """Three kinds of finding beside four opaque cases."""

        class Reexported:
            pass

        class Store:
            def __init__(self, size, positional=2, dead=4):
                self.size = size

            def used(self):
                return 1

            def probed(self):
                return 2

            def test_only(self):
                return 3

        def open_store(size, only_tests=False):
            return Store(size)

        class Reached:
            def __init__(self, depth=3):
                self.depth = depth

        REGISTRY = {"reached": Reached}

        def build(name, **options):
            return REGISTRY[name](**options)

        def forward(kind, **options):
            return build(kind, **options)
    ''',
    "examples/app.py": '''
        """Product code outside the package."""
        from repro import Store, forward, open_store

        Store(10, 5).used()
        open_store(3)
        forward("reached", depth=2)
    ''',
    "benchmarks/ledger/probes.py": '''
        """A probe names the method it wraps in a string."""
        PROBES = ["Store.probed"]
    ''',
    "benchmarks/ledger/test_probes.py": '''
        """The ledger's own tests are test code."""
        from repro import Store

        def test_store():
            assert Store(1).test_only() == 3
    ''',
    "tests/test_mod.py": '''
        """Test code: nothing here is a product use."""
        from repro import Reexported, open_store

        def test_open_store():
            assert open_store(1, only_tests=True)
            assert Reexported()
    ''',
}


def test_the_walker_flags_each_kind_and_no_opaque_case(tmp_path):
    for rel, text in _FIXTURE.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text), encoding="utf-8")
    assert find_test_only(tmp_path / "src" / "repro", product_files(tmp_path)) == [
        # module level, reached only through the package's re-export
        "repro.mod.Reexported",
        # a dead default: no call at all passes it
        "repro.mod.Store.__init__(dead=)",
        # a public method only a test calls
        "repro.mod.Store.test_only",
        # a parameter only a test sets
        "repro.mod.open_store(only_tests=)",
    ]
