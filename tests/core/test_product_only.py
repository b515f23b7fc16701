"""Product code only: every name ``src/repro`` defines has a product use.

A name that only tests reach is a setting nobody notices is in play
(a parameter only a test sets) or code the product carries for a
test's sake (a method only a test calls).  This check walks the
product with :mod:`ast` and lists five kinds of finding:

1. module-level functions, classes and assignments no product code
   references;
2. public methods and properties no product code references;
3. keyword parameters (those with a default, or ``**kwargs``) no
   product call can set;
4. fields of :class:`~repro.core.experiment.ExperimentSpec` no product
   file other than the spec's own module sets;
5. keyword parameters of a class product code reaches only through a
   registry dict (``ARRIVALS``, ``ROUTERS``, ``_CHOOSERS``) that its
   dispatch does not pass.

*Product files* are ``src/repro/**``, ``examples/*.py`` and
``benchmarks/ledger/*.py`` other than its ``test_*.py``; everything
else is test code.  A *reference* is an identifier in code: a name
that is not a function's own variable, an attribute, an imported
name, or a word in a string constant that is not a docstring (the
ledger's probes name methods in strings).  A keyword argument's name
sets a parameter or a field (below) and references nothing.  Comments
and docstrings are not references, and in an ``__init__.py`` an
import or an ``__all__`` entry is a re-export, not a use.

A method or property is used by owner: an attribute whose receiver is
typed credits only the classes of the receiver's hierarchy (its
ancestors and descendants) that define it.  A receiver is typed when
it is ``self``, ``cls``, ``super()`` or a class; a parameter or a
dataclass field annotated with a class; a name or a ``self``
attribute bound only to constructor calls, to calls of functions whose
return annotation names a class, or to typed values; or an attribute
of a typed receiver typed so.  Any other receiver, a structural
(``Protocol``) type, a hierarchy that does not define the member, and
a word in a string credit every namesake.  An attribute of a name that
an import from outside ``repro`` bound (``np.percentile``) credits no
product member and calls no product function.

A product call can set a parameter when it passes it by keyword,
passes enough positional arguments to reach it (a ``*`` unpacking
reaches them all), or passes it through ``**``.  A ``**`` unpacking
passes only what can be seen to be in it: the keys of a ``dict(...)``
call or a dict literal bound to a name in the same scope, or — for
the enclosing function's own ``**kwargs`` — whatever that function's
callers pass.  Anything else unpacked passes nothing.  A product
reference to a callable that is not a call (an alias such as
``backlog_at = self._ssd.backlog_seconds``) counts as setting all its
parameters.  An entry in a module-level registry dict is not such a
reference: the class is constructed with what the registry's
dispatches pass (``ARRIVALS[name](rate, rng)``, or ``cls =
ROUTERS[name]`` then ``cls(nshards, nkeys)``).  A registry read for
its keys only (``in``, ``sorted(...)``) passes nothing; any other use
of it hands its entries out, which counts as an alias of each.
Parameters are matched by the callee's name, so two functions that
share a name share their calls; a constructor's calls are those of
its class's name (and a subclass's ``super().__init__``).  An
unpacking assignment (``READ, SCAN, DELETE, UPDATE = 0, 1, 2, 3``) is
one enumeration: used when any of its names is.

A spec field is set where a product file passes it by keyword to
``ExperimentSpec(...)``, ``replace(...)``, ``spec_for(...)`` or
``dict(...)`` (the ledger's rows), or writes a string constant equal
to its name (a campaign axis, a dict key).  A ``**`` pass-through
sets no field: the ledger's ``ExperimentSpec(**COMMON, **spec)`` would
otherwise set them all.

An oracle belongs beside the test that uses it (``tests/flash/
naive_ftl.py``, ``tests/flash/wa_model.py``, ``tests/obs/schema.py``).
"""

from __future__ import annotations

import ast
import re
import textwrap
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

#: Names only tests reach, kept on purpose, with the reason.  A key is
#: a name (module level or a method) or ``Owner(param=)``.
EXEMPT = {
    # A white-box safety reader: the FTL state a test asserts after
    # every step.  Moving it to tests/ would make the tests read
    # private attributes instead.
    "state_arrays": "reads private state for white-box tests",
    # FIFO is the GC regime with an exact closed form
    # (tests/flash/test_wa_closed_forms.py holds it to 0.8-1.0 of the
    # fixed point) and the FTL lockstep's second victim rule; the
    # stack builds the greedy SSD only.
    "FifoPolicy": "the closed-form GC regime the FTL tests check",
    "SSD(policy=)": "how tests build an SSD under FIFO",
}

#: The spec whose fields kind 4 checks, and the calls that set them.
SPEC_CLASS = "ExperimentSpec"
SPEC_SETTERS = frozenset({"ExperimentSpec", "replace", "spec_for", "dict"})

#: Builtins that read only a registry's keys.
_KEYS_ONLY = frozenset({"sorted", "list", "len", "set", "frozenset", "tuple"})

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


@dataclass(frozen=True)
class _Call:
    """What one product call can set."""

    nargs: int                 # positional arguments, ``*`` not counted
    star: bool                 # a ``*`` unpacking reaches every positional
    keywords: frozenset[str]   # by name, or in a visible ``**`` dict
    forwards: tuple[str, ...]  # functions whose ``**kwargs`` it passes on


@dataclass
class _Frame:
    """One scope: the function (None at module level), its ``**kwargs``
    name, local registry aliases, local dicts of known keys and the
    types of the names it binds."""

    fn: str | None
    kwarg: str | None
    aliases: dict[str, str] = field(default_factory=dict)
    dicts: dict[str, frozenset[str]] = field(default_factory=dict)
    types: dict = field(default_factory=dict)


def _dict_keys(value: ast.expr) -> frozenset[str] | None:
    """The keys of ``dict(k=...)`` or ``{"k": ...}``, if all are visible."""
    if (isinstance(value, ast.Call) and _callee(value.func) == "dict"
            and not value.args and all(k.arg for k in value.keywords)):
        return frozenset(k.arg for k in value.keywords)
    if isinstance(value, ast.Dict) and all(
            isinstance(k, ast.Constant) and isinstance(k.value, str)
            for k in value.keys):
        return frozenset(k.value for k in value.keys)
    return None


def registries(trees: list[ast.Module]) -> dict[str, set[str]]:
    """Module-level dict literals whose values name callables: each
    registry's name and the names of its entries."""
    found: dict[str, set[str]] = {}
    for tree in trees:
        for stmt in tree.body:
            value = getattr(stmt, "value", None)
            if not isinstance(stmt, (ast.Assign, ast.AnnAssign)) \
                    or not isinstance(value, ast.Dict):
                continue
            entries = {_callee(v) for v in value.values
                       if isinstance(v, (ast.Name, ast.Attribute))}
            if entries:
                for target in _targets(stmt):
                    if isinstance(target, ast.Name):
                        found[target.id] = entries
    return found


def _targets(stmt) -> list[ast.expr]:
    return stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]


# -- receiver types: which class a method use credits --------------------
#
# A type is a frozenset of product class names (empty: only ``None``)
# or None: untyped, which credits every namesake.

_MISSING = object()


def _merge(a, b):
    return None if a is None or b is None else a | b


def _scope_nodes(body: list[ast.stmt]):
    """Every node of *body* in its own scope: nested functions, classes
    and lambdas are left out (their names are bound, not walked)."""
    stack = list(reversed(body))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef, ast.Lambda)):
            continue
        stack.extend(reversed(list(ast.iter_child_nodes(node))))


@dataclass
class _Class:
    bases: list[str]
    members: set[str] = field(default_factory=set)      # defined in the body
    returns: dict[str, ast.expr] = field(default_factory=dict)  # annotated
    fields: dict[str, ast.expr] = field(default_factory=dict)   # annotated
    protocol: bool = False


class _Model:
    """Product classes, their hierarchy and the types of their
    attributes: what a receiver can be typed as.

    An expression is typed when it is ``self`` or ``cls`` (the method's
    class), ``super()``, a name bound only to typed values (a parameter
    or field annotated with a class, a constructor call, a call of a
    function whose return annotation names a class), a class itself, a
    conditional expression of typed values, or an attribute of a typed
    receiver whose every assignment is typed.
    """

    def __init__(self, trees: list[ast.Module]):
        self.classes: dict[str, _Class] = {}
        self.functions: dict[str, list[ast.expr | None]] = {}
        for tree in trees:
            for node in ast.walk(tree):
                if isinstance(node, ast.ClassDef):
                    self._add_class(node)
            for stmt in tree.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    self.functions.setdefault(stmt.name, []).append(stmt.returns)
        self.children: dict[str, set[str]] = {}
        for name, cls in self.classes.items():
            for base in cls.bases:
                if base in self.classes:
                    self.children.setdefault(base, set()).add(name)
        self.attrs: dict[str, dict] = {}
        self.untyped_attrs: set[str] = set()
        self._nodes: dict[int, list[ast.AST]] = {}
        for _ in range(2):   # attributes typed from attributes settle
            self._type_attributes(trees)

    def _add_class(self, node: ast.ClassDef) -> None:
        bases = [b for b in map(_callee, node.bases) if b]
        cls = self.classes.setdefault(node.name, _Class(bases))
        cls.protocol |= "Protocol" in bases
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                cls.members.add(stmt.name)
                if stmt.returns is not None:
                    cls.returns[stmt.name] = stmt.returns
            elif isinstance(stmt, ast.AnnAssign) \
                    and isinstance(stmt.target, ast.Name):
                cls.members.add(stmt.target.id)
                cls.fields[stmt.target.id] = stmt.annotation
            elif isinstance(stmt, ast.Assign):
                cls.members.update(t.id for t in stmt.targets
                                   if isinstance(t, ast.Name))

    def nodes(self, body: list[ast.stmt]) -> list[ast.AST]:
        """:func:`_scope_nodes` of *body*, walked once."""
        key = id(body)
        if key not in self._nodes:
            self._nodes[key] = list(_scope_nodes(body))
        return self._nodes[key]

    # -- the hierarchy ------------------------------------------------
    def mro(self, name: str) -> list[str]:
        order, stack = [], [name]
        while stack:
            current = stack.pop(0)
            if current in self.classes and current not in order:
                order.append(current)
                stack.extend(self.classes[current].bases)
        return order

    def family(self, name: str) -> set[str]:
        """The class, its ancestors and its descendants."""
        found = set(self.mro(name))
        stack = [name]
        while stack:
            for child in self.children.get(stack.pop(), ()):
                if child not in found:
                    found.add(child)
                    stack.append(child)
        return found

    def owners(self, types, member: str) -> set[str] | None:
        """The classes a use of *member* on a receiver of *types*
        credits; None when the receiver is untyped (or structural, or
        its hierarchy does not define *member*)."""
        if not types or any(self.classes[t].protocol for t in types):
            return None
        found = {c for t in types for c in self.family(t)
                 if member in self.classes[c].members
                 or member in self.attrs.get(c, ())}
        return found or None

    # -- types --------------------------------------------------------
    def annotation(self, node):
        if isinstance(node, ast.Constant):
            if node.value is None:
                return frozenset()
            if isinstance(node.value, str):
                try:
                    node = ast.parse(node.value, mode="eval").body
                except SyntaxError:
                    return None
                return self.annotation(node)
            return None
        if isinstance(node, (ast.Name, ast.Attribute)):
            name = _callee(node)
            return frozenset({name}) if name in self.classes else None
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
            return _merge(self.annotation(node.left),
                          self.annotation(node.right))
        if isinstance(node, ast.Subscript) and _callee(node.value) == "Optional":
            return self.annotation(node.slice)
        return None

    def _returns(self, annotations) -> frozenset | None:
        found = frozenset()
        for annotation in annotations:
            found = _merge(found, None if annotation is None
                           else self.annotation(annotation))
        return found or None

    def member_type(self, types, name: str, called: bool):
        """The type of ``receiver.name`` (or of calling it)."""
        if not types or (not called and name in self.untyped_attrs):
            return None
        found = frozenset()
        for t in types:
            for c in self.mro(t):
                cls, held = self.classes[c], self.attrs.get(c, {})
                if not called and name in held:
                    member = held[name]
                elif not called and name in cls.fields:
                    member = self.annotation(cls.fields[name])
                elif name in cls.members:   # a method, or a property
                    member = self._returns([cls.returns.get(name)])
                else:
                    continue
                break
            else:
                return None
            found = _merge(found, member)
        return found or None

    def expr(self, node, find, owner: str | None):
        """The type of expression *node*; *find* looks a name up in the
        enclosing scopes (``_MISSING`` if unbound)."""
        if isinstance(node, ast.Constant) and node.value is None:
            return frozenset()
        if isinstance(node, ast.Name):
            bound = find(node.id)
            if bound is not _MISSING:
                return bound
            return frozenset({node.id}) if node.id in self.classes else None
        if isinstance(node, ast.Attribute):
            return self.member_type(self.expr(node.value, find, owner),
                                    node.attr, called=False)
        if isinstance(node, ast.IfExp):
            return _merge(self.expr(node.body, find, owner),
                          self.expr(node.orelse, find, owner))
        if not isinstance(node, ast.Call):
            return None
        func = node.func
        if isinstance(func, ast.Attribute):
            return self.member_type(self.expr(func.value, find, owner),
                                    func.attr, called=True)
        if not isinstance(func, ast.Name):
            return None
        if func.id == "super":
            return frozenset({owner}) if owner else None
        bound = find(func.id)
        if bound is not _MISSING:
            return bound if func.id == "cls" else None
        if func.id in self.classes:
            return frozenset({func.id})
        if func.id in self.functions:
            return self._returns(self.functions[func.id])
        return None

    def scope(self, fn, owner: str | None, find) -> dict:
        """The types of the names *fn* binds (a module when *fn* is a
        list of statements); *owner* is the class of a method."""
        local: dict = {}

        def lookup(name):
            return local[name] if name in local else find(name)

        def bind(name, types):
            local[name] = _merge(local[name], types) if name in local else types

        if isinstance(fn, list):
            body = fn
        else:
            body = fn.body
            args = fn.args
            positional = args.posonlyargs + args.args
            static = "staticmethod" in _decorators(fn)
            for i, arg in enumerate(positional + args.kwonlyargs):
                if i == 0 and owner and not static and arg in positional:
                    local[arg.arg] = frozenset({owner})
                else:
                    local[arg.arg] = self.annotation(arg.annotation)
            for arg in (args.vararg, args.kwarg):
                if arg is not None:
                    local[arg.arg] = None
        handled: set[int] = set()
        for node in self.nodes(body):
            if isinstance(node, (ast.Assign, ast.AnnAssign)) \
                    and len(_targets(node)) == 1 \
                    and isinstance(_targets(node)[0], ast.Name):
                target = _targets(node)[0]
                handled.add(id(target))
                if isinstance(node, ast.AnnAssign):
                    bind(target.id, self.annotation(node.annotation))
                elif node.value is not None:
                    bind(target.id, self.expr(node.value, lookup, owner))
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store) \
                    and id(node) not in handled:
                bind(node.id, None)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.ClassDef)):
                bind(node.name, None)
        return local

    def _type_attributes(self, trees: list[ast.Module]) -> None:
        """Type every attribute from its assignments anywhere in the
        product: one untyped assignment leaves it untyped."""
        attrs: dict[str, dict] = {}
        untyped: set[str] = set()

        def visit(body, owner, find):
            for node in self.nodes(body):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    local = self.scope(node, owner, find)
                    visit(node.body, None, lambda n, local=local:
                          local[n] if n in local else find(n))
                elif isinstance(node, ast.ClassDef):
                    visit(node.body, node.name, find)
                elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                    store(node, find, owner)

        def store(node, find, owner):
            for target in _targets(node):
                for sub in ast.walk(target):
                    if not isinstance(sub, ast.Attribute) \
                            or not isinstance(sub.ctx, ast.Store):
                        continue
                    receiver = self.expr(sub.value, find, owner)
                    if not receiver or sub is not target:
                        untyped.add(sub.attr)
                        continue
                    types = (self.annotation(node.annotation)
                             if isinstance(node, ast.AnnAssign)
                             else self.expr(node.value, find, owner))
                    for t in receiver:
                        held = attrs.setdefault(t, {})
                        held[sub.attr] = (_merge(held[sub.attr], types)
                                          if sub.attr in held else types)

        for tree in trees:
            module = self.scope(tree.body, None, lambda n: _MISSING)
            visit(tree.body, None,
                  lambda n, module=module: module.get(n, _MISSING))
        self.attrs, self.untyped_attrs = attrs, untyped


class _Uses(ast.NodeVisitor):
    """Every reference in one product file, and every call by name."""

    def __init__(self, names: set[str], owned: dict[str, set[str]],
                 calls: dict[str, list], registry: dict[str, set[str]],
                 model: _Model, reexport: bool):
        self.names = names
        self.owned = owned
        self.calls = calls
        self.model = model
        self.registry = registry
        self.reexport = reexport
        self.settings: set[str] = set()  # spec fields this file sets
        self.called: set[int] = set()    # id() of callee nodes
        self.handled: set[int] = set()   # id() of registry names read safely
        self.bases: list[list[str]] = []
        self.classes: list[str] = []     # enclosing classes, innermost last
        self.method_of: str | None = None  # the class whose body this is
        self.frames = [_Frame(None, None)]
        self.foreign: set[str] = set()   # names imported from outside repro

    def visit_Module(self, node):
        self.frames[0].types = self.model.scope(node.body, None, self._find)
        self._body(node.body)

    def visit_ClassDef(self, node):
        for child in node.bases + node.keywords + node.decorator_list:
            self.visit(child)
        self.bases.append([b for b in map(_callee, node.bases) if b])
        self.classes.append(node.name)
        for stmt in node.body:
            self.method_of = node.name
            if not _is_bare_string(stmt):
                self.visit(stmt)
        self.method_of = None
        self.classes.pop()
        self.bases.pop()

    def visit_FunctionDef(self, node):
        owner, self.method_of = self.method_of, None
        for child in node.decorator_list + [node.args]:
            self.visit(child)
        self._annotation(node.returns)
        kwarg = node.args.kwarg.arg if node.args.kwarg else None
        frame = _Frame(node.name, kwarg)
        frame.types = self.model.scope(node, owner, self._find)
        self.frames.append(frame)
        self._body(node.body)
        self.frames.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Lambda(self, node):
        outer = self.frames[-1]
        args = node.args
        params = args.posonlyargs + args.args + args.kwonlyargs
        params += [a for a in (args.vararg, args.kwarg) if a is not None]
        self.visit(args)
        self.frames.append(_Frame(outer.fn, outer.kwarg, outer.aliases,
                                  outer.dicts, {a.arg: None for a in params}))
        self.visit(node.body)
        self.frames.pop()

    def _find(self, name: str):
        for frame in reversed(self.frames):
            if name in frame.types:
                return frame.types[name]
        return _MISSING

    def _body(self, body):
        for stmt in body:
            if not _is_bare_string(stmt):   # docstrings are prose
                self.visit(stmt)

    def _registry_of(self, node: ast.expr) -> str | None:
        name = _callee(node)
        return name if name in self.registry else None

    def _alias(self, name: str) -> str | None:
        for frame in reversed(self.frames):
            if name in frame.aliases:
                return frame.aliases[name]
        return None

    def _record(self, node: ast.Call) -> _Call:
        keywords: set[str] = set()
        forwards: list[str] = []
        frame = self.frames[-1]
        for kw in node.keywords:
            if kw.arg is not None:
                keywords.add(kw.arg)
            elif isinstance(kw.value, ast.Name):
                if kw.value.id == frame.kwarg:
                    forwards.append(frame.fn)
                else:
                    keywords.update(frame.dicts.get(kw.value.id, ()))
        starred = [a for a in node.args if isinstance(a, ast.Starred)]
        return _Call(len(node.args) - len(starred), bool(starred),
                     frozenset(keywords), tuple(forwards))

    def _dispatch(self, registry: str, node: ast.Call) -> None:
        for entry in self.registry[registry]:
            self.calls.setdefault(entry, []).append(self._record(node))

    def _foreign(self, node: ast.expr) -> bool:
        """Whether *node* is a name an import from outside ``repro``
        bound (``np``), not rebound in the file's scopes."""
        return (isinstance(node, ast.Name) and node.id in self.foreign
                and self._find(node.id) is _MISSING)

    def visit_Call(self, node):
        name = _callee(node.func)
        if isinstance(node.func, ast.Attribute) and self._foreign(node.func.value):
            name = None   # ``np.percentile(...)`` calls no product function
        if name in SPEC_SETTERS:
            self.settings.update(k.arg for k in node.keywords if k.arg)
        if isinstance(node.func, ast.Subscript) \
                and (registry := self._registry_of(node.func.value)):
            self.handled.add(id(node.func.value))
            self._dispatch(registry, node)
        elif (name == "__init__" and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Call)
                and _callee(node.func.value.func) == "super" and self.bases):
            for base in self.bases[-1]:   # super().__init__ sets the base's
                self.calls.setdefault(base, []).append(self._record(node))
        elif name is not None:
            self.called.add(id(node.func))
            registry = (self._alias(name) if isinstance(node.func, ast.Name)
                        else None)
            if registry:
                self._dispatch(registry, node)
            else:
                self.calls.setdefault(name, []).append(self._record(node))
            if name in _KEYS_ONLY and node.args \
                    and self._registry_of(node.args[0]):
                self.handled.add(id(node.args[0]))
        self.generic_visit(node)

    def visit_Compare(self, node):
        for op, right in zip(node.ops, node.comparators):
            if isinstance(op, (ast.In, ast.NotIn)) and self._registry_of(right):
                self.handled.add(id(right))
        self.generic_visit(node)

    def visit_Name(self, node):
        if not isinstance(node.ctx, ast.Store):
            # A function's own variable is no use of a namesake.
            local = any(node.id in frame.types for frame in self.frames[1:])
            self._use(node, node.id, credit=not local)

    def visit_Attribute(self, node):
        if self._foreign(node.value):
            self.names.add(node.value.id)   # a member of that module, not ours
            return
        receiver = self.model.expr(node.value, self._find,
                                   self.classes[-1] if self.classes else None)
        owners = self.model.owners(receiver, node.attr)
        if owners is not None:   # a typed receiver credits its owners only
            self.owned.setdefault(node.attr, set()).update(owners)
        self._use(node, node.attr, credit=owners is None)
        value = node.value
        if isinstance(value, ast.Name) and not (
                value.id in self.registry or self._alias(value.id)):
            self.names.add(value.id)   # reading a member is not an alias
        else:
            self.visit(value)

    def _use(self, node, name, credit=True):
        if credit:
            self.names.add(name)
        if id(node) in self.called:
            return
        self.calls.setdefault(name, []).append(None)   # an alias
        registry = name if name in self.registry else (
            self._alias(name) if isinstance(node, ast.Name) else None)
        if registry and id(node) not in self.handled:
            for entry in self.registry[registry]:   # its entries escape
                self.calls.setdefault(entry, []).append(None)

    def visit_keyword(self, node):
        self.visit(node.value)   # its name sets a parameter (calls), no more

    def visit_ImportFrom(self, node):
        if not self.reexport:
            self.names.update(a.name for a in node.names)
        if node.level == 0 and node.module.split(".")[0] != "repro":
            self.foreign.update(a.asname or a.name for a in node.names)

    def visit_Import(self, node):
        if not self.reexport:
            for alias in node.names:
                self.names.update(alias.name.split("."))
        self.foreign.update(alias.asname or alias.name.split(".")[0]
                            for alias in node.names
                            if alias.name.split(".")[0] != "repro")

    def visit_Assign(self, node):
        if self.reexport and any(isinstance(t, ast.Name) and t.id == "__all__"
                                 for t in node.targets):
            return
        self._bind(node)

    def visit_AnnAssign(self, node):
        self._annotation(node.annotation)
        self._bind(node)

    def visit_arg(self, node):
        self._annotation(node.annotation)

    def _annotation(self, node):
        """A type names what it mentions; it hands no callable out."""
        for child in ast.walk(node) if node is not None else ():
            if isinstance(child, (ast.Name, ast.Attribute)):
                self.names.add(_callee(child))
            elif isinstance(child, ast.Constant) and isinstance(child.value, str):
                self.names.update(_WORD.findall(child.value))

    def _bind(self, node):
        """Note a local registry alias or dict of known keys, and read a
        module-level registry's entries as names, not aliases."""
        frame = self.frames[-1]
        targets = [t.id for t in _targets(node) if isinstance(t, ast.Name)]
        value = node.value
        if len(targets) == 1 and value is not None:
            target = targets[0]
            if isinstance(value, ast.Subscript) \
                    and (registry := self._registry_of(value.value)):
                self.handled.add(id(value.value))
                frame.aliases[target] = registry
            elif (keys := _dict_keys(value)) is not None:
                frame.dicts[target] = keys
            if (frame.fn is None and target in self.registry
                    and isinstance(value, ast.Dict)):
                for key, entry in zip(value.keys, value.values):
                    self.visit(key)
                    if isinstance(entry, (ast.Name, ast.Attribute)):
                        self.names.add(_callee(entry))
                        if isinstance(entry, ast.Attribute):
                            self.visit(entry.value)
                    else:
                        self.visit(entry)
                return
        for child in _targets(node) + [value]:
            if child is not None:
                self.visit(child)

    def visit_Constant(self, node):
        if isinstance(node.value, str):
            self.names.update(_WORD.findall(node.value))
            self.settings.add(node.value)


@dataclass
class Product:
    """What the product references: names (untyped uses), the owners
    a typed use of a member credits, calls keyed by callee name
    (``None`` is a reference that is not a call) and, per file, the
    spec fields it sets."""

    names: set[str]
    owned: dict[str, set[str]]
    calls: dict[str, list]
    settings: dict[Path, set[str]]


def product_uses(files: list[Path]) -> Product:
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in files}
    registry = registries(list(trees.values()))
    model = _Model(list(trees.values()))
    product = Product(set(), {}, {}, {})
    for path, tree in trees.items():
        uses = _Uses(product.names, product.owned, product.calls, registry,
                     model, path.name == "__init__.py")
        uses.visit(tree)
        product.settings[path.resolve()] = uses.settings
    return product


def _forwarded(fn: str, calls: dict[str, list],
               seen: set[str]) -> set[str] | None:
    """Keywords the callers of *fn* can pass into its ``**kwargs``
    (None: any)."""
    if fn in seen:
        return set()
    seen.add(fn)
    passed: set[str] = set()
    for call in calls.get(fn, []):
        if call is None:
            return None
        passed |= call.keywords
        for outer in call.forwards:
            more = _forwarded(outer, calls, seen)
            if more is None:
                return None
            passed |= more
    return passed


def _settable(fn: ast.FunctionDef, skip: int, calls: list,
              every_call: dict[str, list]) -> tuple[set[str], bool]:
    """Parameters some call in *calls* can set, and whether ``**`` can."""
    args = fn.args
    positional = [a.arg for a in args.posonlyargs + args.args][skip:]
    named = set(positional) | {a.arg for a in args.kwonlyargs}
    settable: set[str] = set()
    extra = False
    for call in calls:
        if call is None:
            return named, True
        keywords = set(call.keywords)
        for outer in call.forwards:
            more = _forwarded(outer, every_call, set())
            if more is None:
                return named, True
            keywords |= more
        settable.update(positional if call.star else positional[:call.nargs])
        for kw in keywords:
            if kw in named:
                settable.add(kw)
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


def _fields(cls: ast.ClassDef) -> list[str]:
    return [stmt.target.id for stmt in cls.body
            if isinstance(stmt, ast.AnnAssign)
            and isinstance(stmt.target, ast.Name)]


def find_test_only(src: Path, files: list[Path], exempt=EXEMPT,
                   hits: set[str] | None = None) -> list[str]:
    """Every name under *src* that no file in *files* uses, one a line.

    *files* is the product; the definitions checked are those under
    *src* (a package directory).  A finding whose key is in *exempt*
    is left out and its key added to *hits*.
    """
    product = product_uses(files)
    calls = product.calls
    findings: list[str] = []
    hits = set() if hits is None else hits

    def flag(where: str, key: str) -> None:
        if key in exempt:
            hits.add(key)
        else:
            findings.append(where)

    def check_params(where: str, fn, owner: str, callee: str,
                     skip: int) -> None:
        params = _keyword_params(fn)
        if not params and fn.args.kwarg is None:
            return
        settable, extra = _settable(fn, skip, calls.get(callee, []), calls)
        for param in params:
            if param not in settable:
                flag(f"{where}({param}=)", f"{owner}({param}=)")
        if fn.args.kwarg is not None and not extra:
            kwarg = fn.args.kwarg.arg
            flag(f"{where}(**{kwarg})", f"{owner}(**{kwarg})")

    for path in sorted(src.rglob("*.py")):
        module = path.relative_to(src.parent).with_suffix("")
        module = ".".join(module.parts)
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for stmt in tree.body:
            for group in _module_names(stmt):
                if not product.names.intersection(group):
                    for name in group:
                        if not name.startswith("__"):
                            flag(f"{module}.{name}", name)
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                check_params(f"{module}.{stmt.name}", stmt, stmt.name,
                             stmt.name, 0)
            if not isinstance(stmt, ast.ClassDef):
                continue
            if stmt.name == SPEC_CLASS:
                elsewhere = set().union(*(
                    sets for where, sets in product.settings.items()
                    if where != path.resolve()))
                for name in _fields(stmt):
                    if name not in elsewhere:
                        flag(f"{module}.{stmt.name}({name}=)",
                             f"{stmt.name}({name}=)")
            for fn in stmt.body:
                if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                where = f"{module}.{stmt.name}.{fn.name}"
                if not fn.name.startswith("_") and fn.name not in product.names \
                        and stmt.name not in product.owned.get(fn.name, ()):
                    flag(where, fn.name)
                decorators = _decorators(fn)
                if "property" in decorators or "setter" in decorators:
                    continue
                skip = 0 if "staticmethod" in decorators else 1
                if fn.name == "__init__":
                    check_params(where, fn, stmt.name, stmt.name, skip)
                elif not fn.name.startswith("__"):
                    check_params(where, fn, fn.name, fn.name, skip)
    return sorted(set(findings))


def test_no_name_in_src_is_reached_only_by_tests():
    found = find_test_only(ROOT / "src" / "repro", product_files(ROOT))
    assert found == [], (
        "only tests reach these; delete them, make a parameter a "
        "constant, or move an oracle to tests/:\n  " + "\n  ".join(found))


def test_every_exemption_is_still_needed():
    hits: set[str] = set()
    find_test_only(ROOT / "src" / "repro", product_files(ROOT), hits=hits)
    assert hits == set(EXEMPT)


# -- the check catches what it claims -----------------------------------

_FIXTURE = {
    "src/repro/__init__.py": '''
        """A package whose re-export is not a use."""
        from repro.mod import Reexported, Store, forward, open_store
        __all__ = ["Reexported", "Store", "forward", "open_store"]
    ''',
    "src/repro/mod.py": '''
        """Five kinds of finding beside the opaque cases."""

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

            def percentile(self, q):
                return q

        def open_store(size, only_tests=False):
            return Store(size)

        class Reached:
            def __init__(self, depth=3):
                self.depth = depth

        class Shaped:
            def __init__(self, rate, period=4.0):
                self.rate = rate

        REGISTRY = {"reached": Reached}
        SHAPES = {"shaped": Shaped}

        def build(name, **options):
            return REGISTRY[name](**options)

        def forward(kind, **options):
            return build(kind, **options)

        def make_shape(name, rate, options):
            if name not in SHAPES:
                raise KeyError(sorted(SHAPES))
            cls = SHAPES[name]
            return cls(rate, **options)

        class Disk:
            @property
            def blocks(self):
                return 8

            def size(self):
                return 1

            def label(self):
                return "disk"

        class Drive:
            def __init__(self, blocks):
                self.blocks = blocks

            def size(self):
                return self.blocks

            def label(self):
                return "drive"

        def describe(drive: Drive, thing):
            size = drive.size()
            return size, thing.label()
    ''',
    "src/repro/spec.py": '''
        """The spec; its own module does not set its fields."""
        from dataclasses import dataclass, replace

        @dataclass
        class ExperimentSpec:
            name: str = "run"
            seed: int = 0
            shape: str = "shaped"
            only_tests: int = 0

            def reseeded(self):
                return replace(self, only_tests=1)
    ''',
    "examples/app.py": '''
        """Product code outside the package."""
        import numpy as np

        from repro import Store, forward, open_store
        from repro.mod import Disk, Drive, describe, make_shape
        from repro.spec import ExperimentSpec

        Store(10, 5).used()
        describe(Drive(blocks=4), Disk())
        open_store(3)
        forward("reached", depth=2)
        AXES = {"seed": [1, 2]}
        MEDIAN = np.percentile([1.0, 2.0], 50)

        def run(options, **overrides):
            spec = ExperimentSpec(name="app", shape="shaped", **overrides)
            return make_shape(spec.shape, 1.0, options), spec.reseeded()
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
        from repro.mod import make_shape
        from repro.spec import ExperimentSpec

        def test_open_store():
            assert open_store(1, only_tests=True)
            assert Reexported()
            assert make_shape("shaped", 1.0, {"period": 2.0})
            assert ExperimentSpec(only_tests=3)
    ''',
}


def test_the_walker_flags_each_kind_and_no_opaque_case(tmp_path):
    for rel, text in _FIXTURE.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text), encoding="utf-8")
    assert find_test_only(tmp_path / "src" / "repro", product_files(tmp_path)) == [
        # namesakes: a typed receiver credits its own class only (and
        # a keyword no property), an untyped one every namesake
        # (``label``), and a function's own variable none (``size``)
        "repro.mod.Disk.blocks",
        "repro.mod.Disk.size",
        # module level, reached only through the package's re-export
        "repro.mod.Reexported",
        # a registry entry is built with what its dispatch passes: here
        # a positional rate and a ``**`` of a parameter, which passes
        # nothing; a forwarded ``**kwargs`` (Reached) carries its
        # callers' keywords
        "repro.mod.Shaped.__init__(period=)",
        # a dead default: no call at all passes it
        "repro.mod.Store.__init__(dead=)",
        # a method whose only namesake use is on a module outside repro
        # (``np.percentile``)
        "repro.mod.Store.percentile",
        # a public method only a test calls
        "repro.mod.Store.test_only",
        # a parameter only a test sets
        "repro.mod.open_store(only_tests=)",
        # a spec field set only by its own module, a test and a ``**``
        # pass-through; a keyword or a string key sets the others
        "repro.spec.ExperimentSpec(only_tests=)",
    ]
