"""Per-module summaries: the facts project-level analysis runs on.

One pass over a module's AST produces a :class:`ModuleSummary` — every
function with its resolved outgoing calls, *direct* effects, and
module-global mutations, plus the module's classes and its module-level
mutable bindings.  Summaries are plain data, and the cross-module layer
(:mod:`repro.lint.project`) is a pure function of them.

Direct effects tagged here (transitive closure is the fixpoint's job):

* :data:`WALL_CLOCK` — ``time.time`` / ``perf_counter`` / ``monotonic``
  (and ``_ns`` variants), argless ``datetime.now`` / ``today``;
* :data:`UNSEEDED_RNG` — legacy global-state ``np.random.*`` draws,
  argless ``default_rng()``, stdlib ``random.*`` module-level draws;
* :data:`MUTATES_B2SR` — ``setflags(write=True)`` or in-place writes
  through the frozen B2SR field names;
* :data:`CALLS_DISPATCH` — any call whose callee is named ``dispatch``
  (the EventLoop contract name, resolved or not);
* :data:`VERIFY_EXPLICIT` — any call carrying an explicit ``verify=``
  keyword (the serving flush/install contract: the caller decided,
  visibly, whether this answer is bitwise-checked).

Call resolution is deliberately the same altitude as
:class:`repro.lint.resolve.AliasResolver`: static spellings only —
imports (aliased or not), module-local ``def``/``class`` names,
``self.method()``, ``ClassName(...).method()``, locals assigned from a
known constructor, and ``self.attr.method()`` where ``self.attr`` was
assigned a known constructor in any method of the class.  Anything
dynamic resolves to nothing (no edge) rather than to a guess.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.lint.resolve import AliasResolver

# -- effect names ------------------------------------------------------
WALL_CLOCK = "reads-wall-clock"
UNSEEDED_RNG = "consumes-unseeded-rng"
MUTATES_B2SR = "mutates-frozen-b2sr"
CALLS_DISPATCH = "calls-dispatch"
VERIFY_EXPLICIT = "flushes-verify-explicit"

#: Every effect the fixpoint propagates, in reporting order.
ALL_EFFECTS = (
    WALL_CLOCK,
    UNSEEDED_RNG,
    MUTATES_B2SR,
    CALLS_DISPATCH,
    VERIFY_EXPLICIT,
)

_WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.process_time",
        "time.process_time_ns",
        "time.clock_gettime",
    }
)
#: Wall-clock reads only when called with no arguments (``now(tz)`` is
#: still wall clock, but the argless spelling is the one that appears in
#: real code; the canonical ``time.*`` list above needs no such guard).
_WALL_CLOCK_ARGLESS = frozenset(
    {
        "datetime.datetime.now",
        "datetime.datetime.today",
        "datetime.datetime.utcnow",
        "datetime.date.today",
    }
)

#: Seedable constructors — the sanctioned ways into numpy.random
#: (mirrors :data:`repro.lint.rules.rng.ALLOWED_RANDOM_ATTRS`).
_NP_RANDOM_ALLOWED = frozenset(
    {
        "default_rng",
        "Generator",
        "SeedSequence",
        "BitGenerator",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "MT19937",
        "SFC64",
    }
)
#: stdlib ``random`` module-level draws share one hidden global state.
_STDLIB_RANDOM_GLOBAL = frozenset(
    {
        "random",
        "randint",
        "randrange",
        "randbytes",
        "getrandbits",
        "choice",
        "choices",
        "sample",
        "shuffle",
        "uniform",
        "triangular",
        "betavariate",
        "expovariate",
        "gammavariate",
        "gauss",
        "normalvariate",
        "lognormvariate",
        "vonmisesvariate",
        "paretovariate",
        "weibullvariate",
        "seed",
    }
)

#: B2SR field names frozen at construction (mirrors
#: :data:`repro.lint.rules.immutability.GUARDED_ATTRS`).
_FROZEN_B2SR_ATTRS = frozenset(
    {"tiles", "indices", "indptr", "trows", "gather_index", "icol", "irow"}
)

#: Mutating container methods: calling one of these on a module-level
#: binding counts as mutating shared state.
MUTATING_METHODS = frozenset(
    {
        "append",
        "appendleft",
        "extend",
        "extendleft",
        "insert",
        "add",
        "update",
        "setdefault",
        "pop",
        "popitem",
        "popleft",
        "remove",
        "discard",
        "clear",
        "sort",
        "reverse",
    }
)

_MUTABLE_FACTORY_NAMES = frozenset(
    {"list", "dict", "set", "bytearray"}
)
_MUTABLE_FACTORY_DOTTED = frozenset(
    {
        "collections.defaultdict",
        "collections.deque",
        "collections.OrderedDict",
        "collections.Counter",
        "collections.ChainMap",
    }
)


# ----------------------------------------------------------------------
# Data model
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CallSite:
    """One outgoing call edge candidate, resolved at graph-build time.

    ``kind`` selects the resolution strategy:

    * ``"dot"`` — ``target`` is a canonical dotted path that may name a
      module-level function, a class (edge → its ``__init__``), or a
      ``Class.method`` spelled through the class;
    * ``"self"`` — ``target`` is a bare method name on the enclosing
      class (``self.m()`` / ``cls.m()``);
    * ``"onattr"`` — ``target`` is ``"<class dotted>::<method>"``: a
      method call on a value statically known to be an instance of that
      class.
    """

    kind: str
    target: str
    line: int


@dataclass(frozen=True)
class EffectSite:
    """First witness of a direct effect inside a function."""

    line: int
    detail: str


@dataclass(frozen=True)
class GlobalMutation:
    """An in-function mutation of a module-level binding.

    ``target`` is the canonical dotted name of the binding
    (``"repro.x.REGISTRY"``) so cross-module mutations through a
    ``from x import REGISTRY`` alias still resolve.
    """

    target: str
    line: int
    how: str


@dataclass
class FunctionSummary:
    """Everything the project layer knows about one function."""

    qualname: str
    name: str
    cls: str | None
    line: int
    end_line: int
    decorator_lines: tuple[int, ...]
    calls: tuple[CallSite, ...] = ()
    called_names: frozenset[str] = frozenset()
    direct_effects: dict[str, EffectSite] = field(default_factory=dict)
    global_mutations: tuple[GlobalMutation, ...] = ()


@dataclass
class ClassSummary:
    """One class: methods, static base candidates, inferred attr types."""

    name: str
    line: int
    methods: tuple[str, ...] = ()
    bases: tuple[str, ...] = ()  # canonical dotted candidates
    attr_types: dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class GlobalBinding:
    """A module-level binding of a mutable container."""

    name: str
    line: int
    kind: str  # "dict literal", "list()", ...


@dataclass
class ModuleSummary:
    """The complete per-module fact base for project analysis."""

    module: str
    path: str
    functions: dict[str, FunctionSummary] = field(default_factory=dict)
    classes: dict[str, ClassSummary] = field(default_factory=dict)
    mutable_globals: dict[str, GlobalBinding] = field(default_factory=dict)

# ----------------------------------------------------------------------
# Module naming
# ----------------------------------------------------------------------
def module_name(path: str) -> str:
    """Dotted module name a normalized repo path imports as.

    ``src/repro/serving/cluster.py`` → ``repro.serving.cluster`` (the
    segment after the *last* ``src``, so fixture trees under tmp dirs
    resolve identically); ``tests/test_x.py`` → ``tests.test_x``;
    anything unrecognized falls back to its stem.
    """
    parts = [p for p in path.split("/") if p]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    for root in ("src", "tests", "benchmarks"):
        if root in parts:
            idx = len(parts) - 1 - parts[::-1].index(root)
            tail = parts[idx + 1 :] if root == "src" else parts[idx:]
            if tail:
                parts = tail
                break
    else:
        parts = parts[-1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) if parts else path


# ----------------------------------------------------------------------
# Collector
# ----------------------------------------------------------------------
def _dotted_raw(node: ast.AST) -> str | None:
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def _callee_bare_name(func: ast.AST) -> str | None:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _mutable_value_kind(
    node: ast.AST, resolver: AliasResolver
) -> str | None:
    """``"dict literal"`` / ``"list()"`` / ... for mutable initializers."""
    if isinstance(node, ast.Dict | ast.DictComp):
        return "dict literal"
    if isinstance(node, ast.List | ast.ListComp):
        return "list literal"
    if isinstance(node, ast.Set | ast.SetComp):
        return "set literal"
    if isinstance(node, ast.Call):
        name = _callee_bare_name(node.func)
        if name in _MUTABLE_FACTORY_NAMES:
            return f"{name}()"
        dotted = resolver.dotted(node.func)
        if dotted in _MUTABLE_FACTORY_DOTTED:
            return f"{dotted.rsplit('.', 1)[-1]}()"
    return None


class _FunctionCollector(ast.NodeVisitor):
    """Walk one function body, recording calls / effects / mutations.

    Nested ``def``s get their own summaries plus an implicit edge from
    the parent (a nested function is almost always invoked on the same
    path that defines it); lambdas and comprehensions are folded into
    the enclosing function.
    """

    def __init__(
        self,
        collector: "_ModuleCollector",
        summary: FunctionSummary,
        cls: ClassSummary | None,
        params: set[str],
    ) -> None:
        self.c = collector
        self.s = summary
        self.cls = cls
        self.locals: set[str] = set(params)
        self.local_types: dict[str, str] = {}
        self.declared_globals: set[str] = set()
        self._calls: list[CallSite] = []
        self._called_names: set[str] = set()
        self._mutations: list[GlobalMutation] = []

    # -- helpers -------------------------------------------------------
    def _effect(self, name: str, node: ast.AST, detail: str) -> None:
        if name not in self.s.direct_effects:
            self.s.direct_effects[name] = EffectSite(
                line=getattr(node, "lineno", self.s.line), detail=detail
            )

    def _class_candidate(self, func: ast.AST) -> str | None:
        """Canonical dotted class a constructor call names, if any."""
        if isinstance(func, ast.Name) and func.id in self.c.local_classes:
            return f"{self.c.module}.{func.id}"
        dotted = self.c.resolver.dotted(func)
        if dotted is not None and dotted[:1].isalpha():
            # Heuristic: a dotted path whose last segment is Capitalized
            # is a class candidate; wrong guesses only produce an edge
            # that fails to resolve against the index (dropped), never a
            # false edge.
            last = dotted.rsplit(".", 1)[-1]
            if last[:1].isupper():
                return dotted
        return None

    def _resolve_global_target(self, name: str) -> str | None:
        """Canonical dotted target of a module-scope name, or ``None``
        when the name is function-local."""
        if name in self.locals and name not in self.declared_globals:
            return None
        if name in self.c.module_global_names or name in self.declared_globals:
            return f"{self.c.module}.{name}"
        dotted = self.c.resolver.dotted(ast.Name(id=name))
        return dotted

    def _record_mutation(self, name: str, node: ast.AST, how: str) -> None:
        target = self._resolve_global_target(name)
        if target is not None:
            self._mutations.append(
                GlobalMutation(
                    target=target,
                    line=getattr(node, "lineno", self.s.line),
                    how=how,
                )
            )

    # -- statements ----------------------------------------------------
    def visit_Global(self, node: ast.Global) -> None:
        self.declared_globals.update(node.names)

    def visit_Assign(self, node: ast.Assign) -> None:
        self.visit(node.value)
        for target in node.targets:
            self._assign_target(target, node)
            self.visit(target)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self.visit(node.value)
            self._assign_target(node.target, node)

    def _assign_target(self, target: ast.AST, node: ast.AST) -> None:
        value = getattr(node, "value", None)
        if isinstance(target, ast.Name):
            # Local type inference: v = ClassName(...)
            if isinstance(value, ast.Call):
                cand = self._class_candidate(value.func)
                if cand is not None:
                    self.local_types[target.id] = cand
            if target.id in self.declared_globals:
                self._record_mutation(target.id, node, "assignment")
            else:
                self.locals.add(target.id)
        elif isinstance(target, ast.Subscript):
            base = target.value
            while isinstance(base, ast.Subscript):
                base = base.value
            if isinstance(base, ast.Name):
                self._record_mutation(base.id, node, "item assignment")
            self._check_b2sr_write(target, node)
        elif isinstance(target, ast.Tuple | ast.List):
            for elt in target.elts:
                self._assign_target(elt, node)
        elif isinstance(target, ast.Attribute):
            # self.X = ClassName(...) → instance attribute type.
            if (
                self.cls is not None
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
                and isinstance(value, ast.Call)
            ):
                cand = self._class_candidate(value.func)
                if cand is not None:
                    self.cls.attr_types.setdefault(target.attr, cand)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self.visit(node.value)
        target = node.target
        if isinstance(target, ast.Name):
            if (
                target.id in self.declared_globals
                or target.id not in self.locals
            ):
                self._record_mutation(
                    target.id, node, "augmented assignment"
                )
            self.locals.add(target.id)
        elif isinstance(target, ast.Subscript):
            base = target.value
            while isinstance(base, ast.Subscript):
                base = base.value
            if isinstance(base, ast.Name):
                self._record_mutation(base.id, node, "item assignment")
            self._check_b2sr_write(target, node)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            if isinstance(target, ast.Subscript) and isinstance(
                target.value, ast.Name
            ):
                self._record_mutation(
                    target.value.id, node, "item deletion"
                )
        self.generic_visit(node)

    def _check_b2sr_write(self, target: ast.Subscript, node: ast.AST) -> None:
        base: ast.AST = target
        while isinstance(base, ast.Subscript):
            base = base.value
        if (
            isinstance(base, ast.Attribute)
            and base.attr in _FROZEN_B2SR_ATTRS
        ):
            self._effect(
                MUTATES_B2SR, node, f"writes through .{base.attr}"
            )

    # -- calls ---------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        self._collect_call(node)
        self.generic_visit(node)

    def _collect_call(self, node: ast.Call) -> None:
        func = node.func
        bare = _callee_bare_name(func)
        if bare is not None:
            self._called_names.add(bare)
            if bare == "dispatch":
                self._effect(
                    CALLS_DISPATCH, node, f"{ast.unparse(func)}(...)"
                )
        dotted = self.c.resolver.dotted(func)
        self._collect_effects(node, dotted)

        line = node.lineno
        if isinstance(func, ast.Name):
            name = func.id
            if name in self.c.local_functions:
                self._calls.append(
                    CallSite("dot", f"{self.c.module}.{name}", line)
                )
            elif name in self.c.local_classes:
                self._calls.append(
                    CallSite("dot", f"{self.c.module}.{name}", line)
                )
            elif dotted is not None:
                self._calls.append(CallSite("dot", dotted, line))
            return
        if not isinstance(func, ast.Attribute):
            return
        recv = func.value
        method = func.attr
        # self.m() / cls.m()
        if (
            isinstance(recv, ast.Name)
            and recv.id in ("self", "cls")
            and self.cls is not None
        ):
            self._calls.append(CallSite("self", method, line))
            return
        # v.m() where v was assigned a known constructor
        if isinstance(recv, ast.Name) and recv.id in self.local_types:
            self._calls.append(
                CallSite(
                    "onattr", f"{self.local_types[recv.id]}::{method}", line
                )
            )
            return
        # ClassName(...).m() — constructor call receiver
        if isinstance(recv, ast.Call):
            cand = self._class_candidate(recv.func)
            if cand is not None:
                self._calls.append(
                    CallSite("onattr", f"{cand}::{method}", line)
                )
            return
        # self.attr.m() with an inferred instance-attribute type
        if (
            isinstance(recv, ast.Attribute)
            and isinstance(recv.value, ast.Name)
            and recv.value.id == "self"
            and self.cls is not None
        ):
            cand = self.cls.attr_types.get(recv.attr)
            if cand is not None:
                self._calls.append(
                    CallSite("onattr", f"{cand}::{method}", line)
                )
            return
        # module.func(...) / module.Class.method(...) spelled dotted
        if dotted is not None:
            self._calls.append(CallSite("dot", dotted, line))

    def _collect_effects(self, node: ast.Call, dotted: str | None) -> None:
        func = node.func
        # Mutating method on a module-level container.
        if (
            isinstance(func, ast.Attribute)
            and func.attr in MUTATING_METHODS
            and isinstance(func.value, ast.Name)
        ):
            self._record_mutation(
                func.value.id, node, f".{func.attr}(...)"
            )
        # Explicit verify= keyword — the flush/install contract spelling.
        for kw in node.keywords:
            if kw.arg == "verify":
                callee = _callee_bare_name(func) or "<call>"
                self._effect(
                    VERIFY_EXPLICIT, node, f"{callee}(..., verify=...)"
                )
                break
        # setflags(write=True) — frozen-array re-enable.
        if isinstance(func, ast.Attribute) and func.attr == "setflags":
            for kw in node.keywords:
                if (
                    kw.arg == "write"
                    and isinstance(kw.value, ast.Constant)
                    and kw.value.value
                ):
                    self._effect(
                        MUTATES_B2SR, node, "setflags(write=True)"
                    )
        if dotted is None:
            return
        if dotted in _WALL_CLOCK_CALLS:
            self._effect(WALL_CLOCK, node, f"{dotted}()")
        elif (
            dotted in _WALL_CLOCK_ARGLESS
            and not node.args
            and not node.keywords
        ):
            self._effect(WALL_CLOCK, node, f"{dotted}()")
        if dotted.startswith("numpy.random."):
            attr = dotted[len("numpy.random.") :]
            if "." not in attr and attr not in _NP_RANDOM_ALLOWED:
                self._effect(UNSEEDED_RNG, node, f"np.random.{attr}()")
            elif (
                attr == "default_rng"
                and not node.args
                and not node.keywords
            ):
                self._effect(UNSEEDED_RNG, node, "default_rng()")
        elif dotted.startswith("random."):
            attr = dotted[len("random.") :]
            if attr in _STDLIB_RANDOM_GLOBAL:
                self._effect(UNSEEDED_RNG, node, f"random.{attr}()")

    # -- nested scopes -------------------------------------------------
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._nested(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._nested(node)

    def _nested(self, node: ast.AST) -> None:
        nested = self.c.collect_function(
            node, self.cls, parent_qual=self.s.qualname
        )
        self._calls.append(
            CallSite("dot", nested.qualname, getattr(node, "lineno", 1))
        )
        self.locals.add(getattr(node, "name", "<lambda>"))

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.locals.add(node.name)  # nested classes: opaque

    def visit_Lambda(self, node: ast.Lambda) -> None:
        # Folded into the enclosing function, but the params (every
        # kind: positional-only, keyword-only, *args/**kwargs) are a
        # private scope — visible only while walking the body, then
        # restored so a param shadowing a module global cannot suppress
        # mutation/effect detection for the rest of the function.
        a = node.args
        for default in (*a.defaults, *a.kw_defaults):
            if default is not None:  # defaults evaluate in outer scope
                self.visit(default)
        params = {p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs)}
        for star in (a.vararg, a.kwarg):
            if star is not None:
                params.add(star.arg)
        saved = set(self.locals)
        self.locals |= params
        self.visit(node.body)
        self.locals = saved

    def finish(self) -> None:
        self.s.calls = tuple(self._calls)
        self.s.called_names = frozenset(self._called_names)
        self.s.global_mutations = tuple(self._mutations)


class _ModuleCollector:
    def __init__(self, module: str, path: str, tree: ast.Module) -> None:
        self.module = module
        self.path = path
        self.tree = tree
        self.resolver = AliasResolver.from_tree(tree)
        self.summary = ModuleSummary(module=module, path=path)
        self.local_functions: set[str] = set()
        self.local_classes: set[str] = set()
        self.module_global_names: set[str] = set()

    def collect(self) -> ModuleSummary:
        # Pre-pass: module-level names, so forward references resolve.
        for node in self.tree.body:
            if isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef):
                self.local_functions.add(node.name)
            elif isinstance(node, ast.ClassDef):
                self.local_classes.add(node.name)
            elif isinstance(node, ast.Assign):
                for t in node.targets:
                    if isinstance(t, ast.Name):
                        self.module_global_names.add(t.id)
            elif isinstance(node, ast.AnnAssign) and isinstance(
                node.target, ast.Name
            ):
                self.module_global_names.add(node.target.id)
        # Mutable module-level bindings.
        for node in self.tree.body:
            value = None
            name = None
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                if isinstance(node.targets[0], ast.Name):
                    name = node.targets[0].id
                    value = node.value
            elif isinstance(node, ast.AnnAssign) and isinstance(
                node.target, ast.Name
            ):
                name = node.target.id
                value = node.value
            if name is None or value is None:
                continue
            kind = _mutable_value_kind(value, self.resolver)
            if kind is not None:
                self.summary.mutable_globals[name] = GlobalBinding(
                    name=name, line=node.lineno, kind=kind
                )
        # Classes first (methods register on the class), then functions.
        for node in self.tree.body:
            if isinstance(node, ast.ClassDef):
                self._collect_class(node)
        for node in self.tree.body:
            if isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef):
                self.collect_function(node, None)
        return self.summary

    def _collect_class(self, node: ast.ClassDef) -> None:
        bases = []
        for b in node.bases:
            dotted = self.resolver.dotted(b)
            if dotted is not None:
                bases.append(dotted)
            elif isinstance(b, ast.Name) and b.id in self.local_classes:
                bases.append(f"{self.module}.{b.id}")
        cls = ClassSummary(
            name=node.name,
            line=node.lineno,
            bases=tuple(bases),
        )
        self.summary.classes[node.name] = cls
        methods = []
        for item in node.body:
            if isinstance(item, ast.FunctionDef | ast.AsyncFunctionDef):
                methods.append(item.name)
        cls.methods = tuple(methods)
        for item in node.body:
            if isinstance(item, ast.FunctionDef | ast.AsyncFunctionDef):
                self.collect_function(item, cls)

    def collect_function(
        self,
        node: ast.AST,
        cls: ClassSummary | None,
        parent_qual: str | None = None,
    ) -> FunctionSummary:
        name = getattr(node, "name", "<lambda>")
        if parent_qual is not None:
            qualname = f"{parent_qual}.{name}"
        elif cls is not None:
            qualname = f"{self.module}.{cls.name}.{name}"
        else:
            qualname = f"{self.module}.{name}"
        decorators: list[int] = []
        for dec in getattr(node, "decorator_list", []):
            end = getattr(dec, "end_lineno", dec.lineno)
            decorators.extend(range(dec.lineno, end + 1))
        summary = FunctionSummary(
            qualname=qualname,
            name=name,
            cls=cls.name if cls is not None and parent_qual is None else None,
            line=getattr(node, "lineno", 1),
            end_line=getattr(node, "end_lineno", getattr(node, "lineno", 1)),
            decorator_lines=tuple(decorators),
        )
        # Last definition wins on duplicate names, matching runtime.
        self.summary.functions[qualname] = summary
        args = getattr(node, "args", None)
        params: set[str] = set()
        if args is not None:
            for a in (
                list(args.posonlyargs)
                + list(args.args)
                + list(args.kwonlyargs)
            ):
                params.add(a.arg)
            if args.vararg:
                params.add(args.vararg.arg)
            if args.kwarg:
                params.add(args.kwarg.arg)
        walker = _FunctionCollector(self, summary, cls, params)
        for stmt in getattr(node, "body", []):
            walker.visit(stmt)
        walker.finish()
        return summary


def summarize_module(
    path: str, tree: ast.Module
) -> ModuleSummary:
    """Build the :class:`ModuleSummary` for one parsed module."""
    return _ModuleCollector(module_name(path), path, tree).collect()


__all__ = [
    "ALL_EFFECTS",
    "CALLS_DISPATCH",
    "CallSite",
    "ClassSummary",
    "EffectSite",
    "FunctionSummary",
    "GlobalBinding",
    "GlobalMutation",
    "MUTATES_B2SR",
    "MUTATING_METHODS",
    "ModuleSummary",
    "UNSEEDED_RNG",
    "VERIFY_EXPLICIT",
    "WALL_CLOCK",
    "module_name",
    "summarize_module",
]
