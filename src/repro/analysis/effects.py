"""Effect matchers, call graph, and interprocedural effect analysis.

The sanitizer's semantic core.  Determinism hazards are modelled as a
small powerset lattice of *effects*:

========  ==========================================================
effect    introduced by
========  ==========================================================
clock     wall-clock reads (``time.time``, ``datetime.now``, ...)
rng       process-global randomness (module-level ``random`` /
          ``numpy.random`` functions, ``os.urandom``, unseeded
          ``random.Random()``)
io        filesystem reads (``open``, ``Path.read_text``,
          ``os.listdir``, ...)
env       ambient environment (``os.environ``, ``os.getenv``)
uiter     iteration over an unordered container in an
          order-sensitive position
========  ==========================================================

:class:`EffectAnalysis` builds a call graph across every analysed
module, seeds each function with the effects its own body introduces
(:class:`EffectScanner`), and joins effect sets over call edges to a
fixed point — so a ``time.time()`` buried four calls deep still shows
up in the effect set of the entry point above it.  :meth:`certify`
turns that into a :class:`PurityCertificate` for the ``run()`` entry
points the parallel executor and the result cache trust (see
``docs/determinism.md``).

Call-edge resolution is deliberately pragmatic (this is a sanitizer,
not a verifier): constructor-typed locals and ``self.attr`` receivers
resolve precisely; untyped attribute calls fall back to matching every
known method of that name *unless* the name collides with a builtin
container method; calls that resolve to nothing in the analysed tree
are recorded as assumed-pure externals on the certificate.
"""

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

__all__ = [
    "CLOCK",
    "GLOBAL_RNG",
    "IO",
    "ENV",
    "UNORDERED_ITER",
    "ALL_EFFECTS",
    "FORBIDDEN_EFFECTS",
    "DEFAULT_ENTRY_POINTS",
    "EffectSource",
    "EffectScanner",
    "ModuleContext",
    "EffectAnalysis",
    "EntryReport",
    "PurityCertificate",
]

CLOCK = "clock"
GLOBAL_RNG = "global-rng"
IO = "io"
ENV = "env"
UNORDERED_ITER = "unordered-iter"

ALL_EFFECTS = (CLOCK, GLOBAL_RNG, IO, ENV, UNORDERED_ITER)

#: A *sim-pure* function may exhibit none of these.
FORBIDDEN_EFFECTS = frozenset(ALL_EFFECTS)

#: The entry points the parallel runner and ResultCache assume pure.
DEFAULT_ENTRY_POINTS = (
    "repro.parallel.jobs:SimJob.run",
    "repro.parallel.jobs:ServerJob.run",
    "repro.parallel.jobs:RackJob.run",
    "repro.parallel.jobs:FaultJob.run",
)

MODULE_BODY = "<module>"

# -- what introduces each effect --------------------------------------------

_CLOCK_CALLS = frozenset({
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "time.process_time",
    "time.process_time_ns", "time.clock_gettime", "time.clock_gettime_ns",
    "time.localtime", "time.gmtime", "time.asctime", "time.ctime",
    "time.strftime", "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})

#: Module-level functions of :mod:`random` that draw from the process
#: global RNG (``random.Random(seed)`` instances are the sanctioned way).
_RANDOM_MODULE_FUNCS = frozenset({
    "random", "randint", "randrange", "choice", "choices", "shuffle",
    "sample", "uniform", "triangular", "betavariate", "expovariate",
    "gammavariate", "gauss", "lognormvariate", "normalvariate",
    "vonmisesvariate", "paretovariate", "weibullvariate", "getrandbits",
    "randbytes", "seed", "setstate", "binomialvariate",
})

_RNG_EXACT = frozenset({"os.urandom", "uuid.uuid1", "uuid.uuid4"})

#: numpy.random names that are fine *when seeded* (flagged only when
#: called with no arguments).
_SEEDABLE_CTORS = frozenset({
    "random.Random", "numpy.random.RandomState", "numpy.random.default_rng",
})

_NUMPY_SAFE = frozenset({"SeedSequence", "Generator", "BitGenerator",
                         "PCG64", "Philox", "MT19937", "SFC64"})

_IO_CALLS = frozenset({
    "open", "io.open", "input", "os.listdir", "os.scandir", "os.walk",
    "os.stat", "os.lstat", "os.read", "os.path.exists", "os.path.isfile",
    "os.path.isdir", "os.path.getsize", "os.path.getmtime", "glob.glob",
    "glob.iglob",
})

#: Distinctively pathlib read methods — flagged on any receiver.
_IO_METHOD_NAMES = frozenset({"read_text", "read_bytes", "iterdir", "rglob"})

_ENV_ATTRS = frozenset({"os.environ", "os.environb"})
_ENV_CALLS = frozenset({"os.getenv"})

#: Builtins that consume an iterable without depending on its order.
_ORDER_NEUTRAL_CONSUMERS = frozenset({
    "sorted", "len", "min", "max", "any", "all", "set", "frozenset",
})

#: Builtins whose result depends on iteration order.
_ORDER_SENSITIVE_CONSUMERS = frozenset({
    "list", "tuple", "enumerate", "iter", "next", "sum",
})

#: Attribute-call names that (on an unknown receiver) are assumed to hit a
#: builtin container, never a repro method — precise resolution through a
#: typed receiver is required to create a call edge for these.
_CONTAINER_METHODS = frozenset({
    "get", "put", "pop", "popitem", "popleft", "push", "append",
    "appendleft", "add", "remove", "discard", "clear", "copy", "update",
    "extend", "insert", "sort", "reverse", "keys", "values", "items",
    "setdefault", "count", "index", "join", "split", "rsplit", "strip",
    "lstrip", "rstrip", "format", "startswith", "endswith", "replace",
    "encode", "decode", "lower", "upper", "title", "ljust", "rjust",
    "zfill", "union", "intersection", "difference", "issubset",
    "issuperset",
})

#: Stdlib modules whose functions are value-pure for our purposes (writes
#: to the terminal/log do not change simulation results).
_ASSUMED_PURE_MODULES = frozenset({
    "math", "cmath", "heapq", "bisect", "itertools", "functools",
    "collections", "operator", "statistics", "json", "re", "abc",
    "dataclasses", "typing", "enum", "copy", "numbers", "fractions",
    "decimal", "array", "struct", "hashlib", "binascii", "string",
    "warnings", "logging", "textwrap", "pprint", "reprlib", "weakref",
    "contextlib", "types", "keyword", "unicodedata",
})

_SAFE_BUILTINS = frozenset({
    "len", "range", "int", "float", "str", "bool", "bytes", "bytearray",
    "isinstance", "issubclass", "max", "min", "sum", "sorted", "reversed",
    "abs", "round", "enumerate", "zip", "map", "filter", "list", "dict",
    "set", "frozenset", "tuple", "getattr", "setattr", "hasattr",
    "delattr", "repr", "format", "print", "iter", "next", "callable",
    "divmod", "pow", "ord", "chr", "hex", "oct", "bin", "id", "hash",
    "type", "super", "vars", "object", "slice", "staticmethod",
    "classmethod", "property", "complex", "memoryview", "all", "any",
    "exec", "eval", "globals", "locals", "compile", "__import__",
})


@dataclass(frozen=True)
class EffectSource:
    """One concrete effect-introducing expression."""

    effect: str
    module: str
    line: int
    col: int
    detail: str

    # Alias so an EffectSource can anchor a Finding like an AST node.
    @property
    def lineno(self):
        return self.line

    @property
    def col_offset(self):
        return self.col

    def __str__(self):
        return "{} ({} at {}:{})".format(
            self.detail, self.effect, self.module, self.line
        )


# -- dotted-name resolution --------------------------------------------------


class ImportMap:
    """name -> dotted-path bindings from every import in a module.

    Function-level imports are merged in (a name bound anywhere in the
    file resolves file-wide); that over-approximates visibility, which is
    the conservative direction for effect attribution.
    """

    def __init__(self, tree):
        self.bindings = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else name
                    self.bindings[name] = target
            elif isinstance(node, ast.ImportFrom):
                if node.level:  # relative import: not resolvable here
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    name = alias.asname or alias.name
                    self.bindings[name] = "{}.{}".format(
                        node.module, alias.name
                    )

    def resolve_name(self, name):
        return self.bindings.get(name, name)


def dotted_name(node, imports):
    """The dotted path of a Name/Attribute chain with its base resolved
    through ``imports`` — ``np.random.normal`` -> ``numpy.random.normal``.
    Returns None for anything that is not a plain chain."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(imports.resolve_name(node.id))
    return ".".join(reversed(parts))


# -- per-module context ------------------------------------------------------


@dataclass
class ClassScan:
    """Shallow per-class facts the resolver and the rules share."""

    name: str
    node: ast.ClassDef
    bases: List[str] = field(default_factory=list)
    methods: Dict[str, ast.FunctionDef] = field(default_factory=dict)
    #: attribute name -> dotted type ("builtins.set" or a class path)
    attr_types: Dict[str, str] = field(default_factory=dict)
    frozen_dataclass: bool = False


class ModuleContext:
    """Imports, classes, and cheap type facts for one source file."""

    def __init__(self, src):
        self.src = src
        self.imports = ImportMap(src.tree)
        self.classes = {}
        for node in src.tree.body:
            if isinstance(node, ast.ClassDef):
                self.classes[node.name] = self._scan_class(node)

    def _scan_class(self, node):
        scan = ClassScan(name=node.name, node=node)
        scan.bases = [
            dotted for dotted in
            (dotted_name(base, self.imports) for base in node.bases)
            if dotted
        ]
        scan.frozen_dataclass = _is_frozen_dataclass(node, self.imports)
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scan.methods[stmt.name] = stmt
        for method in scan.methods.values():
            for sub in ast.walk(method):
                if not isinstance(sub, ast.Assign):
                    continue
                for target in sub.targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        inferred = self._infer_type(sub.value)
                        if inferred:
                            scan.attr_types.setdefault(
                                target.attr, inferred
                            )
        return scan

    def _infer_type(self, value):
        """A dotted type for simple constructor-shaped expressions.

        Looks through ``x or Default()`` / ``x if c else Default()``
        shapes: when one branch is a constructor call, the constructor
        names the type (the other branch is a caller-supplied instance
        of, at worst, a compatible duck type).
        """
        if isinstance(value, (ast.Set, ast.SetComp)):
            return "builtins.set"
        if isinstance(value, ast.Call):
            dotted = dotted_name(value.func, self.imports)
            if dotted in ("set", "frozenset"):
                return "builtins.set"
            if dotted and _looks_like_class(dotted):
                return dotted
            return None
        if isinstance(value, ast.IfExp):
            return self._infer_type(value.body) or self._infer_type(
                value.orelse
            )
        if isinstance(value, ast.BoolOp):
            for operand in value.values:
                inferred = self._infer_type(operand)
                if inferred:
                    return inferred
        return None


def _looks_like_class(dotted):
    last = dotted.rsplit(".", 1)[-1]
    return last[:1].isupper()


def _is_frozen_dataclass(node, imports):
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        dotted = dotted_name(target, imports)
        if dotted not in ("dataclass", "dataclasses.dataclass"):
            continue
        if not isinstance(deco, ast.Call):
            return False
        for kw in deco.keywords:
            if kw.arg == "frozen" and isinstance(kw.value, ast.Constant):
                return bool(kw.value.value)
    return False


def local_set_names(func_node, ctx):
    """Names assigned a set-typed value anywhere in ``func_node``."""
    names = set()
    for node in ast.walk(func_node):
        if isinstance(node, ast.Assign):
            inferred = ctx._infer_type(node.value)
            if inferred == "builtins.set":
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
    return names


# -- the direct-effect scanner -----------------------------------------------


class EffectScanner(ast.NodeVisitor):
    """Collects every effect-introducing expression in a subtree.

    Used both by the lint rules (module-at-a-time) and by the
    interprocedural analysis (function-at-a-time).  Nested function and
    lambda bodies are attributed to the enclosing scope: a closure that
    reads the clock makes its definer clock-dependent, which is the
    conservative call the certificate needs.
    """

    def __init__(self, ctx, class_name=None, skip_nested_defs=False):
        self.ctx = ctx
        self.class_name = class_name
        self.skip_nested_defs = skip_nested_defs
        self.sources = []
        self._set_locals = set()

    # -- entry points --------------------------------------------------------

    def scan_function(self, node):
        """Effects of one function body (descending into nested defs)."""
        self._set_locals = local_set_names(node, self.ctx)
        for stmt in node.body:
            self.visit(stmt)
        return self.sources

    def scan_module_body(self, tree):
        """Effects of import-time module-level code: everything except the
        bodies of function definitions (those run only when called)."""
        self.skip_nested_defs = True
        self._set_locals = local_set_names(tree, self.ctx)
        for stmt in tree.body:
            self.visit(stmt)
        return self.sources

    # -- helpers -------------------------------------------------------------

    def _emit(self, effect, node, detail):
        self.sources.append(EffectSource(
            effect=effect,
            module=self.ctx.src.module,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            detail=detail,
        ))

    def _dotted(self, node):
        return dotted_name(node, self.ctx.imports)

    def is_set_expr(self, node):
        """Is ``node`` statically recognisable as a set/frozenset?"""
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            return self._dotted(node.func) in ("set", "frozenset")
        if isinstance(node, ast.Name):
            return node.id in self._set_locals
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
            and self.class_name in self.ctx.classes
        ):
            scan = self.ctx.classes[self.class_name]
            return scan.attr_types.get(node.attr) == "builtins.set"
        return False

    def _is_unordered_mapping(self, node):
        """globals()/locals()/vars(x) — and their .keys/.values/.items."""
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in (
                "globals", "locals", "vars"
            ):
                return True
            if (
                isinstance(func, ast.Attribute)
                and func.attr in ("keys", "values", "items")
            ):
                return self._is_unordered_mapping(func.value)
        return False

    def _check_iterand(self, node, where):
        if self.is_set_expr(node):
            self._emit(
                UNORDERED_ITER, node,
                "iteration over a set in {} (wrap in sorted())".format(
                    where
                ),
            )
        elif self._is_unordered_mapping(node):
            self._emit(
                UNORDERED_ITER, node,
                "iteration over {} in {} (interpreter-dependent "
                "order)".format(ast.unparse(node), where),
            )

    # -- visitors ------------------------------------------------------------

    def visit_FunctionDef(self, node):
        if not self.skip_nested_defs:
            outer = self._set_locals
            self._set_locals = outer | local_set_names(node, self.ctx)
            for stmt in node.body:
                self.visit(stmt)
            self._set_locals = outer

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_ClassDef(self, node):
        # Class bodies execute at definition time; method bodies do not.
        outer_class = self.class_name
        self.class_name = node.name
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not self.skip_nested_defs:
                    self.visit(stmt)
            else:
                self.visit(stmt)
        self.class_name = outer_class

    def visit_Lambda(self, node):
        self.visit(node.body)

    def visit_For(self, node):
        self._check_iterand(node.iter, "a for loop")
        self.generic_visit(node)

    visit_AsyncFor = visit_For

    def visit_comprehension_generators(self, node):
        for gen in node.generators:
            self._check_iterand(gen.iter, "a comprehension")
        self.generic_visit(node)

    visit_ListComp = visit_comprehension_generators
    visit_DictComp = visit_comprehension_generators
    visit_GeneratorExp = visit_comprehension_generators

    def visit_SetComp(self, node):
        # Building a set from a set stays unordered — no order imposed.
        self.generic_visit(node)

    def visit_Starred(self, node):
        if self.is_set_expr(node.value):
            self._emit(
                UNORDERED_ITER, node,
                "unpacking a set preserves arbitrary order "
                "(wrap in sorted())",
            )
        self.generic_visit(node)

    def visit_Attribute(self, node):
        dotted = self._dotted(node)
        if dotted in _ENV_ATTRS:
            self._emit(ENV, node, "{} read".format(dotted))
        self.generic_visit(node)

    def visit_Call(self, node):
        dotted = dotted_name(node.func, self.ctx.imports)
        if dotted:
            self._match_call(node, dotted)
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _IO_METHOD_NAMES
        ):
            self._emit(
                IO, node, ".{}() filesystem read".format(node.func.attr)
            )
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "join"
            and node.args
            and self.is_set_expr(node.args[0])
        ):
            self._emit(
                UNORDERED_ITER, node,
                "str.join over a set (wrap in sorted())",
            )
        self.generic_visit(node)

    def _match_call(self, node, dotted):
        if dotted in _CLOCK_CALLS:
            self._emit(CLOCK, node, "{}() wall-clock read".format(dotted))
            return
        if self._is_global_rng(node, dotted):
            return
        if dotted in _IO_CALLS:
            self._emit(IO, node, "{}() filesystem read".format(dotted))
            return
        if dotted in _ENV_CALLS:
            self._emit(ENV, node, "{}() environment read".format(dotted))
            return
        head = dotted.split(".", 1)[0]
        if (
            head in _ORDER_SENSITIVE_CONSUMERS
            and dotted == head
            and node.args
            and self.is_set_expr(node.args[0])
        ):
            self._emit(
                UNORDERED_ITER, node,
                "{}() over a set imposes arbitrary order "
                "(wrap in sorted())".format(dotted),
            )

    def _is_global_rng(self, node, dotted):
        parts = dotted.split(".")
        if dotted.startswith("random.") and parts[-1] in (
            _RANDOM_MODULE_FUNCS
        ) and len(parts) == 2:
            self._emit(
                GLOBAL_RNG, node,
                "{}() draws from the process-global RNG".format(dotted),
            )
            return True
        if dotted.startswith("numpy.random."):
            tail = parts[-1]
            if dotted in _SEEDABLE_CTORS:
                if not node.args:
                    self._emit(
                        GLOBAL_RNG, node,
                        "{}() without a seed is "
                        "entropy-seeded".format(dotted),
                    )
                    return True
                return False
            if tail not in _NUMPY_SAFE and tail[:1].islower():
                self._emit(
                    GLOBAL_RNG, node,
                    "{}() draws from numpy's global RNG".format(dotted),
                )
                return True
            return False
        if dotted in _SEEDABLE_CTORS and not node.args:
            self._emit(
                GLOBAL_RNG, node,
                "{}() without a seed is entropy-seeded".format(dotted),
            )
            return True
        if dotted in _RNG_EXACT or dotted.startswith("secrets."):
            self._emit(
                GLOBAL_RNG, node,
                "{}() is entropy-backed".format(dotted),
            )
            return True
        return False


# -- function index and call graph -------------------------------------------


@dataclass
class FunctionInfo:
    fid: str
    module: str
    qualname: str
    node: object
    class_name: Optional[str] = None
    direct: List[EffectSource] = field(default_factory=list)
    callees: Set[str] = field(default_factory=set)
    externals: Set[str] = field(default_factory=set)


def make_fid(module, qualname):
    return "{}:{}".format(module, qualname)


class _CallCollector(ast.NodeVisitor):
    """Collects call references from one function body (descending into
    nested defs/lambdas, mirroring :class:`EffectScanner`)."""

    def __init__(self, ctx, class_name=None, skip_nested_defs=False):
        self.ctx = ctx
        self.class_name = class_name
        self.skip_nested_defs = skip_nested_defs
        #: (kind, payload) — kind in {dotted, method, name-ref}
        self.refs = []
        self.local_types = {}

    def collect_function(self, node):
        self._infer_locals(node)
        for stmt in node.body:
            self.visit(stmt)
        return self.refs

    def collect_module_body(self, tree):
        self.skip_nested_defs = True
        self._infer_locals(tree)
        for stmt in tree.body:
            self.visit(stmt)
        return self.refs

    def _infer_locals(self, node):
        for sub in ast.walk(node):
            if isinstance(sub, ast.Assign) and isinstance(
                sub.value, ast.Call
            ):
                dotted = dotted_name(sub.value.func, self.ctx.imports)
                if dotted and _looks_like_class(dotted):
                    for target in sub.targets:
                        if isinstance(target, ast.Name):
                            self.local_types.setdefault(target.id, dotted)

    def visit_FunctionDef(self, node):
        if not self.skip_nested_defs:
            for stmt in node.body:
                self.visit(stmt)

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_ClassDef(self, node):
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not self.skip_nested_defs:
                    self.visit(stmt)
            else:
                self.visit(stmt)

    def visit_Lambda(self, node):
        self.visit(node.body)

    def visit_Call(self, node):
        self._record(node)
        if (
            node.args
            and dotted_name(node.func, self.ctx.imports) == "functools.partial"
        ):
            # ``partial(f, ...)`` is a deferred call of ``f`` (event-loop
            # callbacks): keep the edge exactly as ``lambda: f(...)`` would.
            self._record(ast.Call(func=node.args[0], args=[], keywords=[]))
        self.generic_visit(node)

    def visit_Name(self, node):
        # A bare reference to a known callable (e.g. a class passed as a
        # factory) may be invoked later by the callee: keep the edge.
        if isinstance(node.ctx, ast.Load):
            dotted = self.ctx.imports.resolve_name(node.id)
            if dotted != node.id or node.id in self.ctx.classes:
                self.refs.append(("name-ref", dotted, node))

    def visit_Attribute(self, node):
        # ``self.handler`` passed as a value (event-loop callback
        # registration): the method runs later, so keep the edge.
        if (
            isinstance(node.ctx, ast.Load)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            self.refs.append(("self-ref", node.attr, node))
        self.generic_visit(node)

    def _record(self, node):
        func = node.func
        if isinstance(func, ast.Name):
            self.refs.append(
                ("dotted", self.ctx.imports.resolve_name(func.id), node)
            )
            return
        if not isinstance(func, ast.Attribute):
            return  # call on a call result etc.; nothing to resolve
        # super().method(): dispatches into the base classes.
        if (
            isinstance(func.value, ast.Call)
            and isinstance(func.value.func, ast.Name)
            and func.value.func.id == "super"
        ):
            self.refs.append(("method", ("super", None, func.attr), node))
            return
        # self.method() / self.attr.method()
        if isinstance(func.value, ast.Name) and func.value.id == "self":
            self.refs.append(("method", ("self", None, func.attr), node))
            return
        if (
            isinstance(func.value, ast.Attribute)
            and isinstance(func.value.value, ast.Name)
            and func.value.value.id == "self"
        ):
            self.refs.append(
                ("method", ("self-attr", func.value.attr, func.attr), node)
            )
            return
        if isinstance(func.value, ast.Name):
            receiver = func.value.id
            if receiver in self.local_types:
                self.refs.append((
                    "method",
                    ("typed", self.local_types[receiver], func.attr),
                    node,
                ))
                return
            if receiver in self.ctx.classes:
                # ClassName.method(instance, ...) static-style call.
                self.refs.append(
                    ("method", ("typed", receiver, func.attr), node)
                )
                return
            if receiver in self.ctx.imports.bindings:
                # Module alias (or re-exported name): a real dotted path.
                self.refs.append(
                    ("dotted", dotted_name(func, self.ctx.imports), node)
                )
                return
            # Untyped local/parameter receiver: name-based fallback.
            self.refs.append(("method", ("unknown", None, func.attr), node))
            return
        root = func.value
        while isinstance(root, ast.Attribute):
            root = root.value
        if (
            isinstance(root, ast.Name)
            and root.id in self.ctx.imports.bindings
        ):
            dotted = dotted_name(func, self.ctx.imports)
            if dotted is not None:
                self.refs.append(("dotted", dotted, node))
                return
        self.refs.append(("method", ("unknown", None, func.attr), node))


class EffectAnalysis:
    """Interprocedural effect inference over a set of sources."""

    def __init__(self, sources):
        self.sources = [src for src in sources if not src.skip]
        self.contexts = {}
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassScan] = {}  # dotted -> scan
        self.class_modules: Dict[str, str] = {}  # dotted -> module
        self.methods_by_name: Dict[str, List[str]] = {}
        self.modules = set()
        self._effects: Optional[Dict[str, Set[str]]] = None
        self._origins: Dict[Tuple[str, str], object] = {}
        self._build_index()
        self._build_edges()

    # -- index ---------------------------------------------------------------

    def _build_index(self):
        for src in self.sources:
            ctx = ModuleContext(src)
            self.contexts[src.module] = ctx
            self.modules.add(src.module)
            self._register(src.module, MODULE_BODY, src.tree, None)
            for node in src.tree.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    self._register(src.module, node.name, node, None)
            for name, scan in ctx.classes.items():
                dotted = "{}.{}".format(src.module, name)
                self.classes[dotted] = scan
                self.class_modules[dotted] = src.module
                for mname, mnode in scan.methods.items():
                    fid = self._register(
                        src.module,
                        "{}.{}".format(name, mname),
                        mnode,
                        name,
                    )
                    self.methods_by_name.setdefault(mname, []).append(fid)

    def _register(self, module, qualname, node, class_name):
        fid = make_fid(module, qualname)
        self.functions[fid] = FunctionInfo(
            fid=fid, module=module, qualname=qualname, node=node,
            class_name=class_name,
        )
        return fid

    # -- edges ---------------------------------------------------------------

    def _build_edges(self):
        for fid, info in self.functions.items():
            ctx = self.contexts[info.module]
            scanner = EffectScanner(ctx, class_name=info.class_name)
            collector = _CallCollector(ctx, class_name=info.class_name)
            if info.qualname == MODULE_BODY:
                info.direct = scanner.scan_module_body(info.node)
                refs = collector.collect_module_body(info.node)
                self._module_import_edges(info, ctx)
            else:
                info.direct = scanner.scan_function(info.node)
                refs = collector.collect_function(info.node)
                # Calling any function implies its module was imported.
                info.callees.add(make_fid(info.module, MODULE_BODY))
            for kind, payload, node in refs:
                self._resolve_ref(info, kind, payload)

    def _module_import_edges(self, info, ctx):
        """Importing a module executes every module it imports."""
        for target in ctx.imports.bindings.values():
            module = self._known_module_prefix(target)
            if module and module != info.module:
                info.callees.add(make_fid(module, MODULE_BODY))

    def _known_module_prefix(self, dotted):
        parts = dotted.split(".")
        for end in range(len(parts), 0, -1):
            candidate = ".".join(parts[:end])
            if candidate in self.modules:
                return candidate
        return None

    def _resolve_ref(self, info, kind, payload):
        if kind == "dotted" or kind == "name-ref":
            self._link_dotted(info, payload, call=(kind == "dotted"))
        elif kind == "method":
            mode, extra, mname = payload
            self._link_method(info, mode, extra, mname)
        elif kind == "self-ref":
            # ``self.x`` read as a value: link only if it names a method
            # (callback registration); data attributes are not calls.
            if info.class_name:
                own = "{}.{}".format(info.module, info.class_name)
                target = self._find_method(own, payload)
                if target:
                    info.callees.add(target)

    def _link_dotted(self, info, dotted, call=True):
        target = self._lookup_dotted(info.module, dotted)
        if target is None:
            if call:
                self._note_external(info, dotted)
            else:
                # A bare reference to an analysed module still pulls in
                # its import-time code; other unresolved refs are datum,
                # not calls.
                module = self._known_module_prefix(dotted)
                if module:
                    info.callees.add(make_fid(module, MODULE_BODY))
            return
        kind, value = target
        if kind == "function":
            info.callees.add(value)
        elif kind == "class":
            self._link_constructor(info, value)

    def _link_constructor(self, info, class_dotted):
        module = self.class_modules[class_dotted]
        info.callees.add(make_fid(module, MODULE_BODY))
        init = self._find_method(class_dotted, "__init__")
        if init:
            info.callees.add(init)

    def _link_method(self, info, mode, extra, mname):
        class_dotted = None
        if mode == "super":
            self._link_super(info, mname)
            return
        if mode == "self" and info.class_name:
            class_dotted = "{}.{}".format(info.module, info.class_name)
        elif mode == "self-attr" and info.class_name:
            scan = self.contexts[info.module].classes.get(info.class_name)
            if scan:
                attr_type = scan.attr_types.get(extra)
                if attr_type and attr_type != "builtins.set":
                    class_dotted = self._resolve_class(
                        info.module, attr_type
                    )
        elif mode == "typed":
            class_dotted = self._resolve_class(info.module, extra)
        if class_dotted:
            target = self._find_method(class_dotted, mname)
            if target:
                info.callees.add(target)
                return
        self._fallback_by_name(info, mname)

    def _link_super(self, info, mname):
        """``super().mname()``: resolve against every base of the caller's
        own class.  A miss (e.g. ``object.__init__``) is silently pure —
        the base is outside the analysed tree and dunders never fall back
        by name."""
        if not info.class_name:
            return
        scan = self.contexts[info.module].classes.get(info.class_name)
        if scan is None:
            return
        for base in scan.bases:
            base_dotted = self._resolve_class(info.module, base)
            if base_dotted:
                target = self._find_method(base_dotted, mname)
                if target:
                    info.callees.add(target)

    def _fallback_by_name(self, info, mname):
        """Untyped attribute call: name-match across every known method,
        unless the name collides with a builtin container method."""
        if mname in _CONTAINER_METHODS or mname.startswith("__"):
            return
        matches = self.methods_by_name.get(mname)
        if matches:
            info.callees.update(matches)
        else:
            self._note_external(info, ".{}()".format(mname))

    def _resolve_class(self, module, dotted):
        """Resolve a class reference (possibly re-exported) to its
        defining dotted path."""
        target = self._lookup_dotted(module, dotted)
        if target and target[0] == "class":
            return target[1]
        return None

    def _lookup_dotted(self, current_module, dotted, depth=0):
        if depth > 5 or not dotted:
            return None
        # Module-local definition?
        local = "{}.{}".format(current_module, dotted)
        if "." not in dotted:
            if local in self.classes:
                return ("class", local)
            fid = make_fid(current_module, dotted)
            if fid in self.functions:
                return ("function", fid)
            return None
        if dotted in self.classes:
            return ("class", dotted)
        head, _, tail = dotted.rpartition(".")
        if head in self.modules:
            fid = make_fid(head, tail)
            if fid in self.functions:
                return ("function", fid)
        if head in self.classes:
            # pkg.mod.Class.method
            target = self._find_method(head, tail)
            if target:
                return ("function", target)
        # Re-export chain: resolve through a package __init__'s imports.
        prefix = self._known_module_prefix(dotted)
        if prefix and prefix != dotted:
            rest = dotted[len(prefix) + 1:].split(".")
            ctx = self.contexts[prefix]
            rebased = ctx.imports.resolve_name(rest[0])
            if rebased != rest[0] or rebased in ctx.classes:
                new = ".".join([rebased] + rest[1:])
                if new != dotted:
                    resolved = self._lookup_dotted(prefix, new, depth + 1)
                    if resolved:
                        return resolved
            # Name defined in the package module itself
            if len(rest) == 1:
                fid = make_fid(prefix, rest[0])
                if fid in self.functions:
                    return ("function", fid)
                local_class = "{}.{}".format(prefix, rest[0])
                if local_class in self.classes:
                    return ("class", local_class)
        return None

    def _find_method(self, class_dotted, mname, depth=0):
        if depth > 8:
            return None
        scan = self.classes.get(class_dotted)
        if scan is None:
            return None
        if mname in scan.methods:
            module = self.class_modules[class_dotted]
            return make_fid(
                module, "{}.{}".format(scan.name, mname)
            )
        for base in scan.bases:
            base_dotted = self._resolve_class(
                self.class_modules[class_dotted], base
            )
            if base_dotted:
                found = self._find_method(base_dotted, mname, depth + 1)
                if found:
                    return found
        return None

    def _note_external(self, info, name):
        head = name.split(".", 1)[0]
        if head in _ASSUMED_PURE_MODULES or name in _SAFE_BUILTINS:
            return
        if head[:1].isupper() or name[:1].isupper():
            return  # exception/class constructors from builtins
        if head in ("time", "random", "os", "glob", "uuid", "secrets",
                    "numpy", "datetime"):
            return  # effectful stdlib is matched syntactically instead
        info.externals.add(name)

    # -- fixed point ---------------------------------------------------------

    def _solve(self):
        if self._effects is not None:
            return self._effects
        effects = {}
        for fid, info in self.functions.items():
            effects[fid] = {src.effect for src in info.direct}
            for src in info.direct:
                self._origins.setdefault((fid, src.effect), src)
        changed = True
        while changed:
            changed = False
            for fid, info in self.functions.items():
                mine = effects[fid]
                for callee in info.callees:
                    if callee not in effects:
                        continue
                    for effect in effects[callee]:
                        if effect not in mine:
                            mine.add(effect)
                            self._origins.setdefault(
                                (fid, effect), callee
                            )
                            changed = True
        self._effects = effects
        return effects

    # -- public API ----------------------------------------------------------

    def effects_of(self, fid):
        """The inferred effect set of ``fid`` (``'module:qualname'``)."""
        effects = self._solve()
        if fid not in effects:
            raise KeyError("unknown function {!r}".format(fid))
        return frozenset(effects[fid])

    def witness(self, fid, effect):
        """A call chain from ``fid`` down to a concrete source of
        ``effect`` — the certificate's counterexample trace."""
        self._solve()
        steps = [fid]
        seen = {fid}
        current = fid
        while True:
            origin = self._origins.get((current, effect))
            if origin is None:
                return steps + ["<origin not tracked>"]
            if isinstance(origin, EffectSource):
                steps.append(str(origin))
                return steps
            if origin in seen:
                return steps + ["<cycle>"]
            seen.add(origin)
            steps.append(origin)
            current = origin

    def reachable_from(self, fid):
        """Every function reachable over call edges from ``fid``."""
        stack, seen = [fid], set()
        while stack:
            current = stack.pop()
            if current in seen or current not in self.functions:
                continue
            seen.add(current)
            stack.extend(self.functions[current].callees)
        return seen

    def certify(self, entries=DEFAULT_ENTRY_POINTS,
                forbidden=FORBIDDEN_EFFECTS):
        """A :class:`PurityCertificate` over ``entries``."""
        reports = []
        for entry in entries:
            if entry not in self.functions:
                reports.append(EntryReport(
                    entry=entry, found=False, effects=frozenset(),
                    violations=frozenset(), witnesses={},
                    reachable=0, externals=(),
                ))
                continue
            effects = self.effects_of(entry)
            violations = effects & forbidden
            reachable = self.reachable_from(entry)
            externals = sorted({
                name
                for f in reachable
                for name in self.functions[f].externals
            })
            witnesses = {
                effect: self.witness(entry, effect)
                for effect in sorted(violations)
            }
            reports.append(EntryReport(
                entry=entry, found=True, effects=effects,
                violations=frozenset(violations), witnesses=witnesses,
                reachable=len(reachable), externals=tuple(externals),
            ))
        return PurityCertificate(
            entries=tuple(reports),
            forbidden=frozenset(forbidden),
            analyzed_modules=len(self.modules),
            analyzed_functions=len(self.functions),
        )


@dataclass(frozen=True)
class EntryReport:
    """Certificate slice for one entry point."""

    entry: str
    found: bool
    effects: frozenset
    violations: frozenset
    witnesses: Dict[str, List[str]]
    reachable: int
    externals: Tuple[str, ...]

    @property
    def pure(self):
        return self.found and not self.violations


@dataclass(frozen=True)
class PurityCertificate:
    """The analysis' verdict over every entry point it was asked about.

    ``ok`` means every entry was found and carries none of the forbidden
    effects — the property the parallel runner's bit-identical guarantee
    and the result cache's key validity both rest on.
    """

    entries: Tuple[EntryReport, ...]
    forbidden: frozenset
    analyzed_modules: int
    analyzed_functions: int

    @property
    def ok(self):
        return all(entry.pure for entry in self.entries)
