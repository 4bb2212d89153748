"""Cross-module taint analysis over the project call graph.

A small interprocedural dataflow engine, specialized to the three flow
rules (see :mod:`repro.lint.flow.rules`).  Values carry sets of *roots*:

* :class:`SourceRoot` — a concrete origin (a ``read_raw()`` call, a
  ``true_values`` parameter, an argless ``SeedSequence()``, an
  ``epsilon`` name), tagged with a label (``raw`` / ``nondet`` /
  ``epsilon``);
* :class:`ParamRoot` / :class:`ParamFieldRoot` — symbolic taint of a
  function's parameter (or one attribute of it), so per-function
  summaries compose at call sites without re-analyzing callees.

Each function is abstract-interpreted to a local fixpoint (assignments,
attribute/field access, containers, calls); function summaries — which
roots reach the return value, which fields of a constructed object they
land in, which ``self.attr`` slots a constructor fills — are iterated to
a global fixpoint over the call graph.  Sink hits (a call matching a
rule's sink spec with a tainted argument) and operation hits (ε-named
value combined with a numeric literal) are recorded with their root
sets; :meth:`TaintAnalysis.trace` then resolves symbolic roots back
through recorded call edges to concrete sources, producing the
``FlowStep`` witness chain attached to findings.

Shared stores carry taint: ``arena.hold(xs)`` taints the receiver (and
the refs it returns) with what it holds, and ``arena.view(ref)`` reads
that taint back out, so a truth matrix held for shard workers by a
:class:`~repro.parallel.shm.ShmArena` still taints the results the
coordinator reads from the arena.

Sanitizers cut flows structurally: a call whose attribute/name matches
``privatize*`` / ``read_private`` / ``charge_and_emit`` — or
``release(...)``/``submit(...)`` seams carrying an ``accounting=``
keyword — returns a clean value, mirroring the paper's rule that data
leaves a device only through a calibrated, budget-charged release.
"""

from __future__ import annotations

import ast
import dataclasses
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from ..findings import FlowStep
from .graph import ClassInfo, FunctionInfo, ModuleInfo, ProjectGraph

__all__ = [
    "SourceRoot",
    "ParamRoot",
    "ParamFieldRoot",
    "TaintValue",
    "SinkHit",
    "OpHit",
    "SourceSpec",
    "SinkSpec",
    "TaintAnalysis",
    "SANITIZER_ATTRS",
    "ACCOUNTED_SEAM_ATTRS",
    "STORE_ATTRS",
    "LOAD_ATTRS",
]

_MAX_LOCAL_PASSES = 10
_MAX_GLOBAL_PASSES = 12
_MAX_TRACE_DEPTH = 25

#: Calls whose *result* is privatized by contract, whatever went in.
SANITIZER_ATTRS = ("privatize", "read_private", "charge_and_emit")
#: Seam calls sanitizing only when they bind an ``accounting=`` policy.
ACCOUNTED_SEAM_ATTRS = ("release",)
#: Storage writes: ``arena.hold(arrays)`` keeps its arguments for the
#: shards to read, so the receiver holds that taint afterwards (and so
#: do the returned refs, which address the held data).
STORE_ATTRS = frozenset({"hold"})
#: Storage reads: ``arena.view(ref)`` is an array over the receiver's
#: blocks, so it carries whatever was stored in them.
LOAD_ATTRS = frozenset({"view"})
#: Metadata accessors whose result is configuration, not data: the
#: *shape* of the truth matrix is the experiment geometry (n_epochs ×
#: n_devices), not a sensor value.  Without this, ``n, m = x.shape``
#: taints every loop index downstream.
METADATA_ATTRS = frozenset({"shape", "ndim", "size", "dtype", "nbytes", "itemsize"})
#: Builtins returning counts/structure, never element values.
METADATA_BUILTINS = frozenset({"len", "id", "type"})


# ---------------------------------------------------------------------------
# Roots and values
# ---------------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class SourceRoot:
    """A concrete taint origin."""

    label: str
    path: str
    line: int
    note: str


@dataclasses.dataclass(frozen=True)
class ParamRoot:
    """Symbolic: 'parameter ``index`` of ``func_id`` was tainted'."""

    func_id: str
    index: int


@dataclasses.dataclass(frozen=True)
class ParamFieldRoot:
    """Symbolic: 'attribute ``field`` of parameter ``index`` was tainted'."""

    func_id: str
    index: int
    field: str


Roots = FrozenSet


class TaintValue:
    """Abstract value: whole-value roots plus per-attribute root sets."""

    __slots__ = ("roots", "fields")

    def __init__(
        self,
        roots: Optional[Iterable] = None,
        fields: Optional[Dict[str, Set]] = None,
    ):
        self.roots: Set = set(roots or ())
        self.fields: Dict[str, Set] = {
            k: set(v) for k, v in (fields or {}).items() if v
        }

    # ------------------------------------------------------------------
    @classmethod
    def clean(cls) -> "TaintValue":
        return cls()

    def is_clean(self) -> bool:
        return not self.roots and not self.fields

    def all_roots(self) -> Set:
        flat = set(self.roots)
        for rs in self.fields.values():
            flat |= rs
        return flat

    def union(self, other: "TaintValue") -> "TaintValue":
        out = TaintValue(self.roots | other.roots, self.fields)
        for k, v in other.fields.items():
            out.fields.setdefault(k, set()).update(v)
        return out

    def widen_fields(self) -> "TaintValue":
        """Collapse field structure into whole-value roots."""
        return TaintValue(self.all_roots())

    def attr(self, name: str) -> "TaintValue":
        """The abstract value of ``<self>.name``."""
        roots: Set = set()
        for r in self.roots:
            if isinstance(r, ParamRoot):
                roots.add(ParamFieldRoot(r.func_id, r.index, name))
            else:
                roots.add(r)
        roots |= self.fields.get(name, set())
        return TaintValue(roots)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TaintValue)
            and self.roots == other.roots
            and self.fields == other.fields
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TaintValue(roots={self.roots!r}, fields={self.fields!r})"


# ---------------------------------------------------------------------------
# Specs, summaries, hits
# ---------------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class SourceSpec:
    """What generates taint for one label."""

    label: str
    #: Attribute/function call names whose result is tainted.
    call_attrs: FrozenSet[str] = frozenset()
    #: Parameter names that arrive tainted.
    param_names: FrozenSet[str] = frozenset()
    #: Attribute names that *are* the tainted value (``.epsilon``).
    value_attrs: FrozenSet[str] = frozenset()
    #: Directories whose module-level functions return tainted data.
    source_dirs: FrozenSet[str] = frozenset()
    #: Dotted call targets (``os.cpu_count``) whose result is tainted.
    dotted_calls: FrozenSet[str] = frozenset()
    #: Dotted/bare constructors tainted only when called with NO args.
    argless_calls: FrozenSet[str] = frozenset()


@dataclasses.dataclass(frozen=True)
class SinkSpec:
    """What consumes taint for one label."""

    label: str
    #: Attribute-call names that are sinks (``submit_array``, ``emit``).
    call_attrs: FrozenSet[str] = frozenset()
    #: Bare function-name sinks (``print``) and resolvable call targets.
    call_names: FrozenSet[str] = frozenset()
    #: Keyword arguments that are sinks on *any* call (``source_seed=``).
    kwargs: FrozenSet[str] = frozenset()
    #: Only flag sink sites in files for which this returns True.
    site_filter: Optional[Callable[[str], bool]] = None


@dataclasses.dataclass
class SinkHit:
    """A sink call that received tainted argument(s)."""

    label: str
    func_id: str
    path: str
    line: int
    col: int
    sink_desc: str
    roots: Set


@dataclasses.dataclass
class OpHit:
    """An ε-labeled value combined with a numeric literal (DPL008)."""

    func_id: str
    path: str
    line: int
    col: int
    op_desc: str
    roots: Set


class _Summary:
    """Per-function interprocedural summary."""

    __slots__ = ("ret", "self_fields")

    def __init__(self):
        self.ret = TaintValue.clean()
        self.self_fields: Dict[str, Set] = {}

    def state(self) -> Tuple:
        return (
            frozenset(self.ret.roots),
            tuple(sorted((k, frozenset(v)) for k, v in self.ret.fields.items())),
            tuple(sorted((k, frozenset(v)) for k, v in self.self_fields.items())),
        )


@dataclasses.dataclass
class _CallEdge:
    """Caller→callee activation record, for witness reconstruction."""

    caller_id: str
    caller_path: str
    line: int
    callee_id: str
    #: callee ParamRoot/ParamFieldRoot → caller-side roots activating it.
    activation: Dict[object, Set]


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------
class TaintAnalysis:
    """Run the labeled taint lattice over a :class:`ProjectGraph`."""

    def __init__(
        self,
        graph: ProjectGraph,
        sources: Iterable[SourceSpec],
        sinks: Iterable[SinkSpec],
        track_epsilon_ops: bool = False,
    ):
        self.graph = graph
        self.sources = list(sources)
        self.sinks = list(sinks)
        self.track_epsilon_ops = track_epsilon_ops
        self.summaries: Dict[str, _Summary] = {}
        self.sink_hits: List[SinkHit] = []
        self.op_hits: List[OpHit] = []
        #: callee func_id → edges from its callers.
        self.edges: Dict[str, List[_CallEdge]] = {}
        self._source_labels = {s.label for s in self.sources}

    # ------------------------------------------------------------------
    def run(self) -> None:
        funcs = sorted(self.graph.functions.values(), key=lambda f: f.func_id)
        for fn in funcs:
            self.summaries[fn.func_id] = _Summary()
        for _ in range(_MAX_GLOBAL_PASSES):
            changed = False
            self.sink_hits = []
            self.op_hits = []
            self.edges = {}
            for fn in funcs:
                before = self.summaries[fn.func_id].state()
                self._analyze_function(fn)
                if self.summaries[fn.func_id].state() != before:
                    changed = True
            if not changed:
                break

    # ------------------------------------------------------------------
    # Witness reconstruction
    # ------------------------------------------------------------------
    def trace(self, hit) -> Optional[List[FlowStep]]:
        """Resolve a hit's roots to a concrete source → sink witness.

        Returns the step chain, or None when no root resolves to a
        concrete :class:`SourceRoot` of a label this analysis tracks
        (symbolic taint that no real caller ever activates is not a
        finding).
        """
        best: Optional[List[FlowStep]] = None
        for root in sorted(hit.roots, key=_root_key):
            chain = self._resolve(root, depth=0, seen=set())
            if chain is None:
                continue
            if best is None or len(chain) < len(best):
                best = chain
        if best is None:
            return None
        best.append(FlowStep(hit.path, hit.line, hit.sink_desc))
        return best

    def _resolve(self, root, depth: int, seen: Set) -> Optional[List[FlowStep]]:
        if isinstance(root, SourceRoot):
            return [FlowStep(root.path, root.line, root.note)]
        if depth >= _MAX_TRACE_DEPTH or root in seen:
            return None
        if not isinstance(root, (ParamRoot, ParamFieldRoot)):
            return None
        seen = seen | {root}
        best: Optional[List[FlowStep]] = None
        for edge in self.edges.get(root.func_id, ()):
            activated = edge.activation.get(root)
            if not activated:
                continue
            for caller_root in sorted(activated, key=_root_key):
                chain = self._resolve(caller_root, depth + 1, seen)
                if chain is None:
                    continue
                fn = self.graph.functions.get(root.func_id)
                callee_name = fn.name if fn else root.func_id
                chain = chain + [
                    FlowStep(
                        edge.caller_path,
                        edge.line,
                        f"tainted value passed into {callee_name}()",
                    )
                ]
                if best is None or len(chain) < len(best):
                    best = chain
        return best

    # ------------------------------------------------------------------
    # Per-function abstract interpretation
    # ------------------------------------------------------------------
    def _analyze_function(self, fn: FunctionInfo) -> None:
        module = self.graph.modules.get(fn.module)
        if module is None:  # pragma: no cover - defensive
            return
        interp = _FunctionInterp(self, fn, module)
        interp.run()


def _root_key(root):
    return (type(root).__name__, repr(root))


def _param_names(func: ast.AST) -> List[str]:
    a = func.args
    names = [p.arg for p in (*a.posonlyargs, *a.args)]
    if a.vararg:
        names.append(a.vararg.arg)
    names.extend(p.arg for p in a.kwonlyargs)
    if a.kwarg:
        names.append(a.kwarg.arg)
    return names


_NUMERIC = (int, float)


class _FunctionInterp:
    """Local fixpoint over one function body."""

    def __init__(self, analysis: TaintAnalysis, fn: FunctionInfo, module: ModuleInfo):
        self.a = analysis
        self.fn = fn
        self.module = module
        self.graph = analysis.graph
        self.policy = analysis.graph.policy
        self.params = _param_names(fn.node)
        self.env: Dict[str, TaintValue] = {}
        self.types: Dict[str, object] = {}  # var → ClassInfo | ("list", ClassInfo)
        self.summary = analysis.summaries[fn.func_id]
        self._final = False
        self._seed_params()

    # ------------------------------------------------------------------
    def _seed_params(self) -> None:
        for i, name in enumerate(self.params):
            roots: Set = {ParamRoot(self.fn.func_id, i)}
            for spec in self.a.sources:
                if name in spec.param_names:
                    roots.add(
                        SourceRoot(
                            spec.label,
                            self.fn.path,
                            getattr(self.fn.node, "lineno", 1),
                            f"parameter {name!r} of {self.fn.name}() "
                            f"carries {spec.label} data",
                        )
                    )
            self.env[name] = TaintValue(roots)
        if self.fn.class_name and self.params and self.params[0] == "self":
            ci = self.graph.classes.get(f"{self.fn.module}:{self.fn.class_name}")
            if ci is not None:
                self.types["self"] = ci

    # ------------------------------------------------------------------
    def run(self) -> None:
        new_summary = _Summary()
        for _ in range(_MAX_LOCAL_PASSES):
            snapshot = {k: (frozenset(v.roots), len(v.fields)) for k, v in self.env.items()}
            self._final = False
            new_summary = _Summary()
            self._ret_acc = TaintValue.clean()
            self._self_fields: Dict[str, Set] = {}
            self._exec_body(self.fn.node.body)
            if {
                k: (frozenset(v.roots), len(v.fields)) for k, v in self.env.items()
            } == snapshot:
                break
        # Final pass: record hits and call edges with the converged env.
        self._final = True
        self._ret_acc = TaintValue.clean()
        self._self_fields = {}
        self._exec_body(self.fn.node.body)
        new_summary.ret = self._ret_acc
        new_summary.self_fields = self._self_fields
        self.a.summaries[self.fn.func_id] = new_summary

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------
    def _exec_body(self, body: Iterable[ast.stmt]) -> None:
        for stmt in body:
            self._exec(stmt)

    def _exec(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            value = self._eval(stmt.value)
            for target in stmt.targets:
                self._assign(target, value, value_expr=stmt.value)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._assign(
                    stmt.target, self._eval(stmt.value), value_expr=stmt.value
                )
        elif isinstance(stmt, ast.AugAssign):
            value = self._eval(stmt.value)
            old = self._eval(stmt.target)
            self._assign(stmt.target, old.union(value))
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            seq = self._eval(stmt.iter)
            self._assign(stmt.target, seq, value_expr=stmt.iter, unwrap_iter=True)
            self._exec_body(stmt.body)
            self._exec_body(stmt.orelse)
        elif isinstance(stmt, (ast.While, ast.If)):
            self._eval(stmt.test)
            self._exec_body(stmt.body)
            self._exec_body(stmt.orelse)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                val = self._eval(item.context_expr)
                if item.optional_vars is not None:
                    self._assign(
                        item.optional_vars, val, value_expr=item.context_expr
                    )
            self._exec_body(stmt.body)
        elif isinstance(stmt, ast.Try):
            self._exec_body(stmt.body)
            for handler in stmt.handlers:
                self._exec_body(handler.body)
            self._exec_body(stmt.orelse)
            self._exec_body(stmt.finalbody)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self._ret_acc = self._ret_acc.union(self._eval(stmt.value))
        elif isinstance(stmt, ast.Expr):
            self._eval(stmt.value)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            pass  # nested defs analyzed separately / out of scope
        elif isinstance(stmt, ast.Raise):
            if stmt.exc is not None:
                self._eval(stmt.exc)
        elif isinstance(stmt, ast.Assert):
            self._eval(stmt.test)
        elif isinstance(stmt, ast.Delete):
            for t in stmt.targets:
                if isinstance(t, ast.Name):
                    self.env.pop(t.id, None)
        # Pass/Import/Global/... : nothing to do.

    # ------------------------------------------------------------------
    def _assign(
        self,
        target: ast.AST,
        value: TaintValue,
        value_expr: Optional[ast.AST] = None,
        unwrap_iter: bool = False,
    ) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = value
            if value_expr is not None:
                t = self._type_of(value_expr)
                if t is not None:
                    if unwrap_iter:  # ``for x in seq`` peels one list level
                        t = t[1] if isinstance(t, tuple) else t
                    self.types[target.id] = t
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._assign(elt, value)
        elif isinstance(target, ast.Starred):
            self._assign(target.value, value)
        elif isinstance(target, ast.Attribute):
            base = target.value
            if isinstance(base, ast.Name):
                if (
                    base.id == "self"
                    and self.params
                    and self.params[0] == "self"
                ):
                    self._self_fields.setdefault(target.attr, set()).update(
                        value.all_roots()
                    )
                self.env[f"{base.id}.{target.attr}"] = value
        elif isinstance(target, ast.Subscript):
            # Container write: only the assigned VALUE taints the
            # container (a tainted index does not taint the data).
            if isinstance(target.value, ast.Name):
                name = target.value.id
                old = self.env.get(name, TaintValue.clean())
                self.env[name] = old.union(TaintValue(value.all_roots()))

    # ------------------------------------------------------------------
    # Lightweight local type inference (constructor provenance)
    # ------------------------------------------------------------------
    def _type_of(self, expr: ast.AST):
        """ClassInfo, ("list", ClassInfo), or None."""
        if isinstance(expr, ast.Name):
            return self.types.get(expr.id)
        if isinstance(expr, ast.Call):
            target = self._resolve_call(expr)
            if isinstance(target, ClassInfo):
                return target
            return None
        if isinstance(expr, (ast.List, ast.Tuple)):
            elem = None
            for elt in expr.elts:
                t = self._type_of(elt)
                if t is None or (elem is not None and t is not elem):
                    return None
                elem = t
            return ("list", elem) if elem is not None else None
        if isinstance(expr, ast.ListComp):
            t = self._type_of(expr.elt)
            return ("list", t) if isinstance(t, ClassInfo) else None
        if isinstance(expr, ast.Subscript):
            t = self._type_of(expr.value)
            if isinstance(t, tuple):
                return t[1]
            return None
        return None

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------
    def _eval(self, expr: ast.AST) -> TaintValue:
        if expr is None:
            return TaintValue.clean()
        if isinstance(expr, ast.Name):
            return self.env.get(expr.id, TaintValue.clean())
        if isinstance(expr, ast.Attribute):
            return self._eval_attr(expr)
        if isinstance(expr, ast.Call):
            return self._eval_call(expr)
        if isinstance(expr, ast.BinOp):
            left, right = self._eval(expr.left), self._eval(expr.right)
            if self.a.track_epsilon_ops and self._final:
                self._check_epsilon_op(expr, left, right)
            return left.union(right).widen_fields()
        if isinstance(expr, ast.BoolOp):
            out = TaintValue.clean()
            for v in expr.values:
                out = out.union(self._eval(v))
            return out
        if isinstance(expr, ast.Compare):
            out = self._eval(expr.left)
            for c in expr.comparators:
                out = out.union(self._eval(c))
            return out.widen_fields()
        if isinstance(expr, ast.UnaryOp):
            return self._eval(expr.operand)
        if isinstance(expr, ast.IfExp):
            self._eval(expr.test)
            return self._eval(expr.body).union(self._eval(expr.orelse))
        if isinstance(expr, ast.Subscript):
            base = self._eval(expr.value)
            self._eval(expr.slice)  # index taint does not flow to the value
            if base.fields:
                return base.widen_fields()
            return TaintValue(base.roots)
        if isinstance(expr, (ast.List, ast.Tuple, ast.Set)):
            out = TaintValue.clean()
            for elt in expr.elts:
                out = out.union(self._eval(elt))
            return out
        if isinstance(expr, ast.Dict):
            out = TaintValue.clean()
            for v in expr.values:
                if v is not None:
                    out = out.union(self._eval(v))
            return out
        if isinstance(expr, ast.JoinedStr):
            out = TaintValue.clean()
            for v in expr.values:
                out = out.union(self._eval(v))
            return out
        if isinstance(expr, ast.FormattedValue):
            return self._eval(expr.value)
        if isinstance(expr, ast.Starred):
            return self._eval(expr.value)
        if isinstance(expr, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            for gen in expr.generators:
                seq = self._eval(gen.iter)
                self._assign(gen.target, seq, value_expr=gen.iter, unwrap_iter=True)
                for cond in gen.ifs:
                    self._eval(cond)
            return self._eval(expr.elt)
        if isinstance(expr, ast.DictComp):
            for gen in expr.generators:
                self._assign(
                    gen.target,
                    self._eval(gen.iter),
                    value_expr=gen.iter,
                    unwrap_iter=True,
                )
            self._eval(expr.key)
            return self._eval(expr.value)
        if isinstance(expr, ast.NamedExpr):
            value = self._eval(expr.value)
            self._assign(expr.target, value)
            return value
        if isinstance(expr, (ast.Await, ast.YieldFrom)):
            return self._eval(expr.value)
        if isinstance(expr, ast.Yield):
            if expr.value is not None:
                self._ret_acc = self._ret_acc.union(self._eval(expr.value))
            return TaintValue.clean()
        if isinstance(expr, ast.Lambda):
            return TaintValue.clean()
        return TaintValue.clean()  # Constant and friends

    def _eval_attr(self, expr: ast.Attribute) -> TaintValue:
        if expr.attr in METADATA_ATTRS:
            return TaintValue.clean()
        # Local override (``x.f = tainted`` earlier in this function).
        if isinstance(expr.value, ast.Name):
            key = f"{expr.value.id}.{expr.attr}"
            if key in self.env:
                return self.env[key]
        base = self._eval(expr.value)
        out = base.attr(expr.attr)
        for spec in self.a.sources:
            if expr.attr in spec.value_attrs:
                out = out.union(
                    TaintValue(
                        {
                            SourceRoot(
                                spec.label,
                                self.fn.path,
                                expr.lineno,
                                f"value of {expr.attr!r} "
                                f"(ε-material named at the source)"
                                if spec.label == "epsilon"
                                else f"attribute {expr.attr!r}",
                            )
                        }
                    )
                )
        return out

    # ------------------------------------------------------------------
    # Calls
    # ------------------------------------------------------------------
    def _resolve_call(self, call: ast.Call):
        func = call.func
        if isinstance(func, ast.Name):
            return self.graph.resolve_name(self.module, func.id)
        if isinstance(func, ast.Attribute):
            # self.method() / typed-local.method()
            base_t = self._type_of(func.value)
            if isinstance(base_t, ClassInfo):
                m = self.graph.resolve_method(base_t.class_id, func.attr)
                if m is not None:
                    return m
            dotted = _dotted_name(func)
            if dotted is not None:
                return self.graph.resolve_dotted(self.module, dotted)
        return None

    def _is_sanitizer(self, call: ast.Call) -> bool:
        name = _call_name(call)
        if name is None:
            return False
        if name.startswith(SANITIZER_ATTRS[0]) or name in SANITIZER_ATTRS:
            return True
        if name in ACCOUNTED_SEAM_ATTRS and any(
            kw.arg == "accounting" for kw in call.keywords
        ):
            return True
        return False

    def _source_match(self, call: ast.Call, resolved) -> List[SourceRoot]:
        name = _call_name(call)
        roots: List[SourceRoot] = []
        dotted = (
            _dotted_name(call.func) if isinstance(call.func, ast.Attribute) else name
        )
        expanded = (
            self.graph.expand(self.module, dotted) if dotted is not None else None
        )
        argless = not call.args and not call.keywords
        for spec in self.a.sources:
            hit = None
            if name in spec.call_attrs:
                hit = f"call to {name}() reads {spec.label} data"
            elif expanded is not None and (
                expanded in spec.dotted_calls or dotted in spec.dotted_calls
            ):
                hit = f"call to {expanded}() is {spec.label}"
            elif argless and expanded is not None and (
                expanded in spec.argless_calls
                or dotted in spec.argless_calls
                or (name in spec.argless_calls)
            ):
                hit = (
                    f"argless {name}() derives {spec.label} seed material "
                    "from process entropy"
                )
            elif (
                spec.source_dirs
                and isinstance(resolved, FunctionInfo)
                and resolved.class_name is None
                and not resolved.name.startswith("_")
                and any(
                    self.policy.in_dir(resolved.path, d) for d in spec.source_dirs
                )
            ):
                hit = (
                    f"call into {resolved.module}.{resolved.name}() "
                    f"returns {spec.label} data"
                )
            if hit is not None:
                roots.append(
                    SourceRoot(spec.label, self.fn.path, call.lineno, hit)
                )
        return roots

    def _eval_call(self, call: ast.Call) -> TaintValue:
        # Evaluate arguments first (side effects on env via walrus etc).
        arg_vals = [self._eval(a) for a in call.args]
        kw_vals = {kw.arg: self._eval(kw.value) for kw in call.keywords}
        self._eval(call.func) if isinstance(call.func, ast.Call) else None

        if self._is_sanitizer(call):
            return TaintValue.clean()
        if (
            isinstance(call.func, ast.Name)
            and call.func.id in METADATA_BUILTINS
        ):
            return TaintValue.clean()

        resolved = self._resolve_call(call)
        if self._final:
            self._check_sinks(call, arg_vals, kw_vals, resolved)

        source_roots = self._source_match(call, resolved)
        result = TaintValue({r for r in source_roots})
        if isinstance(call.func, ast.Attribute):
            result = result.union(self._storage_flow(call, arg_vals, kw_vals))

        # ``pool.map(f, xs)`` — treat as elementwise f(x).
        if (
            isinstance(call.func, ast.Attribute)
            and call.func.attr in ("map", "imap", "starmap")
            and call.args
        ):
            mapped = None
            if isinstance(call.args[0], (ast.Name, ast.Attribute)):
                mapped = (
                    self.graph.resolve_name(self.module, call.args[0].id)
                    if isinstance(call.args[0], ast.Name)
                    else self.graph.resolve_dotted(
                        self.module, _dotted_name(call.args[0]) or ""
                    )
                )
            if isinstance(mapped, FunctionInfo) and len(arg_vals) >= 2:
                return result.union(
                    self._apply_summary(mapped, call, [arg_vals[1]], {})
                )

        if isinstance(resolved, FunctionInfo):
            return result.union(
                self._apply_summary(resolved, call, arg_vals, kw_vals)
            )
        if isinstance(resolved, ClassInfo):
            return result.union(
                self._construct(resolved, call, arg_vals, kw_vals)
            )

        # List-mutator special case: ``acc.append(tainted)`` taints acc.
        if (
            isinstance(call.func, ast.Attribute)
            and call.func.attr in ("append", "extend", "add", "insert", "update")
            and isinstance(call.func.value, ast.Name)
        ):
            flowed = TaintValue.clean()
            for v in arg_vals:
                flowed = flowed.union(v)
            for v in kw_vals.values():
                flowed = flowed.union(v)
            name = call.func.value.id
            old = self.env.get(name, TaintValue.clean())
            self.env[name] = old.union(TaintValue(flowed.all_roots()))
            return TaintValue.clean()

        # Unresolved call: conservative propagation through arguments,
        # including the receiver of a method call (``x.mean()``).
        out = result
        if isinstance(call.func, ast.Attribute):
            out = out.union(TaintValue(self._eval(call.func.value).all_roots()))
        for v in arg_vals:
            out = out.union(TaintValue(v.all_roots()))
        for v in kw_vals.values():
            out = out.union(TaintValue(v.all_roots()))
        return out

    def _storage_flow(
        self,
        call: ast.Call,
        arg_vals: List[TaintValue],
        kw_vals: Dict[str, TaintValue],
    ) -> TaintValue:
        """Taint through a shared store: what a ``hold`` call
        stores taints its receiver (and the refs it returns); what a
        ``view`` reads carries the receiver's taint."""
        receiver = call.func.value
        if call.func.attr in STORE_ATTRS:
            stored: Set = set()
            for v in [*arg_vals, *kw_vals.values()]:
                stored |= v.all_roots()
            if stored and isinstance(receiver, ast.Name):
                old = self.env.get(receiver.id, TaintValue.clean())
                self.env[receiver.id] = old.union(TaintValue(stored))
            return TaintValue(stored)
        if call.func.attr in LOAD_ATTRS:
            return TaintValue(self._eval(receiver).all_roots())
        return TaintValue.clean()

    # ------------------------------------------------------------------
    def _bind_args(
        self,
        target: FunctionInfo,
        arg_vals: List[TaintValue],
        kw_vals: Dict[str, TaintValue],
        skip_self: bool,
    ) -> Dict[int, TaintValue]:
        params = _param_names(target.node)
        offset = 1 if skip_self and params and params[0] == "self" else 0
        bound: Dict[int, TaintValue] = {}
        for i, v in enumerate(arg_vals):
            idx = i + offset
            if idx < len(params):
                bound[idx] = v
        for name, v in kw_vals.items():
            if name in params:
                bound[params.index(name)] = v
        return bound

    def _activation(
        self, target: FunctionInfo, bound: Dict[int, TaintValue]
    ) -> Dict[object, Set]:
        act: Dict[object, Set] = {}
        for idx, v in bound.items():
            if v.roots:
                act[ParamRoot(target.func_id, idx)] = set(v.roots)
            for field, roots in v.fields.items():
                if roots:
                    act[ParamFieldRoot(target.func_id, idx, field)] = set(roots)
        return act

    def _map_roots(self, roots: Set, act: Dict[object, Set]) -> Set:
        out: Set = set()
        for r in roots:
            if isinstance(r, SourceRoot):
                out.add(r)
            elif isinstance(r, (ParamRoot, ParamFieldRoot)):
                out |= act.get(r, set())
                if isinstance(r, ParamFieldRoot):
                    # Whole-param taint also taints every field.
                    out |= act.get(ParamRoot(r.func_id, r.index), set())
        return out

    def _apply_summary(
        self,
        target: FunctionInfo,
        call: ast.Call,
        arg_vals: List[TaintValue],
        kw_vals: Dict[str, TaintValue],
        skip_self: bool = True,
    ) -> TaintValue:
        bound = self._bind_args(target, arg_vals, kw_vals, skip_self)
        act = self._activation(target, bound)
        if self._final and act:
            self.a.edges.setdefault(target.func_id, []).append(
                _CallEdge(
                    caller_id=self.fn.func_id,
                    caller_path=self.fn.path,
                    line=call.lineno,
                    callee_id=target.func_id,
                    activation=act,
                )
            )
        summary = self.a.summaries.get(target.func_id)
        if summary is None:
            return TaintValue.clean()
        ret = TaintValue(self._map_roots(summary.ret.roots, act))
        for field, roots in summary.ret.fields.items():
            mapped = self._map_roots(roots, act)
            if mapped:
                ret.fields[field] = mapped
        return ret

    def _construct(
        self,
        target: ClassInfo,
        call: ast.Call,
        arg_vals: List[TaintValue],
        kw_vals: Dict[str, TaintValue],
    ) -> TaintValue:
        init = self.graph.resolve_method(target.class_id, "__init__")
        if init is not None:
            applied = self._apply_summary(init, call, arg_vals, kw_vals)
            summary = self.a.summaries.get(init.func_id)
            obj = TaintValue(applied.roots)
            if summary is not None:
                bound = self._bind_args(init, arg_vals, kw_vals, skip_self=True)
                act = self._activation(init, bound)
                for field, roots in summary.self_fields.items():
                    mapped = self._map_roots(roots, act)
                    if mapped:
                        obj.fields[field] = mapped
            return obj
        # Dataclass-style: keywords map to fields, positionals by order.
        obj = TaintValue()
        for i, v in enumerate(arg_vals):
            if i < len(target.field_order):
                if not v.is_clean():
                    obj.fields[target.field_order[i]] = v.all_roots()
            else:
                obj.roots |= v.all_roots()
        for name, v in kw_vals.items():
            if v.is_clean():
                continue
            if name in target.field_order or name is not None:
                obj.fields[name] = v.all_roots()
        return obj

    # ------------------------------------------------------------------
    # Sinks and ε-ops
    # ------------------------------------------------------------------
    def _check_sinks(
        self,
        call: ast.Call,
        arg_vals: List[TaintValue],
        kw_vals: Dict[str, TaintValue],
        resolved,
    ) -> None:
        name = _call_name(call)
        resolved_name = resolved.name if isinstance(resolved, FunctionInfo) else (
            resolved.name if isinstance(resolved, ClassInfo) else None
        )
        for spec in self.a.sinks:
            if spec.site_filter is not None and not spec.site_filter(self.fn.path):
                continue
            tainted: Set = set()
            desc = None
            is_named_sink = (
                (isinstance(call.func, ast.Attribute) and name in spec.call_attrs)
                or (isinstance(call.func, ast.Name) and name in spec.call_names)
                or (resolved_name is not None and resolved_name in spec.call_names)
            )
            if is_named_sink:
                for v in arg_vals:
                    tainted |= self._labeled(v, spec.label)
                for v in kw_vals.values():
                    tainted |= self._labeled(v, spec.label)
                desc = f"reaches sink {name}()"
            if spec.kwargs:
                for kw_name, v in kw_vals.items():
                    if kw_name in spec.kwargs:
                        hit = self._labeled(v, spec.label)
                        if hit:
                            tainted |= hit
                            desc = (
                                f"reaches seed-material argument "
                                f"{kw_name}= of {name or 'call'}()"
                            )
            if tainted:
                self.a.sink_hits.append(
                    SinkHit(
                        label=spec.label,
                        func_id=self.fn.func_id,
                        path=self.fn.path,
                        line=call.lineno,
                        col=call.col_offset,
                        sink_desc=desc or f"reaches sink {name}()",
                        roots=tainted,
                    )
                )

    def _labeled(self, value: TaintValue, label: str) -> Set:
        """Roots of ``value`` that could carry ``label`` taint."""
        out: Set = set()
        for r in value.all_roots():
            if isinstance(r, SourceRoot):
                if r.label == label:
                    out.add(r)
            else:
                out.add(r)  # symbolic — resolved against callers later
        return out

    def _check_epsilon_op(
        self, expr: ast.BinOp, left: TaintValue, right: TaintValue
    ) -> None:
        for tainted, other_node in (
            (left, expr.right),
            (right, expr.left),
        ):
            roots = {
                r
                for r in tainted.all_roots()
                if isinstance(r, SourceRoot) and r.label == "epsilon"
            }
            if not roots:
                continue
            if not (
                isinstance(other_node, ast.Constant)
                and isinstance(other_node.value, _NUMERIC)
                and not isinstance(other_node.value, bool)
            ):
                continue
            self.a.op_hits.append(
                OpHit(
                    func_id=self.fn.func_id,
                    path=self.fn.path,
                    line=expr.lineno,
                    col=expr.col_offset,
                    op_desc=(
                        f"ε-derived value combined with literal "
                        f"{other_node.value!r}"
                    ),
                    roots=roots,
                )
            )
            return


def _dotted_name(node: ast.AST) -> Optional[str]:
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _call_name(call: ast.Call) -> Optional[str]:
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None
