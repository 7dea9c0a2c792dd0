"""Per-function effect-summary extraction.

One pass over a module's AST produces a :class:`~repro.verify.flow.model.ModuleInfo`:
the import/alias tables, the module-level constant and mutable-global
names, and an effect summary per function/method.  Extraction is strictly
file-local (summaries are cacheable by content hash); cross-function
reasoning happens later in :mod:`repro.verify.flow.analysis`.

What the summarizer records, per function:

- **calls** — every call whose callee is a dotted chain of names
  (``f(...)``, ``mod.f(...)``, ``self.m(...)``, ``Cls(...)``), kept as
  written; the call graph resolves them against the module index;
- **global writes** — ``global``/``nonlocal`` rebinding, plus in-place
  mutation of module-level objects (item/attribute assignment, augmented
  assignment, mutating method calls such as ``.append``/``.update``);
- **RNG uses** — ``numpy.random.default_rng(seed)`` calls whose seed a
  local dataflow cannot derive from parameters, literals, or module
  constants (seedless and global-state randomness is the file-local
  ABG101's);
- **set iterations** — ``for``/comprehension iteration over expressions
  *inferred* to be sets (displays, ``set()``/``frozenset()`` calls, set
  algebra, set-annotated names and locals assigned from set expressions)
  with no ``sorted(...)`` wrapper — the interprocedural upgrade of the
  file-local ABG104, which only sees syntactic set displays;
- **pool dispatches** — first arguments of ``map_deterministic`` /
  ``run_supervised`` / ``pool.submit`` / ``pool.map`` (these become
  analysis roots) and payload risks at those sites (lambdas, nested
  functions, ``open(...)`` handles).
"""

from __future__ import annotations

import ast

from .model import (
    AttrWrite,
    CallSite,
    DispatchSite,
    FunctionSummary,
    GlobalWrite,
    ModuleInfo,
    PayloadRisk,
    RngUse,
    SetIteration,
)

__all__ = ["summarize_module", "expand_name", "module_name_for_path"]

_MUTABLE_CONSTRUCTORS = frozenset(
    {"list", "dict", "set", "bytearray", "deque", "defaultdict", "Counter", "OrderedDict"}
)

_MUTATING_METHODS = frozenset(
    {
        "append", "extend", "insert", "add", "update", "setdefault",
        "pop", "popitem", "clear", "remove", "discard", "sort", "reverse",
        "appendleft", "extendleft",
    }
)

#: Builtins that keep a seed expression deterministic.
_PURE_BUILTINS = frozenset(
    {"int", "float", "abs", "min", "max", "sum", "len", "tuple", "list", "range", "divmod", "round"}
)

#: Callables that unwrap to their first argument when scanning iterables.
_ITER_WRAPPERS = frozenset({"list", "tuple", "reversed", "enumerate", "iter"})

def module_name_for_path(path: str) -> str:
    """Infer a module's dotted name by walking up through ``__init__.py``s."""
    from pathlib import Path

    p = Path(path).resolve()
    parts = [p.stem] if p.stem != "__init__" else []
    parent = p.parent
    while (parent / "__init__.py").exists():
        parts.insert(0, parent.name)
        parent = parent.parent
    return ".".join(parts) if parts else p.stem


def _dotted_name(node: ast.expr) -> str | None:
    """``a.b.c`` as a string when ``node`` is a pure Name/Attribute chain."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def expand_name(dotted: str, info: ModuleInfo) -> str:
    """Expand the head of a dotted name through the module's import tables.

    ``np.random.default_rng`` -> ``numpy.random.default_rng`` given
    ``import numpy as np``; ``map_deterministic`` ->
    ``repro.experiments.parallel.map_deterministic`` given the from-import.
    """
    head, _, rest = dotted.partition(".")
    target = info.aliases.get(head) or info.imports.get(head)
    if target is None:
        return dotted
    return f"{target}.{rest}" if rest else target


def _resolve_from_import(module: str, is_package: bool, node: ast.ImportFrom) -> str:
    """Absolute module a ``from ... import`` statement refers to."""
    if node.level == 0:
        return node.module or ""
    parts = module.split(".")
    if not is_package:
        parts = parts[:-1]
    drop = node.level - 1
    base = parts[: len(parts) - drop] if drop else parts
    if node.module:
        return ".".join([*base, node.module])
    return ".".join(base)


def _literal_value(node: ast.expr) -> bool:
    """Whether a module-level assignment value is an immutable literal."""
    if isinstance(node, ast.Constant):
        return True
    if isinstance(node, ast.Tuple):
        return all(_literal_value(e) for e in node.elts)
    if isinstance(node, ast.UnaryOp):
        return _literal_value(node.operand)
    if isinstance(node, ast.BinOp):
        return _literal_value(node.left) and _literal_value(node.right)
    return False


def _mutable_value(node: ast.expr) -> bool:
    """Whether a module-level assignment value is a mutable container."""
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = _dotted_name(node.func)
        if name is not None and name.split(".")[-1] in _MUTABLE_CONSTRUCTORS:
            return True
    return False


def _annotation_classes(node: ast.expr | None) -> tuple[str, ...]:
    """Class names referenced by an annotation (splits ``A | B`` unions and
    ``Optional[...]``-style subscripts down to their dotted names)."""
    if node is None:
        return ()
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        return (*_annotation_classes(node.left), *_annotation_classes(node.right))
    if isinstance(node, ast.Subscript):
        base = _dotted_name(node.value)
        if base is not None and base.split(".")[-1] in ("Optional", "Union"):
            if isinstance(node.slice, ast.Tuple):
                out: list[str] = []
                for elt in node.slice.elts:
                    out.extend(_annotation_classes(elt))
                return tuple(out)
            return _annotation_classes(node.slice)
        return _annotation_classes(node.value)
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        name = node.value.split("[")[0].strip()
        return (name,) if name.isidentifier() or "." in name else ()
    dotted = _dotted_name(node)
    if dotted is not None and dotted.split(".")[-1][:1].isupper():
        return (dotted,)
    return ()


def _default_sources(args: ast.arguments, params: tuple[str, ...]) -> tuple[str, ...]:
    """Default-value source text aligned to ``params`` (``""`` = none).

    Positional defaults right-align onto ``posonlyargs + args``; keyword-only
    defaults align onto ``kwonlyargs`` positionally.  Kept as ``ast.unparse``
    text so the kernel-parity pass can compare an override's defaults against
    the base declaration's without evaluating anything.
    """
    by_name: dict[str, str] = {}
    positional = [*args.posonlyargs, *args.args]
    for arg, default in zip(positional[len(positional) - len(args.defaults):], args.defaults):
        by_name[arg.arg] = ast.unparse(default)
    for arg, kw_default in zip(args.kwonlyargs, args.kw_defaults):
        if kw_default is not None:
            by_name[arg.arg] = ast.unparse(kw_default)
    return tuple(by_name.get(name, "") for name in params)


def _chain_root(node: ast.expr) -> tuple[str, str] | None:
    """``(root name, dotted path below it)`` of an attribute/subscript chain.

    ``cfg.limits.max`` -> ``("cfg", "limits.max")``; subscripts along the
    chain contribute a ``[]`` segment (``table[k].count`` ->
    ``("table", "[].count")``).  ``None`` when the chain does not bottom out
    in a plain name.
    """
    parts: list[str] = []
    while True:
        if isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        elif isinstance(node, ast.Subscript):
            parts.append("[]")
            node = node.value
        elif isinstance(node, ast.Name):
            return node.id, ".".join(reversed(parts))
        else:
            return None


def _is_set_annotation(node: ast.expr | None) -> bool:
    if node is None:
        return False
    if isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id in ("set", "frozenset", "Set", "FrozenSet", "MutableSet", "AbstractSet")
    if isinstance(node, ast.Attribute):
        return node.attr in ("Set", "FrozenSet", "MutableSet", "AbstractSet")
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value.split("[")[0].strip() in ("set", "frozenset")
    return False


class _FunctionScanner(ast.NodeVisitor):
    """Extract one function's effect summary (nested defs are inlined)."""

    def __init__(
        self,
        info: ModuleInfo,
        qualname: str,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
    ) -> None:
        self.info = info
        self.qualname = qualname
        self.node = node
        args = node.args
        all_args = [*args.posonlyargs, *args.args, *args.kwonlyargs]
        if args.vararg:
            all_args.append(args.vararg)
        if args.kwarg:
            all_args.append(args.kwarg)
        self.params = tuple(a.arg for a in all_args)
        self.defaults = _default_sources(args, self.params)

        self.calls: list[CallSite] = []
        self.global_writes: list[GlobalWrite] = []
        self.rng_uses: list[RngUse] = []
        self.set_iterations: list[SetIteration] = []
        self.payload_risks: list[PayloadRisk] = []
        self.dispatches: list[DispatchSite] = []
        self.attr_writes: list[AttrWrite] = []
        self.raises: list[int] = []

        self.declared_globals: set[str] = set()
        self.declared_nonlocals: set[str] = set()
        #: names bound locally anywhere in the body (shadowing module globals)
        self.local_bindings: set[str] = set(self.params)
        #: names whose value is deterministic w.r.t. parameters/constants
        self.det_names: set[str] = set(self.params) | set(info.constants)
        #: names inferred to hold sets
        self.set_names: set[str] = {
            a.arg
            for a in [*args.posonlyargs, *args.args, *args.kwonlyargs]
            if _is_set_annotation(a.annotation)
        }
        #: names bound to ProcessPoolExecutor instances
        self.pool_names: set[str] = set()
        #: nested function names defined inside this body
        self.nested_functions: set[str] = set()
        #: function-local imports overlaying the module tables (the repo
        #: imports heavy/optional modules inside functions routinely)
        self.local_aliases: dict[str, str] = {}
        #: local name -> candidate class refs (from annotations and
        #: constructor assignments); lets `obj.meth()` become a typed call
        self.var_types: dict[str, tuple[str, ...]] = {}
        for a in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
            refs = _annotation_classes(a.annotation)
            if refs:
                self.var_types[a.arg] = refs

        self._collect_local_bindings(node)

    # -- setup ---------------------------------------------------------------

    def _collect_local_bindings(self, root: ast.AST) -> None:
        for sub in ast.walk(root):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, (ast.Store, ast.Del)):
                self.local_bindings.add(sub.id)
            elif isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if sub is not root:
                    self.local_bindings.add(sub.name)
                    self.nested_functions.add(sub.name)
            elif isinstance(sub, ast.Global):
                self.declared_globals.update(sub.names)
            elif isinstance(sub, ast.Nonlocal):
                self.declared_nonlocals.update(sub.names)
            elif isinstance(sub, ast.Import):
                for alias in sub.names:
                    if alias.asname:
                        self.local_aliases[alias.asname] = alias.name
                    else:
                        top = alias.name.split(".")[0]
                        self.local_aliases[top] = top
            elif isinstance(sub, ast.ImportFrom):
                base = _resolve_from_import(
                    self.info.module,
                    self.info.path.endswith("__init__.py"),
                    sub,
                )
                for alias in sub.names:
                    if alias.name == "*":
                        continue
                    bound = alias.asname or alias.name
                    self.local_aliases[bound] = (
                        f"{base}.{alias.name}" if base else alias.name
                    )
        # names declared global/nonlocal are *not* local bindings
        self.local_bindings -= self.declared_globals
        self.local_bindings -= self.declared_nonlocals

    # -- helpers -------------------------------------------------------------

    def _expand(self, dotted: str) -> str:
        """``expand_name`` with the function-local import overlay."""
        head, _, rest = dotted.partition(".")
        target = self.local_aliases.get(head)
        if target is not None:
            return f"{target}.{rest}" if rest else target
        return expand_name(dotted, self.info)

    def _expanded(self, node: ast.expr) -> str | None:
        dotted = _dotted_name(node)
        if dotted is None:
            return None
        return self._expand(dotted)

    def _is_module_global(self, name: str) -> bool:
        """Whether a bare name refers to module-level state (not shadowed)."""
        if name in self.declared_globals:
            return True
        if name in self.local_bindings:
            return False
        return name in self.info.mutable_globals

    def _deterministic(self, node: ast.expr) -> bool:
        """Whether an expression derives only from parameters, literals, and
        module-level constants (the seed-dataflow check)."""
        if isinstance(node, ast.Constant):
            return True
        if isinstance(node, ast.Name):
            return node.id in self.det_names
        if isinstance(node, ast.Attribute):
            return self._deterministic(node.value)
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return all(self._deterministic(e) for e in node.elts)
        if isinstance(node, ast.UnaryOp):
            return self._deterministic(node.operand)
        if isinstance(node, ast.BinOp):
            return self._deterministic(node.left) and self._deterministic(node.right)
        if isinstance(node, ast.BoolOp):
            return all(self._deterministic(v) for v in node.values)
        if isinstance(node, ast.Compare):
            return self._deterministic(node.left) and all(
                self._deterministic(c) for c in node.comparators
            )
        if isinstance(node, ast.IfExp):
            return (
                self._deterministic(node.test)
                and self._deterministic(node.body)
                and self._deterministic(node.orelse)
            )
        if isinstance(node, ast.Subscript):
            return self._deterministic(node.value) and self._deterministic(node.slice)
        if isinstance(node, ast.Starred):
            return self._deterministic(node.value)
        if isinstance(node, ast.Call):
            func = node.func
            return (
                isinstance(func, ast.Name)
                and func.id in _PURE_BUILTINS
                and all(self._deterministic(a) for a in node.args)
                and all(self._deterministic(k.value) for k in node.keywords)
            )
        return False

    def _is_set_expr(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name):
            return node.id in self.set_names
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
                return True
            if isinstance(func, ast.Attribute) and func.attr in (
                "union", "intersection", "difference", "symmetric_difference"
            ):
                return self._is_set_expr(func.value)
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return self._is_set_expr(node.left) or self._is_set_expr(node.right)
        return False

    def _check_iteration(self, iter_node: ast.expr) -> None:
        node = iter_node
        while (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in _ITER_WRAPPERS
            and node.args
        ):
            node = node.args[0]
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and (
            node.func.id == "sorted"
        ):
            return
        if self._is_set_expr(node):
            detail = _dotted_name(node) or type(node).__name__
            self.set_iterations.append(
                SetIteration(line=iter_node.lineno, detail=detail)
            )

    # -- statement-order dataflow --------------------------------------------

    def visit_Assign(self, node: ast.Assign) -> None:
        self._track_assignment(node.targets, node.value)
        self._check_store_targets(node.targets, node.lineno)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._track_assignment([node.target], node.value)
            if isinstance(node.target, ast.Name):
                if _is_set_annotation(node.annotation):
                    self.set_names.add(node.target.id)
                refs = _annotation_classes(node.annotation)
                if refs:
                    self.var_types[node.target.id] = refs
            self._check_store_targets([node.target], node.lineno)
        self.generic_visit(node)

    def _track_assignment(self, targets: list[ast.expr], value: ast.expr) -> None:
        if len(targets) == 1 and isinstance(targets[0], ast.Name):
            name = targets[0].id
            if self._deterministic(value):
                self.det_names.add(name)
            else:
                self.det_names.discard(name)
            if self._is_set_expr(value):
                self.set_names.add(name)
            else:
                self.set_names.discard(name)
            expanded = (
                self._expanded(value.func)
                if isinstance(value, ast.Call)
                else None
            )
            if expanded is not None and expanded.split(".")[-1] == "ProcessPoolExecutor":
                self.pool_names.add(name)
            # `x = Ctor(...) if cond else None` still types x
            ctor_value = value
            if isinstance(value, ast.IfExp):
                for branch in (value.body, value.orelse):
                    if isinstance(branch, ast.Call):
                        ctor_value = branch
                        break
            if isinstance(ctor_value, ast.Call):
                ctor = _dotted_name(ctor_value.func)
                if ctor is not None and ctor.split(".")[-1][:1].isupper():
                    self.var_types[name] = (ctor,)
                else:
                    self.var_types.pop(name, None)
            elif not isinstance(value, ast.Name):
                self.var_types.pop(name, None)

    def _check_store_targets(self, targets: list[ast.expr], line: int) -> None:
        """Item/attribute stores and rebinds that hit module-global state."""
        for target in targets:
            for sub in ast.walk(target):
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store):
                    if sub.id in self.declared_globals:
                        self.global_writes.append(
                            GlobalWrite(name=sub.id, line=line, kind="rebind")
                        )
                    elif sub.id in self.declared_nonlocals:
                        self.global_writes.append(
                            GlobalWrite(name=sub.id, line=line, kind="rebind")
                        )
                elif isinstance(sub, ast.Subscript) and isinstance(sub.ctx, ast.Store):
                    base = sub.value
                    if isinstance(base, ast.Name) and self._is_module_global(base.id):
                        self.global_writes.append(
                            GlobalWrite(name=base.id, line=line, kind="mutation")
                        )
                    else:
                        self._record_attr_write(sub, line)
                elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store):
                    base = sub.value
                    if isinstance(base, ast.Name) and base.id != "self" and (
                        self._is_module_global(base.id)
                        or base.id in self.info.classes
                    ):
                        self.global_writes.append(
                            GlobalWrite(name=base.id, line=line, kind="mutation")
                        )
                    else:
                        self._record_attr_write(sub, line)

    def _record_attr_write(self, node: ast.expr, line: int, suffix: str = "") -> None:
        """Attribute-level mutation tracking (flow v2): resolve the chain's
        root name and classify it as shared module state or a parameter.

        Catches what the direct base-``Name`` checks cannot: mutations
        through dataclass fields of module-level instances
        (``CONFIG.limits.max = 1``, ``CONFIG.items.append(x)``) and
        mutations of caller-visible state through parameters (the
        exception-path retry-replay hazard's ingredient).
        """
        chain = _chain_root(node)
        if chain is None:
            return
        root, attr = chain
        if root in ("self", "cls"):
            return
        if suffix:
            attr = f"{attr}.{suffix}" if attr else suffix
        if root in self.params:
            kind = "param"
        elif root not in self.local_bindings and (
            root in self.info.mutable_globals
            or root in self.info.instance_globals
            or root in self.declared_globals
        ):
            kind = "global"
        else:
            return
        self.attr_writes.append(
            AttrWrite(root=root, attr=attr, line=line, root_kind=kind)
        )

    def visit_Raise(self, node: ast.Raise) -> None:
        self.raises.append(node.lineno)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        target = node.target
        if isinstance(target, ast.Name):
            if target.id in self.declared_globals or target.id in self.declared_nonlocals:
                self.global_writes.append(
                    GlobalWrite(name=target.id, line=node.lineno, kind="rebind")
                )
            self.det_names.discard(target.id)
        else:
            self._check_store_targets([target], node.lineno)
        self.generic_visit(node)

    def visit_For(self, node: ast.For) -> None:
        self._check_iteration(node.iter)
        if isinstance(node.target, ast.Name) and self._deterministic(node.iter):
            self.det_names.add(node.target.id)
        self._check_store_targets([node.target], node.lineno)
        self.generic_visit(node)

    def visit_AsyncFor(self, node: ast.AsyncFor) -> None:
        self._check_iteration(node.iter)
        self.generic_visit(node)

    def visit_comprehension(self, node: ast.comprehension) -> None:
        self._check_iteration(node.iter)
        self.generic_visit(node)

    def visit_With(self, node: ast.With) -> None:
        self._track_with_items(node.items)
        self.generic_visit(node)

    def visit_AsyncWith(self, node: ast.AsyncWith) -> None:
        self._track_with_items(node.items)
        self.generic_visit(node)

    def _track_with_items(self, items: list[ast.withitem]) -> None:
        for item in items:
            if isinstance(item.optional_vars, ast.Name) and isinstance(
                item.context_expr, ast.Call
            ):
                expanded = self._expanded(item.context_expr.func)
                if expanded is not None and (
                    expanded.split(".")[-1] == "ProcessPoolExecutor"
                ):
                    self.pool_names.add(item.optional_vars.id)

    # -- calls: graph edges, RNG, dispatch -----------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        dotted = _dotted_name(node.func)
        if dotted is not None:
            self.calls.append(CallSite(callee=dotted, line=node.lineno))
            # typed method call: `obj.meth()` where obj's class is known
            # from an annotation or constructor assignment
            head, _, rest = dotted.partition(".")
            if rest and "." not in rest and head in self.var_types:
                for ref in self.var_types[head]:
                    self.calls.append(
                        CallSite(callee=f"{ref}.{rest}", line=node.lineno)
                    )
            expanded = self._expand(dotted)
            self._check_rng(node, expanded)
            self._check_dispatch(node, expanded)
        if isinstance(node.func, ast.Attribute) and (
            node.func.attr in _MUTATING_METHODS
        ):
            base = node.func.value
            if isinstance(base, ast.Name) and self._is_module_global(base.id):
                self.global_writes.append(
                    GlobalWrite(name=base.id, line=node.lineno, kind="mutation")
                )
            else:
                self._record_attr_write(
                    base, node.lineno, suffix=f"{node.func.attr}()"
                )
        self.generic_visit(node)

    def _check_rng(self, node: ast.Call, expanded: str) -> None:
        if expanded != "numpy.random.default_rng":
            return
        seed_exprs = [*node.args, *[k.value for k in node.keywords]]
        if not all(self._deterministic(e) for e in seed_exprs):
            self.rng_uses.append(
                RngUse(
                    line=node.lineno,
                    detail="seed expression not derived from a seed "
                    "parameter or module constant",
                )
            )

    def _payload_expr(self, node: ast.expr) -> ast.expr:
        """Unwrap ``functools.partial(fn, ...)`` to the inner callable."""
        if isinstance(node, ast.Call):
            dotted = _dotted_name(node.func)
            if dotted is not None and dotted.split(".")[-1] == "partial" and node.args:
                return node.args[0]
        return node

    def _check_dispatch(self, node: ast.Call, expanded: str) -> None:
        tail = expanded.split(".")[-1]
        is_map_det = tail in ("map_deterministic", "run_supervised")
        is_pool_method = False
        if isinstance(node.func, ast.Attribute) and node.func.attr in ("submit", "map"):
            base = node.func.value
            is_pool_method = isinstance(base, ast.Name) and base.id in self.pool_names
        if not (is_map_det or is_pool_method):
            return
        if not node.args:
            return
        payload = self._payload_expr(node.args[0])
        if isinstance(payload, ast.Lambda):
            self.payload_risks.append(
                PayloadRisk(line=node.lineno, kind="lambda", detail="lambda payload")
            )
        else:
            dotted = _dotted_name(payload)
            if dotted is not None and dotted in self.nested_functions:
                self.payload_risks.append(
                    PayloadRisk(
                        line=node.lineno,
                        kind="nested-function",
                        detail=f"nested function {dotted!r} is not picklable",
                    )
                )
            elif dotted is not None:
                self.dispatches.append(DispatchSite(callee=dotted, line=node.lineno))
            else:
                # dynamic payload (computed callable, subscript, call result):
                # unresolvable by name — --strict-roots refuses these (ABG333)
                self.dispatches.append(DispatchSite(callee="", line=node.lineno))
        for arg in [*node.args[1:], *[k.value for k in node.keywords]]:
            for sub in ast.walk(arg):
                if isinstance(sub, ast.Lambda):
                    self.payload_risks.append(
                        PayloadRisk(
                            line=sub.lineno,
                            kind="lambda",
                            detail="lambda in pool arguments",
                        )
                    )
                elif (
                    isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Name)
                    and sub.func.id == "open"
                ):
                    self.payload_risks.append(
                        PayloadRisk(
                            line=sub.lineno,
                            kind="open-handle",
                            detail="open file handle in pool arguments",
                        )
                    )

    def summary(self) -> FunctionSummary:
        self.visit(self.node)
        is_property = any(
            (name := _dotted_name(dec)) is not None
            and name.split(".")[-1] in ("property", "cached_property")
            for dec in self.node.decorator_list
        )
        return FunctionSummary(
            qualname=self.qualname,
            line=self.node.lineno,
            params=self.params,
            defaults=self.defaults,
            is_property=is_property,
            calls=tuple(self.calls),
            global_writes=tuple(self.global_writes),
            rng_uses=tuple(self.rng_uses),
            set_iterations=tuple(self.set_iterations),
            payload_risks=tuple(self.payload_risks),
            dispatches=tuple(self.dispatches),
            attr_writes=tuple(self.attr_writes),
            raises=tuple(self.raises),
        )


def summarize_module(source: str, path: str, module: str | None = None) -> ModuleInfo:
    """Parse one file and extract its :class:`ModuleInfo`.

    Raises :class:`SyntaxError` when the file does not parse — callers
    (the analysis driver) convert that into an ``ABG100`` finding.
    """
    if module is None:
        module = module_name_for_path(path)
    is_package = path.endswith("__init__.py")
    tree = ast.parse(source, filename=path)
    info = ModuleInfo(module=module, path=path)

    constants: list[str] = []
    mutables: list[str] = []
    instance_globals: list[str] = []
    classes: dict[str, tuple[str, ...]] = {}
    class_attrs: dict[str, tuple[str, ...]] = {}

    def _is_instance_ctor(value: ast.expr) -> bool:
        """``NAME = Ctor(...)`` at module level: shared instance state."""
        if not isinstance(value, ast.Call):
            return False
        ctor = _dotted_name(value.func)
        return ctor is not None and ctor.split(".")[-1][:1].isupper()

    for stmt in tree.body:
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                if alias.asname:
                    info.imports[alias.asname] = alias.name
                else:
                    top = alias.name.split(".")[0]
                    info.imports[top] = top
        elif isinstance(stmt, ast.ImportFrom):
            base = _resolve_from_import(module, is_package, stmt)
            for alias in stmt.names:
                if alias.name == "*":
                    continue
                bound = alias.asname or alias.name
                info.aliases[bound] = f"{base}.{alias.name}" if base else alias.name
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = (
                stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            )
            value = stmt.value
            if value is None:
                continue
            for target in targets:
                if isinstance(target, ast.Name):
                    if _literal_value(value):
                        constants.append(target.id)
                    elif _mutable_value(value):
                        mutables.append(target.id)
                    elif _is_instance_ctor(value):
                        instance_globals.append(target.id)
        elif isinstance(stmt, ast.ClassDef):
            bases = tuple(
                name
                for base in stmt.bases
                if (name := _dotted_name(base)) is not None
            )
            classes[stmt.name] = bases
            attrs: list[str] = []
            for sub in stmt.body:
                if isinstance(sub, ast.Assign):
                    attrs.extend(
                        t.id for t in sub.targets if isinstance(t, ast.Name)
                    )
                elif isinstance(sub, ast.AnnAssign) and isinstance(
                    sub.target, ast.Name
                ):
                    attrs.append(sub.target.id)
            class_attrs[stmt.name] = tuple(attrs)

    info.constants = tuple(constants)
    info.mutable_globals = tuple(mutables)
    info.instance_globals = tuple(instance_globals)
    info.classes = classes
    info.class_attrs = class_attrs

    def _scan(node: ast.FunctionDef | ast.AsyncFunctionDef, qualname: str) -> None:
        info.functions[qualname] = _FunctionScanner(info, qualname, node).summary()

    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            _scan(stmt, stmt.name)
        elif isinstance(stmt, ast.ClassDef):
            for sub in stmt.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qualname = f"{stmt.name}.{sub.name}"
                    # a property setter/deleter shares the getter's dotted
                    # name; key it separately so the getter's summary (and
                    # its call edges) survives the collision
                    if any(
                        isinstance(dec, ast.Attribute)
                        and dec.attr in ("setter", "deleter")
                        for dec in sub.decorator_list
                    ):
                        qualname = f"{qualname}.setter"
                    _scan(sub, qualname)

    return info
