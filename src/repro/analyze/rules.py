"""Repo-specific per-file lint rules (RPA002-RPA008).

Each rule encodes one invariant the workspace-pool / deterministic-
regeneration design depends on (RPA006 guards the serving
layer's lock discipline, RPA007 the kernel-dispatch boundary, RPA008 the
table of module boundaries: process/shared memory and sparse formats).
These rules see one file at a time; the interprocedural concurrency
rules RPA010-RPA013 live in :mod:`repro.analyze.concurrency` and run
over the pass-1 package index instead.  See ``docs/static-analysis.md``
for the full catalog with rationale and the suppression syntax.
"""

from __future__ import annotations

import ast
from typing import NamedTuple

from repro.analyze.engine import (
    Rule,
    call_keywords,
    contains_float_constant,
    dotted_name,
    register_rule,
)
from repro.analyze.facts import GLOBAL_RNG_FNS, is_lock_name

__all__ = [
    "HotPathAllocationRule",
    "UnseededRandomRule",
    "ImplicitFloat64Rule",
    "MissingProfiledRule",
    "LockDisciplineRule",
    "DirectMatmulRule",
    "BoundaryRule",
    "BOUNDARIES",
    "HOT_MODULES",
    "ALLOC_CALLS",
]

#: Modules whose public functions are hot-path ops and must be profiled.
HOT_MODULES = (
    "tensor/conv.py",
    "tensor/functional.py",
    "tensor/kernels/reference.py",
    "tensor/kernels/fast.py",
    "core/selection.py",
)

#: numpy free functions that allocate a fresh buffer per call.
ALLOC_CALLS = frozenset(
    {"zeros", "empty", "ones", "full", "copy", "zeros_like", "empty_like", "ones_like"}
)


def _ends_with(path: str, suffixes: tuple[str, ...] | str) -> bool:
    if isinstance(suffixes, str):
        suffixes = (suffixes,)
    return any(path.endswith(s) for s in suffixes)


@register_rule
class HotPathAllocationRule(Rule):
    """RPA002: fresh allocations inside ``@profiled`` hot-path functions.

    Functions instrumented with ``@profiled`` are the per-step hot paths;
    a ``np.zeros``/``np.empty``/``.copy()``/``.astype()`` there is one
    allocation per training step per layer.  Use the conv workspace pool,
    a preallocated scratch buffer, or an ``out=`` argument — or suppress
    with a justification when the allocation is the op's output.
    """

    code = "RPA002"
    summary = "per-call allocation inside a @profiled hot-path function"
    rationale = (
        "Hot paths run once per layer per step; per-call allocations "
        "defeat the workspace pool and show up as GC churn. Reuse "
        "buffers (out=, acquire_workspace) or justify with a noqa."
    )

    def __init__(self, src):
        super().__init__(src)
        self._profiled_depth = 0

    @staticmethod
    def _is_profiled_decorator(dec: ast.AST) -> bool:
        if isinstance(dec, ast.Call):
            dec = dec.func
        name = dotted_name(dec)
        return name is not None and name.split(".")[-1] == "profiled"

    def scope_entered(self, node) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
            self._is_profiled_decorator(d) for d in node.decorator_list
        ):
            self._profiled_depth += 1
            node._rpa002_profiled = True  # noqa: SLF001 - private tag on our own AST

    def scope_exited(self, node) -> None:
        if getattr(node, "_rpa002_profiled", False):
            self._profiled_depth -= 1

    def visit_Call(self, node: ast.Call) -> None:
        if self._profiled_depth > 0 and isinstance(node.func, ast.Attribute):
            # Read the method off the attribute: a receiver that is a call or
            # an expression (`np.where(...).astype(...)`) has no dotted name.
            method = node.func.attr
            receiver = dotted_name(node.func.value)
            if receiver in ("np", "numpy") and method in ALLOC_CALLS:
                self.report(
                    node, f"`{receiver}.{method}(...)` allocates per call in a hot path"
                )
            elif method == "astype":
                self.report(node, "`.astype(...)` allocates per call in a hot path")
            elif method == "copy" and not node.args and not node.keywords:
                self.report(node, "`.copy()` allocates per call in a hot path")
        self.generic_visit(node)


@register_rule
class UnseededRandomRule(Rule):
    """RPA003: unseeded or global-state ``np.random`` use outside ``data/``.

    DropBack's untracked weights are *recomputed*, not stored: training
    must be a pure function of the experiment seeds.  The legacy
    ``np.random.*`` API draws from interpreter-global state, and
    ``default_rng()`` with no seed draws from the OS — either silently
    breaks the ``|w_t - w_0|`` regeneration criterion.  Construct a
    seeded ``np.random.default_rng(seed)`` and inject it.
    """

    code = "RPA003"
    summary = "unseeded / global-state np.random use breaks determinism"
    rationale = (
        "Untracked weights are regenerated from (seed, index); any "
        "global-RNG draw or OS-seeded generator in the training path "
        "makes runs irreproducible and the regeneration criterion drift."
    )

    #: Dataset synthesis owns its generators (they are seeded at the API
    #: boundary and tested for determinism).
    exempt_dirs = ("data/",)

    def _exempt(self) -> bool:
        return any(d in self.src.relpath for d in self.exempt_dirs)

    def visit_Call(self, node: ast.Call) -> None:
        if not self._exempt():
            name = dotted_name(node.func)
            if name is not None:
                parts = name.split(".")
                if len(parts) >= 3 and parts[0] in ("np", "numpy") and parts[1] == "random":
                    fn = parts[-1]
                    if fn in GLOBAL_RNG_FNS:
                        self.report(
                            node,
                            f"`{name}(...)` uses numpy's global RNG state; "
                            "inject a seeded np.random.default_rng instead",
                        )
                    elif fn in ("default_rng", "RandomState", "Generator") and self._unseeded(
                        node
                    ):
                        self.report(
                            node,
                            f"`{name}()` without a seed draws OS entropy; "
                            "pass an explicit seed",
                        )
        self.generic_visit(node)

    @staticmethod
    def _unseeded(node: ast.Call) -> bool:
        if not node.args and not node.keywords:
            return True
        first = node.args[0] if node.args else None
        return isinstance(first, ast.Constant) and first.value is None


@register_rule
class ImplicitFloat64Rule(Rule):
    """RPA004: implicit float64 promotion near the tensor boundary.

    The plane, parameters, and all tensor ops are float32.  A dtype-less
    ``np.array([0.5, ...])`` is float64; once it flows into a tensor op
    the write-through plane view silently *truncates* on store while any
    intermediate arithmetic upcasts — so regenerated and stored weights
    stop agreeing bitwise.  Spell the dtype (float32 at the model
    boundary; float64 only where numerically required, explicitly).
    """

    code = "RPA004"
    summary = "dtype-less float array literal promotes to float64"
    rationale = (
        "All training numerics are float32; implicit float64 "
        "intermediates break bit-determinism of the regeneration "
        "criterion and double memory traffic. Make the dtype explicit."
    )

    def visit_Call(self, node: ast.Call) -> None:
        name = dotted_name(node.func)
        if name is not None:
            head, _, tail = name.rpartition(".")
            if (
                head in ("np", "numpy")
                and tail in ("array", "asarray")
                and "dtype" not in call_keywords(node)
                and len(node.args) < 2  # second positional arg is dtype
                and node.args
                and contains_float_constant(node.args[0])
            ):
                self.report(
                    node,
                    f"`{name}(...)` with float literals and no dtype is float64; "
                    "pass dtype=np.float32 (or an explicit np.float64 if intended)",
                )
            elif tail == "astype" and node.args and not self._explicit_dtype(node.args[0]):
                self.report(
                    node,
                    "`.astype(float)` is float64 in disguise; "
                    "name the width explicitly (np.float32 / np.float64)",
                )
        self.generic_visit(node)

    @staticmethod
    def _explicit_dtype(arg: ast.AST) -> bool:
        """True unless the dtype argument is the bare builtin ``float``."""
        return not (isinstance(arg, ast.Name) and arg.id == "float")


@register_rule
class MissingProfiledRule(Rule):
    """RPA005: public hot-module functions missing ``@profiled``.

    The perf CI gate can only guard what the profiler sees.  Public
    module-level functions in the hot modules (conv, functional,
    selection) must either carry ``@profiled("...")`` or open a
    ``with profiled("...")`` region, so new ops never ship unmeasured.
    """

    code = "RPA005"
    summary = "public hot-module function is invisible to the profiler"
    rationale = (
        "The CI perf gate diffs profiler reports; an uninstrumented hot "
        "op can regress without tripping it. Decorate public functions "
        "in hot modules with @profiled (or open a profiled region)."
    )

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        if (
            _ends_with(self.src.relpath, HOT_MODULES)
            and not self._scope  # module-level only; methods are exempt
            and not node.name.startswith("_")
            and not self._instrumented(node)
        ):
            self.report(
                node,
                f"public function `{node.name}` in a hot module has no "
                "@profiled decorator or profiled region",
            )
        self._visit_scoped(node)

    @staticmethod
    def _instrumented(node: ast.FunctionDef) -> bool:
        for dec in node.decorator_list:
            if HotPathAllocationRule._is_profiled_decorator(dec):
                return True
        for sub in ast.walk(node):
            if isinstance(sub, ast.With):
                for item in sub.items:
                    ctx = item.context_expr
                    if isinstance(ctx, ast.Call) and HotPathAllocationRule._is_profiled_decorator(
                        ctx
                    ):
                        return True
        return False


@register_rule
class LockDisciplineRule(Rule):
    """RPA006: bare lock ``.acquire()`` in the serving layer.

    ``repro.serve`` is the repo's only multithreaded subsystem: worker
    threads, client futures, and the registry's LRU all share locks.  A
    lock acquired outside a ``with`` block (and not immediately wrapped
    in ``try``/``finally: ...release()``) leaks on any exception between
    acquire and release — and a leaked serving lock deadlocks every
    worker, which presents as requests timing out rather than a crash.
    Use ``with lock:`` so release is structural.

    The receiver is matched by name (``lock``/``cond``/``sem``/``mutex``
    substring, case-insensitive) so domain ``acquire`` APIs — e.g.
    ``ModelRegistry.acquire(digest)``, which checks out a model — are not
    confused with synchronization primitives.
    """

    code = "RPA006"
    summary = "bare lock .acquire() in repro.serve leaks the lock on exceptions"
    rationale = (
        "The serving layer is the only multithreaded subsystem; a lock "
        "acquired without `with` (or try/finally release) stays held if "
        "anything between acquire and release raises, deadlocking every "
        "worker thread. Structural release (`with lock:`) cannot leak."
    )

    #: Only the serving layer is in scope for this rule.
    serve_dirs = ("serve/",)

    def _applies(self) -> bool:
        return any(d in self.src.relpath for d in self.serve_dirs)

    # -- block scanning ------------------------------------------------- #
    # Bare-acquire detection is positional (is the *next* statement a
    # try/finally releasing the same lock?), so the rule walks statement
    # lists rather than individual nodes.

    def visit_Module(self, node: ast.Module) -> None:
        if self._applies():
            self._check_block(node.body)
        self.generic_visit(node)

    def scope_entered(self, node) -> None:
        if self._applies():
            self._check_block(node.body)

    def visit_If(self, node: ast.If) -> None:
        if self._applies():
            self._check_block(node.body)
            self._check_block(node.orelse)
        self.generic_visit(node)

    def visit_For(self, node: ast.For) -> None:
        if self._applies():
            self._check_block(node.body)
            self._check_block(node.orelse)
        self.generic_visit(node)

    def visit_While(self, node: ast.While) -> None:
        if self._applies():
            self._check_block(node.body)
            self._check_block(node.orelse)
        self.generic_visit(node)

    def visit_With(self, node: ast.With) -> None:
        if self._applies():
            self._check_block(node.body)
        self.generic_visit(node)

    def visit_Try(self, node: ast.Try) -> None:
        if self._applies():
            self._check_block(node.body)
            self._check_block(node.orelse)
            self._check_block(node.finalbody)
            for handler in node.handlers:
                self._check_block(handler.body)
        self.generic_visit(node)

    def _check_block(self, stmts: list[ast.stmt]) -> None:
        for i, stmt in enumerate(stmts):
            call = self._bare_acquire(stmt)
            if call is None:
                continue
            owner = dotted_name(call.func.value)
            nxt = stmts[i + 1] if i + 1 < len(stmts) else None
            if self._released_in_finally(nxt, owner):
                continue
            shown = owner or "<lock>"
            self.report(
                call,
                f"`{shown}.acquire()` without `with` or try/finally release; "
                f"use `with {shown}:` so the lock cannot leak on exceptions",
            )

    @staticmethod
    def _bare_acquire(stmt: ast.stmt) -> ast.Call | None:
        """The ``.acquire`` call if ``stmt`` is a bare/assigned acquire."""
        if isinstance(stmt, ast.Expr):
            value = stmt.value
        elif isinstance(stmt, ast.Assign):
            value = stmt.value
        else:
            return None
        if not (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Attribute)
            and value.func.attr == "acquire"
        ):
            return None
        owner = dotted_name(value.func.value) or ""
        if not is_lock_name(owner):
            return None
        return value

    @staticmethod
    def _released_in_finally(stmt: ast.stmt | None, owner: str | None) -> bool:
        """Whether ``stmt`` is a try/finally whose finalbody releases ``owner``."""
        if not isinstance(stmt, ast.Try) or not stmt.finalbody:
            return False
        for final_stmt in stmt.finalbody:
            for sub in ast.walk(final_stmt):
                if (
                    isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Attribute)
                    and sub.func.attr == "release"
                ):
                    rel_owner = dotted_name(sub.func.value)
                    if owner is None or rel_owner == owner:
                        return True
        return False


@register_rule
class DirectMatmulRule(Rule):
    """RPA007: raw GEMM calls that bypass the kernel-dispatch registry.

    Since the kernels package landed, every matrix product in model and
    training code is supposed to route through ``kernels.resolve`` — that
    is what makes ``REPRO_BACKEND=reference`` a trustworthy parity oracle
    and lets the perf gate attribute GEMM time per backend.  A direct
    ``np.matmul``/``@``/``np.einsum`` in ``nn/`` or ``core/`` silently
    pins that product to the default BLAS path on *every* backend.
    Intentional exceptions (e.g. the PCA analysis helpers, which are
    offline and backend-irrelevant) carry an inline ``noqa`` with the
    reason.
    """

    code = "RPA007"
    summary = "raw numpy GEMM bypasses the kernel-dispatch registry"
    rationale = (
        "Backend selection (REPRO_BACKEND / use_backend) only governs ops "
        "that resolve through repro.tensor.kernels; a direct np.matmul or "
        "ndarray @ in model/training code runs the same code on every "
        "backend, so reference-vs-fast parity no longer covers it and the "
        "per-backend perf counters under-report GEMM time."
    )

    #: Directories whose matrix products must go through the registry.
    guarded_dirs = ("nn/", "core/", "analysis/")

    #: Guarded directories that never hold Tensors — there, *every* ``@``
    #: is an ndarray product (nn/ and core/ mix Tensor ``@``, which
    #: already dispatches, so they get the evidence-based heuristic).
    ndarray_only_dirs = ("analysis/",)

    #: numpy free functions that perform a matrix product.
    _GEMM_CALLS = frozenset({"matmul", "dot", "einsum", "tensordot", "inner", "vdot"})

    def _applies(self) -> bool:
        return any(d in self.src.relpath for d in self.guarded_dirs)

    def visit_Call(self, node: ast.Call) -> None:
        if self._applies():
            name = dotted_name(node.func)
            if name is not None:
                head, _, tail = name.rpartition(".")
                if head in ("np", "numpy") and tail in self._GEMM_CALLS:
                    self.report(
                        node,
                        f"`{name}(...)` bypasses the kernel registry; build the "
                        "product from Tensor ops (or kernels.resolve('matmul'))",
                    )
        self.generic_visit(node)

    def visit_BinOp(self, node: ast.BinOp) -> None:
        if (
            self._applies()
            and isinstance(node.op, ast.MatMult)
            and (
                any(d in self.src.relpath for d in self.ndarray_only_dirs)
                or self._on_ndarray(node)
            )
        ):
            self.report(
                node,
                "ndarray `@` bypasses the kernel registry; build the product "
                "from Tensor ops (or kernels.resolve('matmul'))",
            )
        self.generic_visit(node)

    @staticmethod
    def _on_ndarray(node: ast.BinOp) -> bool:
        """Heuristic: ``a.data @ b`` / ``np.*`` operands are ndarray products;
        a bare ``x @ y`` is assumed to be Tensor.__matmul__ (which already
        dispatches) and left alone."""
        for side in (node.left, node.right):
            name = dotted_name(side)
            if name is not None and (name.endswith(".data") or name.startswith(("np.", "numpy."))):
                return True
            if isinstance(side, ast.Call):
                fn = dotted_name(side.func)
                if fn is not None and fn.startswith(("np.", "numpy.")):
                    return True
        return False


class Boundary(NamedTuple):
    """One RPA008 fence: ``module`` is used only in files under ``home``.

    Importing the module or any submodule counts as using it, and so does
    a call whose dotted name is, or ends in, one of ``calls`` (so
    ``sp.csr_matrix`` matches ``csr_matrix``).  ``hint`` says what to use
    instead.
    """

    module: str
    calls: tuple[str, ...]
    home: str
    hint: str


#: The fences RPA008 enforces; a new fence is one row.
BOUNDARIES = (
    # Fork/shared-memory lifecycle: barrier aborts, shm unlink ownership,
    # os._exit discipline in forked children.
    Boundary(
        module="multiprocessing",
        calls=("os.fork", "os.forkpty"),
        home="parallel/",
        hint="use repro.parallel's ParallelTrainer/SharedArena",
    ),
    # Packed-format invariants: int32 indices, view-keyed registration,
    # the density cutoff.
    Boundary(
        module="scipy.sparse",
        calls=tuple(
            f"{fmt}_{kind}"
            for fmt in ("csr", "csc", "coo", "bsr", "lil", "dok", "dia")
            for kind in ("matrix", "array")
        ),
        home="tensor/kernels/sparse",
        hint="use the sparse backend's packing API "
        "(pack_from_indices/register_weight)",
    ),
)


def _in_module(name: str, module: str) -> bool:
    return name == module or name.startswith(module + ".")


@register_rule
class BoundaryRule(Rule):
    """RPA008: a fenced module used outside its home package.

    Each row of :data:`BOUNDARIES` names a module whose obligations one
    package centralizes: process lifecycle in ``repro.parallel``, packed
    sparse formats in ``tensor/kernels/sparse*``.  Using the module
    anywhere else either duplicates that machinery or breaks its
    invariants on the paths it does not cover (leaked segments and
    zombies on worker crashes; copied values that go stale after frozen
    updates and skip the sparse parity/dispatch tests).
    """

    code = "RPA008"
    summary = "multiprocessing and scipy.sparse stay in their home packages"
    rationale = (
        "Process lifecycle is centralized in repro.parallel and packed "
        "sparse formats in tensor/kernels/sparse; using either module "
        "elsewhere leaks segments on worker crashes or builds structures "
        "whose values go stale and skip the parity/dispatch tests."
    )

    def __init__(self, src) -> None:
        super().__init__(src)
        self._rows = [row for row in BOUNDARIES if row.home not in src.relpath]

    def _flag(self, node: ast.AST, used: str, row: Boundary) -> None:
        self.report(node, f"`{used}` outside {row.home}; {row.hint}")

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            for row in self._rows:
                if _in_module(alias.name, row.module):
                    self._flag(node, f"import {alias.name}", row)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module is not None:
            names = [f"{node.module}.{alias.name}" for alias in node.names]
            listed = ", ".join(alias.name for alias in node.names)
            for row in self._rows:
                if any(_in_module(name, row.module) for name in names):
                    self._flag(node, f"from {node.module} import {listed}", row)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        name = dotted_name(node.func)
        if name is not None:
            for row in self._rows:
                if any(name == c or name.endswith("." + c) for c in row.calls):
                    self._flag(node, f"{name}()", row)
        self.generic_visit(node)
