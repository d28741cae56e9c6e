"""Unit tests for the RPA lint rules.

Every rule gets a minimal positive fixture (source that must be flagged)
and a negative fixture (source that must pass), run through the real
:class:`~repro.analyze.engine.SourceFile` parsing so suppression handling
and scope tracking are exercised too.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest

from repro.analyze import RULE_REGISTRY
from repro.analyze.engine import SourceFile, Violation
from repro.analyze.rules import (
    ALLOC_CALLS,
    HOT_MODULES,
    BoundaryRule,
    DirectMatmulRule,
    HotPathAllocationRule,
    ImplicitFloat64Rule,
    LockDisciplineRule,
    MissingProfiledRule,
    UnseededRandomRule,
)


def lint(rule_cls, source: str, relpath: str = "src/repro/example.py") -> list[Violation]:
    """Run one rule over a source string at a pretend repo path."""
    text = textwrap.dedent(source)
    src = SourceFile(Path(relpath), relpath, text)
    return rule_cls(src).run()


class TestRegistry:
    def test_all_eleven_rules_registered(self):
        import repro.analyze.concurrency  # noqa: F401 — registers RPA010-013

        assert set(RULE_REGISTRY) == {
            "RPA002", "RPA003", "RPA004", "RPA005", "RPA006",
            "RPA007", "RPA008",
            "RPA010", "RPA011", "RPA012", "RPA013",
        }

    def test_rules_carry_summary_and_rationale(self):
        for code, cls in RULE_REGISTRY.items():
            assert cls.code == code
            assert cls.summary and cls.rationale


class TestHotPathAllocationRule:
    def test_flags_np_alloc_in_profiled_function(self):
        src = """
        @profiled("op.forward")
        def op(x):
            return np.zeros(x.shape)
        """
        (hit,) = lint(HotPathAllocationRule, src)
        assert hit.code == "RPA002"
        assert "np.zeros" in hit.message

    def test_flags_astype_and_bare_copy(self):
        # Any receiver counts, including a call result or an expression.
        src = """
        @profiled("op")
        def op(x, rng, keep, s):
            y = x.astype(np.float32)
            z = x.copy()
            a = np.where(x > 0, 1.0, 0.5).astype(x.dtype)
            m = (rng.random(s) < keep).astype(x.dtype)
            b = np.broadcast_to(x, s).copy()
            return y, z, a, m, b
        """
        hits = lint(HotPathAllocationRule, src)
        assert [h.line for h in hits] == [4, 5, 6, 7, 8]

    def test_alloc_outside_profiled_function_passes(self):
        src = """
        def cold(x):
            return np.zeros(x.shape)
        """
        assert lint(HotPathAllocationRule, src) == []

    def test_nested_unprofiled_inherits_hot_context(self):
        src = """
        @profiled("op")
        def op(x):
            def inner():
                return np.empty(4)
            return inner()
        """
        assert len(lint(HotPathAllocationRule, src)) == 1

    def test_noqa_with_justification_suppresses(self):
        src = """
        @profiled("op")
        def op(x):
            out = np.empty(x.shape)  # repro: noqa[RPA002] forward output buffer
            return out
        """
        assert lint(HotPathAllocationRule, src) == []

    def test_all_alloc_calls_covered(self):
        for fn in ALLOC_CALLS:
            src = f"@profiled('op')\ndef op(x):\n    return np.{fn}(x)\n"
            assert len(lint(HotPathAllocationRule, src)) == 1, fn


class TestUnseededRandomRule:
    def test_flags_global_rng(self):
        (hit,) = lint(UnseededRandomRule, "x = np.random.rand(3)\n")
        assert hit.code == "RPA003"
        assert "global RNG" in hit.message

    def test_flags_unseeded_default_rng(self):
        hits = lint(
            UnseededRandomRule,
            "a = np.random.default_rng()\nb = np.random.default_rng(None)\n",
        )
        assert len(hits) == 2

    def test_seeded_default_rng_passes(self):
        src = "rng = np.random.default_rng(0)\nrng2 = np.random.default_rng(seed)\n"
        assert lint(UnseededRandomRule, src) == []

    def test_data_modules_exempt(self):
        src = "x = np.random.rand(3)\n"
        assert lint(UnseededRandomRule, src, relpath="src/repro/data/synth_mnist.py") == []

    def test_injected_generator_method_passes(self):
        # rng.normal(...) is a bound Generator method, not np.random.*
        assert lint(UnseededRandomRule, "x = rng.normal(0, 1, size=3)\n") == []

    def test_scope_is_recorded(self):
        src = """
        class Pruner:
            def step(self):
                self.noise = np.random.rand(3)
        """
        (hit,) = lint(UnseededRandomRule, src)
        assert hit.scope == "Pruner.step"


class TestImplicitFloat64Rule:
    def test_flags_dtypeless_float_literal_array(self):
        hits = lint(
            ImplicitFloat64Rule,
            "a = np.array([0.5, 0.5])\nb = np.asarray([1.0, 2.0])\n",
        )
        assert [h.code for h in hits] == ["RPA004", "RPA004"]

    def test_flags_astype_builtin_float(self):
        (hit,) = lint(ImplicitFloat64Rule, "y = x.astype(float)\n")
        assert "float64 in disguise" in hit.message

    def test_explicit_dtype_passes(self):
        src = """
        a = np.array([0.5], dtype=np.float32)
        b = np.array([0.5], dtype=np.float64)  # explicit is fine
        c = np.asarray(x, dtype=np.float32)
        d = x.astype(np.float32)
        """
        assert lint(ImplicitFloat64Rule, src) == []

    def test_integer_literals_pass(self):
        assert lint(ImplicitFloat64Rule, "a = np.array([1, 2, 3])\n") == []


class TestMissingProfiledRule:
    HOT = "src/repro/tensor/conv.py"

    def test_flags_bare_public_function_in_hot_module(self):
        (hit,) = lint(MissingProfiledRule, "def conv_thing(x):\n    return x\n", self.HOT)
        assert hit.code == "RPA005"
        assert "conv_thing" in hit.message

    def test_profiled_decorator_passes(self):
        src = """
        @profiled("conv2d.forward")
        def conv_thing(x):
            return x
        """
        assert lint(MissingProfiledRule, src, self.HOT) == []

    def test_profiled_region_passes(self):
        src = """
        def conv_thing(x):
            with profiled("conv2d.forward"):
                return x
        """
        assert lint(MissingProfiledRule, src, self.HOT) == []

    def test_private_and_methods_exempt(self):
        src = """
        def _helper(x):
            return x

        class Layer:
            def forward(self, x):
                return x
        """
        assert lint(MissingProfiledRule, src, self.HOT) == []

    def test_cold_modules_exempt(self):
        src = "def anything(x):\n    return x\n"
        assert lint(MissingProfiledRule, src, "src/repro/train/trainer.py") == []

    @pytest.mark.parametrize("relpath", HOT_MODULES)
    def test_applies_to_every_hot_module(self, relpath):
        src = "def new_op(x):\n    return x\n"
        assert len(lint(MissingProfiledRule, src, f"src/repro/{relpath}")) == 1


class TestLockDisciplineRule:
    SERVE = "src/repro/serve/example.py"

    def test_flags_bare_acquire_in_serve(self):
        hits = lint(LockDisciplineRule, "self._lock.acquire()\n", self.SERVE)
        assert len(hits) == 1
        assert hits[0].code == "RPA006"
        assert "with" in hits[0].message

    def test_flags_assigned_acquire(self):
        src = "ok = cond.acquire(timeout=1.0)\nprint(ok)\n"
        assert len(lint(LockDisciplineRule, src, self.SERVE)) == 1

    def test_with_statement_is_clean(self):
        src = """
        with self._lock:
            shared += 1
        """
        assert lint(LockDisciplineRule, src, self.SERVE) == []

    def test_try_finally_release_is_clean(self):
        src = """
        lock.acquire()
        try:
            shared += 1
        finally:
            lock.release()
        """
        assert lint(LockDisciplineRule, src, self.SERVE) == []

    def test_finally_releasing_other_lock_still_flagged(self):
        src = """
        lock.acquire()
        try:
            shared += 1
        finally:
            other_lock.release()
        """
        assert len(lint(LockDisciplineRule, src, self.SERVE)) == 1

    def test_acquire_without_adjacent_release_flagged(self):
        src = """
        def handler(self):
            self._cond.acquire()
            do_work()
            self._cond.release()
        """
        assert len(lint(LockDisciplineRule, src, self.SERVE)) == 1

    def test_nested_blocks_scanned(self):
        src = """
        def f(self):
            if ready:
                while True:
                    self._lock.acquire()
        """
        assert len(lint(LockDisciplineRule, src, self.SERVE)) == 1

    def test_domain_acquire_apis_not_confused_with_locks(self):
        # ModelRegistry.acquire checks out a model; not a lock.
        src = "handle = registry.acquire(digest)\n"
        assert lint(LockDisciplineRule, src, self.SERVE) == []

    def test_outside_serve_is_exempt(self):
        src = "self._lock.acquire()\n"
        assert lint(LockDisciplineRule, src, "src/repro/train/trainer.py") == []

    def test_noqa_suppression(self):
        src = "startup_lock.acquire()  # repro: noqa[RPA006] held for process lifetime\n"
        assert lint(LockDisciplineRule, src, self.SERVE) == []


class TestDirectMatmulRule:
    NN = "src/repro/nn/example.py"
    ANALYSIS = "src/repro/analysis/example.py"

    def test_flags_np_matmul_call_in_nn(self):
        (hit,) = lint(DirectMatmulRule, "y = np.matmul(a, b)\n", self.NN)
        assert hit.code == "RPA007"
        assert "kernel registry" in hit.message

    @pytest.mark.parametrize("fn", ["dot", "einsum", "tensordot", "inner", "vdot"])
    def test_flags_every_gemm_free_function(self, fn):
        assert len(lint(DirectMatmulRule, f"y = np.{fn}(a, b)\n", self.NN)) == 1

    def test_flags_matmult_on_ndarray_evidence(self):
        # `.data` operands are raw ndarrays: the product bypasses dispatch.
        assert len(lint(DirectMatmulRule, "y = x.data @ w\n", self.NN)) == 1
        assert len(lint(DirectMatmulRule, "y = np.ones(3) @ w\n", self.NN)) == 1

    def test_bare_tensor_matmult_not_flagged_in_nn(self):
        # Tensor.__matmul__ already dispatches; a bare `x @ y` in nn/ is fine.
        assert lint(DirectMatmulRule, "y = x @ w\n", self.NN) == []

    def test_every_matmult_flagged_in_analysis(self):
        # analysis/ never holds Tensors, so every `@` there is an ndarray
        # product (the PCA helpers are the baselined exceptions).
        assert len(lint(DirectMatmulRule, "y = x @ w\n", self.ANALYSIS)) == 1

    def test_core_dir_guarded(self):
        assert len(lint(DirectMatmulRule, "y = np.dot(a, b)\n", "src/repro/core/x.py")) == 1

    def test_kernels_package_exempt(self):
        # The kernels themselves are the only legitimate raw-GEMM call sites.
        src = "y = np.matmul(a, b)\n"
        assert lint(DirectMatmulRule, src, "src/repro/tensor/kernels/fast.py") == []

    def test_noqa_suppression(self):
        src = "y = np.matmul(a, b)  # repro: noqa[RPA007] offline helper\n"
        assert lint(DirectMatmulRule, src, self.NN) == []

    def test_non_numpy_dot_not_flagged(self):
        assert lint(DirectMatmulRule, "s = text.dot(thing)\n", self.NN) == []


class TestBoundaryRule:
    TRAIN = "src/repro/train/example.py"
    PARALLEL = "src/repro/parallel/example.py"
    SERVE = "src/repro/serve/example.py"
    CORE = "src/repro/core/example.py"
    SPARSE = "src/repro/tensor/kernels/sparse.py"
    SPARSE_SIBLING = "src/repro/tensor/kernels/sparse_block.py"

    # multiprocessing belongs in repro.parallel

    def test_flags_plain_import(self):
        (hit,) = lint(BoundaryRule, "import multiprocessing\n", self.TRAIN)
        assert hit.code == "RPA008"
        assert "repro.parallel" in hit.message

    def test_flags_submodule_import(self):
        src = "import multiprocessing.shared_memory\n"
        assert len(lint(BoundaryRule, src, self.TRAIN)) == 1

    def test_flags_from_import(self):
        src = "from multiprocessing import shared_memory, Barrier\n"
        (hit,) = lint(BoundaryRule, src, self.TRAIN)
        assert "shared_memory" in hit.message

    def test_flags_os_fork_call(self):
        (hit,) = lint(BoundaryRule, "pid = os.fork()\n", self.TRAIN)
        assert "os.fork" in hit.message

    def test_parallel_package_exempt(self):
        src = "from multiprocessing import shared_memory\npid = os.fork()\n"
        assert lint(BoundaryRule, src, self.PARALLEL) == []

    def test_unrelated_imports_not_flagged(self):
        src = "import threading\nfrom queue import Queue\nos.getpid()\n"
        assert lint(BoundaryRule, src, self.TRAIN) == []

    def test_noqa_suppression(self):
        src = "import multiprocessing  # repro: noqa[RPA008] doc example\n"
        assert lint(BoundaryRule, src, self.TRAIN) == []

    # scipy.sparse belongs in tensor/kernels/sparse

    def test_flags_scipy_sparse_import(self):
        (hit,) = lint(BoundaryRule, "import scipy.sparse\n", self.SERVE)
        assert hit.code == "RPA008"
        assert "tensor/kernels/sparse" in hit.message

    def test_flags_from_scipy_import_sparse(self):
        src = "from scipy import sparse\n"
        assert len(lint(BoundaryRule, src, self.CORE)) == 1

    def test_flags_from_scipy_sparse_import(self):
        src = "from scipy.sparse import csr_matrix\n"
        (hit,) = lint(BoundaryRule, src, self.SERVE)
        assert "csr_matrix" in hit.message

    def test_flags_constructor_call(self):
        (hit,) = lint(BoundaryRule, "m = sp.csr_matrix(w)\n", self.CORE)
        assert "pack_from_indices" in hit.message

    def test_flags_all_format_constructors(self):
        for ctor in ("csc_matrix", "coo_matrix", "bsr_matrix", "csr_array"):
            src = f"m = sp.{ctor}(w)\n"
            assert len(lint(BoundaryRule, src, self.SERVE)) == 1, ctor

    def test_sparse_module_exempt(self):
        src = "import scipy.sparse as _sp\nm = _sp.csr_matrix((d, i, p))\n"
        assert lint(BoundaryRule, src, self.SPARSE) == []
        # future block-CSR siblings stay in scope of the exemption
        assert lint(BoundaryRule, src, self.SPARSE_SIBLING) == []

    def test_packing_api_calls_not_flagged(self):
        src = "pack = sparse.pack_from_indices(shape, idx, vals)\n"
        assert lint(BoundaryRule, src, self.SERVE) == []

    def test_unrelated_scipy_not_flagged(self):
        src = "from scipy import linalg\nimport scipy.stats\n"
        assert lint(BoundaryRule, src, self.CORE) == []

    def test_sparse_noqa_suppression(self):
        src = "import scipy.sparse  # repro: noqa[RPA008] doc example\n"
        assert lint(BoundaryRule, src, self.SERVE) == []
