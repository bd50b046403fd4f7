"""Hardware abstraction: intrinsic definitions, kernels vs scalar semantics."""

import numpy as np
import pytest

from repro.isa import (
    get_intrinsic,
    intrinsics_for_target,
    list_intrinsics,
    register_intrinsic,
)
from repro.isa.abstraction import (
    MemoryStatement,
    direct_register_memory,
    shared_staged_memory,
)
from repro.isa.tensorcore import make_wmma_intrinsic


def all_intrinsics():
    return [get_intrinsic(name) for name in list_intrinsics()]


class TestRegistry:
    def test_builtin_intrinsics_present(self):
        names = list_intrinsics()
        assert "wmma_m16n16k16_f16" in names
        assert "avx512_dpbusds_16x4" in names
        assert "mali_dot_gemv_4x4" in names
        assert "vaxpy_32" in names

    def test_targets(self):
        tc = intrinsics_for_target("tensorcore")
        assert len(tc) == 3  # three WMMA fragment shapes
        assert all(i.target == "tensorcore" for i in tc)

    def test_unknown_intrinsic(self):
        with pytest.raises(KeyError, match="unknown intrinsic"):
            get_intrinsic("nope")

    def test_duplicate_registration_rejected(self):
        fresh = make_wmma_intrinsic(16, 16, 16)
        with pytest.raises(ValueError, match="already registered"):
            register_intrinsic(fresh)

    def test_reregistering_same_object_ok(self):
        intr = get_intrinsic("wmma_m16n16k16_f16")
        assert register_intrinsic(intr) is intr


class TestComputeAbstraction:
    @pytest.mark.parametrize("name", [
        "wmma_m16n16k16_f16", "wmma_m32n8k16_f16", "wmma_m8n32k16_f16",
        "avx512_dpbusds_16x4", "mali_dot_gemv_4x4", "mali_dot_simd_4x4",
        "vaxpy_32", "vgemv_16x16", "vconv_8x8x8",
    ])
    def test_kernel_matches_scalar_reference(self, name):
        """Every intrinsic's fast kernel must agree with its own scalar-
        format abstraction executed point by point."""
        intr = get_intrinsic(name)
        comp = intr.compute.computation
        rng = np.random.default_rng(42)
        feeds = {t.name: rng.standard_normal(t.shape) for t in comp.input_tensors}
        reference = comp.reference(feeds)
        dst = np.zeros(comp.output.tensor.shape)
        srcs = [feeds[t.name] for t in comp.input_tensors]
        got = intr.compute.apply(dst, *srcs)
        assert np.allclose(got, reference, atol=1e-9), name

    def test_problem_size(self):
        intr = get_intrinsic("wmma_m16n16k16_f16")
        assert intr.problem_size == (16, 16, 16)
        assert intr.macs_per_call() == 4096

    def test_access_matrix_mma(self):
        intr = get_intrinsic("wmma_m16n16k16_f16")
        z = intr.compute.access_matrix()
        # rows Dst, Src1, Src2; cols i1, i2, r1
        assert z.tolist() == [[1, 1, 0], [1, 0, 1], [0, 1, 1]]

    def test_operand_shapes(self):
        intr = get_intrinsic("wmma_m32n8k16_f16")
        assert intr.compute.operand_shape("Dst") == (32, 8)
        assert intr.compute.operand_shape("Src1") == (32, 16)
        assert intr.compute.operand_shape("Src2") == (16, 8)
        with pytest.raises(KeyError):
            intr.compute.operand_shape("Src9")


class TestMemoryAbstraction:
    def test_shared_staged(self):
        mem = shared_staged_memory(("Dst", "Src1", "Src2"), "Dst")
        assert mem.uses_shared()
        assert mem.load_scope("Src1") == "shared"
        stmts = mem.statements_for("Src1")
        assert [s.dst_scope for s in stmts] == ["shared", "reg"]
        assert not stmts[0].via_intrinsic  # global->shared is scalar code
        assert stmts[1].via_intrinsic      # load_matrix_sync

    def test_direct_register(self):
        mem = direct_register_memory(("Dst", "Src1", "Src2"), "Dst")
        assert not mem.uses_shared()
        assert mem.load_scope("Src1") == "global"

    def test_unknown_scope_rejected(self):
        with pytest.raises(ValueError, match="scope"):
            MemoryStatement("Src1", "l3", "global")

    def test_tensorcore_memory_is_staged(self):
        intr = get_intrinsic("wmma_m16n16k16_f16")
        assert intr.memory.uses_shared()

    def test_vector_unit_memory_is_direct(self):
        intr = get_intrinsic("avx512_dpbusds_16x4")
        assert not intr.memory.uses_shared()
