"""Baseline compilers: library, fixed-mapping templates, XLA patterns."""

import pytest

from repro.baselines import LibraryBackend, XlaPatternMatcher, make_baseline
from repro.baselines.fixed_mappings import (
    FUSE_HW_SPEC,
    GEMM_SPEC,
    IM2COL_SPEC,
    BASELINE_FACTORIES,
    find_mapping,
)
from repro.baselines.xla_patterns import AmosCoverage
from repro.frontends.networks import NetworkOp, get_network
from repro.frontends.operators import make_operator
from repro.mapping.generation import enumerate_mappings
from repro.model import get_hardware


@pytest.fixture(scope="module")
def v100():
    return get_hardware("v100")


class TestFindMapping:
    def test_im2col_found_for_conv(self, tensorcore):
        comp = make_operator("C2D", n=2, c=4, k=4, h=6, w=6)
        mappings = enumerate_mappings(comp, tensorcore)
        found = find_mapping(comp, mappings, IM2COL_SPEC)
        assert found is not None
        groups = {
            iv.name: frozenset(m.name for m in found.group_iters(t))
            for t, iv in enumerate(found.intrinsic_iters)
        }
        assert groups["i1"] == {"n", "p", "q"}
        assert groups["r1"] == {"c", "r", "s"}

    def test_fuse_hw_found_for_conv(self, tensorcore):
        comp = make_operator("C2D", n=2, c=4, k=4, h=6, w=6)
        mappings = enumerate_mappings(comp, tensorcore)
        found = find_mapping(comp, mappings, FUSE_HW_SPEC)
        assert found is not None

    def test_gemm_spec_for_gemm(self, tensorcore):
        comp = make_operator("GMM", m=32, n=32, k=32)
        mappings = enumerate_mappings(comp, tensorcore)
        assert find_mapping(comp, mappings, GEMM_SPEC) is not None

    def test_spec_misses_depthwise(self, tensorcore):
        comp = make_operator("DEP", n=1, k=8, h=4, w=4)
        mappings = enumerate_mappings(comp, tensorcore)
        assert find_mapping(comp, mappings, IM2COL_SPEC) is None


class TestLibrary:
    def test_conv_uses_intrinsics(self, v100):
        comp = make_operator("C2D", n=2, c=16, k=16, h=8, w=8)
        kernel = LibraryBackend().compile(comp, v100)
        assert kernel.used_intrinsics

    def test_depthwise_falls_back_to_scalar(self, v100):
        comp = make_operator("DEP", n=1, k=16, h=8, w=8)
        kernel = LibraryBackend().compile(comp, v100)
        assert not kernel.used_intrinsics

    def test_gemv_falls_back(self, v100):
        comp = make_operator("GMV", m=64, k=64)
        kernel = LibraryBackend().compile(comp, v100)
        assert not kernel.used_intrinsics


class TestFixedMappingCompilers:
    def test_all_factories_construct(self):
        for name in BASELINE_FACTORIES:
            assert make_baseline(name).name == name

    def test_unknown_baseline(self):
        with pytest.raises(KeyError, match="unknown baseline"):
            make_baseline("tvm2")

    def test_unit_maps_conv_but_not_depthwise(self, v100):
        unit = make_baseline("unit")
        conv = make_operator("C2D", n=2, c=16, k=16, h=8, w=8)
        dep = make_operator("DEP", n=1, k=16, h=8, w=8)
        assert unit.compile(conv, v100).used_intrinsics
        assert not unit.compile(dep, v100).used_intrinsics

    def test_autotvm_nchw_conv_falls_back(self, v100):
        autotvm = make_baseline("autotvm")
        conv = make_operator("C2D", n=2, c=16, k=16, h=8, w=8)
        assert not autotvm.compile(conv, v100).used_intrinsics
        gemm = make_operator("GMM", m=32, n=32, k=32)
        assert autotvm.compile(gemm, v100).used_intrinsics

    def test_ansor_never_uses_intrinsics(self, v100):
        ansor = make_baseline("ansor")
        gemm = make_operator("GMM", m=32, n=32, k=32)
        assert not ansor.compile(gemm, v100).used_intrinsics

    def test_akg_maps_pointwise_only(self, v100):
        akg = make_baseline("akg")
        pointwise = make_operator("C2D", n=2, c=16, k=16, h=8, w=8, r=1, s=1)
        full = make_operator("C2D", n=2, c=16, k=16, h=8, w=8, r=3, s=3)
        assert akg.compile(pointwise, v100).used_intrinsics
        assert not akg.compile(full, v100).used_intrinsics

    def test_fixm1_slower_or_equal_to_amos(self, v100):
        from repro import amos_compile

        comp = make_operator("C2D", n=16, c=64, k=64, h=28, w=28)
        fixed = make_baseline("amos_fix_m1").compile(comp, v100)
        free = amos_compile(comp, v100)
        assert fixed.used_intrinsics
        # Full mapping exploration can only help (up to simulator noise).
        assert free.latency_us <= fixed.latency_us * 1.10


class TestXlaPatterns:
    def test_dense_conv_matches(self):
        xla = XlaPatternMatcher()
        op = NetworkOp("C2D", dict(n=1, c=64, k=64, h=28, w=28, r=3, s=3, stride=1))
        assert xla.matches(op)

    def test_strided_conv_fails(self):
        xla = XlaPatternMatcher()
        op = NetworkOp("C2D", dict(n=1, c=64, k=64, h=28, w=28, r=3, s=3, stride=2))
        assert not xla.matches(op)

    def test_small_channel_conv_fails(self):
        xla = XlaPatternMatcher()
        op = NetworkOp("C2D", dict(n=1, c=3, k=64, h=112, w=112, r=7, s=7, stride=1))
        assert not xla.matches(op)

    def test_matrix_vector_fails(self):
        xla = XlaPatternMatcher()
        assert not xla.matches(NetworkOp("GMV", dict(m=1000, k=512)))

    def test_depthwise_grouped_fail(self):
        xla = XlaPatternMatcher()
        assert not xla.matches(NetworkOp("DEP", dict(n=1, k=64, h=28, w=28)))
        assert not xla.matches(
            NetworkOp("GRP", dict(n=1, groups=8, c_per_group=8, k_per_group=8, h=28, w=28))
        )

    def test_coverage_on_mi_lstm_is_zero(self):
        xla = XlaPatternMatcher()
        report = xla.coverage("mi_lstm", get_network("mi_lstm"))
        assert report.mapped_ops == 0

    def test_amos_coverage_exceeds_xla_on_shufflenet(self):
        ops = get_network("shufflenet")
        xla = XlaPatternMatcher().coverage("shufflenet", ops)
        amos = AmosCoverage().coverage("shufflenet", ops)
        assert amos.mapped_ops > 3 * max(xla.mapped_ops, 1)
        assert amos.total_ops == xla.total_ops
