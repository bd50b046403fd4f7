"""Printer output, hardware parameters and codegen coverage."""

import pytest

from repro.ir.printer import format_computation
from repro.model.hardware_params import get_hardware, list_hardware

from conftest import make_small_conv2d, make_small_gemm


class TestPrinter:
    def test_conv_loop_nest(self):
        text = format_computation(make_small_conv2d())
        assert "# conv2d" in text
        assert "for n in range(1):  # spatial" in text
        assert "for c in range(3):  # reduce" in text
        assert "+=" in text
        assert "image[n, c, (p + r), (q + s)]" in text

    def test_gemm_body(self):
        text = format_computation(make_small_gemm())
        assert "out[i, j] += A[i, k] * B[k, j]" in text

    def test_identity_copy(self):
        from repro.ir import Tensor, compute, spatial_axis

        i = spatial_axis(4, "i")
        a, out = Tensor("A", (4,)), Tensor("out", (4,))
        comp = compute("copy", [i], out[i], [a[i]], combine="identity", reduce=None)
        text = format_computation(comp)
        assert "out[i] = A[i]" in text


class TestHardwareParams:
    def test_all_devices_resolve(self):
        for name in list_hardware():
            hw = get_hardware(name)
            assert hw.peak_intrinsic_flops > 0
            assert hw.peak_scalar_flops > 0
            assert hw.peak_intrinsic_flops > hw.peak_scalar_flops

    def test_v100_peak_matches_spec(self):
        # ~125 TFLOP/s fp16 Tensor Core peak.
        hw = get_hardware("v100")
        assert hw.peak_intrinsic_flops == pytest.approx(125e12, rel=0.05)

    def test_a100_peak_matches_spec(self):
        hw = get_hardware("a100")
        assert hw.peak_intrinsic_flops == pytest.approx(312e12, rel=0.05)

    def test_with_overrides_copies(self):
        hw = get_hardware("v100")
        fast = hw.with_overrides(clock_ghz=3.0)
        assert fast.clock_ghz == 3.0
        assert hw.clock_ghz != 3.0
        assert fast.num_cores == hw.num_cores

    def test_unknown_device(self):
        with pytest.raises(KeyError, match="unknown hardware"):
            get_hardware("h100")


class TestCodegenCoverage:
    def test_cuda_kernel_structure(self, tensorcore):
        from repro.codegen import emit_kernel
        from repro.mapping.generation import enumerate_mappings
        from repro.mapping.physical import lower_to_physical
        from repro.schedule import default_schedule, lower_schedule

        comp = make_small_conv2d(2, 16, 16, 8, 8)
        phys = lower_to_physical(enumerate_mappings(comp, tensorcore)[0])
        sched = lower_schedule(phys, default_schedule(phys))
        source = emit_kernel(sched, get_hardware("v100"))
        # Structural landmarks of the emitted kernel.
        assert source.count("{") == source.count("}")
        assert "wmma::fill_fragment" in source
        assert "load_matrix_sync" in source
        assert "store_matrix_sync" in source
        assert "__shared__" in source
        assert "k_outer" in source

    def test_c_kernel_for_mali(self):
        from repro.codegen import emit_c_kernel
        from repro.isa import get_intrinsic
        from repro.mapping.generation import enumerate_mappings
        from repro.mapping.physical import lower_to_physical
        from repro.schedule import default_schedule, lower_schedule

        from conftest import make_small_depthwise

        comp = make_small_depthwise(1, 8, 4, 4)
        simd = get_intrinsic("mali_dot_simd_4x4")
        phys = lower_to_physical(enumerate_mappings(comp, simd)[0])
        sched = lower_schedule(phys, default_schedule(phys))
        source = emit_c_kernel(sched, get_hardware("mali_g76"))
        assert "arm_dot" in source
        assert source.count("{") == source.count("}")
