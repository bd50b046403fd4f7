"""Virtual accelerators of paper Sec 7.5: AXPY / GEMV / CONV units.

The paper demonstrates retargetability by counting distinct valid mapping
types of C3D onto the three new accelerators (15 / 7 / 31 in their
enumeration) and by compiling through them end to end.
"""

import numpy as np
import pytest

from repro import amos_compile, make_operator
from repro.explore.tuner import TunerConfig
from repro.isa import get_intrinsic
from repro.mapping.generation import enumerate_mappings
from repro.mapping.physical import lower_to_physical
from repro.sim import execute_mapping

from conftest import make_small_c3d


FAST = TunerConfig(population=8, generations=2, measure_top=8, refine_rounds=1)


class TestMappingCounts:
    def test_c3d_maps_onto_each_virtual_accelerator(self):
        """C3D must have a nonempty mapping space on every virtual unit;
        the GEMV unit — structurally between AXPY and CONV — must admit
        at least as many mappings as AXPY (absolute counts depend on the
        enumeration details, see DESIGN.md)."""
        comp = make_small_c3d()
        counts = {}
        for name in ("vaxpy_32", "vgemv_16x16", "vconv_8x8x8"):
            counts[name] = len(enumerate_mappings(comp, get_intrinsic(name)))
        assert all(c > 0 for c in counts.values()), counts
        assert counts["vgemv_16x16"] >= counts["vaxpy_32"]

    def test_gemv_unit_on_gemv_is_canonical(self):
        from conftest import make_small_gemv

        mappings = enumerate_mappings(
            make_small_gemv(), get_intrinsic("vgemv_16x16")
        )
        assert len(mappings) == 1


class TestFunctionalExecution:
    @pytest.mark.parametrize("name", ["vaxpy_32", "vgemv_16x16", "vconv_8x8x8"])
    def test_c3d_executes_correctly(self, name):
        comp = make_small_c3d(n=1, c=2, k=2, d=3, p=3, q=3, t=2, r=2, s=2)
        rng = np.random.default_rng(0)
        feeds = {t.name: rng.standard_normal(t.shape) for t in comp.input_tensors}
        reference = comp.reference(feeds)
        mappings = enumerate_mappings(comp, get_intrinsic(name))
        for mapping in mappings[:5]:
            got = execute_mapping(lower_to_physical(mapping), feeds)
            assert np.allclose(got, reference, atol=1e-9), mapping.describe()


class TestEndToEnd:
    @pytest.mark.parametrize(
        "hardware", ["axpy_accel", "gemv_accel", "conv_accel"]
    )
    def test_compile_c3d(self, hardware):
        comp = make_operator("C3D", n=1, c=4, k=4, d=4, h=6, w=6, t=2, r=2, s=2)
        kernel = amos_compile(comp, hardware, FAST)
        assert kernel.used_intrinsics
        assert kernel.latency_us > 0

    def test_registering_a_new_intrinsic_end_to_end(self, monkeypatch):
        """The extension story: a user-defined intrinsic becomes usable by
        the whole pipeline after one register_intrinsic call."""
        from repro import register_intrinsic
        from repro.isa import registry
        from repro.isa.virtual_accel import make_gemv
        import dataclasses

        # Register into a copy of the registry that teardown swaps back,
        # so the custom intrinsic leaks into no later test.
        monkeypatch.setattr(registry, "_REGISTRY", dict(registry._REGISTRY))
        custom = dataclasses.replace(
            make_gemv(rows=8, depth=8), name="custom_gemv_8x8", target="gemv_accel"
        )
        register_intrinsic(custom)
        assert get_intrinsic("custom_gemv_8x8") is custom
        comp = make_operator("GMV", m=32, k=32)
        mappings = enumerate_mappings(comp, custom)
        assert len(mappings) == 1
        phys = lower_to_physical(mappings[0])
        rng = np.random.default_rng(1)
        feeds = {t.name: rng.standard_normal(t.shape) for t in comp.input_tensors}
        assert np.allclose(
            execute_mapping(phys, feeds), comp.reference(feeds), atol=1e-9
        )
