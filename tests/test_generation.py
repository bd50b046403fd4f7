"""Mapping generation: Table 6 counts and generation rules."""

import numpy as np
import pytest

import repro.mapping.generation as generation
import repro.obs as obs
from repro.engine.fingerprint import mapping_fingerprint
from repro.ir import Tensor, compute, reduce_axis, spatial_axis
from repro.mapping.generation import (
    GenerationOptions,
    compound_iterations,
    count_mappings,
    enumerate_mappings,
    solo_indexed_iterations,
)
from repro.mapping.physical import lower_to_physical
from repro.mapping.validation import validate_mapping
from repro.obs.explore_log import ExploreLog, use_log

from conftest import (
    make_small_c1d,
    make_small_c3d,
    make_small_conv2d,
    make_small_depthwise,
    make_small_gemm,
    make_small_gemv,
)


class TestTable6Counts:
    """Mapping counts on Tensor Core; the first five match Table 6 exactly
    (GMM 1, GMV 1, C1D 6, C2D 35, C3D 180).  Depthwise-family counts
    depend on how diagonal variants are enumerated (see DESIGN.md)."""

    def test_gemm_count(self, tensorcore):
        assert count_mappings(make_small_gemm(), tensorcore) == 1

    def test_gemv_count(self, tensorcore):
        assert count_mappings(make_small_gemv(), tensorcore) == 1

    def test_c1d_count(self, tensorcore):
        assert count_mappings(make_small_c1d(), tensorcore) == 6

    def test_c2d_count(self, tensorcore):
        assert count_mappings(make_small_conv2d(), tensorcore) == 35

    def test_c3d_count(self, tensorcore):
        assert count_mappings(make_small_c3d(), tensorcore) == 180

    def test_depthwise_count_stable(self, tensorcore):
        # Documented deviation: the paper reports 11; our enumeration
        # yields 35 — 28 diagonal variants (spatial subsets x reduce-side
        # extensions of the diagonal group) plus 7 padded-i2 variants
        # with the channel as a pure outer loop.
        assert count_mappings(make_small_depthwise(), tensorcore) == 35

    def test_counts_shape_independent(self, tensorcore):
        a = count_mappings(make_small_conv2d(1, 3, 4, 5, 5), tensorcore)
        b = count_mappings(make_small_conv2d(2, 8, 16, 7, 9), tensorcore)
        assert a == b == 35


class TestGenerationRules:
    def test_all_generated_mappings_validate(self, tensorcore):
        for mapping in enumerate_mappings(make_small_conv2d(), tensorcore):
            assert validate_mapping(
                mapping.computation, tensorcore, mapping.matching
            )

    def test_unit_stride_rule_toggle(self, tensorcore):
        relaxed = GenerationOptions(unit_stride_reduce_rule=False)
        strict = count_mappings(make_small_conv2d(), tensorcore)
        loose = count_mappings(make_small_conv2d(), tensorcore, relaxed)
        # Without the rule, singleton {r} and {s} reduce groups appear:
        # 7 spatial x 7 reduce = 49.
        assert strict == 35
        assert loose == 49

    def test_diagonal_toggle(self, tensorcore):
        """Without diagonal mappings, depthwise conv can only leave the
        channel as an outer loop (i2 padded to 1); no enumerated mapping
        may carry a diagonal column."""
        no_diag = GenerationOptions(allow_diagonal=False)
        without = enumerate_mappings(make_small_depthwise(), tensorcore, no_diag)
        with_diag = enumerate_mappings(make_small_depthwise(), tensorcore)
        assert without
        assert all(not m.matching.diagonal_columns() for m in without)
        assert any(m.matching.diagonal_columns() for m in with_diag)

    def test_compound_iterations_conv2d(self, tensorcore):
        comp = make_small_conv2d()
        names = [iv.name for iv in comp.iter_vars]
        compound = {names[i] for i in compound_iterations(comp)}
        assert compound == {"p", "q", "r", "s"}
        solo = {names[i] for i in solo_indexed_iterations(comp)}
        assert solo == {"n", "k", "c"}

    def test_candidate_bound_enforced(self, tensorcore):
        tiny = GenerationOptions(max_candidates=2)
        with pytest.raises(RuntimeError, match="candidate space"):
            enumerate_mappings(make_small_conv2d(), tensorcore, tiny)

    def test_gemm_mapping_is_canonical(self, tensorcore):
        (mapping,) = enumerate_mappings(make_small_gemm(), tensorcore)
        assert mapping.describe() == (
            "[i1, i2, r1] <- [(i) mod 16, (j) mod 16, (k) mod 16]"
        )

    def test_gemv_pads_i2(self, tensorcore):
        (mapping,) = enumerate_mappings(make_small_gemv(), tensorcore)
        assert "padded" in mapping.describe()

    def test_table5_style_mappings_present(self, tensorcore):
        """The distinct compute-mapping shapes of Table 5 all appear in the
        C2D enumeration: {n,q}, {p,q}, {n,p,q}, {n} for i1 and {c}, {c,r},
        {c,s}, {c,r,s} for r1."""
        mappings = enumerate_mappings(make_small_conv2d(), tensorcore)
        seen_i1 = set()
        seen_r1 = set()
        for m in mappings:
            seen_i1.add(frozenset(iv.name for iv in m.group_iters(0)))
            seen_r1.add(frozenset(iv.name for iv in m.group_iters(2)))
        for expected in ({"n", "q"}, {"p", "q"}, {"n", "p", "q"}, {"n"}):
            assert frozenset(expected) in seen_i1
        for expected in ({"c"}, {"c", "r"}, {"c", "s"}, {"c", "r", "s"}):
            assert frozenset(expected) in seen_r1
        # Excluded by the unit-stride rule:
        assert frozenset({"r"}) not in seen_r1
        assert frozenset({"s"}) not in seen_r1


class TestOtherIntrinsics:
    def test_gemv_maps_onto_vnni(self):
        from repro.isa import get_intrinsic

        vnni = get_intrinsic("avx512_dpbusds_16x4")
        comp = make_small_gemv()
        mappings = enumerate_mappings(comp, vnni)
        assert len(mappings) == 1

    def test_conv2d_maps_onto_vnni(self):
        from repro.isa import get_intrinsic

        vnni = get_intrinsic("avx512_dpbusds_16x4")
        mappings = enumerate_mappings(make_small_conv2d(), vnni)
        assert len(mappings) > 0

    def test_depthwise_maps_onto_mali_simd(self):
        from repro.isa import get_intrinsic

        simd = get_intrinsic("mali_dot_simd_4x4")
        mappings = enumerate_mappings(make_small_depthwise(), simd)
        assert len(mappings) > 0


def _solo_c1d(n=1, c=3, k=4, p=5, r=3):
    """:func:`make_small_c1d` with the image indexed ``[n, c, p, r]``:
    the same access matrix and iteration kinds, but ``p`` and ``r`` each
    index a dimension alone."""
    nn, kk, pp = spatial_axis(n, "n"), spatial_axis(k, "k"), spatial_axis(p, "p")
    cc, rr = reduce_axis(c, "c"), reduce_axis(r, "r")
    img = Tensor("image", (n, c, p, r))
    wgt = Tensor("weight", (k, c, r))
    out = Tensor("out", (n, k, p))
    return compute(
        "conv1d_solo",
        [nn, kk, pp, cc, rr],
        out[nn, kk, pp],
        [img[nn, cc, pp, rr], wgt[kk, cc, rr]],
    )


def _telemetry(comp, intrinsic):
    """One traced enumeration: its funnel counts, the counter increments
    and the ``mapping.enumerate`` span attributes it recorded."""
    registry = obs.get_registry()
    base = registry.snapshot()
    log = ExploreLog()
    with obs.tracing() as tracer, use_log(log):
        enumerate_mappings(comp, intrinsic)
    spans = [s.attrs for s in tracer.spans() if s.name == "mapping.enumerate"]
    counts = {record["name"]: record["value"] for record in registry.diff(base)}
    return log.funnel.to_dict(), counts, spans


class TestAdmissionMemo:
    """Enumeration admits each structure's matchings once per process and
    shares them with every operator of that structure."""

    def test_same_structure_other_extents_runs_no_algorithm1(
        self, tensorcore, monkeypatch
    ):
        first = make_small_conv2d(1, 3, 4, 5, 5)
        second = make_small_conv2d(2, 8, 16, 7, 9)
        generation.clear_admission_memo()
        admitted = enumerate_mappings(first, tensorcore)
        calls = []

        def counting(comp, intrinsic, y):
            calls.append(y)
            return validate_mapping(comp, intrinsic, y)

        monkeypatch.setattr(generation, "validate_mapping", counting)
        served = enumerate_mappings(second, tensorcore)
        assert calls == []
        assert [m.matching for m in served] == [m.matching for m in admitted]
        assert all(m.computation is second for m in served)
        generation.clear_admission_memo()
        fresh = enumerate_mappings(second, tensorcore)
        assert len(calls) >= len(fresh) == 35
        assert [mapping_fingerprint(lower_to_physical(m)) for m in served] == [
            mapping_fingerprint(lower_to_physical(m)) for m in fresh
        ]

    def test_key_separates_solo_indexing_and_options(self, tensorcore):
        compound = make_small_c1d()
        solo = _solo_c1d()
        assert np.array_equal(compound.access_matrix(), solo.access_matrix())
        assert [iv.is_reduce for iv in compound.iter_vars] == [
            iv.is_reduce for iv in solo.iter_vars
        ]
        assert solo_indexed_iterations(compound) != solo_indexed_iterations(solo)
        depthwise = make_small_depthwise()
        requests = [
            (compound, GenerationOptions()),
            (solo, GenerationOptions()),
            (compound, GenerationOptions(unit_stride_reduce_rule=False)),
            (depthwise, GenerationOptions()),
            (depthwise, GenerationOptions(allow_diagonal=False)),
        ]

        def admitted(comp, options):
            return [repr(m.matching) for m in enumerate_mappings(comp, tensorcore, options)]

        fresh = []
        for comp, options in requests:
            generation.clear_admission_memo()
            fresh.append(admitted(comp, options))
        generation.clear_admission_memo()
        assert [admitted(comp, options) for comp, options in requests] == fresh
        assert fresh[0] != fresh[1]
        assert fresh[0] != fresh[2]
        assert fresh[3] != fresh[4]

    def test_memo_hit_records_first_request_telemetry(self, tensorcore):
        generation.clear_admission_memo()
        try:
            first = _telemetry(make_small_conv2d(1, 3, 4, 5, 5), tensorcore)
            hit = _telemetry(make_small_conv2d(2, 8, 16, 7, 9), tensorcore)
        finally:
            obs.reset()
        (funnel, counts, spans), (hit_funnel, hit_counts, hit_spans) = first, hit
        assert hit_funnel == funnel
        assert funnel["validated"] == 35
        assert hit_spans == spans == [{
            "computation": "conv2d",
            "intrinsic": tensorcore.name,
            "enumerated": funnel["enumerated"],
            "validated": 35,
        }]
        for name in ("mapping.candidates_enumerated", "mapping.mappings_validated"):
            assert hit_counts[name] == counts[name]
        # Only a first request runs Algorithm 1.
        assert counts["mapping.validation.calls"] >= 35
        assert "mapping.validation.calls" not in hit_counts
