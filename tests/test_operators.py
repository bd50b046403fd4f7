"""Operator frontend: all fifteen operator classes."""

import numpy as np
import pytest

from repro.engine.fingerprint import computation_fingerprint
from repro.frontends import operators
from repro.frontends.operators import (
    OPERATOR_BUILDERS,
    clear_operator_memo,
    make_mean,
    make_operator,
    operator_feeds,
    operator_traffic_bytes,
)


SMALL_PARAMS = {
    "GMV": dict(m=8, k=8),
    "GMM": dict(m=8, n=8, k=8),
    "C1D": dict(n=1, c=3, k=4, length=8, r=3),
    "C2D": dict(n=1, c=3, k=4, h=6, w=6, r=3, s=3),
    "C3D": dict(n=1, c=2, k=3, d=4, h=4, w=4, t=2, r=2, s=2),
    "T2D": dict(n=1, c=3, k=2, h=4, w=4, r=3, s=3),
    "GRP": dict(n=1, groups=2, c_per_group=2, k_per_group=2, h=4, w=4),
    "DIL": dict(n=1, c=2, k=3, h=5, w=5, dilation=2),
    "DEP": dict(n=1, k=4, h=4, w=4),
    "CAP": dict(n=1, c=2, k=2, h=3, w=3, cap=2),
    "BCV": dict(n=2, c=2, k=3, h=4, w=4),
    "GFC": dict(b=2, groups=3, i=4, c=4),
    "MEN": dict(m=6, k=8),
    "VAR": dict(m=6, k=8),
    "SCN": dict(m=4, k=6),
}


class TestBuilders:
    @pytest.mark.parametrize("code", sorted(OPERATOR_BUILDERS))
    def test_builds_and_has_structure(self, code):
        comp = make_operator(code, **SMALL_PARAMS[code])
        assert comp.iter_vars
        assert comp.total_iterations() > 0
        assert comp.flop_count() > 0
        x = comp.access_matrix()
        assert x.shape == (len(comp.tensors), len(comp.iter_vars))
        assert x[0].any()  # output accessed by something

    @pytest.mark.parametrize("code", sorted(OPERATOR_BUILDERS))
    def test_reference_executes(self, code):
        comp = make_operator(code, **SMALL_PARAMS[code])
        feeds = operator_feeds(comp)
        out = comp.reference(feeds)
        assert out.shape == comp.output.tensor.shape
        assert np.isfinite(out).all()

    def test_unknown_operator(self):
        with pytest.raises(KeyError, match="unknown operator"):
            make_operator("XYZ")

    def test_defaults_work(self):
        comp = make_operator("GMM")
        assert comp.name == "gemm"


class TestOperatorMemo:
    """make_operator interns built operators once per process."""

    def test_equal_specs_share_one_object(self):
        gemm = make_operator("GMM", m=8, n=8, k=8)
        assert make_operator("GMM", k=8, n=8, m=8) is gemm
        assert gemm.access_matrix() is make_operator("GMM", m=8, n=8, k=8).access_matrix()
        assert make_operator("GMM", m=8, n=8, k=16) is not gemm
        assert make_operator("GMV", m=8, k=8) is not make_operator("MEN", m=8, k=8)
        # Equal as dict keys, but another type: built apart.
        numpy_m = make_operator("GMM", m=np.int64(8), n=8, k=8)
        assert numpy_m is not gemm
        assert make_operator("GMM", m=np.int64(8), n=8, k=8) is numpy_m

    def test_unhashable_params_build_fresh(self, monkeypatch):
        def make_row_mean(shape):
            return make_mean(*shape)

        monkeypatch.setitem(OPERATOR_BUILDERS, "RMN", make_row_mean)
        first = make_operator("RMN", shape=[6, 8])
        second = make_operator("RMN", shape=[6, 8])
        assert first is not second
        assert first != second  # fresh Var uids
        assert computation_fingerprint(first) == computation_fingerprint(second)

    def test_cleared_memo_builds_fresh_with_same_fingerprint(self):
        before = make_operator("C2D", **SMALL_PARAMS["C2D"])
        clear_operator_memo()
        after = make_operator("C2D", **SMALL_PARAMS["C2D"])
        assert after is not before
        assert after != before
        assert computation_fingerprint(after) == computation_fingerprint(before)
        assert make_operator("C2D", **SMALL_PARAMS["C2D"]) is after

    def test_memo_starts_over_at_its_bound(self, monkeypatch):
        clear_operator_memo()
        monkeypatch.setattr(operators, "_BUILT_MAX", 2)
        first = make_operator("GMM", m=8, n=8, k=8)
        make_operator("GMM", m=8, n=8, k=16)
        assert make_operator("GMM", m=8, n=8, k=8) is first
        make_operator("GMM", m=8, n=8, k=32)  # third spec: the memo restarts
        assert len(operators._BUILT) == 1
        assert make_operator("GMM", m=8, n=8, k=8) is not first


class TestSemantics:
    def test_gemm_reference_is_matmul(self):
        comp = make_operator("GMM", m=5, n=6, k=7)
        feeds = operator_feeds(comp)
        assert np.allclose(comp.reference(feeds), feeds["A"] @ feeds["B"])

    def test_mean_matches_numpy(self):
        comp = make_operator("MEN", m=6, k=8)
        feeds = operator_feeds(comp)
        assert np.allclose(comp.reference(feeds), feeds["A"].mean(axis=1))

    def test_variance_second_moment(self):
        comp = make_operator("VAR", m=6, k=8)
        feeds = operator_feeds(comp)
        # The mapped kernel computes E[x^2] of the pre-squared input.
        assert np.allclose(
            comp.reference(feeds), feeds["A_squared"].mean(axis=1)
        )

    def test_scan_is_prefix_sum(self):
        comp = make_operator("SCN", m=4, k=6)
        feeds = operator_feeds(comp)
        assert np.allclose(comp.reference(feeds), np.cumsum(feeds["A"], axis=1))

    def test_depthwise_channels_independent(self):
        comp = make_operator("DEP", n=1, k=3, h=4, w=4)
        feeds = operator_feeds(comp)
        out = comp.reference(feeds)
        # Zeroing channel 0's weight only affects channel 0's output.
        feeds2 = dict(feeds)
        feeds2["weight"] = feeds["weight"].copy()
        feeds2["weight"][0] = 0
        out2 = comp.reference(feeds2)
        assert np.allclose(out[0, 1:], out2[0, 1:])
        assert np.allclose(out2[0, 0], 0)

    def test_strided_conv_shapes(self):
        comp = make_operator("C2D", n=1, c=4, k=4, h=8, w=8, r=3, s=3, stride=2)
        p = next(iv for iv in comp.iter_vars if iv.name == "p")
        assert p.extent == 4

    def test_dilated_conv_access(self):
        comp = make_operator("DIL", n=1, c=2, k=2, h=5, w=5, dilation=2)
        assert comp.name == "dilated_conv2d"
        feeds = operator_feeds(comp)
        out = comp.reference(feeds)
        assert np.isfinite(out).all()

    def test_group_conv_matches_blockwise(self):
        comp = make_operator("GRP", n=1, groups=2, c_per_group=2, k_per_group=2, h=4, w=4)
        feeds = operator_feeds(comp)
        out = comp.reference(feeds)
        img, wgt = feeds["image"], feeds["weight"]
        for g in range(2):
            for k in range(2):
                expected = np.zeros((4, 4))
                for p in range(4):
                    for q in range(4):
                        expected[p, q] = np.sum(
                            img[0, g, :, p : p + 3, q : q + 3] * wgt[g, k]
                        )
                assert np.allclose(out[0, g, k], expected)


class TestTraffic:
    def test_traffic_counts_all_tensors(self):
        comp = make_operator("GMM", m=8, n=8, k=8)
        expected = (64 + 64 + 64) * 2
        assert operator_traffic_bytes(comp) == expected

    def test_traffic_element_width(self):
        comp = make_operator("GMM", m=8, n=8, k=8)
        assert operator_traffic_bytes(comp, 4) == 2 * operator_traffic_bytes(comp, 2)
