"""Shared fixtures: small operator computations used across mapping tests,
and a switch that sends every engine batch of an opted-in pool to it."""

import pytest

import repro.engine.engine as engine_mod
from repro.ir import Tensor, compute, reduce_axis, spatial_axis
from repro.isa import get_intrinsic


@pytest.fixture
def tensorcore():
    return get_intrinsic("wmma_m16n16k16_f16")


@pytest.fixture
def pool_every_batch(monkeypatch):
    """With ``n_workers > 1``, evaluate every miss batch on the pool,
    however small (``n_workers=1`` stays in-process)."""
    monkeypatch.setattr(engine_mod, "MIN_POOL_BATCH", 1)


def make_small_conv2d(n=1, c=3, k=4, p=5, q=5, r=3, s=3, stride=1):
    nn, kk = spatial_axis(n, "n"), spatial_axis(k, "k")
    pp, qq = spatial_axis(p, "p"), spatial_axis(q, "q")
    cc, rr, ss = reduce_axis(c, "c"), reduce_axis(r, "r"), reduce_axis(s, "s")
    img = Tensor("image", (n, c, (p - 1) * stride + r, (q - 1) * stride + s))
    wgt = Tensor("weight", (k, c, r, s))
    out = Tensor("out", (n, k, p, q))
    return compute(
        "conv2d",
        [nn, kk, pp, qq, cc, rr, ss],
        out[nn, kk, pp, qq],
        [
            img[nn.var, cc.var, pp.var * stride + rr.var, qq.var * stride + ss.var],
            wgt[kk, cc, rr, ss],
        ],
    )


def make_small_gemm(m=8, n=8, k=8):
    i, j = spatial_axis(m, "i"), spatial_axis(n, "j")
    kk = reduce_axis(k, "k")
    a, b = Tensor("A", (m, k)), Tensor("B", (k, n))
    out = Tensor("out", (m, n))
    return compute("gemm", [i, j, kk], out[i, j], [a[i, kk], b[kk, j]])


def make_small_gemv(m=8, k=8):
    i = spatial_axis(m, "i")
    kk = reduce_axis(k, "k")
    a, x = Tensor("A", (m, k)), Tensor("x", (k,))
    out = Tensor("out", (m,))
    return compute("gemv", [i, kk], out[i], [a[i, kk], x[kk.var]])


def make_small_depthwise(n=1, k=4, p=4, q=4, r=3, s=3):
    nn, kk = spatial_axis(n, "n"), spatial_axis(k, "k")
    pp, qq = spatial_axis(p, "p"), spatial_axis(q, "q")
    rr, ss = reduce_axis(r, "r"), reduce_axis(s, "s")
    img = Tensor("image", (n, k, p + r - 1, q + s - 1))
    wgt = Tensor("weight", (k, r, s))
    out = Tensor("out", (n, k, p, q))
    return compute(
        "depthwise",
        [nn, kk, pp, qq, rr, ss],
        out[nn, kk, pp, qq],
        [img[nn.var, kk.var, pp.var + rr.var, qq.var + ss.var], wgt[kk, rr, ss]],
    )


def make_small_c1d(n=1, c=3, k=4, p=5, r=3):
    nn, kk, pp = spatial_axis(n, "n"), spatial_axis(k, "k"), spatial_axis(p, "p")
    cc, rr = reduce_axis(c, "c"), reduce_axis(r, "r")
    img = Tensor("image", (n, c, p + r - 1))
    wgt = Tensor("weight", (k, c, r))
    out = Tensor("out", (n, k, p))
    return compute(
        "conv1d",
        [nn, kk, pp, cc, rr],
        out[nn, kk, pp],
        [img[nn.var, cc.var, pp.var + rr.var], wgt[kk, cc, rr]],
    )


def make_small_c3d(n=1, c=2, k=3, d=4, p=4, q=4, t=2, r=2, s=2):
    axes = {
        name: spatial_axis(extent, name)
        for name, extent in (("n", n), ("k", k), ("d", d), ("p", p), ("q", q))
    }
    red = {
        name: reduce_axis(extent, name)
        for name, extent in (("c", c), ("t", t), ("r", r), ("s", s))
    }
    img = Tensor("image", (n, c, d + t - 1, p + r - 1, q + s - 1))
    wgt = Tensor("weight", (k, c, t, r, s))
    out = Tensor("out", (n, k, d, p, q))
    nn, kk, dd, pp, qq = (axes[x] for x in "nkdpq")
    cc, tt, rr, ss = (red[x] for x in "ctrs")
    return compute(
        "conv3d",
        [nn, kk, dd, pp, qq, cc, tt, rr, ss],
        out[nn, kk, dd, pp, qq],
        [
            img[nn.var, cc.var, dd.var + tt.var, pp.var + rr.var, qq.var + ss.var],
            wgt[kk, cc, tt, rr, ss],
        ],
    )
