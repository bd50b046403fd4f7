"""The fifteen operator classes of the paper's evaluation (Sec 7.3).

Each builder returns a :class:`~repro.ir.compute.ReduceComputation` in the
canonical iteration order used throughout the paper (``n, k, p, q, c, r,
s`` for 2-D convolution).  All accesses are affine; strided and dilated
convolutions multiply the spatial iteration by the stride/dilation inside
the index expression.

Non-GEMM-shaped reductions follow the published Tensor-Core lowering
recipes:

* matrix mean (MEN) is a matrix-vector product with a constant 1/K vector,
* matrix variance (VAR) reduces the elementwise square (computed by cheap
  scalar pre-processing) against a constant vector,
* scan (SCN) multiplies by a constant lower-triangular matrix (Dakkak et
  al.), making the prefix sum a matrix-matrix product.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.ir.compute import ReduceComputation, compute
from repro.ir.itervar import reduce_axis, spatial_axis
from repro.ir.tensor import Tensor


def make_gemv(m: int = 1024, k: int = 1024) -> ReduceComputation:
    """GMV: ``out[i] += A[i, k] * x[k]``."""
    i = spatial_axis(m, "i")
    kk = reduce_axis(k, "k")
    a = Tensor("A", (m, k))
    x = Tensor("x", (k,))
    out = Tensor("out", (m,))
    return compute("gemv", [i, kk], out[i], [a[i, kk], x[kk.var]])


def make_gemm(m: int = 512, n: int = 512, k: int = 512) -> ReduceComputation:
    """GMM: ``out[i, j] += A[i, k] * B[k, j]``."""
    i = spatial_axis(m, "i")
    j = spatial_axis(n, "j")
    kk = reduce_axis(k, "k")
    a = Tensor("A", (m, k))
    b = Tensor("B", (k, n))
    out = Tensor("out", (m, n))
    return compute("gemm", [i, j, kk], out[i, j], [a[i, kk], b[kk, j]])


def make_conv1d(
    n: int = 1, c: int = 64, k: int = 128, length: int = 256, r: int = 3, stride: int = 1
) -> ReduceComputation:
    """C1D: 1-D convolution, NCL layout."""
    p_extent = (length - r) // stride + 1
    nn = spatial_axis(n, "n")
    kk = spatial_axis(k, "k")
    p = spatial_axis(p_extent, "p")
    cc = reduce_axis(c, "c")
    rr = reduce_axis(r, "r")
    image = Tensor("image", (n, c, length))
    weight = Tensor("weight", (k, c, r))
    out = Tensor("out", (n, k, p_extent))
    return compute(
        "conv1d",
        [nn, kk, p, cc, rr],
        out[nn, kk, p],
        [image[nn.var, cc.var, p.var * stride + rr.var], weight[kk, cc, rr]],
    )


def make_conv2d(
    n: int = 1,
    c: int = 64,
    k: int = 64,
    h: int = 56,
    w: int = 56,
    r: int = 3,
    s: int = 3,
    stride: int = 1,
    dilation: int = 1,
    pad: int | None = None,
) -> ReduceComputation:
    """C2D: 2-D convolution, NCHW layout.

    ``pad`` defaults to "same-ish" padding folded into the input shape:
    the builder sizes the (conceptually pre-padded) input so that the
    output is ``(h, w) / stride``.
    """
    if pad is None:
        pad = (dilation * (r - 1)) // 2
    h_in = h + 2 * pad
    w_in = w + 2 * pad
    p_extent = (h_in - dilation * (r - 1) - 1) // stride + 1
    q_extent = (w_in - dilation * (s - 1) - 1) // stride + 1
    nn = spatial_axis(n, "n")
    kk = spatial_axis(k, "k")
    p = spatial_axis(p_extent, "p")
    q = spatial_axis(q_extent, "q")
    cc = reduce_axis(c, "c")
    rr = reduce_axis(r, "r")
    ss = reduce_axis(s, "s")
    image = Tensor("image", (n, c, h_in, w_in))
    weight = Tensor("weight", (k, c, r, s))
    out = Tensor("out", (n, k, p_extent, q_extent))
    return compute(
        "conv2d",
        [nn, kk, p, q, cc, rr, ss],
        out[nn, kk, p, q],
        [
            image[
                nn.var,
                cc.var,
                p.var * stride + rr.var * dilation,
                q.var * stride + ss.var * dilation,
            ],
            weight[kk, cc, rr, ss],
        ],
    )


def make_conv3d(
    n: int = 1,
    c: int = 16,
    k: int = 32,
    d: int = 16,
    h: int = 28,
    w: int = 28,
    t: int = 3,
    r: int = 3,
    s: int = 3,
    stride: int = 1,
) -> ReduceComputation:
    """C3D: 3-D convolution, NCDHW layout."""
    d_in, h_in, w_in = d + t - 1, h + r - 1, w + s - 1
    nn = spatial_axis(n, "n")
    kk = spatial_axis(k, "k")
    dd = spatial_axis((d_in - t) // stride + 1, "d")
    p = spatial_axis((h_in - r) // stride + 1, "p")
    q = spatial_axis((w_in - s) // stride + 1, "q")
    cc = reduce_axis(c, "c")
    tt = reduce_axis(t, "t")
    rr = reduce_axis(r, "r")
    ss = reduce_axis(s, "s")
    image = Tensor("image", (n, c, d_in, h_in, w_in))
    weight = Tensor("weight", (k, c, t, r, s))
    out = Tensor("out", (n, k, dd.extent, p.extent, q.extent))
    return compute(
        "conv3d",
        [nn, kk, dd, p, q, cc, tt, rr, ss],
        out[nn, kk, dd, p, q],
        [
            image[
                nn.var,
                cc.var,
                dd.var * stride + tt.var,
                p.var * stride + rr.var,
                q.var * stride + ss.var,
            ],
            weight[kk, cc, tt, rr, ss],
        ],
    )


def make_transposed_conv2d(
    n: int = 1, c: int = 64, k: int = 32, h: int = 28, w: int = 28, r: int = 4, s: int = 4
) -> ReduceComputation:
    """T2D: transposed 2-D convolution in the stride-1 gradient form
    ``out[n,k,p,q] += image[n,c,p-r+R-1,q-s+S-1] * weight[c,k,r,s]``
    over a zero-padded input (stride-2 deconvolution additionally
    interleaves zeros into ``image``; the access pattern — and therefore
    the mapping space — is the one below)."""
    h_in = h + r - 1
    w_in = w + s - 1
    nn = spatial_axis(n, "n")
    kk = spatial_axis(k, "k")
    p = spatial_axis(h, "p")
    q = spatial_axis(w, "q")
    cc = reduce_axis(c, "c")
    rr = reduce_axis(r, "r")
    ss = reduce_axis(s, "s")
    image = Tensor("image", (n, c, h_in, w_in))
    weight = Tensor("weight", (c, k, r, s))
    out = Tensor("out", (n, k, h, w))
    return compute(
        "transposed_conv2d",
        [nn, kk, p, q, cc, rr, ss],
        out[nn, kk, p, q],
        [
            image[nn.var, cc.var, p.var - rr.var + (r - 1), q.var - ss.var + (s - 1)],
            weight[cc, kk, rr, ss],
        ],
    )


def make_group_conv2d(
    n: int = 1,
    groups: int = 8,
    c_per_group: int = 16,
    k_per_group: int = 16,
    h: int = 28,
    w: int = 28,
    r: int = 3,
    s: int = 3,
    stride: int = 1,
) -> ReduceComputation:
    """GRP: grouped convolution; the group iteration is accessed by all
    three tensors and stays an outer loop in every valid mapping."""
    h_in, w_in = h + r - 1, w + s - 1
    nn = spatial_axis(n, "n")
    g = spatial_axis(groups, "g")
    kk = spatial_axis(k_per_group, "k")
    p = spatial_axis((h_in - r) // stride + 1, "p")
    q = spatial_axis((w_in - s) // stride + 1, "q")
    cc = reduce_axis(c_per_group, "c")
    rr = reduce_axis(r, "r")
    ss = reduce_axis(s, "s")
    image = Tensor("image", (n, groups, c_per_group, h_in, w_in))
    weight = Tensor("weight", (groups, k_per_group, c_per_group, r, s))
    out = Tensor("out", (n, groups, k_per_group, p.extent, q.extent))
    return compute(
        "group_conv2d",
        [nn, g, kk, p, q, cc, rr, ss],
        out[nn, g, kk, p, q],
        [
            image[nn.var, g.var, cc.var, p.var * stride + rr.var, q.var * stride + ss.var],
            weight[g, kk, cc, rr, ss],
        ],
    )


def make_dilated_conv2d(
    n: int = 1, c: int = 64, k: int = 64, h: int = 28, w: int = 28,
    r: int = 3, s: int = 3, dilation: int = 2,
) -> ReduceComputation:
    """DIL: dilated convolution (atrous); a C2D with dilation > 1."""
    comp = make_conv2d(n, c, k, h, w, r, s, stride=1, dilation=dilation)
    return compute(
        "dilated_conv2d", comp.iter_vars, comp.output, comp.inputs,
        comp.combine, comp.reduce,
    )


def make_depthwise_conv2d(
    n: int = 1, k: int = 64, h: int = 56, w: int = 56, r: int = 3, s: int = 3,
    stride: int = 1,
) -> ReduceComputation:
    """DEP: depthwise convolution; the channel is accessed by all three
    tensors and requires a diagonal mapping on matmul-style intrinsics."""
    h_in, w_in = h + r - 1, w + s - 1
    nn = spatial_axis(n, "n")
    kk = spatial_axis(k, "k")
    p = spatial_axis((h_in - r) // stride + 1, "p")
    q = spatial_axis((w_in - s) // stride + 1, "q")
    rr = reduce_axis(r, "r")
    ss = reduce_axis(s, "s")
    image = Tensor("image", (n, k, h_in, w_in))
    weight = Tensor("weight", (k, r, s))
    out = Tensor("out", (n, k, p.extent, q.extent))
    return compute(
        "depthwise_conv2d",
        [nn, kk, p, q, rr, ss],
        out[nn, kk, p, q],
        [
            image[nn.var, kk.var, p.var * stride + rr.var, q.var * stride + ss.var],
            weight[kk, rr, ss],
        ],
    )


def make_capsule_conv2d(
    n: int = 1, c: int = 8, k: int = 16, h: int = 12, w: int = 12,
    r: int = 3, s: int = 3, cap: int = 4,
) -> ReduceComputation:
    """CAP: capsule convolution — each "pixel" carries a ``cap x cap``
    pose matrix, multiplying along the capsule dimension."""
    h_in, w_in = h + r - 1, w + s - 1
    nn = spatial_axis(n, "n")
    p = spatial_axis(h, "p")
    q = spatial_axis(w, "q")
    kk = spatial_axis(k, "k")
    ci = spatial_axis(cap, "ci")
    cj = spatial_axis(cap, "cj")
    rr = reduce_axis(r, "r")
    ss = reduce_axis(s, "s")
    cc = reduce_axis(c, "c")
    cl = reduce_axis(cap, "cl")
    image = Tensor("image", (n, h_in, w_in, c, cap, cap))
    weight = Tensor("weight", (r, s, c, k, cap, cap))
    out = Tensor("out", (n, h, w, k, cap, cap))
    return compute(
        "capsule_conv2d",
        [nn, p, q, kk, ci, cj, rr, ss, cc, cl],
        out[nn, p, q, kk, ci, cj],
        [
            image[nn.var, p.var + rr.var, q.var + ss.var, cc.var, ci.var, cl.var],
            weight[rr, ss, cc, kk, cl, cj],
        ],
    )


def make_batched_conv2d(
    n: int = 8, c: int = 32, k: int = 32, h: int = 28, w: int = 28, r: int = 3, s: int = 3
) -> ReduceComputation:
    """BCV: batch-conditioned convolution (CondConv): per-sample weights,
    so the batch iteration is accessed by every tensor."""
    h_in, w_in = h + r - 1, w + s - 1
    nn = spatial_axis(n, "n")
    kk = spatial_axis(k, "k")
    p = spatial_axis(h, "p")
    q = spatial_axis(w, "q")
    cc = reduce_axis(c, "c")
    rr = reduce_axis(r, "r")
    ss = reduce_axis(s, "s")
    image = Tensor("image", (n, c, h_in, w_in))
    weight = Tensor("weight", (n, k, c, r, s))
    out = Tensor("out", (n, k, h, w))
    return compute(
        "batched_conv2d",
        [nn, kk, p, q, cc, rr, ss],
        out[nn, kk, p, q],
        [
            image[nn.var, cc.var, p.var + rr.var, q.var + ss.var],
            weight[nn, kk, cc, rr, ss],
        ],
    )


def make_grouped_fc(
    b: int = 8, groups: int = 16, i: int = 64, c: int = 64
) -> ReduceComputation:
    """GFC: grouped fully-connected layer (WeightNet)."""
    bb = spatial_axis(b, "b")
    g = spatial_axis(groups, "g")
    ii = spatial_axis(i, "i")
    cc = reduce_axis(c, "c")
    x = Tensor("x", (b, groups, c))
    wgt = Tensor("w", (groups, i, c))
    out = Tensor("out", (b, groups, i))
    return compute(
        "grouped_fc",
        [bb, g, ii, cc],
        out[bb, g, ii],
        [x[bb, g, cc], wgt[g, ii, cc]],
    )


def make_mean(m: int = 1024, k: int = 1024) -> ReduceComputation:
    """MEN: per-row mean as a matrix-vector product with a constant
    ``1/K`` vector (the Tensor-Core reduction recipe)."""
    i = spatial_axis(m, "i")
    kk = reduce_axis(k, "k")
    a = Tensor("A", (m, k))
    ones = Tensor("inv_k", (k,))
    out = Tensor("out", (m,))
    return compute("matrix_mean", [i, kk], out[i], [a[i, kk], ones[kk.var]])


def make_variance(m: int = 1024, k: int = 1024) -> ReduceComputation:
    """VAR: per-row second moment of the (pre-squared) matrix against a
    constant vector; ``var = E[x^2] - mean^2`` finishes with cheap scalar
    post-processing outside the mapped kernel."""
    i = spatial_axis(m, "i")
    kk = reduce_axis(k, "k")
    sq = Tensor("A_squared", (m, k))
    ones = Tensor("inv_k", (k,))
    out = Tensor("out", (m,))
    return compute("matrix_variance", [i, kk], out[i], [sq[i, kk], ones[kk.var]])


def make_scan(m: int = 256, k: int = 256) -> ReduceComputation:
    """SCN: inclusive prefix sum of each row as multiplication with a
    constant lower-triangular matrix ``L[k, j] = 1 if k <= j``."""
    i = spatial_axis(m, "i")
    j = spatial_axis(k, "j")
    kk = reduce_axis(k, "k")
    a = Tensor("A", (m, k))
    tri = Tensor("L_tri", (k, k))
    out = Tensor("out", (m, k))
    return compute("scan", [i, j, kk], out[i, j], [a[i, kk], tri[kk, j]])


#: Operator-code -> builder, matching the paper's abbreviations.
OPERATOR_BUILDERS: dict[str, Callable[..., ReduceComputation]] = {
    "GMV": make_gemv,
    "GMM": make_gemm,
    "C1D": make_conv1d,
    "C2D": make_conv2d,
    "C3D": make_conv3d,
    "T2D": make_transposed_conv2d,
    "GRP": make_group_conv2d,
    "DIL": make_dilated_conv2d,
    "DEP": make_depthwise_conv2d,
    "CAP": make_capsule_conv2d,
    "BCV": make_batched_conv2d,
    "GFC": make_grouped_fc,
    "MEN": make_mean,
    "VAR": make_variance,
    "SCN": make_scan,
}


#: Built operators by code and sorted ``(name, type, value)`` params (see
#: :func:`make_operator`); the memo starts over when it reaches the bound.
_BUILT: dict[tuple, ReduceComputation] = {}
_BUILT_MAX = 1024


def clear_operator_memo() -> None:
    """Forget every built operator, so the next request of each spec
    builds a fresh computation."""
    _BUILT.clear()


def make_operator(code: str, **params) -> ReduceComputation:
    """Build an operator by its paper abbreviation.

    Built operators are interned once per process: equal ``code`` and
    ``params`` return the *same* frozen computation, so the memos kept on
    it (access matrix, solo-indexed iterations, fingerprint) serve every
    later request, e.g. each pass of a network.  Two builds of one spec
    are therefore one object; a fresh build (params that cannot be
    hashed, or after :func:`clear_operator_memo`) has its own ``Var``
    uids and compares unequal to it, while every fingerprint, which
    renders variables by name, is the same.  The key holds each value's
    type, so ``m=64`` and ``m=64.0`` (equal as keys) build apart.
    """
    try:
        builder = OPERATOR_BUILDERS[code]
    except KeyError:
        known = ", ".join(sorted(OPERATOR_BUILDERS))
        raise KeyError(f"unknown operator {code!r}; known: {known}") from None
    key = (code, tuple(sorted((k, type(v), v) for k, v in params.items())))
    try:
        built = _BUILT.get(key)
    except TypeError:  # unhashable params
        return builder(**params)
    if built is None:
        built = builder(**params)
        if len(_BUILT) >= _BUILT_MAX:
            _BUILT.clear()
        _BUILT[key] = built
    return built


def operator_feeds(
    comp: ReduceComputation, rng: np.random.Generator | None = None
) -> dict[str, np.ndarray]:
    """Random input tensors for a computation.

    Constant operands introduced by the reduction recipes (``inv_k``,
    ``L_tri``) are filled with their semantic values rather than noise.
    """
    rng = rng or np.random.default_rng(0)
    feeds: dict[str, np.ndarray] = {}
    for tensor in comp.input_tensors:
        if tensor.name == "inv_k":
            feeds[tensor.name] = np.full(tensor.shape, 1.0 / tensor.shape[0])
        elif tensor.name == "L_tri":
            feeds[tensor.name] = np.tril(np.ones(tensor.shape)).T
        else:
            feeds[tensor.name] = rng.standard_normal(tensor.shape)
    return feeds


def operator_traffic_bytes(comp: ReduceComputation, element_bytes: int = 2) -> int:
    """Compulsory global traffic: every input read once, output written once."""
    total = comp.output.tensor.size
    for tensor in comp.input_tensors:
        total += tensor.size
    return total * element_bytes
