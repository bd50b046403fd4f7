"""DNN network graphs as operator lists.

End-to-end evaluation (paper Sec 7.4 and Table 2) only needs each
network's operator inventory — type, shape and whether the op is
inherently tensorisable — not trained weights.  Each network is a list of
:class:`NetworkOp`; non-tensor ops (ReLU, pooling, softmax, shuffles,
element-wise gates) are carried explicitly because Table 2 counts them in
the totals and they contribute (bandwidth-bound) time to end-to-end runs.

Layer inventories follow the architecture papers cited in the evaluation:
ShuffleNet-v1 (g=8), ResNet-18/50 v1, MobileNet-V1, BERT-base and MI-LSTM
(sequence 64, hidden 1024).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.frontends.operators import make_operator
from repro.ir.compute import ReduceComputation

#: Operators that no spatial intrinsic can execute (no multiply-accumulate
#: structure); they always run on the scalar path.
NON_TENSOR_KINDS = {
    "relu", "maxpool", "avgpool", "softmax", "layernorm", "batchnorm",
    "add", "concat", "shuffle", "sigmoid", "tanh", "mul", "gelu", "pad",
}


@dataclass(frozen=True)
class NetworkOp:
    """One operator instance in a network graph.

    Attributes:
        kind: paper operator code (``"C2D"``...) or a non-tensor kind.
        params: builder parameters for tensor ops; for non-tensor ops a
            dict with ``elements`` (tensor size) for bandwidth costing.
        repeat: how many times this exact op appears in the network.
    """

    kind: str
    params: dict
    repeat: int = 1

    @property
    def is_tensor_op(self) -> bool:
        return self.kind not in NON_TENSOR_KINDS

    def computation(self, batch: int = 1) -> ReduceComputation:
        if not self.is_tensor_op:
            raise ValueError(f"{self.kind} has no tensor computation")
        params = dict(self.params)
        if "n" in params:
            params["n"] = batch
        if "b" in params:
            params["b"] = batch
        return make_operator(self.kind, **params)

    def elements(self, batch: int = 1) -> int:
        """Output elements (for non-tensor op bandwidth costing)."""
        if self.is_tensor_op:
            return self.computation(batch).output.tensor.size
        return int(self.params.get("elements", 0)) * batch


def _conv(c, k, h, w, r=3, s=None, stride=1, groups=None, repeat=1) -> NetworkOp:
    s = s if s is not None else r
    if groups:
        return NetworkOp(
            "GRP",
            dict(n=1, groups=groups, c_per_group=c // groups,
                 k_per_group=k // groups, h=h, w=w, r=r, s=s, stride=stride),
            repeat,
        )
    return NetworkOp("C2D", dict(n=1, c=c, k=k, h=h, w=w, r=r, s=s, stride=stride), repeat)


def _dw(k, h, w, stride=1, repeat=1) -> NetworkOp:
    return NetworkOp("DEP", dict(n=1, k=k, h=h, w=w, r=3, s=3, stride=stride), repeat)


def _fc(inp, out, repeat=1) -> NetworkOp:
    # A linear layer: batch rows x weight matrix.  At batch 1 this is a
    # matrix-vector product — the case XLA's GEMM pattern fails to match.
    return NetworkOp("GMV", dict(m=out, k=inp), repeat)


def _gemm(m, n, k, repeat=1) -> NetworkOp:
    return NetworkOp("GMM", dict(m=m, n=n, k=k), repeat)


def _nt(kind, elements, repeat=1) -> NetworkOp:
    return NetworkOp(kind, dict(elements=elements), repeat)


def _shufflenet() -> list[NetworkOp]:
    """ShuffleNet v1 (groups=8): stage shapes from the paper."""
    ops: list[NetworkOp] = [
        _conv(3, 24, 112, 112, r=3, stride=2),
        _nt("maxpool", 24 * 56 * 56),
    ]
    # Stage 2: 4 units, out 384 channels at 28x28; stage 3: 8 units at
    # 14x14 (768); stage 4: 4 units at 7x7 (1536).  Each unit: 1x1 group
    # conv, channel shuffle, 3x3 depthwise, 1x1 group conv, add/concat,
    # two ReLUs.
    stages = [(4, 384, 28), (8, 768, 14), (4, 1536, 7)]
    for units, channels, hw in stages:
        for u in range(units):
            stride = 2 if u == 0 else 1
            ops.append(_conv(channels, channels // 4, hw, hw, r=1, groups=8))
            ops.append(_nt("shuffle", channels // 4 * hw * hw))
            ops.append(_dw(channels // 4, hw, hw, stride=stride))
            ops.append(_conv(channels // 4, channels, hw // stride, hw // stride, r=1, groups=8))
    ops.append(_nt("relu", 384 * 28 * 28))
    ops.append(_nt("relu", 1536 * 7 * 7))
    ops.append(_nt("avgpool", 1536))
    ops.append(_fc(1536, 1000))
    return ops


def _resnet18() -> list[NetworkOp]:
    ops: list[NetworkOp] = [
        _conv(3, 64, 224, 224, r=7, stride=2),
        _nt("maxpool", 64 * 56 * 56),
    ]
    cfg = [(64, 56, 1), (128, 28, 2), (256, 14, 2), (512, 7, 2)]
    in_c = 64
    for channels, hw, first_stride in cfg:
        for block in range(2):
            stride = first_stride if block == 0 else 1
            ops.append(_conv(in_c, channels, hw * stride, hw * stride, r=3, stride=stride))
            ops.append(_nt("relu", channels * hw * hw))
            ops.append(_conv(channels, channels, hw, hw, r=3))
            if block == 0 and in_c != channels:
                ops.append(_conv(in_c, channels, hw * stride, hw * stride, r=1, stride=stride))
            ops.append(_nt("add", channels * hw * hw))
            ops.append(_nt("relu", channels * hw * hw))
            in_c = channels
    ops.append(_nt("avgpool", 512))
    ops.append(_fc(512, 1000))
    return ops


def _resnet50() -> list[NetworkOp]:
    ops: list[NetworkOp] = [
        _conv(3, 64, 224, 224, r=7, stride=2),
        _nt("maxpool", 64 * 56 * 56),
    ]
    cfg = [(64, 256, 56, 3, 1), (128, 512, 28, 4, 2), (256, 1024, 14, 6, 2), (512, 2048, 7, 3, 2)]
    in_c = 64
    for mid, out_c, hw, blocks, first_stride in cfg:
        for block in range(blocks):
            stride = first_stride if block == 0 else 1
            h_in = hw * (stride if block == 0 else 1)
            ops.append(_conv(in_c, mid, h_in, h_in, r=1))
            ops.append(_conv(mid, mid, h_in, h_in, r=3, stride=stride))
            ops.append(_conv(mid, out_c, hw, hw, r=1))
            if block == 0:
                ops.append(_conv(in_c, out_c, h_in, h_in, r=1, stride=stride))
            ops.append(_nt("add", out_c * hw * hw))
            in_c = out_c
    ops.append(_nt("avgpool", 2048))
    ops.append(_fc(2048, 1000))
    return ops


def _mobilenet_v1() -> list[NetworkOp]:
    ops: list[NetworkOp] = [_conv(3, 32, 224, 224, r=3, stride=2)]
    cfg = [
        (32, 64, 112, 1), (64, 128, 112, 2), (128, 128, 56, 1),
        (128, 256, 56, 2), (256, 256, 28, 1), (256, 512, 28, 2),
        (512, 512, 14, 1), (512, 512, 14, 1), (512, 512, 14, 1),
        (512, 512, 14, 1), (512, 512, 14, 1), (512, 1024, 14, 2),
        (1024, 1024, 7, 1),
    ]
    for in_c, out_c, hw, stride in cfg:
        ops.append(_dw(in_c, hw, hw, stride=stride))
        ops.append(_conv(in_c, out_c, hw // stride, hw // stride, r=1))
    ops.append(_nt("relu", 1024 * 7 * 7))
    ops.append(_nt("avgpool", 1024))
    ops.append(_fc(1024, 1000))
    return ops


def _bert_base(seq: int = 128) -> list[NetworkOp]:
    hidden, heads, layers = 768, 12, 12
    head_dim = hidden // heads
    ops: list[NetworkOp] = []
    # Embedding block: token/position/segment lookups, sum, layernorm,
    # dropout and friends — all bandwidth-bound.
    ops.append(_nt("add", seq * hidden, repeat=9))
    ops.append(_nt("layernorm", seq * hidden))
    ops.append(_nt("mul", seq * hidden))  # dropout mask
    for _ in range(layers):
        # QKV projections + output projection.
        ops.append(_gemm(seq, hidden, hidden, repeat=3))
        ops.append(_gemm(seq, hidden, hidden))
        # Attention scores and context (per head, batched as one GEMM each).
        ops.append(_gemm(seq, seq, head_dim))
        ops.append(_nt("softmax", heads * seq * seq))
        ops.append(_gemm(seq, head_dim, seq))
        ops.append(_nt("add", seq * hidden))
        ops.append(_nt("layernorm", seq * hidden))
        # Feed-forward.
        ops.append(_gemm(seq, 4 * hidden, hidden))
        ops.append(_nt("gelu", seq * 4 * hidden))
        ops.append(_gemm(seq, hidden, 4 * hidden))
        ops.append(_nt("add", seq * hidden))
        ops.append(_nt("layernorm", seq * hidden))
        # Attention-probability and residual dropouts.
        ops.append(_nt("mul", heads * seq * seq))
        ops.append(_nt("mul", seq * hidden))
    ops.append(_gemm(seq, hidden, hidden))  # pooler
    return ops


def _mi_lstm(hidden: int = 1024, inp: int = 1024) -> list[NetworkOp]:
    """One MI-LSTM cell step: per-gate linears (4 on the input, 4 on the
    recurrent state) plus an output projection and the multiplicative-
    integration element-wise ops.  At batch 1 every linear is a
    matrix-vector product — the case Table 2 shows XLA failing to map."""
    ops: list[NetworkOp] = []
    ops.append(_fc(inp, hidden, repeat=4))     # W_g x for each gate
    ops.append(_fc(hidden, hidden, repeat=4))  # U_g h for each gate
    ops.append(_fc(hidden, hidden))            # output projection
    ops.append(_nt("mul", 4 * hidden))         # alpha * Wx * Uh
    ops.append(_nt("sigmoid", 3 * hidden))
    return ops


NETWORKS: dict[str, list[NetworkOp]] = {
    "shufflenet": _shufflenet(),
    "resnet18": _resnet18(),
    "resnet50": _resnet50(),
    "mobilenet_v1": _mobilenet_v1(),
    "bert_base": _bert_base(),
    "mi_lstm": _mi_lstm(),
}


def get_network(name: str) -> list[NetworkOp]:
    try:
        return NETWORKS[name]
    except KeyError:
        known = ", ".join(sorted(NETWORKS))
        raise KeyError(f"unknown network {name!r}; known: {known}") from None


def expand_ops(ops: list[NetworkOp]) -> Iterator[NetworkOp]:
    """Yield each op instance, expanding ``repeat`` counts."""
    for op in ops:
        for _ in range(op.repeat):
            yield NetworkOp(op.kind, op.params, 1)
