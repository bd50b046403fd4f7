"""Concrete workload configurations used by the paper's experiments.

``RESNET18_CONV_LAYERS`` reproduces Table 5's twelve C2D layers (C0-C11);
``MOBILENET_V2_LAYERS`` gives the seven depthwise + conv layer pairs used
for the Mali comparison (Fig 8b); ``operator_suite`` yields the
multi-configuration single-operator suite behind Fig 6a/b (the paper tests
113 configurations over 15 operator classes; we cover every class with
several real-network shapes each).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.frontends.operators import make_operator
from repro.ir.compute import ReduceComputation


@dataclass(frozen=True)
class ConvLayer:
    """One convolution layer configuration (Table 5 columns)."""

    name: str
    n: int
    c: int
    k: int
    h: int
    w: int
    r: int
    s: int
    stride: int

    def computation(self, batch: int | None = None) -> ReduceComputation:
        return make_operator(
            "C2D",
            n=batch if batch is not None else self.n,
            c=self.c,
            k=self.k,
            h=self.h,
            w=self.w,
            r=self.r,
            s=self.s,
            stride=self.stride,
        )


#: Table 5: the twelve distinct conv layers of ResNet-18, batch 16.
RESNET18_CONV_LAYERS: tuple[ConvLayer, ...] = (
    ConvLayer("C0", 16, 3, 64, 112, 112, 7, 7, 2),
    ConvLayer("C1", 16, 64, 64, 56, 56, 3, 3, 1),
    ConvLayer("C2", 16, 64, 64, 56, 56, 1, 1, 1),
    ConvLayer("C3", 16, 64, 128, 28, 28, 3, 3, 2),
    ConvLayer("C4", 16, 64, 128, 28, 28, 1, 1, 2),
    ConvLayer("C5", 16, 128, 128, 28, 28, 3, 3, 1),
    ConvLayer("C6", 16, 128, 256, 14, 14, 3, 3, 2),
    ConvLayer("C7", 16, 128, 256, 14, 14, 1, 1, 2),
    ConvLayer("C8", 16, 256, 256, 14, 14, 3, 3, 1),
    ConvLayer("C9", 16, 256, 512, 7, 7, 3, 3, 2),
    ConvLayer("C10", 16, 256, 512, 7, 7, 1, 1, 2),
    ConvLayer("C11", 16, 512, 512, 7, 7, 3, 3, 1),
)


@dataclass(frozen=True)
class MobileLayer:
    """A MobileNet-V2 depthwise layer (plus its channel count)."""

    name: str
    k: int
    h: int
    w: int
    stride: int

    def depthwise(self, batch: int = 1) -> ReduceComputation:
        return make_operator(
            "DEP", n=batch, k=self.k, h=self.h, w=self.w,
            r=3, s=3, stride=self.stride,
        )

    def pointwise(self, batch: int = 1, expand: int = 1) -> ReduceComputation:
        return make_operator(
            "C2D", n=batch, c=self.k, k=self.k * expand,
            h=self.h // self.stride, w=self.w // self.stride, r=1, s=1,
        )


#: The seven depthwise layer shapes of MobileNet-V2 (Fig 8b).
MOBILENET_V2_LAYERS: tuple[MobileLayer, ...] = (
    MobileLayer("L1", 32, 112, 112, 1),
    MobileLayer("L2", 96, 112, 112, 2),
    MobileLayer("L3", 144, 56, 56, 1),
    MobileLayer("L4", 144, 56, 56, 2),
    MobileLayer("L5", 192, 28, 28, 2),
    MobileLayer("L6", 384, 14, 14, 1),
    MobileLayer("L7", 576, 14, 14, 2),
)


#: Single-operator suite (Fig 6a/b): paper abbreviation -> configurations
#: drawn from the real networks the paper cites.
OPERATOR_SUITE: dict[str, list[dict]] = {
    "GMV": [
        dict(m=1024, k=1024),
        dict(m=4096, k=1024),
        dict(m=1024, k=4096),
    ],
    "GMM": [
        dict(m=512, n=512, k=512),
        dict(m=1024, n=1024, k=1024),
        dict(m=64, n=1024, k=1024),
    ],
    "C1D": [
        dict(n=1, c=64, k=128, length=256, r=3),
        dict(n=1, c=128, k=128, length=128, r=5),
    ],
    "C2D": [
        dict(n=1, c=64, k=64, h=56, w=56, r=3, s=3),
        dict(n=1, c=256, k=256, h=14, w=14, r=3, s=3),
        dict(n=1, c=3, k=64, h=112, w=112, r=7, s=7, stride=2),
    ],
    "C3D": [
        dict(n=1, c=16, k=32, d=16, h=28, w=28, t=3, r=3, s=3),
    ],
    "T2D": [
        dict(n=1, c=64, k=32, h=28, w=28, r=4, s=4),
    ],
    "GRP": [
        dict(n=1, groups=8, c_per_group=16, k_per_group=16, h=28, w=28),
        dict(n=1, groups=4, c_per_group=60, k_per_group=60, h=28, w=28),
    ],
    "DIL": [
        dict(n=1, c=64, k=64, h=28, w=28, dilation=2),
    ],
    "DEP": [
        dict(n=1, k=144, h=56, w=56, r=3, s=3),
        dict(n=1, k=384, h=14, w=14, r=3, s=3),
    ],
    "CAP": [
        dict(n=1, c=8, k=16, h=12, w=12, cap=4),
    ],
    "BCV": [
        dict(n=8, c=32, k=32, h=28, w=28),
    ],
    "GFC": [
        dict(b=8, groups=16, i=64, c=64),
    ],
    "MEN": [
        dict(m=1024, k=1024),
    ],
    "VAR": [
        dict(m=1024, k=1024),
    ],
    "SCN": [
        dict(m=256, k=256),
    ],
}


def operator_suite(
    batch: int | None = None,
) -> Iterator[tuple[str, dict, ReduceComputation]]:
    """Yield ``(code, params, computation)`` over the whole suite.

    ``batch`` overrides the batch-size-like parameter where one exists,
    used to run the suite at batch 1 vs batch 16.
    """
    for code, configs in OPERATOR_SUITE.items():
        for params in configs:
            actual = dict(params)
            if batch is not None and "n" in actual:
                actual["n"] = batch
            if batch is not None and "b" in actual:
                actual["b"] = batch
            yield code, actual, make_operator(code, **actual)
