"""End-to-end network evaluation (paper Sec 7.4).

Runs every operator of a network graph through a compiler backend on one
simulated device and sums the latencies.  Non-tensor operators (ReLU,
pooling, softmax...) are bandwidth-bound on every backend and costed
identically, so backend differences come only from the tensor operators —
the same situation as on real hardware, where the paper's speedups come
from convolutions and matmuls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

from repro.frontends.networks import NetworkOp, expand_ops
from repro.ir.compute import ReduceComputation
from repro.model.hardware_params import HardwareParams
from repro.compiler import CompiledKernel, amos_compile
from repro.explore.tuner import TunerConfig
from repro.obs import metrics as _obs_metrics
from repro.obs.trace import span as _obs_span


class Backend(Protocol):
    """Anything that can compile one operator for one device."""

    name: str

    def compile(self, comp: ReduceComputation, hw: HardwareParams) -> CompiledKernel: ...


@dataclass
class AmosBackend:
    """AMOS itself, wrapped in the backend protocol."""

    name: str = "amos"
    config: TunerConfig | None = None

    def compile(self, comp: ReduceComputation, hw: HardwareParams) -> CompiledKernel:
        return amos_compile(comp, hw, self.config)


@dataclass(frozen=True)
class NetworkResult:
    """End-to-end latency of one network on one backend."""

    network: str
    backend: str
    total_us: float
    tensor_us: float
    non_tensor_us: float
    mapped_ops: int
    tensor_ops: int
    total_ops: int


def non_tensor_cost_us(elements: int, hw: HardwareParams, element_bytes: int = 2) -> float:
    """Bandwidth-bound cost of an element-wise / pooling / softmax op."""
    traffic = 2.0 * elements * element_bytes  # read once, write once
    return traffic / (hw.global_bandwidth_gbs * 1e9 * 0.75) * 1e6 + hw.launch_overhead_us


def evaluate_network(
    name: str,
    ops: list[NetworkOp],
    backend: Backend,
    hw: HardwareParams,
    batch: int = 1,
) -> NetworkResult:
    """Compile and time every operator of the network; returns the totals.

    Identical (kind, params) operators are compiled once and their
    latency reused — networks repeat layer shapes heavily.
    """
    cache: dict[str, CompiledKernel] = {}
    tensor_us = 0.0
    non_tensor_us = 0.0
    mapped = 0
    tensor_ops = 0
    total = 0
    with _obs_span(
        "evaluate.network", network=name, hardware=hw.name, batch=batch
    ) as net_span:
        for op in expand_ops(ops):
            total += 1
            if not op.is_tensor_op:
                non_tensor_us += non_tensor_cost_us(op.elements(batch), hw)
                _obs_metrics.counter("evaluate.non_tensor_ops").inc()
                continue
            tensor_ops += 1
            key = f"{op.kind}|{sorted(op.params.items())}|{batch}"
            if key not in cache:
                with _obs_span("evaluate.layer", kind=op.kind) as layer_span:
                    cache[key] = backend.compile(op.computation(batch), hw)
                    layer_span.set(latency_us=cache[key].latency_us)
                _obs_metrics.counter("evaluate.layers_compiled").inc()
            else:
                _obs_metrics.counter("evaluate.layer_cache_hits").inc()
            kernel = cache[key]
            tensor_us += kernel.latency_us
            if kernel.used_intrinsics:
                mapped += 1
        net_span.set(
            total_us=tensor_us + non_tensor_us, mapped_ops=mapped, tensor_ops=tensor_ops
        )
    return NetworkResult(
        network=name,
        backend=getattr(backend, "name", type(backend).__name__),
        total_us=tensor_us + non_tensor_us,
        tensor_us=tensor_us,
        non_tensor_us=non_tensor_us,
        mapped_ops=mapped,
        tensor_ops=tensor_ops,
        total_ops=total,
    )
