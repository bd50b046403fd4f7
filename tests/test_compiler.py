"""Top-level compile pipeline, evaluation helper, lowering and codegen."""

import numpy as np
import pytest

from repro import amos_compile, evaluate_network, get_hardware, make_operator
from repro.engine.cache import reset_global_memo
from repro.engine.pool import WorkerPool
from repro.evaluation import AmosBackend, non_tensor_cost_us
from repro.explore.tuner import TunerConfig
from repro.frontends.networks import NetworkOp
from repro.ir import Tensor, compute, spatial_axis


FAST = TunerConfig(population=8, generations=2, measure_top=8, refine_rounds=1)


class TestAmosCompile:
    def test_gemm_compiles(self):
        kernel = amos_compile(make_operator("GMM", m=128, n=128, k=128), "v100", FAST)
        assert kernel.used_intrinsics
        assert kernel.latency_us > 0
        assert kernel.gflops() > 0
        assert kernel.num_mappings >= 1

    def test_string_and_object_hardware(self):
        comp = make_operator("GMM", m=64, n=64, k=64)
        a = amos_compile(comp, "v100", FAST)
        b = amos_compile(comp, get_hardware("v100"), FAST)
        assert a.latency_us == b.latency_us

    def test_unmappable_falls_back_to_scalar(self):
        i = spatial_axis(64, "i")
        a, out = Tensor("A", (64,)), Tensor("out", (64,))
        copy = compute("copy", [i], out[i], [a[i]], combine="identity", reduce=None)
        kernel = amos_compile(copy, "v100", FAST)
        assert not kernel.used_intrinsics
        assert kernel.latency_us > 0

    def test_source_emission(self):
        kernel = amos_compile(
            make_operator("C2D", n=2, c=16, k=16, h=8, w=8), "v100", FAST,
            emit_source=True,
        )
        assert "wmma::mma_sync" in kernel.source
        assert "compute mapping" in kernel.source
        assert "__global__" in kernel.source

    def test_avx512_target(self):
        kernel = amos_compile(
            make_operator("C2D", n=1, c=16, k=16, h=8, w=8), "xeon_4110", FAST
        )
        assert kernel.used_intrinsics

    def test_mali_target_depthwise(self):
        kernel = amos_compile(
            make_operator("DEP", n=1, k=16, h=8, w=8), "mali_g76", FAST
        )
        assert kernel.used_intrinsics


class TestEvaluation:
    def test_tiny_network(self):
        ops = [
            NetworkOp("C2D", dict(n=1, c=16, k=16, h=8, w=8, r=3, s=3)),
            NetworkOp("relu", dict(elements=16 * 8 * 8)),
            NetworkOp("GMV", dict(m=64, k=64)),
        ]
        result = evaluate_network(
            "tiny", ops, AmosBackend(config=FAST), get_hardware("v100")
        )
        assert result.total_ops == 3
        assert result.tensor_ops == 2
        assert result.mapped_ops == 2
        assert result.total_us == pytest.approx(
            result.tensor_us + result.non_tensor_us
        )

    def test_repeat_caching_consistency(self):
        op = NetworkOp("C2D", dict(n=1, c=16, k=16, h=8, w=8, r=3, s=3), repeat=3)
        result = evaluate_network(
            "rep", [op], AmosBackend(config=FAST), get_hardware("v100")
        )
        single = evaluate_network(
            "one", [NetworkOp(op.kind, op.params)], AmosBackend(config=FAST),
            get_hardware("v100"),
        )
        assert result.tensor_us == pytest.approx(3 * single.tensor_us)

    def test_non_tensor_cost_scales(self):
        hw = get_hardware("v100")
        assert non_tensor_cost_us(10**7, hw) > non_tensor_cost_us(10**5, hw)


class TestLoweringIR:
    def test_lowered_structure(self, tensorcore):
        from repro.lower import lower_mapping, ComputeNode, MemoryNode
        from repro.mapping.generation import enumerate_mappings
        from repro.mapping.physical import lower_to_physical
        from repro.schedule import default_schedule, lower_schedule

        comp = make_operator("GMM", m=64, n=64, k=64)
        (mapping,) = enumerate_mappings(comp, tensorcore)
        phys = lower_to_physical(mapping)
        program = lower_mapping(lower_schedule(phys, default_schedule(phys)))
        assert isinstance(program.compute_node, ComputeNode)
        assert program.compute_node.intrinsic_name == "wmma_m16n16k16_f16"
        # Tensor Core memory abstraction: 2 loads via shared + 2 register
        # loads + 1 store.
        assert len(program.memory_nodes) == 5
        scopes = [n.scope.value for n in program.memory_nodes]
        assert "reg" in scopes and "global" in scopes and "shared" in scopes
        # Every node participates in the walk.
        assert sum(1 for _ in program.compute_node.walk()) >= 4

    def test_memory_node_names(self, tensorcore):
        from repro.lower import lower_mapping
        from repro.mapping.generation import enumerate_mappings
        from repro.mapping.physical import lower_to_physical
        from repro.schedule import default_schedule, lower_schedule

        comp = make_operator("GMM", m=64, n=64, k=64)
        (mapping,) = enumerate_mappings(comp, tensorcore)
        phys = lower_to_physical(mapping)
        program = lower_mapping(lower_schedule(phys, default_schedule(phys)))
        names = {n.intrinsic_name for n in program.memory_nodes}
        assert "wmma::load_matrix_sync" in names
        assert "wmma::store_matrix_sync" in names


class TestCodegen:
    def test_c_like_for_avx(self):
        from repro.codegen import emit_c_kernel
        from repro.isa import get_intrinsic
        from repro.mapping.generation import enumerate_mappings
        from repro.mapping.physical import lower_to_physical
        from repro.schedule import default_schedule, lower_schedule

        comp = make_operator("C2D", n=1, c=16, k=16, h=8, w=8)
        vnni = get_intrinsic("avx512_dpbusds_16x4")
        mapping = enumerate_mappings(comp, vnni)[0]
        phys = lower_to_physical(mapping)
        sched = lower_schedule(phys, default_schedule(phys))
        source = emit_c_kernel(sched, get_hardware("xeon_4110"))
        assert "_mm512_dpbusds_epi32" in source
        assert "#pragma omp parallel" in source


class TestDefaultInline:
    """Evaluation runs in-process unless a worker pool is asked for."""

    @pytest.fixture
    def no_pool(self, monkeypatch):
        def refuse(self, *args, **kwargs):
            raise AssertionError("a default compile started a WorkerPool")

        monkeypatch.setattr(WorkerPool, "__init__", refuse)
        reset_global_memo()  # memo hits would hide the evaluations

    def test_default_compile_starts_no_pool(self, no_pool):
        kernel = amos_compile(make_operator("C2D", n=1, c=16, k=16, h=8, w=8), "v100")
        assert kernel.used_intrinsics

    def test_cli_compile_without_workers_starts_no_pool(self, no_pool, capsys):
        from repro.cli import main

        args = ["compile", "C2D", "--params", "n=1", "c=16", "k=16", "h=8", "w=8"]
        assert main([*args, "--quick", "--quiet"]) == 0
        assert "simulated latency" in capsys.readouterr().out

    def test_opt_in_pool_picks_the_same_kernel(self, monkeypatch):
        comp = make_operator("C2D", n=1, c=16, k=16, h=8, w=8)
        reset_global_memo()
        inline = amos_compile(comp, "v100", TunerConfig(seed=5), emit_source=True)

        started = []
        start = WorkerPool.__init__

        def counting(self, *args, **kwargs):
            started.append(args)
            start(self, *args, **kwargs)

        monkeypatch.setattr(WorkerPool, "__init__", counting)
        reset_global_memo()
        pooled = amos_compile(
            comp, "v100", TunerConfig(seed=5, n_workers=2), emit_source=True
        )
        assert started  # the pool really evaluated
        assert pooled.source == inline.source
        assert pooled.latency_us == inline.latency_us
        assert pooled.scheduled.schedule.describe() == inline.scheduled.schedule.describe()
