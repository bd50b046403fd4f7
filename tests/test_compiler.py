"""Top-level compile pipeline, evaluation helper, lowering and codegen."""

import dataclasses

import pytest

import repro.explore.tuner as tuner
from repro import amos_compile, evaluate_network, get_hardware, make_operator
from repro.engine.fingerprint import mapping_fingerprint
from repro.engine.pool import WorkerPool
from repro.evaluation import AmosBackend, non_tensor_cost_us
from repro.explore.tuner import Tuner, TunerConfig
from repro.frontends import operators
from repro.frontends.networks import NetworkOp
from repro.ir import Tensor, compute, spatial_axis
from repro.mapping import generation
from repro.mapping.physical import lower_to_physical
from repro.schedule.features import MappingTable


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

    def test_second_pass_builds_and_walks_no_operator(self, tmp_path, monkeypatch):
        """A warm pass reuses the first pass's interned computations, so
        nothing is rebuilt and no memo hanging off them misses."""
        calls = []

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)

            return wrapper

        for code, builder in list(operators.OPERATOR_BUILDERS.items()):
            monkeypatch.setitem(operators.OPERATOR_BUILDERS, code, counting(code, builder))
        monkeypatch.setattr(
            generation,
            "compound_iterations",
            counting("compound_iterations", generation.compound_iterations),
        )
        ops = [
            NetworkOp("C2D", dict(n=1, c=16, k=16, h=8, w=8, r=3, s=3)),
            NetworkOp("relu", dict(elements=16 * 8 * 8)),
            NetworkOp("GMV", dict(m=64, k=64)),
        ]
        backend = AmosBackend(config=dataclasses.replace(FAST, cache_dir=str(tmp_path)))
        hw = get_hardware("v100")
        operators.clear_operator_memo()
        cold = evaluate_network("tiny", ops, backend, hw)
        assert sorted(set(calls)) == ["C2D", "GMV", "compound_iterations"]
        calls.clear()
        warm = evaluate_network("tiny", ops, backend, hw)
        assert calls == []
        assert warm == cold

    def test_non_tensor_cost_scales(self):
        hw = get_hardware("v100")
        assert non_tensor_cost_us(10**7, hw) > non_tensor_cost_us(10**5, hw)


class TestLoweringIR:
    def test_lowered_structure(self, tensorcore):
        from repro.lower import lower_mapping, ComputeNode
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
        inline = amos_compile(comp, "v100", TunerConfig(seed=5), emit_source=True)

        started = []
        start = WorkerPool.__init__

        def counting(self, *args, **kwargs):
            started.append(args)
            start(self, *args, **kwargs)

        monkeypatch.setattr(WorkerPool, "__init__", counting)
        pooled = amos_compile(
            comp, "v100", TunerConfig(seed=5, n_workers=2), emit_source=True
        )
        assert started  # the pool really evaluated
        assert pooled.source == inline.source
        assert pooled.latency_us == inline.latency_us
        assert pooled.scheduled.schedule.describe() == inline.scheduled.schedule.describe()


class TestLoweringMemo:
    """A computation's mappings are lowered, tabled and fingerprinted
    once per process: every later compile of it reuses them."""

    C2D = dict(n=1, c=16, k=16, h=8, w=8)

    @pytest.fixture
    def counted(self, monkeypatch):
        """Cleared lowering memo; counts ``lower_to_physical`` calls and
        ``MappingTable`` builds."""
        calls = {"lowered": 0, "tables": 0}
        lower, init = tuner.lower_to_physical, MappingTable.__init__

        def counting_lower(mapping):
            calls["lowered"] += 1
            return lower(mapping)

        def counting_init(self, physical):
            calls["tables"] += 1
            init(self, physical)

        monkeypatch.setattr(tuner, "lower_to_physical", counting_lower)
        monkeypatch.setattr(MappingTable, "__init__", counting_init)
        tuner.clear_lowering_memo()
        return calls

    def test_second_compile_lowers_and_tables_nothing(self, counted):
        comp = make_operator("C2D", **self.C2D)
        cold = amos_compile(comp, "v100", FAST)
        assert counted["lowered"] >= cold.num_mappings > 1
        assert counted["tables"] == 1
        counted.update(lowered=0, tables=0)
        warm = amos_compile(comp, "v100", FAST)
        assert counted == {"lowered": 0, "tables": 0}
        assert warm.latency_us == cold.latency_us
        assert warm.scheduled.physical is cold.scheduled.physical
        assert warm.scheduled.schedule.describe() == cold.scheduled.schedule.describe()
        tuner.clear_lowering_memo()  # releases the lowered sets and tables
        assert not tuner._LOWERED and tuner._lowered_held == 0

    def test_repeated_cache_hit_lowers_nothing(self, counted, tmp_path):
        config = dataclasses.replace(FAST, cache_dir=str(tmp_path))
        comp = make_operator("C2D", **self.C2D)
        cold = amos_compile(comp, "v100", config)
        counted.update(lowered=0, tables=0)
        hits = [amos_compile(comp, "v100", config) for _ in range(2)]
        # The first hit lowers its one stored mapping, the second nothing.
        assert counted == {"lowered": 1, "tables": 0}
        assert hits[0].scheduled.physical is hits[1].scheduled.physical
        for hit in hits:
            assert hit.latency_us == cold.latency_us
            assert mapping_fingerprint(hit.scheduled.physical) == mapping_fingerprint(
                cold.scheduled.physical
            )

    def test_each_context_gets_its_own_lowered_set(self, counted):
        comp = make_operator("C2D", **self.C2D)
        v100 = Tuner(get_hardware("v100"), FAST)
        base = v100.candidate_mappings(comp)
        fingerprints = [mapping_fingerprint(pm) for pm in base]
        assert counted["lowered"] == len(base)
        assert all(a is b for a, b in zip(v100.candidate_mappings(comp), base))
        assert counted["lowered"] == len(base)

        def shares_nothing(physical):
            ids = {id(pm) for pm in base}
            return not any(id(pm) in ids for pm in physical)

        # Another target: its own intrinsics, so its own mappings.
        mali = Tuner(get_hardware("mali_g76"), FAST).candidate_mappings(comp)
        assert mali and shares_nothing(mali)
        assert not {pm.intrinsic.name for pm in mali} & {pm.intrinsic.name for pm in base}

        # Other options admit the same matchings afresh: an equal set,
        # lowered on its own.
        options = generation.GenerationOptions(max_candidates=10**7)
        other = Tuner(
            get_hardware("v100"), dataclasses.replace(FAST, generation_options=options)
        ).candidate_mappings(comp)
        assert shares_nothing(other)
        assert [mapping_fingerprint(pm) for pm in other] == fingerprints

        # A same-structure layer with other extents shares the admitted
        # matchings, but not their lowering.
        layer = make_operator("C2D", n=2, c=32, k=16, h=14, w=14)
        wider = v100.candidate_mappings(layer)
        assert len(wider) == len(base)
        assert all(
            a.compute.matching is b.compute.matching for a, b in zip(wider, base)
        )
        assert shares_nothing(wider)
        assert all(pm.computation is layer for pm in wider)
        assert [pm.splits for pm in wider] != [pm.splits for pm in base]

        # A cleared memo lowers again, to equal mappings.
        counted["lowered"] = 0
        tuner.clear_lowering_memo()
        again = v100.candidate_mappings(comp)
        assert counted["lowered"] == len(base)
        assert shares_nothing(again)
        assert [mapping_fingerprint(pm) for pm in again] == fingerprints

    def test_subset_tune_is_unaffected(self, counted):
        """A caller's mapping subset gets a table of its own and tunes as
        a freshly lowered copy of it does."""
        comp = make_operator("C2D", **self.C2D)
        hw = get_hardware("v100")
        full = Tuner(hw, FAST).candidate_mappings(comp)
        subset = full[1:9:2]
        Tuner(hw, FAST).tune(comp)  # the full list's table is memoized
        shared = Tuner(hw, FAST).tune(comp, mappings=subset)
        assert shared.trial_table.mappings.physical == tuple(subset)

        tuner.clear_lowering_memo()
        copy = [lower_to_physical(pm.compute) for pm in subset]
        fresh = Tuner(hw, FAST).tune(comp, mappings=copy)
        assert shared.best_us == fresh.best_us
        assert shared.summary() == fresh.summary()
        assert shared.best.schedule.describe() == fresh.best.schedule.describe()
        assert mapping_fingerprint(shared.best.physical) == mapping_fingerprint(
            fresh.best.physical
        )

    def test_cache_store_releases_the_set(self, counted, tmp_path):
        """Without a compile cache the set is kept for the next compile;
        once a compile is stored in one, a repeat is a cache hit, so the
        computation's set is let go (another computation's is kept)."""
        kept = make_operator("C2D", **self.C2D)
        amos_compile(kept, "v100", FAST)
        held = tuner._lowered_held
        assert held > 0

        def sets_of(comp):
            return [s for s in tuner._LOWERED.values() if s[0].computation is comp]

        assert len(sets_of(kept)) == 1
        stored = make_operator("C2D", n=2, c=32, k=16, h=14, w=14)
        config = dataclasses.replace(FAST, cache_dir=str(tmp_path))
        cold = amos_compile(stored, "v100", config)
        assert cold.num_mappings > 1
        assert not sets_of(stored) and len(sets_of(kept)) == 1
        assert tuner._lowered_held == held

        # A hit memoizes the one mapping it lowers, and a repeat hit
        # lowers nothing.
        counted["lowered"] = 0
        hits = [amos_compile(stored, "v100", config) for _ in range(2)]
        assert counted["lowered"] == 1
        assert [len(s) for s in sets_of(stored)] == [1]
        assert hits[0].latency_us == hits[1].latency_us == cold.latency_us

    def test_bound_restarts_the_memo(self, counted, monkeypatch):
        """A set that would take the memo past its bound (in lowered
        mappings held) empties it first, and its table goes with it."""
        v100 = Tuner(get_hardware("v100"), FAST)
        small = make_operator("C2D", **self.C2D)
        large = make_operator("C2D", n=2, c=32, k=16, h=14, w=14)

        first = v100.candidate_mappings(small)
        first_table = first.table
        monkeypatch.setattr(tuner, "_LOWERED_MAX", len(first) + 1)
        assert v100.candidate_mappings(small).table is first_table

        second = v100.candidate_mappings(large)
        assert tuner._lowered_held == len(second)
        # The second set and its table are served; the first were forgotten.
        assert v100.candidate_mappings(large) is second
        assert second.table is second.table
        again = v100.candidate_mappings(small)
        assert again is not first and again.table is not first_table
        assert not any(a is b for a, b in zip(again, first))
