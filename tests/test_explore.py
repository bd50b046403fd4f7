"""Exploration: metrics, genetic algorithm, and the full tuner."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.engine import EvaluationEngine
from repro.explore.genetic import GeneticConfig, genetic_search_rows
from repro.explore.metrics import pairwise_accuracy, top_k_recall
from repro.explore.random_search import random_search
from repro.explore.tuner import Tuner, TunerConfig
from repro.mapping.generation import enumerate_mappings
from repro.mapping.physical import lower_to_physical
from repro.model import get_hardware
from repro.schedule.space import default_rows

from conftest import make_small_conv2d, make_small_gemm, make_small_gemv


class TestMetrics:
    def test_perfect_agreement(self):
        assert pairwise_accuracy([1, 2, 3], [10, 20, 30]) == 1.0

    def test_total_disagreement(self):
        assert pairwise_accuracy([1, 2, 3], [30, 20, 10]) == 0.0

    def test_ties_count_half(self):
        assert pairwise_accuracy([1, 1], [1, 2]) == 0.5

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            pairwise_accuracy([1], [1, 2])

    def test_recall_perfect(self):
        assert top_k_recall([1, 2, 3, 4], [1, 2, 3, 4], 0.5) == 1.0

    def test_recall_zero(self):
        assert top_k_recall([1, 2, 3, 4], [4, 3, 2, 1], 0.5) == 0.0

    def test_recall_bad_rate(self):
        with pytest.raises(ValueError, match="0 < top_rate <= 1"):
            top_k_recall([1], [1], 0.0)

    def test_recall_full_rate_allowed(self):
        # top_rate=1.0 is the documented inclusive upper bound: the full
        # sets are compared, so recall is 1.0 even for inverted rankings.
        assert top_k_recall([1, 2, 3, 4], [4, 3, 2, 1], 1.0) == 1.0

    def test_recall_rate_above_one_rejected(self):
        with pytest.raises(ValueError, match="0 < top_rate <= 1"):
            top_k_recall([1], [1], 1.0001)

    @given(st.lists(st.floats(0.1, 100), min_size=2, max_size=20))
    def test_self_agreement_properties(self, series):
        assert pairwise_accuracy(series, series) >= 0.5
        assert top_k_recall(series, series, 0.4) == 1.0

    @given(
        st.lists(st.floats(0.1, 100), min_size=3, max_size=12),
        st.lists(st.floats(0.1, 100), min_size=3, max_size=12),
    )
    def test_metrics_bounded(self, a, b):
        n = min(len(a), len(b))
        assert 0.0 <= pairwise_accuracy(a[:n], b[:n]) <= 1.0
        assert 0.0 <= top_k_recall(a[:n], b[:n], 0.5) <= 1.0


def _physical_mappings(comp, intrinsic):
    return [lower_to_physical(m) for m in enumerate_mappings(comp, intrinsic)]


def _model_rows(comp, phys):
    """The analytic model on V100 as a row fitness (an inline engine's
    ``predict_rows``, with its own memo)."""
    engine = EvaluationEngine(
        comp, phys, get_hardware("v100"), n_workers=1
    )
    return engine.predict_rows


class TestGenetic:
    def test_deterministic(self, tensorcore):
        comp = make_small_conv2d(4, 16, 16, 7, 7)
        phys = _physical_mappings(comp, tensorcore)
        cfg = GeneticConfig(population=8, generations=3, seed=5)
        a = genetic_search_rows(phys, _model_rows(comp, phys), cfg)
        b = genetic_search_rows(phys, _model_rows(comp, phys), cfg)
        assert a.costs.tolist() == b.costs.tolist()
        assert a.mapping_index.tolist() == b.mapping_index.tolist()

    def test_results_sorted(self, tensorcore):
        comp = make_small_gemm(64, 64, 64)
        phys = _physical_mappings(comp, tensorcore)
        results = genetic_search_rows(
            phys, _model_rows(comp, phys), GeneticConfig(population=6, generations=2)
        )
        costs = results.costs.tolist()
        assert costs == sorted(costs)

    def test_empty_mappings_rejected(self):
        with pytest.raises(ValueError):
            genetic_search_rows([], lambda mi, batch: np.zeros(len(batch)))

    def test_ga_at_least_as_good_as_random(self, tensorcore):
        comp = make_small_conv2d(4, 16, 16, 7, 7)
        phys = _physical_mappings(comp, tensorcore)
        fitness = _model_rows(comp, phys)
        ga_best = genetic_search_rows(
            phys, fitness, GeneticConfig(population=16, generations=6, seed=0)
        ).costs[0]
        rnd_best = random_search(phys, fitness, trials=32, seed=0).costs[0]
        assert ga_best <= rnd_best * 1.25


class TestTuner:
    def test_tune_gemm(self, tensorcore):
        tuner = Tuner(get_hardware("v100"), TunerConfig(population=8, generations=3))
        result = tuner.tune(make_small_gemm(256, 256, 256))
        assert result.best_us > 0
        assert result.num_mappings == 3  # one mapping per WMMA shape
        assert result.best_gflops() > 0
        assert any(t.measured_us is not None for t in result.trials)

    def test_tune_restricted_mappings(self, tensorcore):
        comp = make_small_conv2d(4, 16, 16, 7, 7)
        phys = _physical_mappings(comp, tensorcore)
        tuner = Tuner(get_hardware("v100"), TunerConfig(population=8, generations=3))
        result = tuner.tune(comp, [phys[0]])
        assert result.num_mappings == 1
        assert result.best.physical is phys[0]

    def test_tune_no_mapping_raises(self):
        from repro.ir import Tensor, compute, spatial_axis

        i = spatial_axis(8, "i")
        a, out = Tensor("A", (8,)), Tensor("out", (8,))
        copy = compute("copy", [i], out[i], [a[i]], combine="identity", reduce=None)
        tuner = Tuner(get_hardware("v100"))
        with pytest.raises(ValueError, match="no valid mapping"):
            tuner.tune(copy)

    def test_prefilter_reduces_mappings(self, tensorcore):
        comp = make_small_conv2d(4, 16, 16, 7, 7)
        tuner = Tuner(
            get_hardware("v100"),
            TunerConfig(population=8, generations=2, prefilter_mappings=4),
        )
        phys = tuner.candidate_mappings(comp)
        with tuner._make_engine(comp, phys) as engine:
            defaults = default_rows(engine.table, tuner._max_warps_per_block)
            kept = tuner._prefilter_indices(engine, defaults)
        assert len(kept) == 4
        assert len(set(kept)) == 4 and all(0 <= i < len(phys) for i in kept)

    def test_trials_record_predictions(self, tensorcore):
        tuner = Tuner(get_hardware("v100"), TunerConfig(population=8, generations=3))
        result = tuner.tune(make_small_gemv(128, 128))
        assert all(t.predicted_us > 0 for t in result.trials)

    def test_summary_is_plain_serializable_dict(self, tensorcore):
        import json

        tuner = Tuner(get_hardware("v100"), TunerConfig(population=8, generations=3))
        result = tuner.tune(make_small_gemm(256, 256, 256))
        s = result.summary()
        assert s["best_us"] == result.best_us
        assert s["best_gflops"] == result.best_gflops()
        assert s["num_mappings"] == result.num_mappings
        assert s["num_trials"] == len(result.trials)
        assert s["trials_measured"] + s["trials_predicted_only"] == s["num_trials"]
        assert s["trials_measured"] >= 1
        json.dumps(s)  # one shared serialization path: must be plain JSON

    def test_generation_callback_does_not_perturb_search(self, tensorcore):
        comp = make_small_gemm(64, 64, 64)
        phys = _physical_mappings(comp, tensorcore)
        fitness = _model_rows(comp, phys)
        cfg = GeneticConfig(population=8, generations=3, seed=7)
        plain = genetic_search_rows(phys, fitness, cfg)
        observed = []
        with_cb = genetic_search_rows(
            phys, fitness, cfg,
            on_generation=lambda gen, fits, uniq: observed.append((gen, len(fits), uniq)),
        )
        assert plain.costs.tolist() == with_cb.costs.tolist()
        assert plain.mapping_index.tolist() == with_cb.mapping_index.tolist()
        # One callback per generation plus one for the final population.
        assert [gen for gen, _, _ in observed] == list(range(cfg.generations + 1))
        assert all(0 < uniq <= pop for _, pop, uniq in observed)
