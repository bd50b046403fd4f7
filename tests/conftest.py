"""Shared fixtures: small operator computations used across mapping tests,
a switch that sends every engine batch of an opted-in pool to it, the
batch-versus-scalar parity check of the engine's evaluated rows, and a
guard that fails any test leaving the intrinsic registry changed."""

import zlib
from dataclasses import dataclass, field

import pytest

import repro.engine.engine as engine_mod
from repro.ir import Tensor, compute, reduce_axis, spatial_axis
from repro.isa import get_intrinsic, registry
from repro.model.perf_model import predict_latency
from repro.schedule.features import schedules_from_rows
from repro.schedule.lowering import lower_schedule
from repro.sim.timing import simulate_cycles


@pytest.fixture(autouse=True)
def intrinsic_registry_unchanged():
    """Fail any test that leaves the global intrinsic registry changed
    (an intrinsic added, removed or replaced), after restoring it so the
    leak cannot reach later tests."""
    before = dict(registry._REGISTRY)
    yield
    after = registry._REGISTRY
    changed = sorted(
        name
        for name in before.keys() | after.keys()
        if before.get(name) is not after.get(name)
    )
    if changed:
        after.clear()
        after.update(before)
        pytest.fail(f"test left the intrinsic registry changed: {changed}")


@pytest.fixture
def tensorcore():
    return get_intrinsic("wmma_m16n16k16_f16")


@pytest.fixture
def pool_every_batch(monkeypatch):
    """With ``n_workers > 1``, evaluate every miss batch on the pool,
    however small (``n_workers=1`` stays in-process)."""
    monkeypatch.setattr(engine_mod, "MIN_POOL_BATCH", 1)


@dataclass
class ParityTally:
    """Rows :func:`scalar_parity` re-checked, and every disagreement as
    ``(row key, engine result, oracle result)``."""

    checked: int = 0
    mismatches: list = field(default_factory=list)


@pytest.fixture
def scalar_parity(monkeypatch):
    """Re-check the rows the engine evaluates against the scalar oracle.

    ``scalar_parity(rate)`` wraps ``EvaluationEngine._evaluate_misses``
    for the rest of the test, so inline and pooled batches are both seen.
    A row is sampled when the ``zlib.crc32`` of its memo key is below
    ``rate * 2**32``: deterministic per candidate, so a tune samples the
    same rows on every run.  Each sampled row is decoded, lowered and run
    through ``predict_latency`` (and ``simulate_cycles`` when the batch
    measures); the pair must equal the engine's result exactly.
    Returns the :class:`ParityTally`; calling again restarts it.
    """
    evaluate = engine_mod.EvaluationEngine._evaluate_misses

    def install(rate: float = 1.0) -> ParityTally:
        tally = ParityTally()
        threshold = int(rate * 0x100000000)

        def checked(self, mapping_indices, batch, measure, use_pool):
            predicted, measured = evaluate(
                self, mapping_indices, batch, measure, use_pool
            )
            keys = self.row_keys(mapping_indices, batch)
            for i, key in enumerate(keys):
                if zlib.crc32(key) >= threshold:
                    continue
                mi = int(mapping_indices[i])
                names = self.table.spatial_names(mi)
                (schedule,) = schedules_from_rows(names, batch, [i])
                lowered = lower_schedule(self.physical[mi], schedule)
                oracle = (
                    predict_latency(lowered, self.hardware).total_us,
                    simulate_cycles(lowered, self.hardware).total_us
                    if measure
                    else None,
                )
                result = (
                    float(predicted[i]),
                    float(measured[i]) if measure else None,
                )
                tally.checked += 1
                if oracle != result:
                    tally.mismatches.append((key, result, oracle))
            return predicted, measured

        monkeypatch.setattr(
            engine_mod.EvaluationEngine, "_evaluate_misses", checked
        )
        return tally

    return install


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
