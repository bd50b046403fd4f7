"""Fig 6 c: C2D layers C0-C11 on A100 — AMOS vs the compiler field.

Compares AMOS against the CuDNN-style library and the UNIT / AutoTVM /
AutoTVM-Expert / Ansor / AKG baselines over the twelve ResNet-18 conv
layers at batch 16.  Paper headline numbers (geomean speedup of AMOS):
2.38x over CuDNN, 4.96x over UNIT, 1.30x over AutoTVM-Expert, 1.79x over
Ansor; AKG and Ansor cannot use Tensor Core at all.
"""

from repro.baselines import LibraryBackend, make_baseline
from repro.compiler import amos_compile
from repro.frontends.workloads import RESNET18_CONV_LAYERS
from repro.model import get_hardware

from bench_utils import SWEEP_CONFIG, geomean, write_table

BASELINES = ("pytorch", "unit", "autotvm", "autotvm_expert", "ansor", "akg")


def run_sweep():
    hw = get_hardware("a100")
    backends = {"pytorch": LibraryBackend()}
    for name in BASELINES[1:]:
        backends[name] = make_baseline(name)
    rows = []
    for layer in RESNET18_CONV_LAYERS:
        comp = layer.computation()
        amos_us = amos_compile(comp, hw, SWEEP_CONFIG).latency_us
        others = {
            name: backend.compile(comp, hw).latency_us
            for name, backend in backends.items()
        }
        rows.append((layer.name, amos_us, others))
    return rows


def test_report_fig6c(benchmark):
    rows = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    header = f"{'layer':6} {'amos_us':>9} " + " ".join(f"{n:>10}" for n in BASELINES)
    lines = [header + "   (columns: speedup of AMOS over each baseline)"]
    speedups = {name: [] for name in BASELINES}
    for layer_name, amos_us, others in rows:
        cells = []
        for name in BASELINES:
            s = others[name] / amos_us
            speedups[name].append(s)
            cells.append(f"{s:>9.2f}x")
        lines.append(f"{layer_name:6} {amos_us:>9.1f} " + " ".join(cells))
    geo = {name: geomean(vals) for name, vals in speedups.items()}
    lines.append(
        "geomean: "
        + "  ".join(f"{name} {geo[name]:.2f}x" for name in BASELINES)
    )
    lines.append(
        "paper geomeans: cudnn 2.38x, unit 4.96x, autotvm-expert 1.30x, ansor 1.79x"
    )
    write_table("fig6c_conv_compilers", lines)

    # Who-wins shape: AMOS beats every baseline on geomean; UNIT (fixed
    # fuse_hw template) is the weakest tensorising compiler; the expert
    # NCHW template closes most but not all of the gap.
    for name in BASELINES:
        assert geo[name] > 1.0, name
    assert geo["unit"] > geo["autotvm_expert"]
    assert geo["pytorch"] > geo["autotvm_expert"]
