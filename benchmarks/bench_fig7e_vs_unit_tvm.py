"""Fig 7 e: network-level comparison against UNIT and an AutoTVM-expert
style TVM on the simulated A100.

The paper compares ResNet-18/50 and MobileNet-V1 at batches 16/32 against
UNIT and TVM; AMOS wins or ties everywhere, with UNIT hurt by its
batch-ignoring fuse_hw template and TVM hurt on strided convolutions.
"""

from repro.baselines import make_baseline
from repro.evaluation import AmosBackend, evaluate_network
from repro.frontends.networks import NETWORKS
from repro.model import get_hardware

from bench_utils import FAST_CONFIG, write_table

NETS = ["resnet18", "resnet50", "mobilenet_v1"]
BATCHES = [16, 32]


def run_sweep():
    hw = get_hardware("a100")
    amos = AmosBackend(config=FAST_CONFIG)
    unit = make_baseline("unit")
    tvm = make_baseline("autotvm_expert")
    rows = []
    for name in NETS:
        for batch in BATCHES:
            ours = evaluate_network(name, NETWORKS[name], amos, hw, batch=batch)
            vs_unit = evaluate_network(name, NETWORKS[name], unit, hw, batch=batch)
            vs_tvm = evaluate_network(name, NETWORKS[name], tvm, hw, batch=batch)
            rows.append((name, batch, ours, vs_unit, vs_tvm))
    return rows


def test_report_fig7e(benchmark):
    rows = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    lines = ["fig7e: speedup of AMOS over UNIT and TVM (A100)"]
    for name, batch, ours, vs_unit, vs_tvm in rows:
        s_unit = vs_unit.total_us / ours.total_us
        s_tvm = vs_tvm.total_us / ours.total_us
        lines.append(
            f"  {name:14} bs{batch:<3} vs UNIT {s_unit:5.2f}x  vs TVM {s_tvm:5.2f}x"
        )
    write_table("fig7e_vs_unit_tvm", lines)

    for name, batch, ours, vs_unit, vs_tvm in rows:
        s_unit = vs_unit.total_us / ours.total_us
        s_tvm = vs_tvm.total_us / ours.total_us
        # AMOS wins or roughly ties every case...
        assert s_unit > 0.95 and s_tvm > 0.95, (name, batch)
        # ...and on depthwise-heavy MobileNet both templates lose clearly
        # (neither UNIT's nor the expert template covers DEP).
        if name == "mobilenet_v1":
            assert s_unit > 1.3 and s_tvm > 1.3
