"""Fig 5: performance-model validation on Tensor Core.

Reproduces the model-validation experiment: tune 2-D convolution layers
from ResNet-18 on the simulated V100, record (model-predicted, measured)
pairs over the exploration, and report pairwise rank accuracy plus the
recall of the measured-best candidates within the model's top fraction.
The paper reports overall pairwise accuracy ~0.86 and top-40% recall
~0.91; the claim under test is that the model ranks candidates far better
than chance and retrieves most of the truly-good ones.
"""

from repro.explore.metrics import pairwise_accuracy, top_k_recall
from repro.explore.tuner import Tuner
from repro.frontends.workloads import RESNET18_CONV_LAYERS
from repro.model import get_hardware

from bench_utils import SWEEP_CONFIG, write_table

TOP_RATES = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6)


def collect_pairs():
    hw = get_hardware("v100")
    tuner = Tuner(hw, SWEEP_CONFIG)
    predicted, measured = [], []
    per_layer = []
    for layer in RESNET18_CONV_LAYERS[1:7]:  # six mid-network layers
        result = tuner.tune(layer.computation(batch=1))
        # Pair each trial's prediction with its own measurement before
        # dropping the infeasible ones, so no pair shifts past them.
        pairs = [
            (t.predicted_us, t.measured_us)
            for t in result.trials
            if t.measured_us is not None and t.measured_us != float("inf")
        ]
        pred = [p for p, _ in pairs]
        meas = [m for _, m in pairs]
        if len(meas) >= 5:
            per_layer.append((layer.name, pairwise_accuracy(pred, meas)))
        predicted.extend(pred)
        measured.extend(meas)
    return predicted, measured, per_layer


def test_report_fig5(benchmark):
    predicted, measured, per_layer = benchmark.pedantic(
        collect_pairs, rounds=1, iterations=1
    )
    overall = pairwise_accuracy(predicted, measured)
    recalls = {rate: top_k_recall(predicted, measured, rate) for rate in TOP_RATES}

    lines = [f"samples: {len(measured)}"]
    lines.append(f"overall pairwise accuracy: {overall:.3f} (paper: 0.857)")
    for name, acc in per_layer:
        lines.append(f"  {name}: pairwise accuracy {acc:.3f}")
    lines.append("recall vs top rate (paper: 0.25/0.71/0.81/0.91/0.86/0.85):")
    for rate in TOP_RATES:
        lines.append(f"  top-{int(rate * 100)}%: recall {recalls[rate]:.3f}")
    write_table("fig5_model_validation", lines)

    assert len(measured) >= 60
    # The model must rank much better than chance...
    assert overall > 0.65
    # ...and retrieve most of the good candidates at moderate top rates.
    assert recalls[0.4] > 0.6
    assert recalls[0.5] > 0.6


def test_benchmark_model_evaluation_speed(benchmark):
    """The analytic model must be orders of magnitude cheaper than the
    cycle simulator — that is why it can filter the space."""
    from repro.mapping.generation import enumerate_mappings
    from repro.mapping.physical import lower_to_physical
    from repro.model import predict_latency
    from repro.isa import get_intrinsic
    from repro.schedule import default_schedule, lower_schedule

    comp = RESNET18_CONV_LAYERS[1].computation(batch=1)
    tc = get_intrinsic("wmma_m16n16k16_f16")
    phys = lower_to_physical(enumerate_mappings(comp, tc)[0])
    sched = lower_schedule(phys, default_schedule(phys))
    hw = get_hardware("v100")
    pred = benchmark(predict_latency, sched, hw)
    assert pred.total_us > 0
