"""Sec 7.5 "New Accelerators": retargeting AMOS to AXPY/GEMV/CONV units.

Counts the valid mappings of C3D onto the three virtual accelerators
(the paper reports 15 / 7 / 31 under its enumeration) and compiles C3D
end to end on each, demonstrating that adding an accelerator is just a
hardware-abstraction registration.
"""

from repro.compiler import amos_compile
from repro.frontends.operators import make_operator
from repro.isa import get_intrinsic
from repro.mapping.generation import count_mappings

from bench_utils import SWEEP_CONFIG, write_table

ACCELERATORS = {
    "vaxpy_32": ("axpy_accel", 15),
    "vgemv_16x16": ("gemv_accel", 7),
    "vconv_8x8x8": ("conv_accel", 31),
}


def run_experiment():
    comp_small = make_operator(
        "C3D", n=2, c=3, k=4, d=4, h=5, w=5, t=2, r=2, s=2
    )
    comp_big = make_operator(
        "C3D", n=1, c=8, k=16, d=8, h=14, w=14, t=3, r=3, s=3
    )
    rows = []
    for intr_name, (device, paper_count) in ACCELERATORS.items():
        count = count_mappings(comp_small, get_intrinsic(intr_name))
        kernel = amos_compile(comp_big, device, SWEEP_CONFIG)
        rows.append((intr_name, device, count, paper_count, kernel))
    return rows


def test_report_new_accelerators(benchmark):
    rows = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    lines = ["C3D on the three virtual accelerators"]
    for intr_name, device, count, paper_count, kernel in rows:
        lines.append(
            f"  {intr_name:14} mappings {count:>4} (paper: {paper_count:>3})  "
            f"compiled: {kernel.latency_us:9.1f} us, {kernel.gflops():8.1f} GFLOP/s"
        )
    write_table("sec75_new_accelerators", lines)

    for intr_name, device, count, paper_count, kernel in rows:
        assert count > 0, intr_name
        assert kernel.used_intrinsics, intr_name
    # The richer the intrinsic, the faster the compiled kernel: the CONV
    # unit beats the GEMV unit which beats the AXPY unit on C3D.
    by_name = {name: k for name, _, _, _, k in rows}
    assert (
        by_name["vconv_8x8x8"].gflops()
        > by_name["vgemv_16x16"].gflops()
        > by_name["vaxpy_32"].gflops()
    )
