"""Table 6: number of feasible mappings per operator on Tensor Core.

Regenerates the count of valid software-hardware mappings for every
operator class on the WMMA m16n16k16 intrinsic.  Counts marked "exact" in
DESIGN.md (GMM, GMV, C1D, C2D, C3D, GFC, MEN, VAR, SCN) must equal the
paper; the diagonal-mapping family (DEP, GRP-like, BCV, CAP, T2D) is
reported alongside the paper's numbers with the enumeration caveats.
"""

from repro.frontends.operators import make_operator
from repro.isa import get_intrinsic
from repro.mapping.generation import clear_admission_memo, count_mappings

from bench_utils import write_table

#: Paper Table 6 values.
PAPER_COUNTS = {
    "GMV": 1, "GMM": 1, "C1D": 6, "C2D": 35, "C3D": 180, "T2D": 7,
    "GRP": 35, "DIL": 35, "DEP": 11, "CAP": 105, "BCV": 11, "GFC": 1,
    "MEN": 1, "VAR": 1, "SCN": 1,
}

#: Operator classes whose counts must reproduce the paper exactly.
EXACT = {"GMV", "GMM", "C1D", "C2D", "C3D", "GRP", "DIL", "GFC", "MEN", "VAR", "SCN"}

SMALL_PARAMS = {
    "GMV": dict(m=32, k=32),
    "GMM": dict(m=32, n=32, k=32),
    "C1D": dict(n=2, c=4, k=4, length=8, r=3),
    "C2D": dict(n=2, c=4, k=4, h=6, w=6, r=3, s=3),
    "C3D": dict(n=2, c=3, k=4, d=4, h=5, w=5, t=2, r=2, s=2),
    "T2D": dict(n=1, c=3, k=2, h=4, w=4, r=3, s=3),
    "GRP": dict(n=1, groups=2, c_per_group=3, k_per_group=3, h=4, w=4),
    "DIL": dict(n=1, c=3, k=3, h=5, w=5, dilation=2),
    "DEP": dict(n=1, k=4, h=4, w=4),
    "CAP": dict(n=1, c=2, k=2, h=3, w=3, cap=2),
    "BCV": dict(n=2, c=3, k=3, h=4, w=4),
    "GFC": dict(b=2, groups=3, i=4, c=4),
    "MEN": dict(m=8, k=8),
    "VAR": dict(m=8, k=8),
    "SCN": dict(m=4, k=6),
}


def compute_counts() -> dict[str, int]:
    tc = get_intrinsic("wmma_m16n16k16_f16")
    return {
        code: count_mappings(make_operator(code, **SMALL_PARAMS[code]), tc)
        for code in PAPER_COUNTS
    }


def test_report_table6(benchmark):
    counts = benchmark.pedantic(compute_counts, rounds=1, iterations=1)
    lines = [f"{'op':5} {'paper':>6} {'ours':>6}  note"]
    for code, paper in PAPER_COUNTS.items():
        ours = counts[code]
        note = "exact" if code in EXACT else "diagonal enumeration differs"
        lines.append(f"{code:5} {paper:>6} {ours:>6}  {note}")
    write_table("table6_mapping_counts", lines)
    for code in EXACT:
        assert counts[code] == PAPER_COUNTS[code], code
    # Diagonal-family counts are nonzero and of the right order.
    for code in PAPER_COUNTS.keys() - EXACT:
        assert counts[code] > 0
        assert counts[code] <= 12 * PAPER_COUNTS[code]


def test_benchmark_c2d_enumeration(benchmark):
    """Times the rules and Algorithm 1: each round starts from an empty
    admission memo, which would otherwise serve every round after the
    first."""
    tc = get_intrinsic("wmma_m16n16k16_f16")
    comp = make_operator("C2D", **SMALL_PARAMS["C2D"])
    result = benchmark.pedantic(
        count_mappings, args=(comp, tc), setup=clear_admission_memo, rounds=50
    )
    assert result == 35
