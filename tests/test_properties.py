"""Cross-cutting property-based tests on the mapping core invariants."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.isa import get_intrinsic
from repro.isa.tensorcore import make_wmma_intrinsic
from repro.mapping.generation import enumerate_mappings
from repro.mapping.physical import lower_to_physical
from repro.mapping.validation import validate_mapping
from repro.sim.executor import execute_mapping

from conftest import make_small_conv2d, make_small_gemm


@settings(max_examples=20, deadline=None)
@given(m=st.integers(1, 40), n=st.integers(1, 40), k=st.integers(1, 40))
def test_gemm_padding_preserves_result(m, n, k):
    """Trailing padding never changes the result: GEMM of any shape
    through the 16x16x16 intrinsic equals numpy matmul."""
    comp = make_small_gemm(m, n, k)
    intr = get_intrinsic("wmma_m16n16k16_f16")
    (mapping,) = enumerate_mappings(comp, intr)
    phys = lower_to_physical(mapping)
    rng = np.random.default_rng(m * 1000 + n * 10 + k)
    a = rng.standard_normal((m, k))
    b = rng.standard_normal((k, n))
    got = execute_mapping(phys, {"A": a, "B": b})
    assert np.allclose(got, a @ b, atol=1e-9)


@settings(max_examples=10, deadline=None)
@given(mp=st.integers(1, 6), np_=st.integers(1, 6), kp=st.integers(1, 6))
def test_intrinsic_shape_never_changes_mapping_count(mp, np_, kp):
    """The mapping count is a property of the access structures, not the
    problem sizes: any WMMA fragment shape gives the same count."""
    intr = make_wmma_intrinsic(mp, np_, kp)
    comp = make_small_conv2d()
    assert len(enumerate_mappings(comp, intr)) == 35


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_column_permutation_of_valid_mapping_stays_valid(seed):
    tensorcore = get_intrinsic("wmma_m16n16k16_f16")
    """Validity is per-column: permuting which software iteration sits in
    which column of a valid Y (consistently with X) must stay valid for
    iterations with identical access signatures and kinds (e.g. swapping
    r and s of a conv)."""
    comp = make_small_conv2d()
    mappings = enumerate_mappings(comp, tensorcore)
    rng = np.random.default_rng(seed)
    mapping = mappings[rng.integers(len(mappings))]
    y = mapping.matching.data.copy()
    # r and s are columns 5 and 6 with identical signature and kind.
    y[:, [5, 6]] = y[:, [6, 5]]
    from repro.mapping.matrices import MatchingMatrix

    assert validate_mapping(comp, tensorcore, MatchingMatrix(y))


def test_utilization_bounded(tensorcore):
    """Utilization of any physical mapping lies in (0, 1]."""
    for comp in (make_small_conv2d(), make_small_gemm(10, 20, 30)):
        for mapping in enumerate_mappings(comp, tensorcore):
            util = lower_to_physical(mapping).utilization()
            assert 0.0 < util <= 1.0


def test_calls_times_macs_covers_iterations(tensorcore):
    """Provided MAC slots always cover the useful iterations (calls are
    an over-approximation, never an under-approximation)."""
    comp = make_small_conv2d(2, 3, 5, 6, 6)
    for mapping in enumerate_mappings(comp, tensorcore):
        phys = lower_to_physical(mapping)
        provided = phys.num_intrinsic_calls() * phys.intrinsic.macs_per_call()
        assert provided >= comp.total_iterations()


@settings(max_examples=10, deadline=None)
@given(
    warp=st.integers(1, 8),
    seq=st.integers(1, 4),
    stage=st.integers(1, 4),
)
def test_total_calls_invariant_under_schedule(warp, seq, stage):
    tensorcore = get_intrinsic("wmma_m16n16k16_f16")
    """The schedule redistributes work but the grid-wide intrinsic-call
    count only grows through split padding, never shrinks below the
    physical mapping's count."""
    from repro.schedule.lowering import lower_schedule
    from repro.schedule.schedule import DimSplit, Schedule

    comp = make_small_gemm(64, 64, 64)
    (mapping,) = enumerate_mappings(comp, tensorcore)
    phys = lower_to_physical(mapping)
    sched = lower_schedule(
        phys,
        Schedule({"t_i1": DimSplit(warp, seq)}, reduce_stage=stage),
    )
    assert sched.total_calls >= phys.num_intrinsic_calls()
