"""Physical lowering: splits, padding, addresses, utilization, diagonals."""

import pathlib
import pickle
import sys

import numpy as np
import pytest

from repro.frontends.networks import NETWORKS
from repro.frontends.operators import make_operator
from repro.ir import Tensor, compute, reduce_axis, spatial_axis
from repro.isa.registry import intrinsics_for_target
from repro.isa.tensorcore import make_wmma_intrinsic
from repro.mapping.generation import enumerate_mappings
from repro.mapping.matrices import MatchingMatrix
from repro.mapping.mapping import ComputeMapping
from repro.mapping.physical import lower_to_physical
from repro.model.hardware_params import get_hardware, list_hardware
from repro.sim.executor import execute_mapping

from conftest import make_small_conv2d, make_small_depthwise, make_small_gemm


def figure3_setup():
    """The paper's running example: a 1x4x2x2 conv with 1x3x3 weights on a
    simplified 2x2x2 Tensor Core."""
    n, k = spatial_axis(1, "n"), spatial_axis(4, "k")
    p, q = spatial_axis(2, "p"), spatial_axis(2, "q")
    c, r, s = reduce_axis(1, "c"), reduce_axis(3, "r"), reduce_axis(3, "s")
    img = Tensor("image", (1, 1, 4, 4))
    wgt = Tensor("weight", (4, 1, 3, 3))
    out = Tensor("out", (1, 4, 2, 2))
    comp = compute(
        "conv2d",
        [n, k, p, q, c, r, s],
        out[n, k, p, q],
        [img[n.var, c.var, p.var + r.var, q.var + s.var], wgt[k, c, r, s]],
    )
    intr = make_wmma_intrinsic(2, 2, 2)
    y = MatchingMatrix.from_groups({0: (0, 2, 3), 1: (1,), 2: (4, 5, 6)}, 3, 7)
    return lower_to_physical(ComputeMapping(comp, intr, y))


class TestFigure3Example:
    def test_splits(self):
        phys = figure3_setup()
        # i1: fused (n, p, q) extent 4 -> 2 tiles of 2
        # i2: k extent 4 -> 2 tiles; r1: fused (c, r, s) extent 9 -> 5 tiles (padded)
        assert [s.fused_extent for s in phys.splits] == [4, 4, 9]
        assert [s.num_tiles for s in phys.splits] == [2, 2, 5]
        assert [s.padded for s in phys.splits] == [False, False, True]

    def test_fused_index_expressions(self):
        """Fig 3 part g: i1 <- (n*4 + p*2 + q), r1 <- (c*9 + r*3 + s).
        The built expression is the Horner form of the same polynomial;
        equality is checked pointwise over the whole domain."""
        from itertools import product

        from repro.ir.visitor import evaluate

        phys = figure3_setup()
        ivs = phys.computation.iter_vars
        n, k, p, q, c, r, s = (iv.var for iv in ivs)
        f_i1 = phys.compute.fused_index_expr(0)
        f_r1 = phys.compute.fused_index_expr(2)
        for nv, pv, qv, cv, rv, sv in product(range(1), range(2), range(2),
                                              range(1), range(3), range(3)):
            env = {n: nv, p: pv, q: qv, c: cv, r: rv, s: sv}
            assert evaluate(f_i1, env) == nv * 4 + pv * 2 + qv
            assert evaluate(f_r1, env) == cv * 9 + rv * 3 + sv

    def test_addresses_match_figure3h(self):
        phys = figure3_setup()
        addr_a = phys.operand_address("Src1")
        addr_b = phys.operand_address("Src2")
        addr_c = phys.operand_address("Dst")
        # addr_a = (fused_i1 // 2) * 20 + (fused_r1 // 2) * 4
        assert "* 20" in repr(addr_a.base)
        assert "// 2" in repr(addr_a.base)
        # addr_b = (fused_r1 // 2) * 8 + (k // 2) * 4
        assert "* 8" in repr(addr_b.base)
        # addr_c = (fused_i1 // 2) * 8 + (k // 2) * 4
        assert "* 8" in repr(addr_c.base)
        # Row stride is the tile row length (Fig 3h: stride = 2); the
        # innermost tile dimension is unit-stride as the load intrinsics
        # require.
        assert addr_a.strides == (2, 1)
        assert addr_b.strides == (2, 1)
        assert addr_c.strides == (2, 1)

    def test_intrinsic_calls_and_utilization(self):
        phys = figure3_setup()
        assert phys.num_intrinsic_calls() == 2 * 2 * 5
        # 144 useful scalar MACs (4 x 4 x 9 loop points) out of
        # 20 calls x 8 MAC slots = 160 provided.
        assert phys.utilization() == pytest.approx(144 / 160)
        assert phys.has_padding()


class TestPhysicalGeneral:
    def test_gemm_no_padding_16(self, tensorcore):
        comp = make_small_gemm(32, 32, 32)
        (mapping,) = enumerate_mappings(comp, tensorcore)
        phys = lower_to_physical(mapping)
        assert not phys.has_padding()
        assert phys.utilization() == pytest.approx(1.0)
        assert phys.num_intrinsic_calls() == 8  # 2 x 2 x 2 tiles

    def test_outer_iters(self, tensorcore):
        comp = make_small_conv2d()
        mappings = enumerate_mappings(comp, tensorcore)
        with_outer = [m for m in mappings if lower_to_physical(m).outer_iters]
        assert with_outer, "some mappings must leave iterations as outer loops"

    def test_memory_mapping_complete(self, tensorcore):
        comp = make_small_conv2d()
        phys = lower_to_physical(enumerate_mappings(comp, tensorcore)[0])
        shm = phys.to_software_hardware_mapping()
        for operand in ("Dst", "Src1", "Src2"):
            assert shm.memory_for(operand) is not None
        with pytest.raises(KeyError):
            shm.memory_for("Src9")

    def test_describe_mentions_padding_and_calls(self, tensorcore):
        phys = figure3_setup()
        text = phys.describe()
        assert "padded" in text
        assert "intrinsic calls" in text

    def test_physical_mapping_pickles_round_trip(self, tensorcore):
        """The worker pool ships lowered mappings by pickle: a padded and
        a diagonal mapping, with their lazily cached properties and
        memoized fingerprint already filled in, come back with the same
        (slotted) splits, calls, fingerprint and rendering."""
        from repro.engine.fingerprint import mapping_fingerprint

        diagonal = next(
            m
            for m in enumerate_mappings(make_small_depthwise(k=32), tensorcore)
            if m.matching.diagonal_columns()
        )
        for phys in (figure3_setup(), lower_to_physical(diagonal)):
            fingerprint = mapping_fingerprint(phys)
            calls = phys.num_intrinsic_calls()
            back = pickle.loads(pickle.dumps(phys))
            assert back.splits == phys.splits
            assert not hasattr(back.splits[0], "__dict__")
            assert back.num_intrinsic_calls() == calls
            assert back.diagonal_call_fraction == phys.diagonal_call_fraction
            assert mapping_fingerprint(back) == fingerprint
            assert back.describe() == phys.describe()


class TestDiagonalAccounting:
    def test_diagonal_fraction_below_one(self, tensorcore):
        comp = make_small_depthwise(k=32)
        diag = [
            m for m in enumerate_mappings(comp, tensorcore)
            if m.matching.diagonal_columns()
        ]
        assert diag
        phys = lower_to_physical(diag[0])
        assert 0 < phys.diagonal_call_fraction < 1.0

    def test_no_diagonal_fraction_is_one(self, tensorcore):
        phys = lower_to_physical(
            enumerate_mappings(make_small_gemm(), tensorcore)[0]
        )
        assert phys.diagonal_call_fraction == 1.0

    def test_tile_var_values(self, tensorcore):
        """Each tile's arc is exactly the set of values the diagonal
        iteration takes in that tile, enumerated by brute force."""
        comp = make_small_depthwise(k=32)
        diag = [
            lower_to_physical(m)
            for m in enumerate_mappings(comp, tensorcore)
            if m.matching.diagonal_columns()
        ]
        assert diag
        for phys in diag + _hand_built_diagonals(9) + _hand_built_diagonals(3):
            for c, arcs in zip(
                phys.compute.matching.diagonal_columns(), phys.diagonal_arcs()
            ):
                for t, starts, lengths in zip(arcs.targets, arcs.starts, arcs.lengths):
                    assert [
                        _arc_values(int(st), int(ln), arcs.extent)
                        for st, ln in zip(starts, lengths)
                    ] == _tile_values(phys, t, c)


# ----------------------------------------------------------------------
# Closed-form overlap counting against the pairwise set intersection
# ----------------------------------------------------------------------
def _tile_values(phys, t, c):
    """Per tile of intrinsic iteration ``t``: the values software
    iteration ``c`` takes, enumerated over the tile's fused indices."""
    split = phys.splits[t]
    var = phys.computation.iter_vars[c].var
    weight = 1
    for iv in reversed(phys.compute.group_iters(t)):
        if iv.var == var:
            extent = iv.extent
            break
        weight *= iv.extent
    values = []
    for tile in range(split.num_tiles):
        start = tile * split.problem_size
        stop = min(start + split.problem_size, split.fused_extent)
        values.append(frozenset((f // weight) % extent for f in range(start, stop)))
    return values


def _arc_values(start, length, extent):
    return frozenset((start + i) % extent for i in range(length))


def _overlap_pairs(phys, c):
    """(tile a, tile b) pairs whose value sets intersect, by pairwise
    frozenset intersection."""
    t_a, t_b = phys.compute.matching.targets_of(c)
    vals_a, vals_b = _tile_values(phys, t_a, c), _tile_values(phys, t_b, c)
    return {
        (a, b)
        for a, va in enumerate(vals_a)
        for b, vb in enumerate(vals_b)
        if va & vb
    }


def _pairwise_fraction(phys):
    fraction = 1.0
    matching = phys.compute.matching
    for c in matching.diagonal_columns():
        t_a, t_b = matching.targets_of(c)
        total = phys.splits[t_a].num_tiles * phys.splits[t_b].num_tiles
        if total:
            fraction *= len(_overlap_pairs(phys, c)) / total
    return fraction


def _hand_built_diagonals(k):
    """Diagonal mappings of a depthwise convolution whose loop order puts
    the diagonal ``k`` last, onto a 4x4x4 Tensor Core.  ``k`` is then the
    innermost member of fused reduce groups such as ``(s*k_extent + k)``,
    so its arcs wrap past ``k_extent`` (with ``k = 9`` some overlap
    windows wrap too); with ``k = 3`` a 4-wide tile spans every value (a
    full arc); ``k = 9`` pads the last tile of ``k`` alone and of the
    27-wide ``(s, k)`` group."""
    nn, kk = spatial_axis(2, "n"), spatial_axis(k, "k")
    pp, qq = spatial_axis(2, "p"), spatial_axis(2, "q")
    rr, ss = reduce_axis(3, "r"), reduce_axis(3, "s")
    img = Tensor("image", (2, k, 4, 4))
    wgt = Tensor("weight", (k, 3, 3))
    out = Tensor("out", (2, k, 2, 2))
    comp = compute(
        "depthwise_k_last",
        [nn, pp, qq, rr, ss, kk],
        out[nn, kk, pp, qq],
        [img[nn.var, kk.var, pp.var + rr.var, qq.var + ss.var], wgt[kk, rr, ss]],
    )
    return [
        lower_to_physical(m)
        for m in enumerate_mappings(comp, make_wmma_intrinsic(4, 4, 4))
        if m.matching.diagonal_columns()
    ]


def _shipped_diagonals():
    """Every diagonal mapping of every distinct tensor op of the shipped
    networks and of the Table 6 operators, on every device's shipped
    intrinsics."""
    benchmarks = str(pathlib.Path(__file__).resolve().parents[1] / "benchmarks")
    sys.path.insert(0, benchmarks)
    try:
        from bench_table6_mapping_counts import PAPER_COUNTS, SMALL_PARAMS
    finally:
        sys.path.remove(benchmarks)
    operators = {
        (op.kind, tuple(sorted(op.params.items()))): op.computation()
        for network in NETWORKS.values()
        for op in network
        if op.is_tensor_op
    }
    for code in PAPER_COUNTS:
        params = SMALL_PARAMS[code]
        operators[(code, tuple(sorted(params.items())))] = make_operator(code, **params)
    count = 0
    for hw_name in list_hardware():
        for intrinsic in intrinsics_for_target(get_hardware(hw_name).target):
            for comp in operators.values():
                for mapping in enumerate_mappings(comp, intrinsic):
                    count += 1
                    if mapping.matching.diagonal_columns():
                        yield lower_to_physical(mapping)
    assert count == 26_600


class TestDiagonalOverlapExact:
    def test_fraction_equals_pairwise_intersection(self):
        """The closed-form count gives exactly the fraction the pairwise
        frozenset intersection gives, for all 3,264 diagonal mappings in
        scope; where the pair grid is small the arc predicate the
        executor skips by agrees pair by pair."""
        diagonal = compared = 0
        for phys in _shipped_diagonals():
            diagonal += 1
            assert phys.diagonal_call_fraction == _pairwise_fraction(phys), (
                phys.compute.describe()
            )
            for c, arcs in zip(
                phys.compute.matching.diagonal_columns(), phys.diagonal_arcs()
            ):
                t_a, t_b = arcs.targets
                grid = phys.splits[t_a].num_tiles, phys.splits[t_b].num_tiles
                if grid[0] * grid[1] < 5_000:
                    compared += 1
                    a, b = np.indices(grid)
                    hits = arcs.overlaps(a, b)
                    assert set(zip(*np.nonzero(hits))) == _overlap_pairs(phys, c)
        assert diagonal == 3_264
        assert compared > 0

    def test_wrapping_full_and_padded_arcs(self):
        """Arcs that wrap, full arcs and padded trailing tiles: the count
        matches the pairwise intersection, the predicate matches pair by
        pair, and the executor, which skips by that predicate, computes
        the reference tensor."""
        wrapped = full = padded = False
        for phys in _hand_built_diagonals(9) + _hand_built_diagonals(3):
            assert phys.diagonal_call_fraction == _pairwise_fraction(phys)
            for c, arcs in zip(
                phys.compute.matching.diagonal_columns(), phys.diagonal_arcs()
            ):
                for starts, lengths in zip(arcs.starts, arcs.lengths):
                    wrapped |= bool(np.any(starts + lengths > arcs.extent))
                    full |= bool(np.any(lengths == arcs.extent))
                padded |= any(phys.splits[t].padded for t in arcs.targets)
                a, b = np.indices(
                    tuple(phys.splits[t].num_tiles for t in arcs.targets)
                )
                hits = arcs.overlaps(a, b)
                assert set(zip(*np.nonzero(hits))) == _overlap_pairs(phys, c)
            comp = phys.computation
            rng = np.random.default_rng(0)
            feeds = {t.name: rng.standard_normal(t.shape) for t in comp.input_tensors}
            got = execute_mapping(phys, feeds)
            assert np.allclose(got, comp.reference(feeds), atol=1e-9)
        assert wrapped and full and padded
