"""Algorithm 1: mapping validation."""

import numpy as np

from repro.mapping.matrices import MatchingMatrix
from repro.mapping.validation import validate_mapping, validate_matrices

from conftest import (
    make_small_conv2d,
    make_small_depthwise,
    make_small_gemm,
    make_small_gemv,
)


def y_from(groups, num_hw, num_sw):
    return MatchingMatrix.from_groups(groups, num_hw, num_sw)


class TestCanonicalCases:
    def test_gemm_canonical_valid(self, tensorcore):
        comp = make_small_gemm()
        y = y_from({0: (0,), 1: (1,), 2: (2,)}, 3, 3)
        assert validate_mapping(comp, tensorcore, y)

    def test_gemm_swapped_spatial_invalid(self, tensorcore):
        # i -> i2, j -> i1 breaks the operand access relations because
        # Src1 reads rows with i1 and A is accessed by i.
        comp = make_small_gemm()
        y = y_from({0: (1,), 1: (0,), 2: (2,)}, 3, 3)
        assert not validate_mapping(comp, tensorcore, y)

    def test_conv2d_figure3_mapping_valid(self, tensorcore):
        # n, p, q -> i1; k -> i2; c, r, s -> r1 (Fig 3 part d).
        comp = make_small_conv2d()
        y = y_from({0: (0, 2, 3), 1: (1,), 2: (4, 5, 6)}, 3, 7)
        assert validate_mapping(comp, tensorcore, y)

    def test_conv2d_n_and_k_same_iteration_invalid(self, tensorcore):
        # The paper's Sec 5.2 example: mapping n and k to the same
        # intrinsic iteration i1 breaks the semantics.
        comp = make_small_conv2d()
        y = y_from({0: (0, 1, 2, 3), 1: (), 2: (4, 5, 6)}, 3, 7)
        assert not validate_mapping(comp, tensorcore, y)

    def test_spatial_to_reduce_invalid(self, tensorcore):
        comp = make_small_gemm()
        y = y_from({0: (0,), 1: (1,), 2: (0, 2)}, 3, 3)  # i also in r1
        # i is a spatial software iteration mapped diagonally; for GEMM it
        # breaks the accesses (B does not depend on i).
        assert not validate_mapping(comp, tensorcore, y)

    def test_reduce_to_spatial_invalid(self, tensorcore):
        comp = make_small_gemm()
        y = y_from({0: (2,), 1: (1,), 2: (0,)}, 3, 3)
        assert not validate_mapping(comp, tensorcore, y)

    def test_gemv_with_padded_i2_valid(self, tensorcore):
        comp = make_small_gemv()
        y = y_from({0: (0,), 1: (), 2: (1,)}, 3, 2)
        assert validate_mapping(comp, tensorcore, y)

    def test_depthwise_diagonal_valid(self, tensorcore):
        # n,p,q -> i1; k -> (i2, r1) diagonal; r,s -> r1.
        comp = make_small_depthwise()
        y = MatchingMatrix(np.array([
            [1, 0, 1, 1, 0, 0],
            [0, 1, 0, 0, 0, 0],
            [0, 1, 0, 0, 1, 1],
        ], dtype=np.int8))
        assert validate_mapping(comp, tensorcore, y)

    def test_depthwise_without_diagonal_invalid(self, tensorcore):
        # k only to i2: image accesses k but Src1 is not indexed by i2.
        comp = make_small_depthwise()
        y = MatchingMatrix(np.array([
            [1, 0, 1, 1, 0, 0],
            [0, 1, 0, 0, 0, 0],
            [0, 0, 0, 0, 1, 1],
        ], dtype=np.int8))
        assert not validate_mapping(comp, tensorcore, y)

    def test_unmapped_iterations_allowed(self, tensorcore):
        # Table 5 C0-style: p unmapped.
        comp = make_small_conv2d()
        y = y_from({0: (0, 3), 1: (1,), 2: (4, 5, 6)}, 3, 7)
        assert validate_mapping(comp, tensorcore, y)


class TestMatrixLevel:
    def test_shape_mismatch_reported(self):
        x = np.ones((3, 4), dtype=np.int8)
        z = np.ones((3, 3), dtype=np.int8)
        y = MatchingMatrix(np.zeros((2, 4), dtype=np.int8))
        result = validate_matrices(x, z, y, (False,) * 4, (False,) * 3)
        assert not result
        assert "shape" in result.reason

    def test_operand_count_mismatch_reported(self):
        x = np.ones((2, 3), dtype=np.int8)
        z = np.ones((3, 3), dtype=np.int8)
        y = MatchingMatrix(np.zeros((3, 3), dtype=np.int8))
        result = validate_matrices(x, z, y, (False,) * 3, (False,) * 3)
        assert not result
        assert "operands" in result.reason

    def test_triple_mapping_rejected(self, tensorcore):
        comp = make_small_depthwise()
        y = MatchingMatrix(np.array([
            [1, 1, 1, 1, 0, 0],
            [0, 1, 0, 0, 0, 0],
            [0, 1, 0, 0, 1, 1],
        ], dtype=np.int8))
        result = validate_mapping(comp, tensorcore, y)
        assert not result
        assert "more than two" in result.reason

    def test_empty_mapping_is_trivially_valid_structurally(self, tensorcore):
        comp = make_small_gemm()
        y = MatchingMatrix(np.zeros((3, 3), dtype=np.int8))
        # Structural check passes (nothing mapped, nothing broken); the
        # generator's coverage rule is what rejects it.
        assert validate_mapping(comp, tensorcore, y)
