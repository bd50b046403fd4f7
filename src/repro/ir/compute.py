"""Tensor computation definitions.

A :class:`ReduceComputation` is the software side of the AMOS mapping
problem: a perfectly nested loop (Sec 4.3 of the paper) of the shape::

    for s in spatial-iterations:
      for r in reduce-iterations:
        Dst[out_idx(s)] (reduce)= combine(Src1[idx1(s, r)], ..., SrcM[idxM(s, r)])

Examples: GEMM (combine = mul, reduce = sum), 2-D convolution, depthwise
convolution, matrix mean, scan.  The class exposes the *software access
matrix* used by the validation algorithm (Sec 5.2) and a direct numpy
reference evaluator used to check mapped executions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.ir.affine import extract_affine, iter_vars_in
from repro.ir.expr import Var
from repro.ir.itervar import IterVar
from repro.ir.tensor import Tensor, TensorAccess

#: Elementwise combine functions usable in a computation body.
COMBINE_FUNCS: dict[str, Callable[..., np.ndarray]] = {
    "mul": lambda a, b: a * b,
    "add": lambda a, b: a + b,
    "identity": lambda a: a,
    "mul_add3": lambda a, b, c: a * b + c,
}

#: Reduction operators applied over the reduce iterations.
REDUCE_FUNCS: dict[str, Callable[[np.ndarray, np.ndarray], np.ndarray]] = {
    "sum": lambda acc, val: acc + val,
    "max": np.maximum,
}

REDUCE_INIT: dict[str, float] = {
    "sum": 0.0,
    "max": -np.inf,
}


def column_masks(matrix: np.ndarray) -> tuple[int, ...]:
    """Each column of a 0/1 matrix as an int whose bit ``r`` is row ``r``."""
    rows = matrix.tolist()
    return tuple(
        sum(1 << r for r, row in enumerate(rows) if row[c])
        for c in range(matrix.shape[1])
    )


@dataclass(frozen=True)
class ReduceComputation:
    """A reduction-style tensor computation (the AMOS software definition).

    Attributes:
        name: human-readable operator name (``"conv2d"`` etc.).
        iter_vars: the loop nest, outermost first.  Order is canonical for
            the operator; the mapping layer identifies iterations by
            position in this tuple.
        output: the single output access; its indices must use only spatial
            iteration variables.
        inputs: the input accesses combined elementwise.
        combine: key into :data:`COMBINE_FUNCS`.
        reduce: key into :data:`REDUCE_FUNCS`, or ``None`` when there are no
            reduction iterations.
    """

    name: str
    iter_vars: tuple[IterVar, ...]
    output: TensorAccess
    inputs: tuple[TensorAccess, ...]
    combine: str = "mul"
    reduce: str | None = "sum"

    def __post_init__(self) -> None:
        if self.combine not in COMBINE_FUNCS:
            raise ValueError(f"unknown combine function {self.combine!r}")
        if self.reduce is not None and self.reduce not in REDUCE_FUNCS:
            raise ValueError(f"unknown reduce function {self.reduce!r}")
        has_reduce = any(iv.is_reduce for iv in self.iter_vars)
        if has_reduce and self.reduce is None:
            raise ValueError("computation has reduce iterations but no reduce op")
        spatial_vars = {iv.var for iv in self.iter_vars if iv.is_spatial}
        all_vars = {iv.var for iv in self.iter_vars}
        for idx in self.output.indices:
            used = iter_vars_in(idx, all_vars)
            if not used <= spatial_vars:
                raise ValueError(
                    f"output index {idx!r} of {self.name} uses reduction variables"
                )
        for access in self.inputs:
            for idx in access.indices:
                # Must be analyzable; raises AffineExtractionError otherwise.
                extract_affine(idx, all_vars)

    # ------------------------------------------------------------------
    # Structure queries
    # ------------------------------------------------------------------
    @property
    def spatial_iters(self) -> tuple[IterVar, ...]:
        return tuple(iv for iv in self.iter_vars if iv.is_spatial)

    @property
    def reduce_iters(self) -> tuple[IterVar, ...]:
        return tuple(iv for iv in self.iter_vars if iv.is_reduce)

    @property
    def tensors(self) -> tuple[Tensor, ...]:
        """Output tensor followed by distinct input tensors, in order."""
        seen: dict[str, Tensor] = {self.output.tensor.name: self.output.tensor}
        for access in self.inputs:
            seen.setdefault(access.tensor.name, access.tensor)
        return tuple(seen.values())

    @property
    def input_tensors(self) -> tuple[Tensor, ...]:
        return tuple(t for t in self.tensors if t.name != self.output.tensor.name)

    def iter_extents(self) -> dict[Var, int]:
        return {iv.var: iv.extent for iv in self.iter_vars}

    def total_iterations(self) -> int:
        total = 1
        for iv in self.iter_vars:
            total *= iv.extent
        return total

    def flop_count(self) -> int:
        """Scalar multiply-add operations executed by the loop nest.

        By the usual convention a multiply-accumulate counts as 2 FLOPs
        when combine is ``mul`` with a sum reduction.
        """
        per_point = 2 if (self.combine == "mul" and self.reduce == "sum") else 1
        return per_point * self.total_iterations()

    def accesses_of(self, tensor: Tensor) -> list[TensorAccess]:
        """All accesses (output included) of ``tensor`` in the body."""
        result = []
        if self.output.tensor.name == tensor.name:
            result.append(self.output)
        result.extend(a for a in self.inputs if a.tensor.name == tensor.name)
        return result

    # ------------------------------------------------------------------
    # Access matrix (Sec 5.2)
    # ------------------------------------------------------------------
    def access_matrix(self) -> np.ndarray:
        """Binary matrix: rows = tensors (output first), cols = iterations.

        Entry ``(t, i)`` is 1 when iteration ``i`` appears in any index of
        tensor ``t``.  This is the matrix ``X`` of Algorithm 1.

        The matrix is derived once and memoized on the (frozen) instance:
        mapping enumeration and validation re-request it for every
        candidate matching, and the expression walk is by far the
        expensive part.  The returned array is marked read-only because
        callers across validation/enumeration share one instance.
        """
        cached = self.__dict__.get("_access_matrix")
        if cached is not None:
            return cached
        tensors = self.tensors
        all_vars = [iv.var for iv in self.iter_vars]
        matrix = np.zeros((len(tensors), len(all_vars)), dtype=np.int8)
        for row, tensor in enumerate(tensors):
            used: set[Var] = set()
            for access in self.accesses_of(tensor):
                for idx in access.indices:
                    used |= iter_vars_in(idx, all_vars)
            for col, var in enumerate(all_vars):
                if var in used:
                    matrix[row, col] = 1
        matrix.setflags(write=False)
        object.__setattr__(self, "_access_matrix", matrix)
        return matrix

    def access_columns(self) -> tuple[int, ...]:
        """The columns of :meth:`access_matrix` as ints (bit ``t`` set when
        tensor ``t`` uses the iteration), memoized the same way; this is
        the form Algorithm 1's bitmask validation reads."""
        cached = self.__dict__.get("_access_columns")
        if cached is not None:
            return cached
        columns = column_masks(self.access_matrix())
        object.__setattr__(self, "_access_columns", columns)
        return columns

    # ------------------------------------------------------------------
    # Reference execution
    # ------------------------------------------------------------------
    def reference(self, feeds: Mapping[str, np.ndarray]) -> np.ndarray:
        """Execute the loop nest directly with numpy scalars.

        Intended for small shapes in tests; the operator library provides
        vectorised references for larger workloads.

        Args:
            feeds: input tensor name -> ndarray of the declared shape.

        Returns:
            The output ndarray (float64 accumulation).
        """
        for tensor in self.input_tensors:
            array = feeds.get(tensor.name)
            if array is None:
                raise KeyError(f"missing feed for input tensor {tensor.name}")
            if tuple(array.shape) != tensor.shape:
                raise ValueError(
                    f"feed for {tensor.name} has shape {array.shape}, expected {tensor.shape}"
                )
        out_shape = self.output.tensor.shape
        init = REDUCE_INIT[self.reduce] if self.reduce else 0.0
        out = np.full(out_shape, init, dtype=np.float64)
        written = np.zeros(out_shape, dtype=bool)
        combine = COMBINE_FUNCS[self.combine]
        reduce_fn = REDUCE_FUNCS[self.reduce] if self.reduce else None

        extents = [iv.extent for iv in self.iter_vars]
        variables = [iv.var for iv in self.iter_vars]
        out_affine = [extract_affine(idx, variables) for idx in self.output.indices]
        in_affine = [
            [extract_affine(idx, variables) for idx in access.indices]
            for access in self.inputs
        ]
        for point in itertools.product(*(range(e) for e in extents)):
            env = dict(zip(variables, point))
            values = []
            for access, affines in zip(self.inputs, in_affine):
                coords = tuple(a.evaluate(env) for a in affines)
                values.append(float(feeds[access.tensor.name][coords]))
            val = combine(*values)
            coords = tuple(a.evaluate(env) for a in out_affine)
            if reduce_fn is None:
                out[coords] = val
            else:
                out[coords] = reduce_fn(out[coords], val)
            written[coords] = True
        if self.reduce == "max":
            out[~written] = 0.0
        return out


def compute(
    name: str,
    iter_vars: Sequence[IterVar],
    output: TensorAccess,
    inputs: Sequence[TensorAccess],
    combine: str = "mul",
    reduce: str | None = "sum",
) -> ReduceComputation:
    """Convenience constructor for :class:`ReduceComputation`."""
    return ReduceComputation(
        name=name,
        iter_vars=tuple(iter_vars),
        output=output,
        inputs=tuple(inputs),
        combine=combine,
        reduce=reduce,
    )
