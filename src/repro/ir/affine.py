"""Affine analysis of index expressions.

The mapping layer needs two views of a tensor access index:

* *which* iteration variables it involves (for access matrices, Sec 5.2),
* the *linear form* ``sum(coeff_v * v) + const`` (for address generation,
  Sec 5.1; strided convolution gives indices like ``p*2 + r``).

:func:`extract_affine` produces both.  Expressions that are not affine in
the iteration variables (e.g. products of two variables) raise
:class:`AffineExtractionError`; AMOS only handles affine tensor programs,
matching the paper's scope.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from repro.ir.expr import (
    Add,
    Cast,
    Expr,
    FloatImm,
    FloorDiv,
    IntImm,
    Mod,
    Mul,
    Sub,
    Var,
)


class AffineExtractionError(ValueError):
    """Raised when an expression is not affine in the iteration variables."""


@dataclass(frozen=True)
class AffineExpr:
    """A linear form over variables: ``sum(coeffs[v] * v) + const``."""

    coeffs: Mapping[Var, int]
    const: int = 0

    def variables(self) -> list[Var]:
        return [v for v, c in self.coeffs.items() if c != 0]

    def coefficient(self, var: Var) -> int:
        return self.coeffs.get(var, 0)

    def evaluate(self, values: Mapping[Var, int]) -> int:
        """Evaluate the form at a concrete point."""
        total = self.const
        for var, coeff in self.coeffs.items():
            if coeff == 0:
                continue
            try:
                total += coeff * values[var]
            except KeyError as exc:
                raise KeyError(f"no value bound for variable {var.name}") from exc
        return total

    def __repr__(self) -> str:
        parts = [f"{c}*{v.name}" for v, c in self.coeffs.items() if c != 0]
        if self.const or not parts:
            parts.append(str(self.const))
        return " + ".join(parts)


def extract_affine(expr: Expr, allowed: Iterable[Var] | None = None) -> AffineExpr:
    """Extract the linear form of ``expr``.

    Args:
        expr: the index expression.
        allowed: if given, variables outside this set raise an error.

    Returns:
        The :class:`AffineExpr` with integer coefficients.

    Raises:
        AffineExtractionError: for non-affine constructs (variable*variable,
            floordiv/mod by non-constants, float constants, opaque calls).
    """
    coeffs: dict[Var, int] = {}
    const = _accumulate(expr, 1, coeffs)
    if allowed is not None:
        allowed_set = set(allowed)
        for var in coeffs:
            if coeffs[var] != 0 and var not in allowed_set:
                raise AffineExtractionError(
                    f"index expression uses variable {var.name} outside the loop nest"
                )
    return AffineExpr(dict(coeffs), const)


def _accumulate(expr: Expr, scale: int, coeffs: dict[Var, int]) -> int:
    """Add ``scale * expr`` into ``coeffs``; return the constant part."""
    if isinstance(expr, IntImm):
        return scale * expr.value
    if isinstance(expr, FloatImm):
        raise AffineExtractionError("float constant in index expression")
    if isinstance(expr, Var):
        coeffs[expr] = coeffs.get(expr, 0) + scale
        return 0
    if isinstance(expr, Add):
        return _accumulate(expr.a, scale, coeffs) + _accumulate(expr.b, scale, coeffs)
    if isinstance(expr, Sub):
        return _accumulate(expr.a, scale, coeffs) + _accumulate(expr.b, -scale, coeffs)
    if isinstance(expr, Mul):
        const_a = _constant_of(expr.a)
        const_b = _constant_of(expr.b)
        if const_a is not None:
            return _accumulate(expr.b, scale * const_a, coeffs)
        if const_b is not None:
            return _accumulate(expr.a, scale * const_b, coeffs)
        raise AffineExtractionError(f"non-affine product: {expr!r}")
    if isinstance(expr, Cast):
        return _accumulate(expr.value, scale, coeffs)
    if isinstance(expr, (FloorDiv, Mod)):
        raise AffineExtractionError(
            f"{type(expr).__name__} is not affine: {expr!r}; "
            "physical mappings introduce these but they are handled structurally"
        )
    raise AffineExtractionError(f"unsupported node in index expression: {expr!r}")


def _constant_of(expr: Expr) -> int | None:
    if isinstance(expr, IntImm):
        return expr.value
    return None


def iter_vars_in(expr: Expr, candidates: Iterable[Var]) -> set[Var]:
    """Variables from ``candidates`` that occur anywhere in ``expr``.

    Unlike :func:`extract_affine`, this works for *any* expression (it only
    looks at occurrence), so it is usable on physically-mapped indices that
    contain floordiv/mod.
    """
    wanted = set(candidates)
    found: set[Var] = set()
    for node in expr.walk():
        if isinstance(node, Var) and node in wanted:
            found.add(node)
    return found
