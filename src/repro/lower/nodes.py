"""IR nodes implementing paper Table 4.

The hardware abstraction is carried through lowering by two new IR nodes
on top of five basic ones:

* basic: ``Expr`` (arithmetic), ``BufferLoad`` (multi-dim load), ``Tensor``
  (n-dim buffer), ``Array`` (node list), ``String``;
* new: ``Compute(Tensor, Expr, Array<Expr>)`` — a small loop nest matching
  one compute intrinsic — and ``Memory(Tensor, String, BufferLoad)`` — one
  memory-intrinsic load/store with scope information.

These nodes are what the code generator walks; they are attached to the
scheduled mapping's loop structure by :func:`repro.lower.lower.lower_mapping`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.ir.expr import Expr
from repro.ir.tensor import Tensor


class IRNode:
    """Base class of the lowering IR."""

    def children(self) -> tuple["IRNode", ...]:
        return ()

    def walk(self) -> Iterator["IRNode"]:
        yield self
        for child in self.children():
            yield from child.walk()


@dataclass(frozen=True)
class ExprNode(IRNode):
    """Wrapper carrying a scalar arithmetic expression."""

    expr: Expr

    def __repr__(self) -> str:
        return repr(self.expr)


@dataclass(frozen=True)
class TensorNode(IRNode):
    """An n-dimensional data buffer."""

    tensor: Tensor

    def __repr__(self) -> str:
        return repr(self.tensor)


@dataclass(frozen=True)
class StringNode(IRNode):
    """A string attribute (buffer scope: global / shared / reg)."""

    value: str

    def __repr__(self) -> str:
        return f'"{self.value}"'


@dataclass(frozen=True)
class BufferLoadNode(IRNode):
    """Multi-dimensional load from a buffer at the given indices."""

    tensor: TensorNode
    indices: tuple[ExprNode, ...]

    def children(self) -> tuple[IRNode, ...]:
        return (self.tensor, *self.indices)

    def __repr__(self) -> str:
        joined = ", ".join(repr(i) for i in self.indices)
        return f"{self.tensor.tensor.name}[{joined}]"


@dataclass(frozen=True)
class ArrayNode(IRNode):
    """A packed list of IR nodes."""

    items: tuple[IRNode, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "items", tuple(self.items))

    def children(self) -> tuple[IRNode, ...]:
        return self.items

    def __repr__(self) -> str:
        return "[" + ", ".join(repr(i) for i in self.items) + "]"


@dataclass(frozen=True)
class ComputeNode(IRNode):
    """Compute(Tensor, Expr, Array<Expr>): a loop nest matching one compute
    intrinsic — destination buffer, arithmetic expression, and intrinsic
    iteration expressions (the fused software indices)."""

    dst: TensorNode
    body: ExprNode
    intrinsic_iters: ArrayNode
    intrinsic_name: str = ""

    def children(self) -> tuple[IRNode, ...]:
        return (self.dst, self.body, self.intrinsic_iters)

    def __repr__(self) -> str:
        return (
            f"Compute({self.dst.tensor.name}, {self.body!r}, "
            f"{self.intrinsic_iters!r}, intrinsic={self.intrinsic_name})"
        )


@dataclass(frozen=True)
class MemoryNode(IRNode):
    """Memory(Tensor, String, BufferLoad): one memory-intrinsic transfer —
    destination buffer, destination scope, and the source load."""

    dst: TensorNode
    scope: StringNode
    src: BufferLoadNode
    intrinsic_name: str = ""

    def children(self) -> tuple[IRNode, ...]:
        return (self.dst, self.scope, self.src)

    def __repr__(self) -> str:
        return (
            f"Memory({self.dst.tensor.name}, {self.scope!r}, {self.src!r}, "
            f"intrinsic={self.intrinsic_name})"
        )
