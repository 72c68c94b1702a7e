"""Minimal reverse-mode autodiff on a per-step tape, with second-order support.

The engine keeps one append-only tape (`Graph`) per differentiable
computation. Every backward rule is itself expressed through the public ops,
so the gradients returned by :func:`backward` and :func:`input_gradient` are
live graph nodes and can be differentiated again (double backprop). The one
exception is a matmul's right-operand (weight) gradient, a left-transposed
product that no loss differentiates, so backward through it raises.

Training (`objective.loss_and_gradients`) and inference
(`model.forward_values`, `model.energy_gradient`) run off the tape: each is
one pass that makes the tape's ops in its order under
`np.errstate(all="ignore")` and scans with `check_finite` only the values
entering or leaving it (parameters, inputs, output, loss, returned
gradients). A NaN or Inf inside a pass still reaches a scanned value, since
`+`, `-`, `*`, matmul, sums and SiLU carry it on (inf * 0 and silu(-inf) are
NaN). So where the tape returns, a pass returns its bits; where a pass
raises, the tape raises too, and the pass's NonFiniteError names the scanned
value's op and its layer or parameter. A pass may return where the tape
raises first on a product that the pass does not make. The tape itself is
the oracle of the bit-identity tests.

Conventions:
  - all buffers are contiguous float64; non-finite values raise at op
    boundaries instead of propagating
  - scalars are 0-d arrays
  - broadcasting is restricted to leading-dimension expansion via an explicit
    `broadcast_to`; elementwise ops require exact shape agreement
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Sequence

import numpy as np


class ShapeMismatchError(ValueError):
    """Operands do not satisfy the op's shape rule."""


class NonFiniteError(ArithmeticError):
    """A NaN or Inf appeared at an operation boundary."""


class GraphError(ValueError):
    """Misuse of the tape: detached tensors, cross-graph ops, bad backward."""


_generation = itertools.count()


def as_values(data) -> np.ndarray:
    # order="C" (not ascontiguousarray) so 0-d arrays stay 0-d
    return np.asarray(data, dtype=np.float64, order="C")


def all_finite(values: np.ndarray) -> bool:
    """Whether `values` holds no NaN or Inf."""
    # min/max propagate NaN and catch +-inf without allocating a bool mask;
    # the ufuncs' reduce skips ndarray.min/max's Python wrappers
    return not values.size or (math.isfinite(np.minimum.reduce(values, axis=None))
                               and math.isfinite(np.maximum.reduce(values, axis=None)))


def check_finite(values: np.ndarray, op: str, place: str = "") -> None:
    """Raise NonFiniteError naming `op`, and `place` where given (e.g. "at
    layers.1.b", "in layer 3"), on a NaN or Inf in `values`."""
    if not all_finite(values):
        raise NonFiniteError(f"non-finite values produced by op '{op}'"
                             + (f" {place}" if place else ""))


def sigmoid_values(v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """1 / (1 + exp(-v)) with its bits, computed in one fresh buffer, or in
    `out`, an array of v's shape that it overwrites and returns."""
    if out is None:
        out = np.empty_like(v)  # an array even for 0-d v, so every out= below holds
    np.negative(v, out=out)
    with np.errstate(over="ignore"):
        np.exp(out, out=out)
    out += 1.0
    return np.divide(1.0, out, out=out)


#: ops that can produce non-finite outputs from finite inputs; the rest only
#: rearrange or bound already-checked values and skip the scan
_CHECKED_OPS = frozenset({"leaf", "constant", "add", "sub", "mul", "scalar_mul",
                          "matmul", "square", "reduce_leading"})


class Tensor:
    """A float64 array, optionally registered on a tape.

    A tensor without a node id is a plain constant: it may feed any op but
    never receives a gradient.
    """

    __slots__ = ("values", "graph", "node")

    def __init__(self, values: np.ndarray, graph: "Graph | None" = None,
                 node: int | None = None):
        self.values = values
        self.graph = graph
        self.node = node

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    @property
    def ndim(self) -> int:
        return self.values.ndim

    @property
    def size(self) -> int:
        return self.values.size

    def item(self) -> float:
        return float(self.values)

    def __repr__(self) -> str:
        tag = "const" if self.node is None else f"node {self.node}"
        return f"Tensor(shape={self.shape}, {tag})"


class _Node:
    __slots__ = ("op", "inputs", "out", "extra")

    def __init__(self, op: str, inputs: tuple[Tensor, ...], out: Tensor, extra=None):
        self.op = op
        self.inputs = inputs
        self.out = out
        self.extra = extra


class Graph:
    """Append-only tape of primitive ops; topological order is insertion order.

    A graph is confined to a single thread for its lifetime and is normally
    rebuilt from scratch every training step.
    """

    def __init__(self):
        self.nodes: list[_Node] = []
        self.leaf_ids: list[int] = []
        self.generation = next(_generation)
        self.bindings: dict = {}  # scratch space, e.g. model parameter leases

    def __len__(self) -> int:
        return len(self.nodes)

    def leaf(self, values) -> Tensor:
        """Register raw data as a differentiable graph input."""
        vals = as_values(values)
        check_finite(vals, "leaf")
        t = Tensor(vals, graph=self, node=len(self.nodes))
        self.nodes.append(_Node("leaf", (), t))
        self.leaf_ids.append(t.node)
        return t

    def _register(self, op: str, inputs: tuple[Tensor, ...], values: np.ndarray,
                  extra=None) -> Tensor:
        if op in _CHECKED_OPS:
            check_finite(values, op)
        t = Tensor(values, graph=self, node=len(self.nodes))
        self.nodes.append(_Node(op, inputs, t, extra))
        return t


def constant(data) -> Tensor:
    """Wrap plain data; never receives a gradient."""
    vals = as_values(data)
    check_finite(vals, "constant")
    return Tensor(vals)


def _coerce(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return constant(x)


def _common_graph(op: str, tensors: Iterable[Tensor]) -> Graph | None:
    graph = None
    for t in tensors:
        if t.graph is None:
            continue
        if graph is None:
            graph = t.graph
        elif graph is not t.graph:
            raise GraphError(f"op '{op}' mixes tensors from two different graphs "
                             f"(generations {graph.generation} and {t.graph.generation})")
    return graph


def _emit(op: str, inputs: Sequence, values: np.ndarray, extra=None) -> Tensor:
    """Route an op result onto the owning tape, or to a constant if all
    inputs are constants."""
    inputs = tuple(_coerce(t) for t in inputs)
    graph = _common_graph(op, inputs)
    if graph is None:
        if op in _CHECKED_OPS:
            check_finite(values, op)
        return Tensor(values)
    return graph._register(op, inputs, values, extra)


def _require_same_shape(op: str, a: Tensor, b: Tensor) -> None:
    if a.shape != b.shape:
        raise ShapeMismatchError(f"op '{op}': shapes {a.shape} and {b.shape} differ")


# ---------------------------------------------------------------------------
# primitive ops


def add(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    _require_same_shape("add", a, b)
    return _emit("add", (a, b), a.values + b.values)


def sub(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    _require_same_shape("sub", a, b)
    return _emit("sub", (a, b), a.values - b.values)


def mul(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    _require_same_shape("mul", a, b)
    return _emit("mul", (a, b), a.values * b.values)


def scalar_mul(a, c: float) -> Tensor:
    a = _coerce(a)
    return _emit("scalar_mul", (a,), a.values * c, extra=float(c))


def matmul(a, b) -> Tensor:
    return _matmul(a, b, False, False)


def _matmul(a, b, ta: bool, tb: bool) -> Tensor:
    """2-d product with optional operand transposes (flags avoid materializing
    transposed copies inside backward rules)."""
    a, b = _coerce(a), _coerce(b)
    av = a.values.T if ta else a.values
    bv = b.values.T if tb else b.values
    if a.ndim != 2 or b.ndim != 2 or av.shape[1] != bv.shape[0]:
        raise ShapeMismatchError(f"op 'matmul': shapes {a.shape} and {b.shape} "
                                 f"(transposed: {ta}, {tb}) must be 2-d with "
                                 "matching inner dimension")
    return _emit("matmul", (a, b), av @ bv, extra=(ta, tb))


def sigmoid(a) -> Tensor:
    a = _coerce(a)
    return _emit("sigmoid", (a,), sigmoid_values(a.values))


def square(a) -> Tensor:
    a = _coerce(a)
    return _emit("square", (a,), a.values * a.values)


def reduce_leading(a, n_axes: int) -> Tensor:
    """Sum over the first `n_axes` dimensions (the only reduction the
    leading-broadcast rule needs; n_axes == ndim collapses to a 0-d scalar)."""
    a = _coerce(a)
    if not 0 <= n_axes <= a.ndim:
        raise ShapeMismatchError(f"op 'reduce_leading': cannot reduce {n_axes} "
                                 f"leading axes of shape {a.shape}")
    if n_axes == 0:
        return a
    vals = a.values.sum(axis=tuple(range(n_axes)))
    return _emit("reduce_leading", (a,), np.asarray(vals), extra=n_axes)


def broadcast_to(a, shape: Sequence[int]) -> Tensor:
    """Expand by prepending dimensions; trailing dims must match exactly.
    The result is a read-only view (no values are created or copied)."""
    a = _coerce(a)
    shape = tuple(int(s) for s in shape)
    k = len(shape) - a.ndim
    if k < 0 or shape[k:] != a.shape:
        raise ShapeMismatchError(f"op 'broadcast_to': shape {a.shape} is not a "
                                 f"trailing suffix of {shape}")
    return _emit("broadcast_to", (a,), np.broadcast_to(a.values, shape), extra=k)


# ---------------------------------------------------------------------------
# composites (tape records only primitives)


def silu(a) -> Tensor:
    a = _coerce(a)
    return mul(a, sigmoid(a))


def tsum(a) -> Tensor:
    """Full reduction to a 0-d scalar."""
    a = _coerce(a)
    return reduce_leading(a, a.ndim)


def tmean(a) -> Tensor:
    a = _coerce(a)
    if a.size == 0:
        raise ShapeMismatchError("op 'mean': empty tensor")
    return scalar_mul(tsum(a), 1.0 / a.size)


# ---------------------------------------------------------------------------
# backward rules
#
# Each rule maps (node, upstream grad) to per-input gradients. Rules only use
# the ops above, so every returned gradient is differentiable again.


def _zeros_like(t: Tensor) -> Tensor:
    return constant(np.zeros(t.shape))


def _ones_like(t: Tensor) -> Tensor:
    return constant(np.ones(t.shape))


def _vjp(node: _Node, g: Tensor) -> list[Tensor | None]:
    op = node.op
    a = node.inputs[0] if node.inputs else None
    if op == "add":
        return [g, g]
    if op == "sub":
        return [g, scalar_mul(g, -1.0)]
    if op == "mul":
        b = node.inputs[1]
        return [mul(g, b), mul(g, a)]
    if op == "scalar_mul":
        return [scalar_mul(g, node.extra)]
    if op == "matmul" and not node.extra[0]:
        # the rules make A B^T and the weight gradient A^T B, which no loss
        # differentiates again, so A^T B and A^T B^T have no rule
        b = node.inputs[1]
        if node.extra[1]:          # C = A B^T
            return [_matmul(g, b, False, False), _matmul(g, a, True, False)]
        return [_matmul(g, b, False, True), _matmul(a, g, True, False)]  # C = A B
    if op == "sigmoid":
        y = node.out
        return [mul(g, mul(y, sub(_ones_like(y), y)))]
    if op == "square":
        return [scalar_mul(mul(g, a), 2.0)]
    if op == "reduce_leading":
        return [broadcast_to(g, a.shape)]
    if op == "broadcast_to":
        return [reduce_leading(g, node.extra)]
    raise GraphError(f"no backward rule for op '{op}'")


def _ancestors(graph: Graph, root: int) -> list[int]:
    """Node ids reachable from `root` through inputs, descending order."""
    seen = {root}
    stack = [root]
    while stack:
        nid = stack.pop()
        for t in graph.nodes[nid].inputs:
            if t.node is not None and t.node not in seen:
                seen.add(t.node)
                stack.append(t.node)
    return sorted(seen, reverse=True)


def backward(scalar: Tensor) -> dict[int, Tensor]:
    """Reverse sweep from a 0-d tensor.

    Returns node-id -> gradient for every touched ancestor plus every leaf
    recorded before the scalar; leaves the sweep never reaches map to zero
    tensors of matching shape. The gradients are live graph nodes and
    support a second backward pass.
    """
    if scalar.node is None or scalar.graph is None:
        raise GraphError("backward: tensor is detached from any graph")
    if scalar.size != 1 or scalar.ndim != 0:
        raise GraphError(f"backward: expected a 0-d scalar, got shape {scalar.shape}")
    graph = scalar.graph
    order = _ancestors(graph, scalar.node)
    grads: dict[int, Tensor] = {scalar.node: constant(np.ones(()))}
    for nid in order:
        node = graph.nodes[nid]
        g = grads.get(nid)
        if g is None or node.op == "leaf":
            continue
        partials = _vjp(node, g)
        for t, part in zip(node.inputs, partials):
            # constants receive nothing
            if t.node is None or part is None:
                continue
            prev = grads.get(t.node)
            grads[t.node] = part if prev is None else add(prev, part)
    for nid in graph.leaf_ids:
        if nid not in grads and nid <= scalar.node:
            grads[nid] = _zeros_like(graph.nodes[nid].out)
    return grads


def input_gradient(scalar: Tensor, wrt: Tensor) -> Tensor:
    """Gradient of a 0-d tensor w.r.t. one ancestor, as a live graph node.

    Because the node stays on the tape, any scalar built from it can be
    pushed through :func:`backward` again for exact second-order gradients.
    """
    if wrt.node is None or wrt.graph is None:
        raise GraphError("input_gradient: `wrt` is detached from any graph")
    if scalar.graph is not wrt.graph:
        raise GraphError("input_gradient: tensors live on different graphs")
    if wrt.node not in _ancestors(scalar.graph, scalar.node):
        raise GraphError("input_gradient: `wrt` is not an ancestor of the scalar")
    grads = backward(scalar)
    return grads[wrt.node]


def grad_values(grads: dict[int, Tensor], tensor: Tensor) -> np.ndarray:
    """Read the gradient buffer for one tensor out of a backward result."""
    if tensor.node is None:
        raise GraphError("grad_values: constant tensors never receive gradients")
    return grads[tensor.node].values
