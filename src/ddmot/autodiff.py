"""Dense-tensor computation graph with reverse-mode differentiation.

Just enough machinery to express and train the motion network: values are
float64 numpy arrays, the graph is built implicitly as ops run, and
``backward`` accumulates vector-Jacobian products in reverse topological
order. Every op validates shapes up front and checks its output for
non-finite values; both failure modes raise structured errors naming the
offending node.

Inside ``with no_grad():`` the same ops run without building a graph: an
op's output records no parents, gets its op name instead of a unique node
name, and never requires a gradient. Inference uses this mode, so sampling
runs the training network's ops without paying for the graph. Inference
also runs in float32, the precision of the model file: in this mode
``Tensor(...)`` makes float32 values (a parameter, which requires a
gradient, stays float64), and every op keeps its input dtype. Training
stays float64. The per-op finite check stays on in both modes: checking
only the final output would miss an overflow that a sigmoid gate or a
softmax squashes back into a finite value.

Two fused ops carry the network's hot paths with hand-written
vector-Jacobian products: ``linear(x, w, b)`` is one GEMM over the
flattened rows of ``x`` plus an in-place bias add, and ``silu(x)`` is
``x * sigmoid(x)`` as one node. ``sigmoid`` and ``silu`` use
``scipy.special.expit`` on float64 input, which is stable on both tails;
on float32 input they use ``0.5 * tanh(x / 2) + 0.5``, which is bounded,
cannot overflow, is within 6.5e-8 of ``expit`` and runs several times
faster than ``expit``'s scalar loop.

The Adam optimizer and a central-finite-difference gradient checker live
here too, because they only make sense next to the graph.
"""
from __future__ import annotations

import contextlib
import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np
from scipy.special import expit

from .core import InvalidInputError, NumericError, TrackingError

Array = np.ndarray

_node_ids = itertools.count()
_grad_enabled = True


class ShapeError(TrackingError, ValueError):
    """Operand shapes are incompatible for an op; message names the node."""


class NonFiniteError(NumericError):
    """An op produced NaN or Inf; message names the node."""


class Tensor:
    """A node in the computation graph.

    ``value`` is a float64 ndarray, or a float32 one for a tensor made
    under ``no_grad`` that does not require a gradient; ``Tensor(...)``
    converts its input to that dtype. ``requires_grad`` marks nodes
    that gradients should flow into (parameters and everything downstream
    of them). ``_parents`` pairs each parent tensor with the local
    vector-Jacobian product applied during backward.
    """

    __slots__ = ("value", "grad", "name", "requires_grad", "_parents")

    def __init__(
        self,
        value,
        requires_grad: bool = False,
        name: str | None = None,
        _parents: tuple = (),
    ):
        self.name = name if name is not None else f"tensor{next(_node_ids)}"
        if requires_grad or _grad_enabled:
            v = np.asarray(value, dtype=np.float64)
        else:
            with np.errstate(over="ignore"):  # beyond float32 range is inf, rejected below
                v = np.asarray(value, dtype=np.float32)
        if not np.isfinite(v).all():
            raise NonFiniteError(f"node '{self.name}': non-finite value")
        self.value = v
        self.grad: Array | None = None
        self.requires_grad = requires_grad
        self._parents = _parents

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    def item(self) -> float:
        return float(self.value)

    def __repr__(self) -> str:
        return f"Tensor(name={self.name!r}, shape={self.shape}, requires_grad={self.requires_grad})"

    # arithmetic sugar; every dunder routes through the module-level ops
    def __add__(self, other):
        return add(self, _as_tensor(other))

    def __radd__(self, other):
        return add(_as_tensor(other), self)

    def __mul__(self, other):
        return mul(self, _as_tensor(other))

    def __rmul__(self, other):
        return mul(_as_tensor(other), self)

    def __sub__(self, other):
        return add(self, scale(_as_tensor(other), -1.0))

    def __rsub__(self, other):
        return add(_as_tensor(other), scale(self, -1.0))

    def __neg__(self):
        return scale(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, _as_tensor(other))


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def parameter(value, name: str) -> Tensor:
    return Tensor(value, requires_grad=True, name=name)


def is_grad_enabled() -> bool:
    """False inside ``no_grad``: ops record no graph and new tensors are
    float32."""
    return _grad_enabled


@contextlib.contextmanager
def no_grad():
    """Run ops without recording a graph; the previous mode comes back on
    exit, also when the body raises."""
    global _grad_enabled
    previous, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = previous


def _make(value: Array, op: str, parents: Sequence[tuple[Tensor, Callable[[Array], Array]]]) -> Tensor:
    out = Tensor.__new__(Tensor)
    if _grad_enabled:
        out.name = f"{op}#{next(_node_ids)}"
        out.requires_grad = any(p.requires_grad for p, _ in parents)
        out._parents = tuple(parents)
    else:
        out.name = op
        out.requires_grad = False
        out._parents = ()
    if not np.isfinite(value).all():
        raise NonFiniteError(f"node '{out.name}': non-finite value")
    out.value = value
    out.grad = None
    return out


def _unbroadcast(grad: Array, shape: tuple[int, ...]) -> Array:
    """Sum-reduce ``grad`` back to ``shape`` after numpy broadcasting."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and grad.shape[ax] != 1:
            grad = grad.sum(axis=ax, keepdims=True)
    return grad


# ---------------------------------------------------------------------------
# ops


def add(a: Tensor, b: Tensor) -> Tensor:
    try:
        v = a.value + b.value
    except ValueError as e:
        raise ShapeError(f"add: cannot broadcast {a.shape} with {b.shape} ({a.name}, {b.name})") from e
    return _make(v, "add", [
        (a, lambda g: _unbroadcast(g, a.shape)),
        (b, lambda g: _unbroadcast(g, b.shape)),
    ])


def mul(a: Tensor, b: Tensor) -> Tensor:
    try:
        v = a.value * b.value
    except ValueError as e:
        raise ShapeError(f"mul: cannot broadcast {a.shape} with {b.shape} ({a.name}, {b.name})") from e
    return _make(v, "mul", [
        (a, lambda g: _unbroadcast(g * b.value, a.shape)),
        (b, lambda g: _unbroadcast(g * a.value, b.shape)),
    ])


def scale(a: Tensor, k: float) -> Tensor:
    k = float(k)
    return _make(a.value * k, "scale", [(a, lambda g: g * k)])


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.value.ndim < 2 or b.value.ndim < 2:
        raise ShapeError(f"matmul: operands must have ndim >= 2 ({a.name}: {a.shape}, {b.name}: {b.shape})")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: inner dims differ, {a.shape} @ {b.shape} ({a.name}, {b.name})")
    return _make(a.value @ b.value, "matmul", [
        (a, lambda g: _unbroadcast(g @ np.swapaxes(b.value, -1, -2), a.shape)),
        (b, lambda g: _unbroadcast(np.swapaxes(a.value, -1, -2) @ g, b.shape)),
    ])


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Affine map ``x @ w + b`` over the last axis of ``x`` (any leading
    shape): one GEMM on the flattened rows plus an in-place bias add."""
    if w.value.ndim != 2 or x.value.ndim < 1 or x.shape[-1] != w.shape[0] or b.shape != w.shape[1:]:
        raise ShapeError(f"linear: {x.shape} @ {w.shape} + {b.shape} ({x.name}, {w.name}, {b.name})")
    x2 = x.value.reshape(-1, w.shape[0])
    v = x2 @ w.value
    v += b.value
    return _make(v.reshape(*x.shape[:-1], w.shape[1]), "linear", [
        (x, lambda g: (g.reshape(-1, g.shape[-1]) @ w.value.T).reshape(x.shape)),
        (w, lambda g: x2.T @ g.reshape(-1, g.shape[-1])),
        (b, lambda g: _unbroadcast(g, b.shape)),
    ])


def _sigmoid(x: Array) -> Array:
    """``expit`` on float64; the bounded tanh form on float32."""
    if x.dtype != np.float32:
        return expit(x)
    s = np.tanh(0.5 * x)
    s *= 0.5
    s += 0.5
    return s


def sigmoid(a: Tensor) -> Tensor:
    s = _sigmoid(a.value)
    return _make(s, "sigmoid", [(a, lambda g: g * s * (1.0 - s))])


def silu(a: Tensor) -> Tensor:
    """``x * sigmoid(x)``; its VJP is g*s*(1 + x*(1 - s)), evaluated as the
    sum of the product-rule and sigmoid terms."""
    x = a.value
    s = _sigmoid(x)
    return _make(x * s, "silu", [(a, lambda g: g * s + g * x * s * (1.0 - s))])


def softmax(a: Tensor) -> Tensor:
    """Softmax over the last axis."""
    x = a.value
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    s = e / e.sum(axis=-1, keepdims=True)

    def grad(g: Array) -> Array:
        return s * (g - (g * s).sum(axis=-1, keepdims=True))

    return _make(s, "softmax", [(a, grad)])


def concat(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    tensors = list(tensors)
    if not tensors:
        raise InvalidInputError("concat: need at least one tensor")
    try:
        v = np.concatenate([t.value for t in tensors], axis=axis)
    except ValueError as e:
        raise ShapeError(f"concat: incompatible shapes {[t.shape for t in tensors]}") from e
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    parents = []
    for i, t in enumerate(tensors):
        lo, hi = offsets[i], offsets[i + 1]

        def grad(g: Array, lo=lo, hi=hi) -> Array:
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(lo, hi)
            return g[tuple(idx)]

        parents.append((t, grad))
    return _make(v, "concat", parents)


def slice_(a: Tensor, key) -> Tensor:
    v = a.value[key]

    def grad(g: Array) -> Array:
        out = np.zeros_like(a.value)
        out[key] = g
        return out

    return _make(np.ascontiguousarray(v), "slice", [(a, grad)])


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    v = a.value.reshape(shape)
    return _make(v, "reshape", [(a, lambda g: g.reshape(a.shape))])


def swapaxes(a: Tensor, ax1: int, ax2: int) -> Tensor:
    v = np.ascontiguousarray(np.swapaxes(a.value, ax1, ax2))
    return _make(v, "swapaxes", [(a, lambda g: np.swapaxes(g, ax1, ax2))])


def broadcast_to(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    try:
        v = np.broadcast_to(a.value, shape).copy()
    except ValueError as e:
        raise ShapeError(f"broadcast_to: {a.shape} -> {shape} ({a.name})") from e
    return _make(v, "broadcast", [(a, lambda g: _unbroadcast(g, a.shape))])


def mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    v = a.value.mean(axis=axis, keepdims=keepdims)
    n = a.value.size if axis is None else np.prod([a.shape[ax] for ax in np.atleast_1d(axis)])

    def grad(g: Array) -> Array:
        g = np.asarray(g)
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return np.broadcast_to(g, a.shape) / n

    return _make(np.asarray(v), "mean", [(a, grad)])


def layer_norm(a: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize over the last axis to zero mean / unit variance.

    Learnable gain and bias are applied by the caller with mul/add so this
    primitive stays parameter-free.
    """
    x = a.value
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x - mu) * inv
    d = x.shape[-1]

    def grad(g: Array) -> Array:
        gm = g.mean(axis=-1, keepdims=True)
        gx = (g * xhat).mean(axis=-1, keepdims=True)
        return inv * (g - gm - xhat * gx)

    return _make(xhat, "layer_norm", [(a, grad)])


def smooth_l1(a: Tensor) -> Tensor:
    """Elementwise smooth L1: 0.5*x^2 for |x| < 1, |x| - 0.5 otherwise."""
    x = a.value
    absx = np.abs(x)
    v = np.where(absx < 1.0, 0.5 * x * x, absx - 0.5)

    def grad(g: Array) -> Array:
        return g * np.where(absx < 1.0, x, np.sign(x))

    return _make(v, "smooth_l1", [(a, grad)])


# ---------------------------------------------------------------------------
# backward pass


def _topo_order(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent, _ in node._parents:
            if parent.requires_grad and id(parent) not in seen:
                stack.append((parent, False))
    return order


def backward(output: Tensor, wrt: Iterable[Tensor]) -> list[Array]:
    """Reverse-accumulate d(output)/d(w) for each w in ``wrt``.

    ``output`` must be scalar. Tensors in ``wrt`` that the output does not
    depend on get zero gradients. Also stores each gradient on ``w.grad``.
    """
    wrt = list(wrt)
    wanted = {id(w) for w in wrt}
    if output.value.size != 1:
        raise InvalidInputError(f"backward: output node '{output.name}' is not scalar (shape {output.shape})")
    grads: dict[int, Array] = {id(output): np.ones_like(output.value)}
    for node in reversed(_topo_order(output)):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        for parent, vjp in node._parents:
            if not parent.requires_grad:
                continue
            contribution = vjp(g)
            key = id(parent)
            if key in grads:
                grads[key] = grads[key] + contribution
            else:
                grads[key] = contribution
        if id(node) in wanted:
            grads[id(node)] = g  # keep gradients requested by the caller
    out = []
    for w in wrt:
        g = grads.get(id(w))
        if g is None:
            g = np.zeros_like(w.value)
        g = np.asarray(g, dtype=np.float64).reshape(w.shape)
        w.grad = g
        out.append(g)
    return out


# ---------------------------------------------------------------------------
# Adam


@dataclass
class AdamState:
    """First/second moment accumulators, one entry per parameter name."""

    m: dict[str, Array]
    v: dict[str, Array]
    step: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


def adam_init(params: dict[str, Tensor], beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8) -> AdamState:
    return AdamState(
        m={k: np.zeros_like(p.value) for k, p in params.items()},
        v={k: np.zeros_like(p.value) for k, p in params.items()},
        step=0,
        beta1=beta1,
        beta2=beta2,
        eps=eps,
    )


def adam_step(
    params: dict[str, Tensor],
    grads: dict[str, Array],
    state: AdamState,
    learning_rate: float,
) -> tuple[dict[str, Tensor], AdamState]:
    """One Adam update with bias correction; mutates params in place."""
    if learning_rate <= 0:
        raise InvalidInputError(f"learning_rate must be positive, got {learning_rate}")
    state.step += 1
    b1, b2 = state.beta1, state.beta2
    c1 = 1.0 - b1 ** state.step
    c2 = 1.0 - b2 ** state.step
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.value.shape:
            raise InvalidInputError(f"adam_step: gradient shape {g.shape} != parameter shape {p.value.shape} for '{name}'")
        state.m[name] = b1 * state.m[name] + (1.0 - b1) * g
        state.v[name] = b2 * state.v[name] + (1.0 - b2) * g * g
        m_hat = state.m[name] / c1
        v_hat = state.v[name] / c2
        p.value = p.value - learning_rate * m_hat / (np.sqrt(v_hat) + state.eps)
    return params, state


# ---------------------------------------------------------------------------
# finite differences


@dataclass
class FDReport:
    """Outcome of a central-finite-difference gradient audit."""

    max_rel_error: float
    worst: tuple[str, int] | None
    flagged: list[tuple[str, int, float, float, float]] = field(default_factory=list)
    per_param: dict[str, float] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.flagged


def finite_difference_check(
    f: Callable[[], Tensor],
    params: dict[str, Tensor],
    h: float = 1e-5,
    tolerance: float = 1e-4,
    floor: float = 1e-4,
    analytic: dict[str, Array] | None = None,
) -> FDReport:
    """Compare analytic gradients of the scalar ``f()`` against central
    differences, component by component.

    Error metric per component: |a - fd| / max(|a|, |fd|, floor). Below
    ``floor`` the comparison is effectively absolute at tolerance*floor,
    keeping the check meaningful where the true gradient is ~0 (the FD
    noise floor does not shrink with the gradient).

    ``analytic`` overrides the backward-pass gradients; its purpose is
    negative-control testing.

    Each perturbation rebinds ``p.value`` to a perturbed copy, and the
    original array is rebound afterwards, so nothing that caches a
    parameter by its array (HMINet's float32 inference copies) goes stale.
    """
    if h <= 0:
        raise InvalidInputError(f"h must be positive, got {h}")
    if analytic is None:
        out = f()
        gs = backward(out, list(params.values()))
        analytic = {name: g for name, g in zip(params.keys(), gs)}

    def f_moved(p: Tensor, orig: Array, i: int, step: float) -> float:
        p.value = orig.copy()
        p.value.flat[i] += step
        return float(f().value)

    report = FDReport(max_rel_error=0.0, worst=None)
    for name, p in params.items():
        a = analytic[name].reshape(-1)
        orig = p.value
        worst_here = 0.0
        for i in range(orig.size):
            fd = (f_moved(p, orig, i, h) - f_moved(p, orig, i, -h)) / (2.0 * h)
            p.value = orig
            err = abs(a[i] - fd) / max(abs(a[i]), abs(fd), floor)
            if err > worst_here:
                worst_here = err
            if err > report.max_rel_error:
                report.max_rel_error = err
                report.worst = (name, i)
            if err > tolerance:
                report.flagged.append((name, i, float(a[i]), fd, err))
        report.per_param[name] = worst_here
    return report
