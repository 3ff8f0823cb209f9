"""Dense-tensor computation graph with reverse-mode differentiation.

Just enough machinery to express and train the motion network: values are
float64 or float32 numpy arrays, the graph is built implicitly as ops run, and
``backward`` accumulates vector-Jacobian products in reverse topological
order. Every op validates shapes up front; when it records a graph it also
checks its output for non-finite values. Both failure modes raise
structured errors naming the offending node.

New tensors take their dtype from one module-level compute-precision
switch: float64 by default, float32 inside ``with precision(np.float32):``.
Every op keeps its input dtype, and a ``parameter`` is always float64, so
it can serve as a master weight under either precision. In graph mode the
per-op finite check runs at both precisions, so a training step aborts at
the op that overflowed and the finite-difference audit never sees an inf.

Inside ``with no_grad():`` the same ops run without building a graph, in
float32: an op's output records no parents, gets its op name instead of a
unique node name, never requires a gradient and is not finite-checked.
In the motion network a non-finite value reaches the output of the pass
except where ``sigmoid`` saturates it to a finite 0 or 1, or softmax turns
a -inf score into a finite 0 weight, so those two ops check in both
modes: ``sigmoid`` its input and ``attention`` its scores. Callers check
the values leaving a no-grad pass with ``check_finite``; every error names
the op that made the value. Inference uses this mode at the precision of
the model file, so sampling runs the training network's ops without paying
for the graph. Training records the graph in float32 too
(``diffusion.train``) and casts the gradients up to float64 for Adam; the
default float64 graph is what ``finite_difference_check`` audits.

Fused ops carry the network's hot paths with hand-written vector-Jacobian
products: ``linear(x, w, b)`` is one GEMM over the flattened rows of ``x``
plus an in-place bias add; ``silu(x)`` is ``x * sigmoid(x)`` as one node;
``layer_norm(x, gain, bias)`` is the affine layer norm; and
``attention(...)`` is a whole multi-head attention (projections, scaled
softmax per head, output projection), whose VJP computes all nine parent
gradients at once. ``sigmoid`` and ``silu`` use
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
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np
from scipy.special import expit

from .core import InvalidInputError, NumericError, TrackingError

Array = np.ndarray

_node_ids = itertools.count()
_grad_enabled = True
_dtype = np.float64


class ShapeError(TrackingError, ValueError):
    """Operand shapes are incompatible for an op; message names the node."""


class NonFiniteError(NumericError):
    """An op produced NaN or Inf; message names the node."""


class Tensor:
    """A node in the computation graph.

    ``value`` is an ndarray of the compute precision the tensor was made
    at; ``Tensor(...)`` converts its input to it. ``requires_grad`` marks nodes
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
        with np.errstate(over="ignore"):  # beyond float32 range is inf, rejected below
            v = np.asarray(value, dtype=_dtype)
        _check_finite(v, self.name)
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
    """A float64 leaf that requires a gradient, at either precision."""
    with precision(np.float64):
        return Tensor(value, requires_grad=True, name=name)


def compute_dtype() -> type:
    """The scalar type of new tensors: ``np.float64`` unless ``precision``
    or ``no_grad`` set ``np.float32``."""
    return _dtype


@contextlib.contextmanager
def precision(dtype):
    """Make new tensors of ``dtype`` (float32 or float64); the previous
    precision comes back on exit, also when the body raises."""
    global _dtype
    previous, _dtype = _dtype, np.dtype(dtype).type
    try:
        yield
    finally:
        _dtype = previous


@contextlib.contextmanager
def no_grad():
    """Run ops without recording a graph, in float32; the previous mode and
    precision come back on exit, also when the body raises."""
    global _grad_enabled
    previous, _grad_enabled = _grad_enabled, False
    try:
        with precision(np.float32):
            yield
    finally:
        _grad_enabled = previous


def _check_finite(value: Array, name: str) -> None:
    if not np.isfinite(value).all():
        raise NonFiniteError(f"node '{name}': non-finite value")


def check_finite(t: Tensor) -> Tensor:
    """Return ``t``; raise NonFiniteError naming the op that made it if it
    holds a NaN or Inf. Callers put it where a no-grad result leaves."""
    _check_finite(t.value, t.name)
    return t


def _make(value: Array, op: str, parents: Sequence[tuple[Tensor, Callable[[Array], Array]]]) -> Tensor:
    out = Tensor.__new__(Tensor)
    if _grad_enabled:
        out.name = f"{op}#{next(_node_ids)}"
        out.requires_grad = any(p.requires_grad for p, _ in parents)
        out._parents = tuple(parents)
        _check_finite(value, out.name)
    else:
        out.name = op
        out.requires_grad = False
        out._parents = ()
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


def linear(x: Tensor, w: Tensor, b: Tensor | None) -> Tensor:
    """Affine map ``x @ w + b`` over the last axis of ``x`` (any leading
    shape): one GEMM on the flattened rows, then an in-place add of ``b`` if any."""
    b_shape = None if b is None else b.shape
    if w.value.ndim != 2 or x.value.ndim < 1 or x.shape[-1] != w.shape[0] or b_shape not in (None, w.shape[1:]):
        raise ShapeError(f"linear: {x.shape} @ {w.shape} + {b_shape} ({x.name}, {w.name})")
    x2 = x.value.reshape(-1, w.shape[0])
    v = x2 @ w.value
    parents = [(x, lambda g: (g.reshape(-1, g.shape[-1]) @ w.value.T).reshape(x.shape)),
               (w, lambda g: x2.T @ g.reshape(-1, g.shape[-1]))]
    if b is not None:
        v += b.value
        parents.append((b, lambda g: _unbroadcast(g, b.shape)))
    return _make(v.reshape(*x.shape[:-1], w.shape[1]), "linear", parents)


def _sigmoid(x: Array) -> Array:
    """``expit`` on float64; the bounded tanh form on float32."""
    if x.dtype != np.float32:
        return expit(x)
    s = np.tanh(0.5 * x)
    s *= 0.5
    s += 0.5
    return s


def sigmoid(a: Tensor) -> Tensor:
    """Checks its input in both modes: it saturates an Inf to a finite 0 or 1."""
    _check_finite(a.value, a.name)
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
    n = a.value.size if axis is None else int(np.prod([a.shape[ax] for ax in np.atleast_1d(axis)]))

    def grad(g: Array) -> Array:
        g = np.asarray(g)
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return np.broadcast_to(g, a.shape) / n

    return _make(np.asarray(v), "mean", [(a, grad)])


LN_EPS = 1e-5


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """``gain * (x - mean) / sqrt(var + LN_EPS) + bias`` over the last axis.

    The variance is the mean square of the centred values, the same bits
    as ``np.var``, without its second pass for the mean.
    """
    x = a.value
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(f"layer_norm: {a.shape} with gain {gain.shape}, bias {bias.shape} ({a.name})")
    xc = x - x.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + LN_EPS)
    xhat = xc * inv
    out = xhat * gain.value
    out += bias.value

    def grad_x(g: Array) -> Array:
        gx = g * gain.value
        return inv * (gx - gx.mean(axis=-1, keepdims=True) - xhat * (gx * xhat).mean(axis=-1, keepdims=True))

    return _make(out, "layer_norm", [
        (a, grad_x),
        (gain, lambda g: _unbroadcast(g * xhat, gain.shape)),
        (bias, lambda g: _unbroadcast(g, bias.shape)),
    ])


def attention(xq: Tensor, xkv: Tensor, wq: Tensor, bq: Tensor, wk: Tensor, wv: Tensor, bv: Tensor,
              wo: Tensor, bo: Tensor, heads: int) -> Tensor:
    """Multi-head attention of the (B, Tq, d) queries ``xq`` over the
    (B, Tk, d) tokens ``xkv``, as one node.

    Queries, keys and values are ``linear`` projections (keys take no bias:
    softmax cancels a shift shared by a query's scores), each head takes
    a softmax of its scores scaled by 1/sqrt(d/heads), and the merged heads
    go through the output projection ``wo``, ``bo``. The scores are checked
    in both modes, because softmax turns a -Inf score into a finite 0. The
    VJP computes every parent's gradient on its first call for a given
    upstream gradient and hands out the rest from that.
    """
    d = xq.shape[-1]
    if (xq.value.ndim != 3 or xkv.value.ndim != 3 or xkv.shape[::2] != xq.shape[::2] or d % heads
            or any(w.shape != (d, d) for w in (wq, wk, wv, wo)) or any(v.shape != (d,) for v in (bq, bv, bo))):
        raise ShapeError(f"attention: queries {xq.shape}, tokens {xkv.shape}, {heads} heads ({xq.name}, {xkv.name})")
    b, tq, tk = xq.shape[0], xq.shape[1], xkv.shape[1]
    dh = d // heads
    k_scale = 1.0 / math.sqrt(dh)  # a Python float keeps float32 scores float32
    xq2, xkv2 = xq.value.reshape(-1, d), xkv.value.reshape(-1, d)

    def split(v2: Array, t: int) -> Array:  # (B*t, d) -> (B, heads, t, dh)
        return np.ascontiguousarray(v2.reshape(b, t, heads, dh).swapaxes(1, 2))

    q2 = xq2 @ wq.value
    q2 += bq.value
    v2 = xkv2 @ wv.value
    v2 += bv.value
    q, v = split(q2, tq), split(v2, tk)
    k_t = np.ascontiguousarray((xkv2 @ wk.value).reshape(b, tk, heads, dh).transpose(0, 2, 3, 1))
    s = q @ k_t
    s *= k_scale
    if not np.isfinite(s).all():
        raise NonFiniteError("node 'attention': non-finite score")
    s -= s.max(axis=-1, keepdims=True)
    np.exp(s, out=s)
    s /= s.sum(axis=-1, keepdims=True)
    merged = np.ascontiguousarray((s @ v).swapaxes(1, 2)).reshape(-1, d)
    out = merged @ wo.value
    out += bo.value

    memo: list = [None, None]

    def grads(g: Array) -> tuple[Array, ...]:
        if memo[0] is g:
            return memo[1]
        g2 = g.reshape(-1, d)
        d_attn = split(g2 @ wo.value.T, tq)
        d_s = d_attn @ np.swapaxes(v, -1, -2)
        d_scores = s * (d_s - (d_s * s).sum(axis=-1, keepdims=True))
        d_scores *= k_scale
        dq2 = (d_scores @ np.swapaxes(k_t, -1, -2)).swapaxes(1, 2).reshape(-1, d)
        dk2 = (np.swapaxes(d_scores, -1, -2) @ q).swapaxes(1, 2).reshape(-1, d)
        dv2 = (np.swapaxes(s, -1, -2) @ d_attn).swapaxes(1, 2).reshape(-1, d)
        memo[:] = g, (
            (dq2 @ wq.value.T).reshape(xq.shape), xq2.T @ dq2, dq2.sum(axis=0),
            (dk2 @ wk.value.T + dv2 @ wv.value.T).reshape(xkv.shape), xkv2.T @ dk2, xkv2.T @ dv2, dv2.sum(axis=0),
            merged.T @ g2, g2.sum(axis=0),
        )
        return memo[1]

    parents = (xq, wq, bq, xkv, wk, wv, bv, wo, bo)
    return _make(out.reshape(b, tq, d), "attention",
                 [(p, lambda g, i=i: grads(g)[i]) for i, p in enumerate(parents)])


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
    depend on get zero gradients. Gradients are float64 whatever the
    graph's precision, ready for Adam's float64 moments. Also stores each
    gradient on ``w.grad``.
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


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    """First/second moment accumulators, one entry per parameter name."""

    m: dict[str, Array]
    v: dict[str, Array]
    step: int = 0


def adam_init(params: dict[str, Tensor]) -> AdamState:
    return AdamState(
        m={k: np.zeros_like(p.value) for k, p in params.items()},
        v={k: np.zeros_like(p.value) for k, p in params.items()},
    )


def adam_step(
    params: dict[str, Tensor],
    grads: dict[str, Array],
    state: AdamState,
    learning_rate: float,
) -> tuple[dict[str, Tensor], AdamState]:
    """One bias-corrected Adam update at the ``ADAM_*`` constants; mutates params in place."""
    if learning_rate <= 0:
        raise InvalidInputError(f"learning_rate must be positive, got {learning_rate}")
    state.step += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
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
        p.value = p.value - learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return params, state


# ---------------------------------------------------------------------------
# finite differences


@dataclass
class FDReport:
    """Outcome of a central-finite-difference gradient audit."""

    max_rel_error: float
    worst: tuple[str, int] | None
    flagged: list[tuple[str, int, float, float, float]] = field(default_factory=list)

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
    parameter by its array (HMINet's float32 copies) goes stale.
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
        for i in range(orig.size):
            fd = (f_moved(p, orig, i, h) - f_moved(p, orig, i, -h)) / (2.0 * h)
            p.value = orig
            err = abs(a[i] - fd) / max(abs(a[i]), abs(fd), floor)
            if err > report.max_rel_error:
                report.max_rel_error = err
                report.worst = (name, i)
            if err > tolerance:
                report.flagged.append((name, i, float(a[i]), fd, err))
    return report
