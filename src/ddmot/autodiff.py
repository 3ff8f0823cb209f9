"""Dense-tensor computation graph with reverse-mode differentiation.

Just enough machinery to express and train the motion network: values are
float64 or float32 numpy arrays, and the graph is built implicitly as ops
run. A node records its inputs and one vector-Jacobian product that
returns a gradient per input; ``backward`` calls it once per node in
reverse topological order. Every op validates shapes up front; when it
records a graph it also checks its output for non-finite values. Both
failure modes raise structured errors naming the offending node.

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
except where a sigmoid saturates it to a finite 0 or 1, softmax turns
a -inf score into a finite 0 weight, or an infinite variance scales a
row to 0, so those ops check in both modes: ``sigmoid`` its input,
``mfl`` and ``mfl_condition`` their gate's input, ``attention`` its scores
and ``layer_norm`` its variance. Callers check
the values leaving a no-grad pass with ``check_finite``; every error names
the op that made the value. Inference uses this mode at the precision of
the model file, so sampling runs the training network's ops without paying
for the graph. Training records the graph in float32 too
(``diffusion.train``) and casts the gradients up to float64 for Adam; the
default float64 graph is what ``finite_difference_check`` audits.

Fused ops carry the network's hot paths with hand-written vector-Jacobian
products: ``linear(x, w, b)`` is one GEMM over the flattened rows of ``x``
plus an in-place bias add; ``mlp2(x, w1, b1, w2, b2)`` is a two-layer
perceptron (linear, SiLU ``a * sigmoid(a)``, linear) as one node;
``mfl(e, m, ...)`` is a motion fusion layer ``sigmoid(mlp_s(e)) * m +
mlp_h(e)`` as one node, and ``mfl_condition`` and ``mfl_tokens`` split it
where ``m`` enters: the first makes the gate and shift from ``e`` alone,
so the network can make them once per window, and the second applies them
to ``m``; ``layer_norm(x, gain, bias)`` is the affine layer
norm; and ``attention(...)`` is a whole multi-head attention (projections,
scaled softmax per head, output projection), whose VJP returns all nine
parent gradients from one pass. Its softmax maximum and sum, and the VJP's
sum, run over the few keys as one elementwise call per key slab, not as
numpy last-axis reductions, whose per-row loop costs more than the
arithmetic. Each fused op runs the numpy ops, GEMMs included, of the ops
it replaces in their order, so its values and gradients have their bits.
``sigmoid`` and the SiLU of ``mlp2`` and the motion fusion ops use
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
    of them). An op's output keeps its inputs in ``_parents`` and one
    vector-Jacobian product ``_vjp(g)`` that returns one gradient per
    parent, in order; a leaf has no parents and its VJP returns ``()``.
    """

    __slots__ = ("value", "grad", "name", "requires_grad", "_parents", "_vjp")

    def __init__(self, value, requires_grad: bool = False, name: str | None = None):
        self.name = name if name is not None else f"tensor{next(_node_ids)}"
        with np.errstate(over="ignore"):  # beyond float32 range is inf, rejected below
            v = np.asarray(value, dtype=_dtype)
        _check_finite(v, self.name)
        self.value = v
        self.grad: Array | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._vjp = _leaf_vjp

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    def __repr__(self) -> str:
        return f"Tensor(name={self.name!r}, shape={self.shape}, requires_grad={self.requires_grad})"

    # arithmetic sugar; every dunder routes through the module-level ops
    def __add__(self, other):
        return add(self, _as_tensor(other))

    def __mul__(self, other):
        return mul(self, _as_tensor(other))

    def __sub__(self, other):
        return add(self, scale(_as_tensor(other), -1.0))


def _leaf_vjp(g: Array) -> tuple[()]:
    return ()


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def parameter(value, name: str) -> Tensor:
    """A float64 leaf that requires a gradient, at either precision."""
    with precision(np.float64):
        return Tensor(value, requires_grad=True, name=name)


def grad_enabled() -> bool:
    """Whether ops record a graph: true except inside ``no_grad``."""
    return _grad_enabled


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


def _make(value: Array, op: str, parents: tuple[Tensor, ...], vjp: Callable[[Array], Sequence[Array]]) -> Tensor:
    out = Tensor.__new__(Tensor)
    if _grad_enabled:
        out.name = f"{op}#{next(_node_ids)}"
        out.requires_grad = any(p.requires_grad for p in parents)
        out._parents, out._vjp = parents, vjp
        _check_finite(value, out.name)
    else:
        out.name = op
        out.requires_grad = False
        out._parents, out._vjp = (), _leaf_vjp
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
    return _make(v, "add", (a, b), lambda g: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)))


def mul(a: Tensor, b: Tensor) -> Tensor:
    try:
        v = a.value * b.value
    except ValueError as e:
        raise ShapeError(f"mul: cannot broadcast {a.shape} with {b.shape} ({a.name}, {b.name})") from e
    return _make(v, "mul", (a, b),
                 lambda g: (_unbroadcast(g * b.value, a.shape), _unbroadcast(g * a.value, b.shape)))


def scale(a: Tensor, k: float) -> Tensor:
    k = float(k)
    return _make(a.value * k, "scale", (a,), lambda g: (g * k,))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.value.ndim < 2 or b.value.ndim < 2:
        raise ShapeError(f"matmul: operands must have ndim >= 2 ({a.name}: {a.shape}, {b.name}: {b.shape})")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: inner dims differ, {a.shape} @ {b.shape} ({a.name}, {b.name})")
    return _make(a.value @ b.value, "matmul", (a, b), lambda g: (
        _unbroadcast(g @ np.swapaxes(b.value, -1, -2), a.shape),
        _unbroadcast(np.swapaxes(a.value, -1, -2) @ g, b.shape),
    ))


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Affine map ``x @ w + b`` over the last axis of ``x`` (any leading
    shape): one GEMM on the flattened rows, then an in-place add of ``b``."""
    if w.value.ndim != 2 or x.value.ndim < 1 or x.shape[-1] != w.shape[0] or b.shape != w.shape[1:]:
        raise ShapeError(f"linear: {x.shape} @ {w.shape} + {b.shape} ({x.name}, {w.name})")
    x2 = x.value.reshape(-1, w.shape[0])
    v = x2 @ w.value
    v += b.value

    def grads(g: Array) -> tuple[Array, ...]:
        g2 = g.reshape(-1, g.shape[-1])
        return (g2 @ w.value.T).reshape(x.shape), x2.T @ g2, _unbroadcast(g, b.shape)

    return _make(v.reshape(*x.shape[:-1], w.shape[1]), "linear", (x, w, b), grads)


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
    return _make(s, "sigmoid", (a,), lambda g: (g * s * (1.0 - s),))


def _perceptron(x2: Array, w1: Array, b1: Array, w2: Array, b2: Array) -> tuple[Array, ...]:
    """A two-layer perceptron on the 2D rows ``x2``: the hidden
    pre-activation ``a``, its sigmoid ``s``, the hidden SiLU ``h = a * s``
    and the output, two GEMMs with in-place bias adds."""
    a = x2 @ w1
    a += b1
    s = _sigmoid(a)
    h = a * s
    out = h @ w2
    out += b2
    return a, s, h, out


def _perceptron_grads(g: Array, x2: Array, w1: Array, w2: Array, a: Array, s: Array, h: Array) -> tuple[Array, ...]:
    """The gradients of a ``_perceptron`` output gradient ``g`` (the rows'
    leading shape kept) for ``x2`` (2D), ``w1``, ``b1``, ``w2`` and ``b2``.
    The SiLU's gradient is the sum of the product-rule and sigmoid terms,
    the order ``mul`` and ``sigmoid`` sum them in; each bias gradient is
    reduced over the leading shape axis by axis, as ``linear`` reduces it."""
    g2 = g.reshape(-1, g.shape[-1])
    gh = g2 @ w2.T
    da = gh * s + gh * a * s * (1.0 - s)
    return (da @ w1.T, x2.T @ da, _unbroadcast(da.reshape(*g.shape[:-1], -1), w1.shape[1:]),
            h.T @ g2, _unbroadcast(g, w2.shape[1:]))


def _perceptron_shapes_ok(k: int, w1: Array, b1: Array, w2: Array, b2: Array) -> bool:
    """Whether the weights make a two-layer perceptron over ``k`` inputs."""
    return (w1.ndim == 2 and w2.ndim == 2 and w1.shape[0] == k and b1.shape == w1.shape[1:]
            and w2.shape[0] == w1.shape[1] and b2.shape == w2.shape[1:])


def mlp2(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """The two-layer perceptron ``linear(silu(linear(x, w1, b1)), w2, b2)``
    over the last axis of ``x`` (any leading shape), as one node: two GEMMs
    on the flattened rows with SiLU ``a * sigmoid(a)`` between them."""
    xv, w1v, w2v = x.value, w1.value, w2.value  # shapes read from arrays: Tensor.shape is a Python call
    if xv.ndim < 1 or not _perceptron_shapes_ok(xv.shape[-1], w1v, b1.value, w2v, b2.value):
        raise ShapeError(f"mlp2: {x.shape} through {w1.shape} + {b1.shape}, {w2.shape} + {b2.shape} ({x.name}, {w1.name})")
    x2 = xv.reshape(-1, w1v.shape[0])
    a, s, h, out = _perceptron(x2, w1v, b1.value, w2v, b2.value)

    def grads(g: Array) -> tuple[Array, ...]:
        dx, *dw = _perceptron_grads(g, x2, w1v, w2v, a, s, h)
        return dx.reshape(xv.shape), *dw

    return _make(out.reshape(*xv.shape[:-1], w2v.shape[1]), "mlp2", (x, w1, b1, w2, b2), grads)


def _gate_shift(op: str, e2: Array, scale: tuple[Array, ...], shift: tuple[Array, ...]) -> tuple:
    """The embedding half of a motion fusion layer on the 2D rows ``e2``:
    the gate ``sigmoid(mlp_s(e2))``, the shift ``mlp_h(e2)`` and the hidden
    values of each perceptron, which its gradients need. The gate's input
    is checked in both modes, as ``sigmoid`` checks its input: the gate
    saturates an Inf to 0 or 1. The error names the ``op``."""
    *hidden_s, gate = _perceptron(e2, *scale)
    if not np.isfinite(gate).all():
        raise NonFiniteError(f"node '{op}': non-finite gate input")
    *hidden_h, shift_out = _perceptron(e2, *shift)
    return _sigmoid(gate), shift_out, hidden_s, hidden_h


def _gate_shift_grads(d_gate: Array, d_shift: Array, e2: Array, scale: tuple[Array, ...], shift: tuple[Array, ...],
                      gate: Array, hidden_s: list, hidden_h: list) -> tuple[Array, ...]:
    """The gradients of a ``_gate_shift`` for the embedding rows through
    the scale and then the shift perceptron, and for each perceptron's
    weights, given the gradients ``d_gate`` of the gate and ``d_shift`` of
    the shift (each with the embedding's leading shape)."""
    d_gate = (d_gate.reshape(gate.shape) * gate * (1.0 - gate)).reshape(d_gate.shape)
    de_s, *dw_s = _perceptron_grads(d_gate, e2, scale[0], scale[2], *hidden_s)
    de_h, *dw_h = _perceptron_grads(d_shift, e2, shift[0], shift[2], *hidden_h)
    return de_s, de_h, *dw_s, *dw_h


def _gate_shift_shapes_ok(ev: Array, d: int, scale: tuple[Array, ...], shift: tuple[Array, ...]) -> bool:
    """Whether ``scale`` and ``shift`` make two perceptrons from the last
    axis of the embedding ``ev`` to ``d`` outputs."""
    return ev.ndim >= 1 and all(_perceptron_shapes_ok(ev.shape[-1], *p) and p[3].shape == (d,) for p in (scale, shift))


def mfl(e: Tensor, m: Tensor, w1s: Tensor, b1s: Tensor, w2s: Tensor, b2s: Tensor,
        w1h: Tensor, b1h: Tensor, w2h: Tensor, b2h: Tensor) -> Tensor:
    """The motion fusion layer ``sigmoid(mlp_s(e)) * m + mlp_h(e)``, where
    the scale perceptron ``mlp_s`` (``w1s`` .. ``b2s``) and the shift
    perceptron ``mlp_h`` (``w1h`` .. ``b2h``) are ``mlp2`` perceptrons over
    the last axis of ``e``, as one node. ``m`` has the leading shape of
    ``e`` and the width of both perceptrons' outputs. The gate's input is
    checked in both modes. ``e`` is a parent twice, once per perceptron, so
    ``backward`` adds its two gradients to the others it gets in the order
    it would add them for the unfused layer.
    """
    ev, mv = e.value, m.value
    scale, shift = (w1s.value, b1s.value, w2s.value, b2s.value), (w1h.value, b1h.value, w2h.value, b2h.value)
    if mv.shape[:-1] != ev.shape[:-1] or not _gate_shift_shapes_ok(ev, mv.shape[-1], scale, shift):
        raise ShapeError(f"mfl: embedding {e.shape}, motion {m.shape} through {w1s.shape}, {w2s.shape}, "
                         f"{w1h.shape}, {w2h.shape} ({e.name}, {m.name})")
    d = mv.shape[-1]
    e2, m2 = ev.reshape(-1, ev.shape[-1]), mv.reshape(-1, d)
    gate, out, hidden_s, hidden_h = _gate_shift("mfl", e2, scale, shift)
    out += gate * m2

    def grads(g: Array) -> tuple[Array, ...]:
        g2 = g.reshape(-1, d)
        de_s, de_h, *dw = _gate_shift_grads((g2 * m2).reshape(mv.shape), g, e2, scale, shift, gate, hidden_s, hidden_h)
        return de_s.reshape(ev.shape), de_h.reshape(ev.shape), (g2 * gate).reshape(mv.shape), *dw

    return _make(out.reshape(mv.shape), "mfl", (e, e, m, w1s, b1s, w2s, b2s, w1h, b1h, w2h, b2h), grads)


def mfl_condition(e: Tensor, w1s: Tensor, b1s: Tensor, w2s: Tensor, b2s: Tensor,
                  w1h: Tensor, b1h: Tensor, w2h: Tensor, b2h: Tensor) -> Tensor:
    """The half of a motion fusion layer that reads only its (B, d)
    embedding ``e``, as one node: the (B, 3, d) stack of ``e``, the gate
    ``sigmoid(mlp_s(e))`` and the shift ``mlp_h(e)``, with the perceptrons
    and the gate check of ``mfl``. ``mfl_tokens`` applies the other half.
    ``e`` is a parent three times, for its copy in the stack and then for
    each perceptron, so ``backward`` adds its gradients in the order it adds
    them for ``mfl`` beside a fusion block that reads ``e``.
    """
    ev = e.value
    scale, shift = (w1s.value, b1s.value, w2s.value, b2s.value), (w1h.value, b1h.value, w2h.value, b2h.value)
    if ev.ndim != 2 or not _gate_shift_shapes_ok(ev, ev.shape[1], scale, shift):
        raise ShapeError(f"mfl_condition: embedding {e.shape} through {w1s.shape}, {w2s.shape}, "
                         f"{w1h.shape}, {w2h.shape} ({e.name})")
    gate, shift_out, hidden_s, hidden_h = _gate_shift("mfl_condition", ev, scale, shift)

    def grads(g: Array) -> tuple[Array, ...]:
        # the shift's gradient stays a strided view, as the concatenated
        # pair's split hands it to mfl: a GEMV on a copy may round differently
        de_s, de_h, *dw = _gate_shift_grads(g[:, 1], g[:, 2], ev, scale, shift, gate, hidden_s, hidden_h)
        return g[:, 0], de_s, de_h, *dw

    return _make(np.stack([ev, gate, shift_out], axis=1), "mfl_condition",
                 (e, e, e, w1s, b1s, w2s, b2s, w1h, b1h, w2h, b2h), grads)


def mfl_tokens(c: Tensor, m: Tensor) -> Tensor:
    """The half of a motion fusion layer that reads the (B, d) motion
    features ``m``, as one node: given the (B, 3, d) stack ``c`` of an
    embedding, its gate and its shift (``mfl_condition``), the (B, 2, d)
    token pair of the embedding and ``shift + gate * m``, which a fusion
    block reads. Its values, and with ``mfl_condition`` its gradients,
    have the bits of ``mfl`` and of the pair's concatenation."""
    cv, mv = c.value, m.value
    if cv.ndim != 3 or cv.shape[1] != 3 or mv.shape != cv.shape[::2]:
        raise ShapeError(f"mfl_tokens: condition {c.shape}, motion {m.shape} ({c.name}, {m.name})")
    gate = cv[:, 1]
    out = np.empty((cv.shape[0], 2, cv.shape[2]), cv.dtype)
    out[:, 0] = cv[:, 0]
    np.multiply(gate, mv, out=out[:, 1])
    out[:, 1] += cv[:, 2]

    def grads(g: Array) -> tuple[Array, Array]:
        g_m = g[:, 1]
        return np.stack([g[:, 0], g_m * mv, g_m], axis=1), g_m * gate

    return _make(out, "mfl_tokens", (c, m), grads)


def softmax(a: Tensor) -> Tensor:
    """Softmax over the last axis."""
    x = a.value
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    s = e / e.sum(axis=-1, keepdims=True)
    return _make(s, "softmax", (a,), lambda g: (s * (g - (g * s).sum(axis=-1, keepdims=True)),))


def concat(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    tensors = tuple(tensors)
    if not tensors:
        raise InvalidInputError("concat: need at least one tensor")
    try:
        v = np.concatenate([t.value for t in tensors], axis=axis)
    except ValueError as e:
        raise ShapeError(f"concat: incompatible shapes {[t.shape for t in tensors]}") from e
    return _make(v, "concat", tensors, lambda g: np.split(g, np.cumsum([t.shape[axis] for t in tensors[:-1]]), axis))


def slice_(a: Tensor, key) -> Tensor:
    v = a.value[key]

    def grad(g: Array) -> tuple[Array]:
        out = np.zeros_like(a.value)
        out[key] = g
        return (out,)

    return _make(np.ascontiguousarray(v), "slice", (a,), grad)


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    v = a.value.reshape(shape)
    return _make(v, "reshape", (a,), lambda g: (g.reshape(a.shape),))


def swapaxes(a: Tensor, ax1: int, ax2: int) -> Tensor:
    v = np.ascontiguousarray(np.swapaxes(a.value, ax1, ax2))
    return _make(v, "swapaxes", (a,), lambda g: (np.swapaxes(g, ax1, ax2),))


def broadcast_to(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    try:
        v = np.broadcast_to(a.value, shape).copy()
    except ValueError as e:
        raise ShapeError(f"broadcast_to: {a.shape} -> {shape} ({a.name})") from e
    return _make(v, "broadcast", (a,), lambda g: (_unbroadcast(g, a.shape),))


def mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    v = a.value.mean(axis=axis, keepdims=keepdims)
    n = a.value.size if axis is None else int(np.prod([a.shape[ax] for ax in np.atleast_1d(axis)]))

    def grad(g: Array) -> tuple[Array]:
        g = np.asarray(g)
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.shape) / n,)

    return _make(np.asarray(v), "mean", (a,), grad)


LN_EPS = 1e-5


def _mean_last(x: Array) -> Array:
    """``x.mean(axis=-1, keepdims=True)``, bit for bit (the same sum, then
    one correctly rounded division), without ``mean``'s Python wrapper."""
    out = np.add.reduce(x, axis=-1, keepdims=True)
    out /= x.shape[-1]
    return out


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """``gain * (x - mean) / sqrt(var + LN_EPS) + bias`` over the last axis.

    The variance is the mean square of the centred values, the same bits
    as ``np.var``, without its second pass for the mean. It is checked in
    both modes: a finite row whose squares overflow has an infinite
    variance, which would normalise the row to 0 and return the bias.
    """
    x = a.value
    d = x.shape[-1]
    if gain.value.shape != (d,) or bias.value.shape != (d,):
        raise ShapeError(f"layer_norm: {a.shape} with gain {gain.shape}, bias {bias.shape} ({a.name})")
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite variance is refused below
        xc = x - _mean_last(x)
        var = _mean_last(xc * xc)
    if not np.isfinite(var).all():
        raise NonFiniteError("node 'layer_norm': non-finite variance")
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat = xc * inv
    out = xhat * gain.value
    out += bias.value

    def grads(g: Array) -> tuple[Array, Array, Array]:
        gx = g * gain.value
        dx = inv * (gx - _mean_last(gx) - xhat * _mean_last(gx * xhat))
        return dx, _unbroadcast(g * xhat, gain.shape), _unbroadcast(g, bias.shape)

    return _make(out, "layer_norm", (a, gain, bias), grads)


def _over_keys(ufunc: np.ufunc, s: Array) -> Array:
    """Reduce the (..., Tk) scores ``s`` over their last (key) axis with
    one ``ufunc`` call per key slab, in key order, keeping that axis.

    numpy reduces a short last axis through a per-row inner loop that costs
    far more than its arithmetic on a batch of 6-key rows; the slab calls
    run over the whole batch at once. Up to 7 keys numpy adds in this same
    order, so the bits match ``s.sum(axis=-1)``; from 8 keys on its
    pairwise sum groups differently. A maximum is exact in any order.
    """
    out = s[..., :1].copy()
    for j in range(1, s.shape[-1]):
        ufunc(out, s[..., j : j + 1], out=out)
    return out


def attention(xq: Tensor, xkv: Tensor, wq: Tensor, bq: Tensor, wk: Tensor, wv: Tensor, bv: Tensor,
              wo: Tensor, bo: Tensor, heads: int) -> Tensor:
    """Multi-head attention of the (B, Tq, d) queries ``xq`` over the
    (B, Tk, d) tokens ``xkv``, as one node.

    Queries, keys and values are ``linear`` projections (keys take no bias:
    softmax cancels a shift shared by a query's scores), each head takes
    a softmax of its scores scaled by 1/sqrt(d/heads), and the merged heads
    go through the output projection ``wo``, ``bo``. The scores are checked
    in both modes, because softmax turns a -Inf score into a finite 0.
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
    s -= _over_keys(np.maximum, s)
    np.exp(s, out=s)
    s /= _over_keys(np.add, s)
    merged = np.ascontiguousarray((s @ v).swapaxes(1, 2)).reshape(-1, d)
    out = merged @ wo.value
    out += bo.value

    def grads(g: Array) -> tuple[Array, ...]:
        g2 = g.reshape(-1, d)
        d_attn = split(g2 @ wo.value.T, tq)
        d_s = d_attn @ np.swapaxes(v, -1, -2)
        d_scores = s * (d_s - _over_keys(np.add, d_s * s))
        d_scores *= k_scale
        dq2 = (d_scores @ np.swapaxes(k_t, -1, -2)).swapaxes(1, 2).reshape(-1, d)
        dk2 = (np.swapaxes(d_scores, -1, -2) @ q).swapaxes(1, 2).reshape(-1, d)
        dv2 = (np.swapaxes(s, -1, -2) @ d_attn).swapaxes(1, 2).reshape(-1, d)
        return (
            (dq2 @ wq.value.T).reshape(xq.shape), xq2.T @ dq2, dq2.sum(axis=0),
            (dk2 @ wk.value.T + dv2 @ wv.value.T).reshape(xkv.shape), xkv2.T @ dk2, xkv2.T @ dv2, dv2.sum(axis=0),
            merged.T @ g2, g2.sum(axis=0),
        )

    return _make(out.reshape(b, tq, d), "attention", (xq, wq, bq, xkv, wk, wv, bv, wo, bo), grads)


def smooth_l1(a: Tensor) -> Tensor:
    """Elementwise smooth L1: 0.5*x^2 for |x| < 1, |x| - 0.5 otherwise."""
    x = a.value
    absx = np.abs(x)
    v = np.where(absx < 1.0, 0.5 * x * x, absx - 0.5)
    return _make(v, "smooth_l1", (a,), lambda g: (g * np.where(absx < 1.0, x, np.sign(x)),))


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
        for parent in node._parents:
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
        for parent, contribution in zip(node._parents, node._vjp(g)):
            if not parent.requires_grad:
                continue
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
