"""HMINet: the network that parameterizes the reverse diffusion target.

A history window of per-frame (box, motion) rows is encoded by a stack of
pre-norm self-attention blocks; a learnable class token collects the
window into a single condition embedding. The noisy motion sample is
encoded by a small MLP, receives a sinusoidal embedding of the diffusion
time, and is gated by the condition embedding through motion fusion
layers (scale/shift gating). A final MLP emits the attenuation prediction
(one-branch) or attenuation plus noise predictions (two-branch).

The forward pass splits where the noisy motion enters. ``embed_condition``
is the encoder: it returns a (B, 3, d) condition per window, the
embedding stacked with the gate and the shift that the first motion
fusion layer ``mfl0`` makes from it (``autodiff.mfl_condition``), which
read nothing else. ``_fusion_head`` is the time embedding, ``mfl0``'s
gating of the motion features (``autodiff.mfl_tokens``), the fusion blocks
and the head, run on precomputed conditions. Training calls
``predict_graph`` (encoder then fusion+head, recording the graph).
Sampling calls ``predict_values`` (fusion+head with no graph) once per
sampling step, on conditions encoded beforehand and bound once per
sampling call (``bind_condition``: wrapped once, each parameter group
fetched at the first step). The d2mp session keeps one condition per track
and encodes a track's window only when it changes, which is sound because
the float32 encoder is batch invariant (a window's condition has the same
bits in any batch of two or more windows; a one-row batch runs BLAS's
matrix-vector path and may differ in the last bit). Both paths share one
network definition.
Each layer is one autodiff node: every two-layer perceptron (time,
motion, feed-forward, head) an ``autodiff.mlp2``, every later motion
fusion layer an ``autodiff.mfl``, each attention an ``autodiff.attention``
and each pre-norm an affine ``autodiff.layer_norm``. At desk scale an
encode runs 21 nodes, and a sampling step (fusion and head) 27, 25 once the
time MLP's output for its sampling time is kept (``_step_time``). The
no-grad ops skip the finite check, so ``embed_condition`` and
``predict_values`` check the values they return: with the checks inside
``mfl`` and ``mfl_condition`` (the gate's input), ``attention`` and
``layer_norm``, sampling raises ``NonFiniteError`` exactly when the
recorded float32 forward would.

The parameters are float64 master weights. The network computes at the
autodiff compute precision: under the default float64 it reads the
parameters themselves, and under float32 (``autodiff.no_grad`` for
inference, ``autodiff.precision`` for training) it reads float32 copies of
them, made once per parameter array. In a float32 training step those
copies are the gradient leaves. A copy is remade when a parameter's array
is rebound (as Adam does); the array a copy was made from is set
read-only, so an in-place edit cannot leave the copy stale. Each layer
fetches its parameters, in the order its op takes them, as one group.

Only the class token of the last encoder block is ever read, so that block
computes queries, attention output, residual, second norm and feed-forward
for the class token alone; its keys and values still come from every
token. The embedding and its gradients are those of the full block, at a
sixth of the cost of the block's widest tensors for a 5-frame window.

Unstated-by-construction choices (documented here because they are load
bearing): condition rows get a learned 8->token_dim embedding plus learned
positional encodings, so the encoder sees the order of its window; time
enters as a sinusoidal feature added to the encoded noisy motion; attention
blocks are pre-norm with a 4x feed-forward and SiLU activations, and keys
have no bias (softmax cancels a shift shared by a query's scores); the final
projection starts at 1/100 of its init range so a fresh model predicts
near-zero motion.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .core import InvalidInputError, check_field_types

CONDITION_VARIANTS = ("B", "M", "I")
# the parameter names of each layer kind, under the layer's prefix, in the
# order its autodiff op takes them
MLP = ("w1", "b1", "w2", "b2")
LAYER_NORM = ("g", "b")
ATTENTION = ("wq", "bq", "wk", "wv", "bv", "wo", "bo")
MAX_KEPT_STEP_TIMES = 4096  # time-MLP outputs an inference network keeps, one per sampling time
NETWORK_VARIANTS = ("OB", "TB")
# the largest value of each size, checked before any parameter is allocated
MAX_MODEL_SIZES = {"token_dim": 512, "n_heads": 64, "n_condition_layers": 8, "n_fusion_blocks": 8, "history_length": 64}


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyperparameters. Defaults are the desk-scale setup;
    the full-scale setup is token_dim=512, n_condition_layers=6."""

    token_dim: int = 64
    n_heads: int = 8
    n_condition_layers: int = 2
    n_fusion_blocks: int = 2
    history_length: int = 5
    variant: str = "OB"
    condition_variant: str = "I"

    def __post_init__(self) -> None:
        check_field_types(self)
        for name, most in MAX_MODEL_SIZES.items():
            if not 1 <= (v := getattr(self, name)) <= most:
                raise InvalidInputError(f"ModelConfig.{name} must lie in [1, {most}], got {v!r}")
        if self.token_dim % self.n_heads != 0:
            raise InvalidInputError(
                f"token_dim ({self.token_dim}) must be divisible by n_heads ({self.n_heads})"
            )
        if self.variant not in NETWORK_VARIANTS:
            raise InvalidInputError(f"variant must be one of {NETWORK_VARIANTS}, got {self.variant!r}")
        if self.condition_variant not in CONDITION_VARIANTS:
            raise InvalidInputError(
                f"condition_variant must be one of {CONDITION_VARIANTS}, got {self.condition_variant!r}"
            )


def apply_condition_variant(windows: np.ndarray, variant: str) -> np.ndarray:
    """Zero out window columns according to the condition ablation.

    "B": keep only box columns (0..3), "M": keep only motion columns
    (4..7), "I": keep everything. Idempotent.
    """
    if variant not in CONDITION_VARIANTS:
        raise InvalidInputError(f"unknown condition variant {variant!r}")
    if variant == "I":
        return np.asarray(windows, dtype=np.float64)
    out = np.array(windows, dtype=np.float64)
    if variant == "B":
        out[..., 4:] = 0.0
    else:
        out[..., :4] = 0.0
    return out


@functools.cache  # half = token_dim // 2 <= 256, so few arrays are kept
def _frequencies(half: int) -> np.ndarray:
    freqs = np.exp(-np.log(10000.0) * np.arange(half) / max(half, 1))
    freqs.flags.writeable = False
    return freqs


def sinusoidal_features(t, dim: int) -> np.ndarray:
    """Sinusoidal embedding of diffusion time t in [0, 1], shape (B, dim)."""
    t = np.atleast_1d(np.asarray(t, dtype=np.float64)) * 1000.0
    ang = t[:, None] * _frequencies(dim // 2)[None, :]
    emb = np.concatenate([np.sin(ang), np.cos(ang)], axis=-1)
    if emb.shape[-1] < dim:
        emb = np.concatenate([emb, np.zeros((emb.shape[0], dim - emb.shape[-1]))], axis=-1)
    return emb


def _mlp2_shapes(prefix: str, in_dim: int, hidden: int, out_dim: int) -> dict[str, tuple]:
    return {
        f"{prefix}.w1": (in_dim, hidden),
        f"{prefix}.b1": (hidden,),
        f"{prefix}.w2": (hidden, out_dim),
        f"{prefix}.b2": (out_dim,),
    }


def _block_shapes(prefix: str, d: int) -> dict[str, tuple]:
    shapes: dict[str, tuple] = {}
    for ln in ("ln1", "ln2"):
        shapes[f"{prefix}.{ln}.g"] = (d,)
        shapes[f"{prefix}.{ln}.b"] = (d,)
    for w in ("wq", "wk", "wv", "wo"):
        shapes[f"{prefix}.attn.{w}"] = (d, d)
    for b in ("bq", "bv", "bo"):
        shapes[f"{prefix}.attn.{b}"] = (d,)
    shapes.update(_mlp2_shapes(f"{prefix}.ffn", d, 4 * d, d))
    return shapes


def parameter_shapes(config: ModelConfig) -> dict[str, tuple]:
    """Every parameter name and shape implied by a config, in a stable order:
    the network's only parameter declaration, and in this order the model
    file's payload layout."""
    d, n = config.token_dim, config.history_length
    shapes: dict[str, tuple] = {
        "cond.embed.w": (8, d),
        "cond.embed.b": (d,),
        "cond.cls": (1, d),
        "cond.pos": (n, d),
    }
    for i in range(config.n_condition_layers):
        shapes.update(_block_shapes(f"cond.l{i}", d))
    shapes.update(_mlp2_shapes("time", d, d, d))
    shapes.update(_mlp2_shapes("motion", 4, d, d))
    shapes.update(_mlp2_shapes("mfl0.scale", d, d, d))
    shapes.update(_mlp2_shapes("mfl0.shift", d, d, d))
    for k in range(config.n_fusion_blocks):
        shapes.update(_block_shapes(f"fuse.l{k}", d))
        shapes.update(_mlp2_shapes(f"fuse.l{k}.mfl.scale", d, d, d))
        shapes.update(_mlp2_shapes(f"fuse.l{k}.mfl.shift", d, d, d))
    out_dim = 8 if config.variant == "TB" else 4
    shapes.update(_mlp2_shapes("head", d, d, out_dim))
    return shapes


def check_parameters(config: ModelConfig, params: dict) -> None:
    """Raise InvalidInputError unless ``params`` (Tensors or arrays) has
    exactly the names and shapes of ``parameter_shapes(config)``."""
    expected = parameter_shapes(config)
    if set(params) != set(expected):
        missing = sorted(set(expected) - set(params))
        extra = sorted(set(params) - set(expected))
        raise InvalidInputError(f"parameter set mismatch: missing={missing}, extra={extra}")
    for name, shape in expected.items():
        if (got := np.shape(getattr(params[name], "value", params[name]))) != shape:
            raise InvalidInputError(f"parameter '{name}' has shape {got}, expected {shape}")


def init_params(config: ModelConfig, seed: int) -> dict[str, Tensor]:
    """Scaled-uniform initialization, deterministic for a given seed."""
    rng = np.random.default_rng(seed)
    params: dict[str, Tensor] = {}
    for name, shape in parameter_shapes(config).items():
        leaf = name.rsplit(".", 1)[-1]
        if leaf in ("g",):
            value = np.ones(shape)
        elif leaf in ("b",) or leaf.startswith("b"):
            value = np.zeros(shape)
        else:
            fan_in = shape[0] if len(shape) > 1 else config.token_dim
            lim = 1.0 / np.sqrt(fan_in)
            value = rng.uniform(-lim, lim, size=shape)
            if name.startswith("head.w2"):
                value = value * 0.01
        params[name] = ad.parameter(value, name)
    return params


Group = Callable[[str, tuple], tuple]  # (layer prefix, parameter names) -> that layer's parameters


class BoundCondition(NamedTuple):
    """(B, 3, d) conditions from ``embed_condition``, wrapped once for the
    steps of one sampling call, and ``group``, which fetches each of the
    fusion head's parameter groups at the first step and keeps it for the
    others."""

    cond: Tensor
    group: Group


class HMINet:
    """Bundles a config with its parameter tensors and the forward pass."""

    def __init__(self, config: ModelConfig, params: dict[str, Tensor]):
        check_parameters(config, params)
        self.config = config
        self.params = params
        self._float32: dict[str, tuple[np.ndarray, Tensor]] = {}
        self._step_times: dict[tuple[float, int], tuple[tuple, Tensor]] = {}

    @classmethod
    def init(cls, config: ModelConfig, seed: int) -> "HMINet":
        return cls(config, init_params(config, seed))

    # -- building blocks -------------------------------------------------

    def _p(self, name: str) -> Tensor:
        """The named parameter; at float32 compute precision, its float32
        copy, which is a gradient leaf when a graph is recorded."""
        p = self.params[name]
        if ad.compute_dtype() is np.float64:
            return p
        source, copy = self._float32.get(name, (None, None))
        if source is not p.value:
            # finite-checked in float32
            source, copy = p.value, Tensor(p.value, requires_grad=True, name=name)
            source.flags.writeable = False
            self._float32[name] = source, copy
        return copy

    def _group(self, prefix: str, names: tuple[str, ...]) -> tuple[Tensor, ...]:
        """One layer's parameters: ``_p`` of ``{prefix}.{name}`` for each of
        ``names``."""
        return tuple(self._p(f"{prefix}.{n}") for n in names)

    def _block(self, x: Tensor, prefix: str, group: Group, queries: slice = slice(None)) -> Tensor:
        """Pre-norm attention block; only the ``queries`` tokens are
        updated and returned, while keys and values come from every token.
        Its parameters come from ``group`` (``_group`` or a bound call's)."""
        x_n = x_q = ad.layer_norm(x, *group(f"{prefix}.ln1", LAYER_NORM))
        if queries != slice(None):
            x, x_q = ad.slice_(x, (slice(None), queries)), ad.slice_(x_n, (slice(None), queries))
        x = x + ad.attention(x_q, x_n, *group(f"{prefix}.attn", ATTENTION), self.config.n_heads)
        return x + ad.mlp2(ad.layer_norm(x, *group(f"{prefix}.ln2", LAYER_NORM)), *group(f"{prefix}.ffn", MLP))

    @staticmethod
    def _mfl_params(group: Group, prefix: str) -> tuple[Tensor, ...]:
        """The scale and then the shift perceptron of motion fusion layer
        ``prefix``, in the order ``mfl`` and ``mfl_condition`` take them."""
        return *group(f"{prefix}.scale", MLP), *group(f"{prefix}.shift", MLP)

    # -- public forward ---------------------------------------------------

    def embed_condition(self, windows: np.ndarray) -> Tensor:
        """Encode a (B, n, 8) batch of condition windows into (B, 3,
        token_dim) conditions: row i stacks window i's embedding with the
        gate and the shift that the first motion fusion layer ``mfl0``
        makes from it, which read nothing else."""
        w = np.asarray(windows, dtype=np.float64)
        n = self.config.history_length
        if w.ndim != 3 or w.shape[1:] != (n, 8):
            raise InvalidInputError(f"condition windows must have shape (B, {n}, 8), got {w.shape}")
        w = apply_condition_variant(w, self.config.condition_variant)
        b, d = w.shape[0], self.config.token_dim
        embed_w, embed_b, pos, cls = self._group("cond", ("embed.w", "embed.b", "pos", "cls"))
        x = ad.linear(Tensor(w), embed_w, embed_b) + pos
        cls = ad.broadcast_to(ad.reshape(cls, (1, 1, d)), (b, 1, d))
        x = ad.concat([cls, x], axis=1)
        last = self.config.n_condition_layers - 1
        for i in range(last):
            x = self._block(x, f"cond.l{i}", self._group)
        # only the class token is read from the last block: it alone is updated
        x = self._block(x, f"cond.l{last}", self._group, queries=slice(0, 1))
        e = ad.reshape(x, (b, d))
        return ad.check_finite(ad.mfl_condition(e, *self._mfl_params(self._group, "mfl0")))

    def _step_time(self, t: float, rows: int, group: Group) -> Tensor:
        """The time MLP's (1, d) output at a sampling step's time ``t``,
        broadcast over the batch. It is computed in a batch of two equal
        rows when the batch has two (``rows``), because a one-row GEMM takes
        BLAS's matrix-vector path, whose last bits differ from a batch's.
        Under ``no_grad`` at float32, where nothing records a graph, it is
        kept per (t, rows) while the time MLP's float32 copies stay the same
        tensors, so K-step sampling computes each step's once."""
        time_group = group("time", MLP)
        kept = not ad.grad_enabled() and ad.compute_dtype() is np.float32
        if kept and (hit := self._step_times.get((t, rows))) is not None and hit[0] == time_group:
            return hit[1]
        features = Tensor(sinusoidal_features(np.full(rows, t), self.config.token_dim))
        time = ad.slice_(ad.mlp2(features, *time_group), (slice(0, 1),))
        if kept:
            if len(self._step_times) >= MAX_KEPT_STEP_TIMES:
                self._step_times.clear()
            self._step_times[(t, rows)] = time_group, time
        return time

    def _fusion_head(self, noisy_motion, t, c: Tensor, group: Group) -> tuple[Tensor, Tensor | None]:
        """Fusion blocks and head on precomputed (B, 3, d) conditions (from
        ``embed_condition``) and a (B, 4) noisy motion, with parameters
        from ``group``; returns (c_hat, z_hat) of shape (B, 4). A scalar
        ``t`` (a sampling step's) gets its time features once and shares
        them across the rows; a (B,) ``t`` (training's) gets them per row."""
        d = self.config.token_dim
        if c.value.ndim != 3 or c.shape[1:] != (3, d):
            raise InvalidInputError(f"condition embedding must have shape (B, 3, {d}), got {c.shape}")
        b = c.shape[0]
        m = np.asarray(noisy_motion)
        if m.shape != (b, 4):
            raise InvalidInputError(f"noisy motion must have shape ({b}, 4), got {m.shape}")
        t = np.asarray(t, dtype=np.float64)
        if t.ndim == 0:
            time = self._step_time(float(t), min(b, 2), group)
        else:
            time = ad.mlp2(Tensor(sinusoidal_features(np.broadcast_to(t, (b,)), d)), *group("time", MLP))

        feat = ad.mlp2(Tensor(m), *group("motion", MLP))
        feat = feat + time
        # mfl0 on the condition's gate and shift, beside the embedding: the first block's tokens
        seq = ad.mfl_tokens(c, feat)
        for k in range(self.config.n_fusion_blocks):
            if k:
                seq = ad.concat([ad.reshape(e_tok, (b, 1, d)), ad.reshape(m_tok, (b, 1, d))], axis=1)
            seq = self._block(seq, f"fuse.l{k}", group)
            e_tok = ad.slice_(seq, (slice(None), 0))
            m_tok = ad.mfl(e_tok, ad.slice_(seq, (slice(None), 1)), *self._mfl_params(group, f"fuse.l{k}.mfl"))

        out = ad.mlp2(m_tok, *group("head", MLP))
        if self.config.variant == "TB":
            return ad.slice_(out, (slice(None), slice(0, 4))), ad.slice_(out, (slice(None), slice(4, 8)))
        return out, None

    def predict_graph(self, noisy_motion, t, windows) -> tuple[Tensor, Tensor | None]:
        """Differentiable forward pass (training): the encoder, then fusion
        and head on a (B, n, 8) window batch, at the autodiff compute
        precision; returns (c_hat, z_hat) tensors of shape (B, 4)."""
        return self._fusion_head(noisy_motion, t, self.embed_condition(windows), self._group)

    def bind_condition(self, emb) -> BoundCondition:
        """The (B, 3, d) conditions ``emb`` from ``embed_condition``, checked
        and wrapped once for every step of a sampling call, as
        ``predict_values`` takes them. Called under ``autodiff.no_grad``,
        whose float32 parameter copies the steps read."""
        if ad.grad_enabled():
            raise InvalidInputError("bind_condition needs autodiff.no_grad: sampling reads float32 copies")
        kept: dict[str, tuple[Tensor, ...]] = {}

        def group(prefix: str, names: tuple) -> tuple[Tensor, ...]:
            if (hit := kept.get(prefix)) is None:
                hit = kept[prefix] = self._group(prefix, names)
            return hit

        return BoundCondition(Tensor(getattr(emb, "value", emb)), group)

    def predict_values(self, noisy_motion, t, emb) -> tuple[np.ndarray, np.ndarray | None]:
        """One sampling step: fusion and head on conditions from
        ``embed_condition``, run without a graph in float32; returns plain
        (B, 4) float32 arrays, checked to be finite. ``sample_k_steps``
        calls it under ``autodiff.no_grad`` with ``bind_condition``'s
        result; a call of its own enters that mode and binds ``emb``."""
        if ad.grad_enabled():
            with ad.no_grad():
                return self.predict_values(noisy_motion, t, emb)
        bound = emb if isinstance(emb, BoundCondition) else self.bind_condition(emb)
        c, z = self._fusion_head(noisy_motion, t, *bound)
        return ad.check_finite(c).value, None if z is None else ad.check_finite(z).value

    @property
    def history_length(self) -> int:
        return self.config.history_length
