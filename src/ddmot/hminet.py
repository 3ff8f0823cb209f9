"""HMINet: the network that parameterizes the reverse diffusion target.

A history window of per-frame (box, motion) rows is encoded by a stack of
pre-norm self-attention blocks; a learnable class token collects the
window into a single condition embedding. The noisy motion sample is
encoded by a small MLP, receives a sinusoidal embedding of the diffusion
time, and is gated by the condition embedding through motion fusion
layers (scale/shift gating). A final MLP emits the attenuation prediction
(one-branch) or attenuation plus noise predictions (two-branch).

The forward pass splits at the condition embedding. ``embed_condition``
is the encoder; ``_fusion_head`` is the time embedding, motion fusion and
head, run on a precomputed embedding. Training calls ``predict_graph``
(encoder then fusion+head, recording the graph). Sampling calls
``predict_values`` (fusion+head with no graph) once per sampling step, on
embeddings encoded beforehand: the d2mp session keeps one per track and
encodes a track's window only when it changes, which is sound because the
float32 encoder is batch invariant (a window's embedding has the same bits
in any batch of two or more windows; a one-row batch runs BLAS's
matrix-vector path and may differ in the last bit). Both paths share one
network definition.
Each attention is one ``autodiff.attention`` op and each pre-norm one
affine ``autodiff.layer_norm``. The no-grad ops skip the finite check, so
``embed_condition`` and ``predict_values`` check the values they return:
with the checks inside ``sigmoid`` and ``attention``, sampling raises
``NonFiniteError`` exactly when the recorded float32 forward would.

The parameters are float64 master weights. The network computes at the
autodiff compute precision: under the default float64 it reads the
parameters themselves, and under float32 (``autodiff.no_grad`` for
inference, ``autodiff.precision`` for training) it reads float32 copies of
them, made once per parameter array. In a float32 training step those
copies are the gradient leaves. A copy is remade when a parameter's array
is rebound (as Adam does); the array a copy was made from is set
read-only, so an in-place edit cannot leave the copy stale.

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

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .core import InvalidInputError, check_field_types

CONDITION_VARIANTS = ("B", "M", "I")
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


def sinusoidal_features(t, dim: int) -> np.ndarray:
    """Sinusoidal embedding of diffusion time t in [0, 1], shape (B, dim)."""
    t = np.atleast_1d(np.asarray(t, dtype=np.float64)) * 1000.0
    half = dim // 2
    freqs = np.exp(-np.log(10000.0) * np.arange(half) / max(half, 1))
    ang = t[:, None] * freqs[None, :]
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


class HMINet:
    """Bundles a config with its parameter tensors and the forward pass."""

    def __init__(self, config: ModelConfig, params: dict[str, Tensor]):
        check_parameters(config, params)
        self.config = config
        self.params = params
        self._float32: dict[str, tuple[np.ndarray, Tensor]] = {}

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

    def _mlp2(self, x: Tensor, prefix: str) -> Tensor:
        h = ad.silu(ad.linear(x, self._p(f"{prefix}.w1"), self._p(f"{prefix}.b1")))
        return ad.linear(h, self._p(f"{prefix}.w2"), self._p(f"{prefix}.b2"))

    def _ln(self, x: Tensor, prefix: str) -> Tensor:
        return ad.layer_norm(x, self._p(f"{prefix}.g"), self._p(f"{prefix}.b"))

    def _attention(self, x_q: Tensor, x_n: Tensor, prefix: str) -> Tensor:
        """Multi-head attention of the query tokens ``x_q`` over every token
        of the normalized sequence ``x_n``."""
        wq, bq, wk, wv, bv, wo, bo = (self._p(f"{prefix}.attn.{n}") for n in ("wq", "bq", "wk", "wv", "bv", "wo", "bo"))
        return ad.attention(x_q, x_n, wq, bq, wk, wv, bv, wo, bo, self.config.n_heads)

    def _block(self, x: Tensor, prefix: str, queries: slice = slice(None)) -> Tensor:
        """Pre-norm attention block; only the ``queries`` tokens are
        updated and returned, while keys and values come from every token."""
        x_n = x_q = self._ln(x, f"{prefix}.ln1")
        if queries != slice(None):
            x, x_q = ad.slice_(x, (slice(None), queries)), ad.slice_(x_n, (slice(None), queries))
        x = x + self._attention(x_q, x_n, prefix)
        return x + self._mlp2(self._ln(x, f"{prefix}.ln2"), f"{prefix}.ffn")

    def _mfl(self, cond: Tensor, motion_feat: Tensor, prefix: str) -> Tensor:
        """The motion fusion layer: scale/shift gating of motion features by
        the condition embedding, Sigmoid(MLP(e)) * m + MLP(e)."""
        gate = ad.sigmoid(self._mlp2(cond, f"{prefix}.scale"))
        shift = self._mlp2(cond, f"{prefix}.shift")
        return ad.mul(gate, motion_feat) + shift

    # -- public forward ---------------------------------------------------

    def embed_condition(self, windows: np.ndarray) -> Tensor:
        """Encode a (B, n, 8) batch of condition windows into (B, token_dim)
        condition embeddings."""
        w = np.asarray(windows, dtype=np.float64)
        n = self.config.history_length
        if w.ndim != 3 or w.shape[1:] != (n, 8):
            raise InvalidInputError(f"condition windows must have shape (B, {n}, 8), got {w.shape}")
        w = apply_condition_variant(w, self.config.condition_variant)
        b, d = w.shape[0], self.config.token_dim
        x = ad.linear(Tensor(w), self._p("cond.embed.w"), self._p("cond.embed.b")) + self._p("cond.pos")
        cls = ad.broadcast_to(ad.reshape(self._p("cond.cls"), (1, 1, d)), (b, 1, d))
        x = ad.concat([cls, x], axis=1)
        last = self.config.n_condition_layers - 1
        for i in range(last):
            x = self._block(x, f"cond.l{i}")
        # only the class token is read from the last block: it alone is updated
        x = self._block(x, f"cond.l{last}", queries=slice(0, 1))
        return ad.check_finite(ad.reshape(x, (b, d)))

    def _fusion_head(self, noisy_motion, t, e: Tensor) -> tuple[Tensor, Tensor | None]:
        """Fusion blocks and head on a precomputed (B, d) condition
        embedding and a (B, 4) noisy motion; returns (c_hat, z_hat) of shape
        (B, 4). A scalar ``t`` (a sampling step's) gets its time features
        once and shares them across the rows; a (B,) ``t`` (training's)
        gets them per row."""
        d = self.config.token_dim
        if e.value.ndim != 2 or e.shape[1] != d:
            raise InvalidInputError(f"condition embedding must have shape (B, {d}), got {e.shape}")
        b = e.shape[0]
        m = np.asarray(noisy_motion)
        if m.shape != (b, 4):
            raise InvalidInputError(f"noisy motion must have shape ({b}, 4), got {m.shape}")
        t = np.asarray(t, dtype=np.float64)
        if t.ndim == 0:
            # one row broadcast over the batch; it is computed in a batch of
            # two when B allows, because a one-row GEMM takes BLAS's
            # matrix-vector path, whose last bits differ from a batch's
            time = self._mlp2(Tensor(sinusoidal_features(np.full(min(b, 2), t), d)), "time")
            time = ad.slice_(time, (slice(0, 1),))
        else:
            time = self._mlp2(Tensor(sinusoidal_features(np.broadcast_to(t, (b,)), d)), "time")

        feat = self._mlp2(Tensor(m), "motion")
        feat = feat + time
        fused = self._mfl(e, feat, "mfl0")

        seq = ad.concat([ad.reshape(e, (b, 1, d)), ad.reshape(fused, (b, 1, d))], axis=1)
        for k in range(self.config.n_fusion_blocks):
            seq = self._block(seq, f"fuse.l{k}")
            e_tok = ad.slice_(seq, (slice(None), 0))
            m_tok = ad.slice_(seq, (slice(None), 1))
            m_tok = self._mfl(e_tok, m_tok, f"fuse.l{k}.mfl")
            seq = ad.concat([ad.reshape(e_tok, (b, 1, d)), ad.reshape(m_tok, (b, 1, d))], axis=1)

        out = self._mlp2(ad.slice_(seq, (slice(None), 1)), "head")
        if self.config.variant == "TB":
            return ad.slice_(out, (slice(None), slice(0, 4))), ad.slice_(out, (slice(None), slice(4, 8)))
        return out, None

    def predict_graph(self, noisy_motion, t, windows) -> tuple[Tensor, Tensor | None]:
        """Differentiable forward pass (training): the encoder, then fusion
        and head on a (B, n, 8) window batch, at the autodiff compute
        precision; returns (c_hat, z_hat) tensors of shape (B, 4)."""
        return self._fusion_head(noisy_motion, t, self.embed_condition(windows))

    def predict_values(self, noisy_motion, t, emb) -> tuple[np.ndarray, np.ndarray | None]:
        """One sampling step: fusion and head on an embedding from
        ``embed_condition``, run without a graph in float32; returns plain
        (B, 4) float32 arrays."""
        with ad.no_grad():
            c, z = self._fusion_head(noisy_motion, t, Tensor(getattr(emb, "value", emb)))
        return ad.check_finite(c).value, None if z is None else ad.check_finite(z).value

    @property
    def history_length(self) -> int:
        return self.config.history_length
