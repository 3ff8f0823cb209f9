"""HMINet: the network that parameterizes the reverse diffusion target.

A history window of per-frame (box, motion) rows is encoded by a stack of
pre-norm self-attention blocks; a learnable class token collects the
window into a single condition embedding. The noisy motion sample is
encoded by a small MLP, receives a sinusoidal embedding of the diffusion
time, and is gated by the condition embedding through motion fusion
layers (scale/shift gating). A final MLP emits the attenuation prediction
(one-branch) or attenuation plus noise predictions (two-branch).

Unstated-by-construction choices (documented here because they are load
bearing): condition rows get a learned 8->token_dim embedding plus learned
positional encodings; time enters as a sinusoidal feature added to the
encoded noisy motion; attention blocks are pre-norm with a 4x feed-forward
and SiLU activations; the final projection starts at 1/100 of its init
range so a fresh model predicts near-zero motion.
"""
from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .core import InvalidInputError

CONDITION_VARIANTS = ("B", "M", "I")
NETWORK_VARIANTS = ("OB", "TB")


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
    positional_encoding: bool = True

    def __post_init__(self) -> None:
        counts = {
            "token_dim": self.token_dim,
            "n_heads": self.n_heads,
            "n_condition_layers": self.n_condition_layers,
            "n_fusion_blocks": self.n_fusion_blocks,
            "history_length": self.history_length,
        }
        for name, v in counts.items():
            if not isinstance(v, int) or v < 1:
                raise InvalidInputError(f"ModelConfig.{name} must be a positive integer, got {v!r}")
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

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        return cls(**d)


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
    for b in ("bq", "bk", "bv", "bo"):
        shapes[f"{prefix}.attn.{b}"] = (d,)
    shapes.update(_mlp2_shapes(f"{prefix}.ffn", d, 4 * d, d))
    return shapes


def parameter_shapes(config: ModelConfig) -> dict[str, tuple]:
    """Every parameter name and shape implied by a config, in a stable order."""
    d, n = config.token_dim, config.history_length
    shapes: dict[str, tuple] = {
        "cond.embed.w": (8, d),
        "cond.embed.b": (d,),
        "cond.cls": (1, d),
    }
    if config.positional_encoding:
        shapes["cond.pos"] = (n, d)
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
        shapes.update(_mlp2_shapes(f"fuse.l{k}.mfl.motion", d, d, d))
    out_dim = 8 if config.variant == "TB" else 4
    shapes.update(_mlp2_shapes("head", d, d, out_dim))
    return shapes


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
        expected = parameter_shapes(config)
        if set(params) != set(expected):
            missing = sorted(set(expected) - set(params))
            extra = sorted(set(params) - set(expected))
            raise InvalidInputError(f"parameter set mismatch: missing={missing}, extra={extra}")
        for name, shape in expected.items():
            if tuple(params[name].shape) != tuple(shape):
                raise InvalidInputError(
                    f"parameter '{name}' has shape {params[name].shape}, expected {shape}"
                )
        self.config = config
        self.params = params

    @classmethod
    def init(cls, config: ModelConfig, seed: int) -> "HMINet":
        return cls(config, init_params(config, seed))

    # -- building blocks -------------------------------------------------

    def _p(self, name: str) -> Tensor:
        return self.params[name]

    def _mlp2(self, x: Tensor, prefix: str) -> Tensor:
        h = ad.matmul(x, self._p(f"{prefix}.w1")) + self._p(f"{prefix}.b1")
        h = ad.mul(h, ad.sigmoid(h))  # SiLU
        return ad.matmul(h, self._p(f"{prefix}.w2")) + self._p(f"{prefix}.b2")

    def _ln(self, x: Tensor, prefix: str) -> Tensor:
        return ad.layer_norm(x) * self._p(f"{prefix}.g") + self._p(f"{prefix}.b")

    def _attention(self, x: Tensor, prefix: str) -> Tensor:
        cfg = self.config
        b, tk, d = x.shape
        nh, dh = cfg.n_heads, d // cfg.n_heads

        def heads(name: str) -> Tensor:
            proj = ad.matmul(x_n, self._p(f"{prefix}.attn.w{name}")) + self._p(f"{prefix}.attn.b{name}")
            return ad.swapaxes(ad.reshape(proj, (b, tk, nh, dh)), 1, 2)

        x_n = self._ln(x, f"{prefix}.ln1")
        q, k, v = heads("q"), heads("k"), heads("v")
        scores = ad.scale(ad.matmul(q, ad.swapaxes(k, -1, -2)), 1.0 / np.sqrt(dh))
        attn = ad.matmul(ad.softmax(scores), v)
        merged = ad.reshape(ad.swapaxes(attn, 1, 2), (b, tk, d))
        return ad.matmul(merged, self._p(f"{prefix}.attn.wo")) + self._p(f"{prefix}.attn.bo")

    def _block(self, x: Tensor, prefix: str) -> Tensor:
        x = x + self._attention(x, prefix)
        return x + self._mlp2(self._ln(x, f"{prefix}.ln2"), f"{prefix}.ffn")

    def _mfl(self, cond: Tensor, motion_feat: Tensor, prefix: str) -> Tensor:
        """Motion fusion layer: scale/shift gating of motion features by the
        condition embedding, Sigmoid(MLP(e)) * m + MLP(e)."""
        gate = ad.sigmoid(self._mlp2(cond, f"{prefix}.scale"))
        shift = self._mlp2(cond, f"{prefix}.shift")
        return ad.mul(gate, motion_feat) + shift

    # -- public forward ---------------------------------------------------

    def _window_batch(self, windows: np.ndarray) -> tuple[np.ndarray, bool]:
        w = np.asarray(windows, dtype=np.float64)
        single = w.ndim == 2
        if single:
            w = w[None]
        n = self.config.history_length
        if w.ndim != 3 or w.shape[1] != n or w.shape[2] != 8:
            raise InvalidInputError(
                f"condition window must have shape (n={n}, 8) or (B, {n}, 8), got {w.shape}"
            )
        return apply_condition_variant(w, self.config.condition_variant), single

    def embed_condition(self, windows: np.ndarray) -> Tensor:
        """Encode one (n, 8) window or a (B, n, 8) batch into condition
        embeddings; returns shape (token_dim,) or (B, token_dim)."""
        w, single = self._window_batch(windows)
        b, n, d = w.shape[0], self.config.history_length, self.config.token_dim
        x = ad.matmul(Tensor(w), self._p("cond.embed.w")) + self._p("cond.embed.b")
        if self.config.positional_encoding:
            x = x + self._p("cond.pos")
        cls = ad.broadcast_to(ad.reshape(self._p("cond.cls"), (1, 1, d)), (b, 1, d))
        x = ad.concat([cls, x], axis=1)
        for i in range(self.config.n_condition_layers):
            x = self._block(x, f"cond.l{i}")
        emb = ad.slice_(x, (slice(None), 0))
        return ad.reshape(emb, (d,)) if single else emb

    def predict_graph(self, noisy_motion, t, windows) -> tuple[Tensor, Tensor | None]:
        """Differentiable forward pass; returns (c_hat, z_hat) tensors of
        shape (B, 4). Inputs may be single or batched."""
        w, single = self._window_batch(np.asarray(windows))
        b, d = w.shape[0], self.config.token_dim
        m = np.asarray(noisy_motion, dtype=np.float64).reshape(b, 4)
        t_arr = np.broadcast_to(np.atleast_1d(np.asarray(t, dtype=np.float64)), (b,))

        e = self.embed_condition(w)
        feat = self._mlp2(Tensor(m), "motion")
        feat = feat + self._mlp2(Tensor(sinusoidal_features(t_arr, d)), "time")
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

    def predict_values(self, noisy_motion, t, windows) -> tuple[np.ndarray, np.ndarray | None]:
        """Forward pass returning plain arrays (sampling-side entry point)."""
        c, z = self.predict_graph(noisy_motion, t, windows)
        return c.value, None if z is None else z.value

    @property
    def history_length(self) -> int:
        return self.config.history_length
