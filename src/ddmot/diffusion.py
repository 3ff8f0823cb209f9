"""Decoupled diffusion over per-frame box motion.

The forward process splits data-to-noise into two analytic parts: a
constant-velocity attenuation that drives the clean motion to zero over
t in [0, 1], and a Wiener term that grows zero into unit normal noise.
Their sum gives the noisy sample

    M_t = M_0 + t*c + sqrt(t)*z,   c = -M_0,   z ~ N(0, I).

Because the attenuation is analytic, the reverse conditional admits any
step size, down to a single step at dt = t = 1 whose variance coefficient
dt*(t-dt)/t vanishes. The one-branch reduction substitutes the algebraic
identity z = (M_t - (t-1)c)/sqrt(t) so only the attenuation needs to be
predicted by the network.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .core import InvalidInputError, NumericError, check_field_types

T_MIN = 0.001
MAX_TRAIN_STEPS = 10**6
MAX_BATCH_SIZE = 4096  # the full-scale recipe uses 2048


def _as_motion_array(m) -> np.ndarray:
    arr = np.asarray(m, dtype=np.float64)
    if arr.shape[-1] != 4:
        raise InvalidInputError(f"motion array must have trailing dimension 4, got {arr.shape}")
    return arr


def _within(t: np.ndarray, lo: float) -> bool:
    """Whether every entry of ``t`` lies in [lo, 1] (NaN does not); a 0-d
    ``t`` is compared as a Python float, without numpy's per-call cost."""
    if t.ndim == 0:
        return lo <= float(t) <= 1.0
    return bool(((t >= lo) & (t <= 1.0)).all())


def _check_time(t) -> np.ndarray:
    t = np.asarray(t, dtype=np.float64)
    if not _within(t, T_MIN):
        raise InvalidInputError(f"t must lie in [{T_MIN}, 1], got {t!r}")
    return t


def _col(t: np.ndarray, like: np.ndarray) -> np.ndarray:
    """Align a scalar-or-(B,) time with a (..., 4) value array."""
    t = np.asarray(t, dtype=np.float64)
    return t[..., None] if like.ndim > 1 else t


@dataclass(frozen=True)
class NoisyMotion:
    """A motion sample on the diffusion time axis; t=0 is clean data."""

    values: np.ndarray
    t: float | np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=np.float64)
        t = np.asarray(self.t, dtype=np.float64)
        if not np.isfinite(v).all():
            raise InvalidInputError("NoisyMotion values must be finite")
        if not _within(t, 0.0):
            raise InvalidInputError(f"NoisyMotion time must lie in [0, 1], got {self.t!r}")
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class ForwardDecomposition:
    """The two forward sub-processes; data_term + noise_term == M_t."""

    data_term: np.ndarray
    noise_term: np.ndarray


class TrainingSet:
    """Stacked training samples: conditions (N, n, 8) and targets (N, 4)."""

    def __init__(self, conditions: np.ndarray, targets: np.ndarray):
        conditions = np.asarray(conditions, dtype=np.float64)
        targets = np.asarray(targets, dtype=np.float64)
        if conditions.ndim != 3 or conditions.shape[-1] != 8:
            raise InvalidInputError(f"conditions must be (N, n, 8), got {conditions.shape}")
        if targets.shape != (conditions.shape[0], 4):
            raise InvalidInputError(f"targets must be (N, 4), got {targets.shape}")
        self.conditions = conditions
        self.targets = targets

    def __len__(self) -> int:
        return self.conditions.shape[0]


# ---------------------------------------------------------------------------
# forward / reverse process


def attenuation_constant(m0) -> np.ndarray:
    """The constant attenuation velocity c = -M_0 (solves M_0 + int_0^1 c dt = 0)."""
    return -_as_motion_array(m0)


def forward_diffuse(m0, t, z) -> tuple[NoisyMotion, ForwardDecomposition]:
    """Noise clean motion to time t: M_t = (1-t)*M_0 + sqrt(t)*z."""
    m0 = _as_motion_array(m0)
    z = np.asarray(z, dtype=np.float64)
    t = _check_time(t)
    tc = _col(t, m0)
    data_term = (1.0 - tc) * m0
    noise_term = np.sqrt(tc) * z
    return NoisyMotion(data_term + noise_term, t), ForwardDecomposition(data_term, noise_term)


def derive_noise(noisy: NoisyMotion, c) -> np.ndarray:
    """Invert the forward process for z given the attenuation constant:
    z = (M_t - (t-1)*c) / sqrt(t)."""
    t = _check_time(noisy.t)
    c = np.asarray(c, dtype=np.float64)
    tc = _col(t, noisy.values)
    return (noisy.values - (tc - 1.0) * c) / np.sqrt(tc)


def reverse_step(noisy: NoisyMotion, dt, c, z=None, noise=None) -> NoisyMotion:
    """One reverse conditional step from t to t - dt.

    With z given, the mean is M_t - dt*c - (dt/sqrt(t))*z (two-branch
    form); without z, the one-branch reduction ((t-dt)/t)*M_t - (dt/t)*c.
    The variance coefficient dt*(t-dt)/t multiplies ``noise``; it is
    exactly zero when dt == t, making the final step deterministic.
    """
    t = np.asarray(noisy.t, dtype=np.float64)
    dt = np.asarray(dt, dtype=np.float64)
    if (dt <= 0).any() or (dt > t).any():
        raise InvalidInputError(f"need 0 < dt <= t, got dt={dt!r}, t={t!r}")
    m = noisy.values
    out = _reverse(m, _col(t, m), _col(dt, m), c, z, noise)
    return NoisyMotion(out, t - dt)


def _reverse(m: np.ndarray, t, dt, c, z, noise) -> np.ndarray:
    """``reverse_step``'s arithmetic on values its caller has checked: the
    (B, 4) motion ``m`` at time ``t`` (a float, or a column that broadcasts
    with ``m``), one step of ``dt`` back. ``c``, ``z`` and ``noise`` are
    cast to float64 first, so a float32 head output gives the same bits."""
    c = np.asarray(c, dtype=np.float64)
    if z is None:
        mu = ((t - dt) / t) * m - (dt / t) * c
    else:
        z = np.asarray(z, dtype=np.float64)
        mu = m - dt * c - (dt / np.sqrt(t)) * z
    if noise is None:
        return mu
    return mu + np.sqrt(dt * (t - dt) / t) * np.asarray(noise, dtype=np.float64)


# ---------------------------------------------------------------------------
# sampling


def encode_windows(windows, model) -> np.ndarray:
    """The model's conditions of a (B, n, 8) batch of condition windows,
    encoded once under ``autodiff.no_grad``, as an array whose row i is
    window i's condition (for ``HMINet``, a (3, d) stack of its embedding
    and the first fusion layer's gate and shift). Sampling reads them at
    every step."""
    w = np.asarray(windows, dtype=np.float64)
    if w.ndim != 3:
        raise InvalidInputError(f"condition windows must be a (B, n, 8) batch, got shape {w.shape}")
    with ad.no_grad():
        emb = model.embed_condition(w)
    return getattr(emb, "value", emb)


def _checked_draws(draw, b: int):
    """``draw`` with each result checked: a finite (b, 4) float64 array."""
    def checked(size):
        out = np.asarray(draw(size), dtype=np.float64)
        if out.shape != (b, 4) or not np.isfinite(out).all():
            raise InvalidInputError(f"a draw must be a finite ({b}, 4) array, got shape {out.shape}")
        return out
    return checked


def sample_k_steps(k: int, emb, model, rng, deterministic: bool = False) -> np.ndarray:
    """Generate motion by iterating the reverse step K times from t = 1.

    ``emb`` is an array whose rows are the batch's conditions, as made by
    ``encode_windows``: for ``HMINet`` each row stacks a window's embedding
    with the gate and shift of the first motion fusion layer, which read
    nothing else. A caller that keeps them (the diffusion predictor's
    session) so keeps that layer's work too, and encodes a window only when
    it changes. ``rng`` is a numpy
    Generator, or a function that returns a (B, 4) array of standard
    normals when called with the size (B, 4) (the diffusion predictor's
    per-track streams); each of its draws is checked. Returns a (B, 4)
    array. ``deterministic`` suppresses the noise term at every step (the
    final step is noise-free regardless).

    The inputs are checked once per call, and the call runs under one
    ``autodiff.no_grad``. The model protocol is ``embed_condition(windows)
    -> emb``, called by ``encode_windows``; ``bind_condition(emb)``, called
    once per call, whose result is handed to every step (a model with no
    per-call work returns ``emb``); ``predict_values(noisy, t, bound) ->
    (c_hat, z_hat)``, called once per step with the (B, 4) noisy motion
    and the step's time as a scalar, returning (B, 4) arrays checked to be
    finite (z_hat is None for one-branch models); and ``history_length``,
    read by callers that build the windows. The steps apply
    ``reverse_step``'s arithmetic to values already checked.
    """
    if isinstance(k, (bool, np.bool_)) or not isinstance(k, numbers.Integral):
        raise InvalidInputError(f"sampling steps must be an integer, got {k!r}")
    if k < 1:
        raise InvalidInputError(f"sampling steps must be >= 1, got {k}")
    if not isinstance(emb, np.ndarray) or emb.ndim < 1:
        raise InvalidInputError(f"emb must be an array with a leading batch axis, got {type(emb).__name__}")
    b, dt = emb.shape[0], 1.0 / k
    if isinstance(rng, np.random.Generator):
        draw = rng.standard_normal
    elif callable(rng):
        draw = _checked_draws(rng, b)
    else:
        raise InvalidInputError(f"rng must be a numpy Generator or a draw function, got {type(rng).__name__}")
    with ad.no_grad():
        bound = model.bind_condition(emb)
        m = draw((b, 4))
        for i in range(k, 0, -1):
            t = i / k
            c_hat, z_hat = model.predict_values(m, max(t, T_MIN), bound)
            noise = None if deterministic or dt * (t - dt) / t <= 0.0 else draw((b, 4))
            m = _reverse(m, t, dt, c_hat, z_hat, noise)
    return m


def sample_one_step(emb, model, rng) -> np.ndarray:
    """Single-step generation: draw M_1 ~ N(0, I), predict the attenuation
    at t = 1, return the (B, 4) clean motion (variance coefficient is 0)."""
    return sample_k_steps(1, emb, model, rng)


# ---------------------------------------------------------------------------
# training


def training_loss(c_hat, c, z_hat=None, z=None):
    """Smooth-L1 between predicted and true attenuation, averaged over
    components (and batch). The two-branch variant adds the same smooth-L1
    term for the noise head.

    Returns a Tensor when any input is a Tensor, else a float.
    """
    graph = isinstance(c_hat, Tensor) or isinstance(z_hat, Tensor)
    ch = c_hat if isinstance(c_hat, Tensor) else Tensor(np.asarray(c_hat, dtype=np.float64))
    loss = ad.mean(ad.smooth_l1(ch - Tensor(np.asarray(c, dtype=np.float64))))
    if z_hat is not None:
        if z is None:
            raise InvalidInputError("z_hat given without z")
        zh = z_hat if isinstance(z_hat, Tensor) else Tensor(np.asarray(z_hat, dtype=np.float64))
        loss = loss + ad.mean(ad.smooth_l1(zh - Tensor(np.asarray(z, dtype=np.float64))))
    return loss if graph else float(loss.value)


@dataclass
class TrainConfig:
    """Desk-scale defaults; the full-scale recipe (800 epochs, batch 2048)
    assumes GPU budgets."""

    steps: int = 5000
    batch_size: int = 256
    learning_rate: float = 1e-4
    seed: int = 0
    stop_below: float | None = None  # end early once the loss dips under this

    def __post_init__(self) -> None:
        check_field_types(self)
        if not (1 <= self.steps <= MAX_TRAIN_STEPS and 1 <= self.batch_size <= MAX_BATCH_SIZE):
            raise InvalidInputError(f"steps must lie in [1, {MAX_TRAIN_STEPS}] and batch_size in [1, {MAX_BATCH_SIZE}], "
                                    f"got {self.steps} and {self.batch_size}")
        if self.seed < 0:
            raise InvalidInputError(f"seed must be >= 0, got {self.seed}")
        if self.learning_rate <= 0:
            raise InvalidInputError("learning_rate must be positive")


def train(dataset: TrainingSet, model, config: TrainConfig) -> list[float]:
    """Optimize the model on (condition, clean-motion) pairs.

    Per step: draw a minibatch, a time t ~ U[T_MIN, 1] (the floor the
    sampler queries at) and noise z per sample, diffuse forward, predict,
    take the smooth-L1 loss (both heads for two-branch models), and apply
    one Adam step. Mutates ``model.params``; returns the loss history.
    Deterministic for a fixed config seed.

    Mixed precision: the forward pass, the loss and the backward pass run
    in float32, on the model's float32 copies of its parameters (the
    gradient leaves). ``backward`` casts the gradients up to float64, and
    Adam updates the float64 parameters with float64 moments, so updates
    smaller than a float32 ulp of a weight still accumulate.
    """
    if len(dataset) == 0:
        raise InvalidInputError("empty training set")
    rng = np.random.default_rng(config.seed)
    state = ad.adam_init(model.params)
    names = list(model.params.keys())
    losses: list[float] = []
    for step in range(config.steps):
        try:
            idx = rng.integers(0, len(dataset), size=config.batch_size)
            m0 = dataset.targets[idx]
            cond = dataset.conditions[idx]
            t = rng.uniform(T_MIN, 1.0, size=config.batch_size)
            z = rng.standard_normal((config.batch_size, 4))
            noisy, _ = forward_diffuse(m0, t, z)
            c = attenuation_constant(m0)
            with ad.precision(np.float32):
                c_hat, z_hat = model.predict_graph(noisy.values, t, cond)
                loss = training_loss(c_hat, c, z_hat, z)
                value = float(loss.value)
                if not np.isfinite(value):
                    raise NumericError("loss is not finite")
                grads = ad.backward(loss, [model._p(n) for n in names])
            ad.adam_step(model.params, dict(zip(names, grads)), state, config.learning_rate)
        except NumericError as e:
            raise NumericError(f"training aborted at step {step}: {e}") from e
        losses.append(value)
        if config.stop_below is not None and value < config.stop_below:
            break
    return losses
