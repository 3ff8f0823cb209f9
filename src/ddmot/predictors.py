"""Motion predictors behind one session-style contract.

Each predictor keeps per-track state keyed by track id: ``start`` a track
from its first box, ``predict`` the next-frame box (once per frame),
``observe`` the matched detection, ``drop`` a removed track. This session
is the only owner of per-track motion state; the tracker's ``Track`` holds
only lifecycle. A session keeps only the boxes its predictor reads: the
last two for KF and constant velocity, ``model.history_length + 1`` for
the diffusion predictor. KF state advances on every predict so misses
compound; the constant-velocity and diffusion predictors are pure
functions of the stored box history.

The diffusion predictor batches all tracks of a frame through one network
call; per-track rng streams seeded from (master seed, track id) keep each
track's draws independent of which other tracks share the batch.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import islice
from typing import Sequence

import numpy as np

from .core import (
    BoundingBox,
    InvalidInputError,
    Motion,
    NumericError,
    UnitMismatchError,
    motion_from_boxes,
)
from .diffusion import sample_k_steps

PREDICTOR_KINDS = ("kf", "cv", "d2mp")


@dataclass(frozen=True)
class PredictorConfig:
    kind: str = "kf"
    sampling_steps: int = 1
    deterministic: bool = False
    seed: int = 0
    # SORT-convention noise scales: standard deviations proportional to box height
    kf_pos_weight: float = 1.0 / 20.0
    kf_vel_weight: float = 1.0 / 160.0
    min_box_extent: float = 1e-4

    def __post_init__(self) -> None:
        if self.kind not in PREDICTOR_KINDS:
            raise InvalidInputError(f"predictor kind must be one of {PREDICTOR_KINDS}, got {self.kind!r}")
        if self.sampling_steps < 1:
            raise InvalidInputError("sampling_steps must be >= 1")
        if self.kf_pos_weight <= 0 or self.kf_vel_weight <= 0 or self.min_box_extent <= 0:
            raise InvalidInputError("noise weights and min_box_extent must be positive")


# ---------------------------------------------------------------------------
# Kalman filter (constant velocity over cx, cy, w, h)


@dataclass
class KalmanState:
    mean: np.ndarray  # (8,) positions then velocities
    cov: np.ndarray  # (8, 8)


_F = np.eye(8)
_F[:4, 4:] = np.eye(4)
_H = np.eye(4, 8)


def kf_initiate(box: BoundingBox, config: PredictorConfig) -> KalmanState:
    # velocity prior deliberately weak (SORT inflates it too): the first
    # few measurements then pin the velocity almost exactly
    mean = np.concatenate([box.as_array(), np.zeros(4)])
    p, v, h = config.kf_pos_weight, config.kf_vel_weight, box.h
    std = np.concatenate([np.full(4, 2.0 * p * h), np.full(4, 100.0 * v * h)])
    return KalmanState(mean, np.diag(std * std))


def _check_cov(cov: np.ndarray) -> np.ndarray:
    cov = (cov + cov.T) / 2.0
    if np.any(np.diag(cov) < -1e-9) or not np.all(np.isfinite(cov)):
        raise NumericError("Kalman covariance left the PSD cone")
    return cov


def kf_predict(state: KalmanState, config: PredictorConfig, units: str = "norm") -> tuple[BoundingBox, KalmanState]:
    """Constant-velocity time update; returns the predicted box and the
    advanced state. Mean extents are floored so the box stays valid."""
    mean = _F @ state.mean
    eps = config.min_box_extent
    mean[2], mean[3] = max(mean[2], eps), max(mean[3], eps)
    p, v, h = config.kf_pos_weight, config.kf_vel_weight, max(state.mean[3], eps)
    std = np.concatenate([np.full(4, p * h), np.full(4, v * h)])
    cov = _check_cov(_F @ state.cov @ _F.T + np.diag(std * std))
    box = BoundingBox(mean[0], mean[1], mean[2], mean[3], units)
    return box, KalmanState(mean, cov)


def kf_update(state: KalmanState, measurement: BoundingBox, config: PredictorConfig) -> KalmanState:
    """Standard gain correction with Joseph-form covariance update."""
    p, h = config.kf_pos_weight, max(measurement.h, config.min_box_extent)
    r = np.diag(np.full(4, (p * h) ** 2))
    s = _H @ state.cov @ _H.T + r
    try:
        gain = np.linalg.solve(s, _H @ state.cov).T
    except np.linalg.LinAlgError as e:
        raise NumericError(f"singular innovation covariance: {e}") from e
    innovation = measurement.as_array() - _H @ state.mean
    mean = state.mean + gain @ innovation
    ikh = np.eye(8) - gain @ _H
    cov = _check_cov(ikh @ state.cov @ ikh.T + gain @ r @ gain.T)
    return KalmanState(mean, cov)


# ---------------------------------------------------------------------------
# pure prediction functions


def _shift_box_clamped(box: BoundingBox, motion: Motion, min_extent: float) -> tuple[BoundingBox, bool]:
    w, h = box.w + motion.dw, box.h + motion.dh
    clamped = w < min_extent or h < min_extent
    return (
        BoundingBox(box.cx + motion.dcx, box.cy + motion.dcy, max(w, min_extent), max(h, min_extent), box.units),
        clamped,
    )


def cv_predict(history: Sequence[BoundingBox], min_extent: float = 1e-4) -> BoundingBox:
    """Repeat the last observed motion; a single box predicts itself."""
    if not history:
        raise InvalidInputError("cv_predict needs at least one box")
    if len(history) == 1:
        return history[-1]
    box, _ = _shift_box_clamped(history[-1], motion_from_boxes(history[-2], history[-1]), min_extent)
    return box


def build_condition_window(histories: Sequence[Sequence[BoundingBox]], n: int) -> np.ndarray:
    """The last n MotionInfo rows of each history, most recent first, as a
    (B, n, 8) array.

    Each history's last n + 1 boxes are padded to n + 1 by repeating its
    oldest box, so a history shorter than n + 1 repeats its oldest row
    (zero motion) and a length-1 history contributes zero motion
    components.
    """
    rows: list[BoundingBox] = []
    for history in histories:
        if not history:
            raise InvalidInputError("cannot build a condition window from an empty history")
        recent = list(islice(reversed(history), n + 1))
        rows += recent + [recent[-1]] * (n + 1 - len(recent))
    if len({b.units for b in rows}) > 1:
        raise UnitMismatchError("condition window: unit modes differ")
    boxes = np.array([(b.cx, b.cy, b.w, b.h) for b in rows], dtype=np.float64).reshape(-1, n + 1, 4)
    return np.concatenate([boxes[:, :n], boxes[:, :n] - boxes[:, 1:]], axis=-1)


# ---------------------------------------------------------------------------
# session-style predictors


class MotionPredictor:
    """Per-track prediction sessions. Subclasses fill in the strategy;
    ``keep`` is how many of a track's latest boxes the strategy reads."""

    def __init__(self, config: PredictorConfig, keep: int = 2):
        self.config = config
        self._keep = keep
        self._history: dict[int, deque[BoundingBox]] = {}

    def start(self, track_id: int, box: BoundingBox) -> None:
        if track_id in self._history:
            raise InvalidInputError(f"track {track_id} already started")
        self._history[track_id] = deque([box], maxlen=self._keep)

    def observe(self, track_id: int, box: BoundingBox) -> None:
        self._history[track_id].append(box)

    def drop(self, track_id: int) -> None:
        self._history.pop(track_id, None)

    def predict(self, track_id: int) -> BoundingBox:
        return self.predict_all([track_id])[0]

    def predict_all(self, track_ids: Sequence[int]) -> list[BoundingBox]:
        raise NotImplementedError

    def diagnose_trajectory(self, boxes: Sequence[BoundingBox], track_id: int = -1) -> list[BoundingBox]:
        """One-frame-ahead predictions for frames 2..L given the true
        prefix; used by the linearity diagnostic."""
        self.start(track_id, boxes[0])
        preds = []
        for box in boxes[1:]:
            preds.append(self.predict(track_id))
            self.observe(track_id, box)
        self.drop(track_id)
        return preds


class KalmanPredictor(MotionPredictor):
    def __init__(self, config: PredictorConfig | None = None):
        super().__init__(config or PredictorConfig(kind="kf"))
        self._states: dict[int, KalmanState] = {}

    def start(self, track_id: int, box: BoundingBox) -> None:
        super().start(track_id, box)
        self._states[track_id] = kf_initiate(box, self.config)

    def observe(self, track_id: int, box: BoundingBox) -> None:
        super().observe(track_id, box)
        self._states[track_id] = kf_update(self._states[track_id], box, self.config)

    def drop(self, track_id: int) -> None:
        super().drop(track_id)
        self._states.pop(track_id, None)

    def predict_all(self, track_ids: Sequence[int]) -> list[BoundingBox]:
        out = []
        for tid in track_ids:
            units = self._history[tid][-1].units
            box, self._states[tid] = kf_predict(self._states[tid], self.config, units)
            out.append(box)
        return out


class ConstantVelocityPredictor(MotionPredictor):
    def __init__(self, config: PredictorConfig | None = None):
        super().__init__(config or PredictorConfig(kind="cv"))

    def predict_all(self, track_ids: Sequence[int]) -> list[BoundingBox]:
        return [cv_predict(self._history[tid], self.config.min_box_extent) for tid in track_ids]


class D2MPPredictor(MotionPredictor):
    """Diffusion-based predictor; predictions for a frame run as one batch."""

    def __init__(self, model, config: PredictorConfig | None = None):
        super().__init__(config or PredictorConfig(kind="d2mp"), model.history_length + 1)
        self.model = model
        self.clamp_count = 0
        self._rngs: dict[int, np.random.Generator] = {}

    def _track_rng(self, track_id: int) -> np.random.Generator:
        # SeedSequence entropy must be non-negative; map ids through 2^32
        return np.random.default_rng((self.config.seed, track_id % (2**32)))

    def start(self, track_id: int, box: BoundingBox) -> None:
        if box.units != "norm":
            raise UnitMismatchError("the diffusion predictor operates on normalized boxes")
        super().start(track_id, box)
        self._rngs[track_id] = self._track_rng(track_id)

    def drop(self, track_id: int) -> None:
        super().drop(track_id)
        self._rngs.pop(track_id, None)

    def predict_all(self, track_ids: Sequence[int]) -> list[BoundingBox]:
        if not track_ids:
            return []
        n = self.model.history_length
        windows = build_condition_window([self._history[t] for t in track_ids], n)
        rngs = [self._rngs[t] for t in track_ids]
        motions = sample_k_steps(self.config.sampling_steps, windows, self.model, rngs, self.config.deterministic)
        out = []
        for tid, m in zip(track_ids, motions):
            box, clamped = _shift_box_clamped(self._history[tid][-1], Motion(*m), self.config.min_box_extent)
            self.clamp_count += int(clamped)
            out.append(box)
        return out

    def diagnose_trajectory(self, boxes: Sequence[BoundingBox], track_id: int = -1) -> list[BoundingBox]:
        # one batched network call per trajectory instead of one per frame
        n = self.model.history_length
        windows = build_condition_window([boxes[:i] for i in range(1, len(boxes))], n)
        rng = self._track_rng(track_id)
        motions = sample_k_steps(self.config.sampling_steps, windows, self.model, rng, self.config.deterministic)
        out = []
        for box, m in zip(boxes[:-1], motions):
            pred, clamped = _shift_box_clamped(box, Motion(*m), self.config.min_box_extent)
            self.clamp_count += int(clamped)
            out.append(pred)
        return out


def make_predictor(config: PredictorConfig, model=None) -> MotionPredictor:
    if config.kind == "kf":
        return KalmanPredictor(config)
    if config.kind == "cv":
        return ConstantVelocityPredictor(config)
    if model is None:
        raise InvalidInputError("the d2mp predictor needs a model")
    return D2MPPredictor(model, config)
