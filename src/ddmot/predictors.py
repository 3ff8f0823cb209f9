"""Next-box predictors behind one session-style contract.

A session is the tracker's only track table: row i of ``ids`` (strictly
ascending) and ``misses`` (``predict_all`` calls since the row was last
observed) and of every motion-state array belongs to one track. Boxes
enter as (N, 4) center-format arrays, checked to be finite with positive
extents. A session has one unit mode, fixed by its first ``use_units``
call (the diffusion predictor's is always normalized); in the normalized
mode a frame is one unit wide, so ``min_box_extent`` must be below 1. Per
frame, ``predict_all`` returns a fresh (T, 4) array of next-frame boxes
for every row, ``observe`` takes the matched rows and their boxes in one
call, ``drop`` removes the frame's dead rows and ``start`` appends its new
tracks, whose ids must exceed every live id.

Constant velocity and the diffusion predictor read a front-padded
(T, keep, 4) box history; the Kalman filter keeps (T, 8) means and
(T, 8, 8) covariances, advanced on every predict so misses compound. The
diffusion predictor's per-track rng streams, seeded from (master seed,
track id), keep each track's draws independent of its batch.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import (
    UNIT_MODES,
    DegenerateBoxError,
    InvalidInputError,
    NumericError,
    UnitMismatchError,
    check_field_types,
)
from .diffusion import sample_k_steps

PREDICTOR_KINDS = ("kf", "cv", "d2mp")
MAX_SAMPLING_STEPS = 1000


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
        check_field_types(self)
        if self.kind not in PREDICTOR_KINDS:
            raise InvalidInputError(f"predictor kind must be one of {PREDICTOR_KINDS}, got {self.kind!r}")
        if not (1 <= self.sampling_steps <= MAX_SAMPLING_STEPS):
            raise InvalidInputError(f"sampling_steps must lie in [1, {MAX_SAMPLING_STEPS}], got {self.sampling_steps}")
        if self.seed < 0:
            raise InvalidInputError(f"seed must be >= 0, got {self.seed}")
        if self.kf_pos_weight <= 0 or self.kf_vel_weight <= 0 or self.min_box_extent <= 0:
            raise InvalidInputError("noise weights and min_box_extent must be positive")


# ---------------------------------------------------------------------------
# Kalman filter (constant velocity over cx, cy, w, h), batched over tracks


_F = np.eye(8)
_F[:4, 4:] = np.eye(4)
_H = np.eye(4, 8)


def kf_initiate(boxes: np.ndarray, config: PredictorConfig) -> tuple[np.ndarray, np.ndarray]:
    """(T, 4) first boxes -> (T, 8) means and (T, 8, 8) covariances."""
    # velocity prior deliberately weak (SORT inflates it too): the first
    # few measurements then pin the velocity almost exactly
    p, v = config.kf_pos_weight, config.kf_vel_weight
    std = np.repeat([2.0 * p, 100.0 * v], 4) * boxes[:, 3:4]
    return np.concatenate([boxes, np.zeros_like(boxes)], axis=1), np.eye(8) * (std * std)[:, None]


def _check_cov(cov: np.ndarray) -> np.ndarray:
    cov = (cov + cov.transpose(0, 2, 1)) / 2.0
    if np.any(np.diagonal(cov, axis1=1, axis2=2) < -1e-9) or not np.isfinite(cov).all():
        raise NumericError("Kalman covariance left the PSD cone")
    return cov


def kf_predict(mean: np.ndarray, cov: np.ndarray, config: PredictorConfig) -> tuple[np.ndarray, np.ndarray]:
    """Constant-velocity time update of (T, 8) means and (T, 8, 8)
    covariances. Mean extents are floored so the boxes stay valid."""
    eps = config.min_box_extent
    std = np.repeat([config.kf_pos_weight, config.kf_vel_weight], 4) * np.maximum(mean[:, 3:4], eps)
    mean = (_F @ mean[:, :, None])[:, :, 0]
    mean[:, 2:4] = np.maximum(mean[:, 2:4], eps)
    return mean, _check_cov(_F @ cov @ _F.T + np.eye(8) * (std * std)[:, None])


def kf_update(
    mean: np.ndarray, cov: np.ndarray, measurement: np.ndarray, config: PredictorConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Standard gain correction with Joseph-form covariance update, for
    (T, 8) means, (T, 8, 8) covariances and (T, 4) measured boxes."""
    std = config.kf_pos_weight * np.maximum(measurement[:, 3:4], config.min_box_extent)
    r = np.eye(4) * (std**2)[:, :, None]
    s = _H @ cov @ _H.T + r
    try:
        gain = np.linalg.solve(s, _H @ cov).transpose(0, 2, 1)
    except np.linalg.LinAlgError as e:
        raise NumericError(f"singular innovation covariance: {e}") from e
    innovation = measurement - (_H @ mean[:, :, None])[:, :, 0]
    mean = mean + (gain @ innovation[:, :, None])[:, :, 0]
    ikh = np.eye(8) - gain @ _H
    cov = _check_cov(ikh @ cov @ ikh.transpose(0, 2, 1) + gain @ r @ gain.transpose(0, 2, 1))
    return mean, cov


# ---------------------------------------------------------------------------
# pure prediction functions over box arrays


def _apply_motion(last: np.ndarray, motion: np.ndarray, min_extent: float) -> tuple[np.ndarray, int]:
    """last + motion for (T, 4) arrays, extents floored at min_extent;
    also returns how many rows were floored."""
    pred = last + motion
    small = pred[:, 2:] < min_extent
    pred[:, 2:] = np.maximum(pred[:, 2:], min_extent)
    return pred, int(small.any(axis=1).sum())


def cv_predict(history: np.ndarray, min_extent: float = 1e-4) -> np.ndarray:
    """Repeat each track's last observed motion: (T, k, 4) box histories,
    oldest first, -> (T, 4) boxes. A one-box history predicts itself."""
    if history.shape[1] == 0:
        raise InvalidInputError("cv_predict needs at least one box")
    last = history[:, -1]
    return _apply_motion(last, last - history[:, max(history.shape[1] - 2, 0)], min_extent)[0]


def build_condition_window(boxes: np.ndarray) -> np.ndarray:
    """(B, n + 1, 4) box windows, oldest first -> the (B, n, 8) condition
    rows (box, motion into it), most recent first. Front padding repeats
    the oldest box's row with zero motion."""
    recent = boxes[:, ::-1]
    return np.concatenate([recent[:, :-1], recent[:, :-1] - recent[:, 1:]], axis=-1)


def trajectory_windows(boxes: np.ndarray, n: int) -> np.ndarray:
    """(L, 4) trajectory -> (L - 1, n + 1, 4): the window of n + 1 boxes
    ending at each box but the last, front-padded with the first box."""
    padded = np.concatenate([np.repeat(boxes[:1], n, axis=0), boxes])
    return sliding_window_view(padded, (n + 1, 4))[:-1, 0]


# ---------------------------------------------------------------------------
# session-style predictors


class MotionPredictor:
    """The track table. Row i of ``ids``, ``misses`` and every array named
    in ``_per_track`` belongs to one track; ``ids`` strictly ascend.
    Subclasses give new tracks' rows (``_first_rows``), take a frame's
    matched boxes (``_update_rows``) and predict raw (T, 4) boxes for every
    row (``_predict``)."""

    _per_track: tuple[str, ...] = ()

    def __init__(self, config: PredictorConfig):
        self.config = config
        self.clamp_count = 0
        self.ids = np.empty(0, dtype=np.int64)
        self.misses = np.empty(0, dtype=np.int64)  # predict_all calls since each row was observed
        self.units: str | None = None  # fixed by the first use_units call

    def use_units(self, units: str) -> None:
        """Fix the unit mode of every box this session takes; a later call
        with the other mode raises UnitMismatchError."""
        if units == self.units:
            return
        if self.units is not None:
            raise UnitMismatchError(f"this session holds {self.units} boxes, got {units} boxes")
        if units not in UNIT_MODES:
            raise InvalidInputError(f"unknown unit mode {units!r}")
        if units == "norm" and self.config.min_box_extent >= 1.0:
            raise InvalidInputError(
                f"min_box_extent {self.config.min_box_extent} must be below 1 for normalized boxes"
            )
        self.units = units

    def _check_rows(self, rows: Sequence[int]) -> np.ndarray:
        rows = np.asarray(rows, dtype=np.int64).reshape(-1)
        if rows.size and (rows.min() < 0 or rows.max() >= self.ids.size):
            raise InvalidInputError(f"rows must lie in [0, {self.ids.size}), got {rows.tolist()}")
        return rows

    @staticmethod
    def _check_boxes(boxes, count: int) -> np.ndarray:
        """(count, 4) finite center-format boxes with positive extents."""
        boxes = np.asarray(boxes, dtype=np.float64)
        if boxes.shape != (count, 4):
            raise InvalidInputError(f"expected ({count}, 4) boxes, got shape {boxes.shape}")
        if not np.isfinite(boxes).all():
            raise InvalidInputError("boxes must be finite")
        if (boxes[:, 2:] <= 0).any():
            raise DegenerateBoxError("box extents must be positive")
        return boxes

    def start(self, ids: Sequence[int], boxes: np.ndarray) -> None:
        """Append one track per (id, first box) of ``ids`` and the (N, 4)
        ``boxes``; the ids must ascend above every live id."""
        ids = np.asarray(ids, dtype=np.int64).reshape(-1)
        first = self._check_boxes(boxes, ids.size)
        if (np.diff(np.concatenate([self.ids[-1:], ids])) <= 0).any():
            raise InvalidInputError(f"new track ids {ids.tolist()} must ascend above the last live id {self.ids[-1:]}")
        self.ids = np.concatenate([self.ids, ids])
        self.misses = np.concatenate([self.misses, np.zeros_like(ids)])
        for name, value in zip(self._per_track, self._first_rows(ids, first)):
            setattr(self, name, np.concatenate([getattr(self, name), value]))

    def observe(self, rows: Sequence[int], boxes: np.ndarray) -> None:
        """The (N, 4) matched detection boxes of a frame's N matched rows."""
        rows = self._check_rows(rows)
        self._update_rows(rows, self._check_boxes(boxes, rows.size))
        self.misses[rows] = 0

    def drop(self, rows: Sequence[int]) -> None:
        rows = self._check_rows(rows)
        for name in ("ids", "misses", *self._per_track):
            setattr(self, name, np.delete(getattr(self, name), rows, axis=0))

    def predict_all(self) -> np.ndarray:
        """A fresh (T, 4) array of next-frame boxes, one per row."""
        self.misses += 1
        if not self.ids.size:
            return np.empty((0, 4))
        pred = self._predict()
        if not np.isfinite(pred).all():
            raise NumericError("a predicted box is not finite")
        return pred

    def diagnose_trajectory(self, boxes: np.ndarray, track_id: int = -1) -> np.ndarray:
        """(L - 1, 4) one-frame-ahead predictions for frames 2..L given the
        true prefix of the (L, 4) ``boxes``; used by the linearity
        diagnostic. The session must hold no tracks."""
        if self.ids.size:
            raise InvalidInputError(f"diagnose_trajectory needs an empty session, not one of {self.ids.size} tracks")
        boxes = self._check_boxes(boxes, len(boxes))
        self.start([track_id], boxes[:1])
        preds = np.empty((len(boxes) - 1, 4))
        for i in range(1, len(boxes)):
            preds[i - 1] = self.predict_all()[0]
            self.observe([0], boxes[i : i + 1])
        self.drop([0])
        return preds


class KalmanPredictor(MotionPredictor):
    _per_track = ("_mean", "_cov")

    def __init__(self, config: PredictorConfig | None = None):
        super().__init__(config or PredictorConfig(kind="kf"))
        self._mean = np.empty((0, 8))
        self._cov = np.empty((0, 8, 8))

    def _first_rows(self, ids: np.ndarray, boxes: np.ndarray):
        return kf_initiate(boxes, self.config)

    def _update_rows(self, rows: np.ndarray, boxes: np.ndarray) -> None:
        self._mean[rows], self._cov[rows] = kf_update(self._mean[rows], self._cov[rows], boxes, self.config)

    def _predict(self) -> np.ndarray:
        self._mean, self._cov = kf_predict(self._mean, self._cov, self.config)
        return self._mean[:, :4].copy()


class _BoxHistoryPredictor(MotionPredictor):
    """Keeps each track's latest ``keep`` boxes, oldest first, as one
    (T, keep, 4) array front-padded with the track's first box."""

    _per_track = ("_boxes",)

    def __init__(self, config: PredictorConfig, keep: int):
        super().__init__(config)
        self._boxes = np.empty((0, keep, 4))

    def _first_rows(self, ids: np.ndarray, boxes: np.ndarray):
        return (np.repeat(boxes[:, None], self._boxes.shape[1], axis=1),)

    def _update_rows(self, rows: np.ndarray, boxes: np.ndarray) -> None:
        self._boxes[rows, :-1] = self._boxes[rows, 1:]
        self._boxes[rows, -1] = boxes


class ConstantVelocityPredictor(_BoxHistoryPredictor):
    def __init__(self, config: PredictorConfig | None = None):
        super().__init__(config or PredictorConfig(kind="cv"), keep=2)

    def _predict(self) -> np.ndarray:
        return cv_predict(self._boxes, self.config.min_box_extent)


class D2MPPredictor(_BoxHistoryPredictor):
    """Diffusion-based predictor on normalized boxes; predictions for a
    frame run as one batch."""

    _per_track = ("_boxes", "_rngs")

    def __init__(self, model, config: PredictorConfig | None = None):
        super().__init__(config or PredictorConfig(kind="d2mp"), model.history_length + 1)
        self.model = model
        self.use_units("norm")
        self._rngs = np.empty(0, dtype=object)

    def _track_rng(self, track_id: int) -> np.random.Generator:
        # SeedSequence entropy must be non-negative; map ids through 2^32
        return np.random.default_rng((self.config.seed, track_id % (2**32)))

    def _first_rows(self, ids: np.ndarray, boxes: np.ndarray):
        rngs = np.array([self._track_rng(int(i)) for i in ids], dtype=object)
        return (*super()._first_rows(ids, boxes), rngs)

    def _sample(self, windows: np.ndarray, rng) -> np.ndarray:
        """Sampled next boxes after the last box of each (B, n + 1, 4) window."""
        cfg = self.config
        motions = sample_k_steps(cfg.sampling_steps, build_condition_window(windows), self.model, rng, cfg.deterministic)
        pred, clamped = _apply_motion(windows[:, -1], motions, cfg.min_box_extent)
        self.clamp_count += clamped
        return pred

    def _predict(self) -> np.ndarray:
        return self._sample(self._boxes, list(self._rngs))

    def diagnose_trajectory(self, boxes: np.ndarray, track_id: int = -1) -> np.ndarray:
        # one batched network call per trajectory instead of one per frame
        windows = trajectory_windows(self._check_boxes(boxes, len(boxes)), self.model.history_length)
        return self._sample(windows, self._track_rng(track_id))


def make_predictor(config: PredictorConfig, model=None) -> MotionPredictor:
    if config.kind == "kf":
        return KalmanPredictor(config)
    if config.kind == "cv":
        return ConstantVelocityPredictor(config)
    if model is None:
        raise InvalidInputError("the d2mp predictor needs a model")
    return D2MPPredictor(model, config)
