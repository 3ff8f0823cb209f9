"""Next-box predictors behind one session-style contract.

A session holds its tracks as rows of stacked arrays, in ascending track
id, and has one unit mode, taken from its first box; in the normalized
mode a frame is one unit wide, so ``min_box_extent`` must be below 1.
``start`` a track from its first box, ``predict_all`` a (T, 4) array of
next-frame boxes once per frame, ``observe`` all of a frame's matched
boxes in one call, ``drop`` a removed track. This session is the only
owner of per-track motion state; the tracker keeps only each track's
frames since its last match.

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
    BoundingBox,
    InvalidInputError,
    NumericError,
    UnitMismatchError,
    check_field_types,
    stack_boxes,
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
    """Per-track prediction sessions over stacked arrays. Row i of every
    array named in ``_per_track`` belongs to track ``_ids[i]``; subclasses
    give a new track's rows (``_first_rows``), take a frame's matched boxes
    (``_update_rows``) and predict raw (T, 4) boxes (``_predict_rows``)."""

    _per_track: tuple[str, ...] = ()

    def __init__(self, config: PredictorConfig):
        self.config = config
        self.clamp_count = 0
        self._ids = np.empty(0, dtype=np.int64)
        self._units: str | None = None

    def _set_units(self, units: str) -> None:
        if units == "norm" and self.config.min_box_extent >= 1.0:
            raise InvalidInputError(
                f"min_box_extent {self.config.min_box_extent} must be below 1 for normalized boxes"
            )
        self._units = units

    def _rows(self, track_ids: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
        """Each id's row (its insertion point if the id is not live) and
        whether it is live."""
        ids = np.asarray(track_ids, dtype=np.int64).reshape(-1)
        rows = np.searchsorted(self._ids, ids)
        return rows, self._ids.take(rows, mode="clip") == ids if self._ids.size else np.zeros(ids.size, bool)

    def _live_rows(self, track_ids: Sequence[int]) -> np.ndarray:
        rows, live = self._rows(track_ids)
        if not live.all():
            raise KeyError(f"a track of {list(track_ids)} was never started")
        return rows

    def _as_array(self, boxes: Sequence[BoundingBox]) -> np.ndarray:
        """(N, 4) array of boxes in this session's unit mode."""
        if any(b.units != self._units for b in boxes):
            raise UnitMismatchError(f"this session holds {self._units} boxes, got {sorted({b.units for b in boxes})}")
        return stack_boxes(boxes)

    def start(self, track_id: int, box: BoundingBox) -> None:
        if self._units is None:
            self._set_units(box.units)
        first = self._as_array([box])[0]
        (row,), (live,) = self._rows([track_id])
        if live:
            raise InvalidInputError(f"track {track_id} already started")
        self._ids = np.insert(self._ids, row, track_id)
        for name, value in zip(self._per_track, self._first_rows(track_id, first)):
            setattr(self, name, np.insert(getattr(self, name), row, value, axis=0))

    def observe(self, track_ids: Sequence[int], boxes: Sequence[BoundingBox]) -> None:
        """The matched detection of each of a frame's matched tracks."""
        if len(track_ids) != len(boxes):
            raise InvalidInputError(f"{len(track_ids)} track ids but {len(boxes)} boxes")
        self._update_rows(self._live_rows(track_ids), self._as_array(boxes))

    def drop(self, track_id: int) -> None:
        (row,), (live,) = self._rows([track_id])
        if live:
            for name in ("_ids", *self._per_track):
                setattr(self, name, np.delete(getattr(self, name), row, axis=0))

    def predict_all(self, track_ids: Sequence[int]) -> np.ndarray:
        """(T, 4) next-frame boxes in the order of ``track_ids``."""
        rows = self._live_rows(track_ids)
        if not rows.size:
            return np.empty((0, 4))
        pred = self._predict_rows(rows)
        if not np.isfinite(pred).all():
            raise NumericError("a predicted box is not finite")
        return pred

    def diagnose_trajectory(self, boxes: Sequence[BoundingBox], track_id: int = -1) -> np.ndarray:
        """(L - 1, 4) one-frame-ahead predictions for frames 2..L given the
        true prefix; used by the linearity diagnostic."""
        self.start(track_id, boxes[0])
        preds = np.empty((len(boxes) - 1, 4))
        for i, box in enumerate(boxes[1:]):
            preds[i] = self.predict_all([track_id])[0]
            self.observe([track_id], [box])
        self.drop(track_id)
        return preds


class KalmanPredictor(MotionPredictor):
    _per_track = ("_mean", "_cov")

    def __init__(self, config: PredictorConfig | None = None):
        super().__init__(config or PredictorConfig(kind="kf"))
        self._mean = np.empty((0, 8))
        self._cov = np.empty((0, 8, 8))

    def _first_rows(self, track_id: int, box: np.ndarray):
        return kf_initiate(box[None], self.config)

    def _update_rows(self, rows: np.ndarray, boxes: np.ndarray) -> None:
        self._mean[rows], self._cov[rows] = kf_update(self._mean[rows], self._cov[rows], boxes, self.config)

    def _predict_rows(self, rows: np.ndarray) -> np.ndarray:
        mean, cov = kf_predict(self._mean[rows], self._cov[rows], self.config)
        self._mean[rows], self._cov[rows] = mean, cov
        return mean[:, :4]


class _BoxHistoryPredictor(MotionPredictor):
    """Keeps each track's latest ``keep`` boxes, oldest first, as one
    (T, keep, 4) array front-padded with the track's first box."""

    _per_track = ("_boxes",)

    def __init__(self, config: PredictorConfig, keep: int):
        super().__init__(config)
        self._boxes = np.empty((0, keep, 4))

    def _first_rows(self, track_id: int, box: np.ndarray):
        return (box,)

    def _update_rows(self, rows: np.ndarray, boxes: np.ndarray) -> None:
        self._boxes[rows, :-1] = self._boxes[rows, 1:]
        self._boxes[rows, -1] = boxes


class ConstantVelocityPredictor(_BoxHistoryPredictor):
    def __init__(self, config: PredictorConfig | None = None):
        super().__init__(config or PredictorConfig(kind="cv"), keep=2)

    def _predict_rows(self, rows: np.ndarray) -> np.ndarray:
        return cv_predict(self._boxes[rows], self.config.min_box_extent)


class D2MPPredictor(_BoxHistoryPredictor):
    """Diffusion-based predictor on normalized boxes; predictions for a
    frame run as one batch."""

    _per_track = ("_boxes", "_rngs")

    def __init__(self, model, config: PredictorConfig | None = None):
        super().__init__(config or PredictorConfig(kind="d2mp"), model.history_length + 1)
        self.model = model
        self._set_units("norm")
        self._rngs = np.empty(0, dtype=object)

    def _track_rng(self, track_id: int) -> np.random.Generator:
        # SeedSequence entropy must be non-negative; map ids through 2^32
        return np.random.default_rng((self.config.seed, track_id % (2**32)))

    def _first_rows(self, track_id: int, box: np.ndarray):
        return box, self._track_rng(track_id)

    def _sample(self, windows: np.ndarray, rng) -> np.ndarray:
        """Sampled next boxes after the last box of each (B, n + 1, 4) window."""
        cfg = self.config
        motions = sample_k_steps(cfg.sampling_steps, build_condition_window(windows), self.model, rng, cfg.deterministic)
        pred, clamped = _apply_motion(windows[:, -1], motions, cfg.min_box_extent)
        self.clamp_count += clamped
        return pred

    def _predict_rows(self, rows: np.ndarray) -> np.ndarray:
        return self._sample(self._boxes[rows], list(self._rngs[rows]))

    def diagnose_trajectory(self, boxes: Sequence[BoundingBox], track_id: int = -1) -> np.ndarray:
        # one batched network call per trajectory instead of one per frame
        windows = trajectory_windows(self._as_array(boxes), self.model.history_length)
        return self._sample(windows, self._track_rng(track_id))


def make_predictor(config: PredictorConfig, model=None) -> MotionPredictor:
    if config.kind == "kf":
        return KalmanPredictor(config)
    if config.kind == "cv":
        return ConstantVelocityPredictor(config)
    if model is None:
        raise InvalidInputError("the d2mp predictor needs a model")
    return D2MPPredictor(model, config)
