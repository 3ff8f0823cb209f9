"""Next-box predictors behind one session-style contract.

A session is the tracker's only track table: row i of ``ids`` (strictly
ascending), ``misses`` (``predict_all`` calls since the row was last
observed), ``confirmed`` (started confirmed or observed since) and of
every motion-state array belongs to one track. Boxes
enter as (N, 4) center-format arrays, checked to be finite with positive
extents. A session has one unit mode, fixed by its first ``use_units``
call (the diffusion predictor's is always normalized). Predicted extents
are floored at ``MIN_BOX_EXTENT``, below the one-unit width of a
normalized frame. Per frame, ``predict_all`` returns a fresh (T, 4) array
of next-frame boxes for every row, ``observe`` takes the matched rows and
their boxes in one call and confirms them, ``drop`` removes the frame's
dead rows and ``start`` appends its new tracks, confirmed or tentative,
whose ids must exceed every live id.

Constant velocity and the diffusion predictor read a front-padded
(T, keep, 4) box history; the Kalman filter keeps (T, 8) means and
(T, 8, 8) covariances, advanced on every predict so misses compound. The
diffusion predictor's per-track rng streams, seeded from (master seed,
track id), keep each track's draws independent of its batch; each track
draws its normals in blocks of ``NOISE_BLOCK`` rows, which hold the values
of that many one-row draws, so a sampling step gathers one row per track.
Its per-track condition embeddings are encoded only when a track starts or is
observed: a track that misses keeps its window, and so its embedding.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import (
    UNIT_MODES,
    InvalidInputError,
    NumericError,
    UnitMismatchError,
    check_boxes,
    check_field_types,
)
from .diffusion import encode_windows, sample_k_steps

PREDICTOR_KINDS = ("kf", "cv", "d2mp")
MAX_SAMPLING_STEPS = 1000
# SORT-convention Kalman noise scales: standard deviations proportional to box height
KF_POS_WEIGHT = 1.0 / 20.0
KF_VEL_WEIGHT = 1.0 / 160.0
MIN_BOX_EXTENT = 1e-4  # floor of a predicted width or height
NOISE_BLOCK = 64  # 4-component standard normals a d2mp track draws from its stream at once


@dataclass(frozen=True)
class PredictorConfig:
    kind: str = "kf"
    sampling_steps: int = 1
    deterministic: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        check_field_types(self)
        if self.kind not in PREDICTOR_KINDS:
            raise InvalidInputError(f"predictor kind must be one of {PREDICTOR_KINDS}, got {self.kind!r}")
        if not (1 <= self.sampling_steps <= MAX_SAMPLING_STEPS):
            raise InvalidInputError(f"sampling_steps must lie in [1, {MAX_SAMPLING_STEPS}], got {self.sampling_steps}")
        if self.seed < 0:
            raise InvalidInputError(f"seed must be >= 0, got {self.seed}")


# ---------------------------------------------------------------------------
# Kalman filter (constant velocity over cx, cy, w, h), batched over tracks


_F = np.eye(8)
_F[:4, 4:] = np.eye(4)
_H = np.eye(4, 8)


def kf_initiate(boxes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(T, 4) first boxes -> (T, 8) means and (T, 8, 8) covariances."""
    # velocity prior deliberately weak (SORT inflates it too): the first
    # few measurements then pin the velocity almost exactly
    std = np.repeat([2.0 * KF_POS_WEIGHT, 100.0 * KF_VEL_WEIGHT], 4) * boxes[:, 3:4]
    return np.concatenate([boxes, np.zeros_like(boxes)], axis=1), np.eye(8) * (std * std)[:, None]


def _check_cov(cov: np.ndarray) -> np.ndarray:
    cov = (cov + cov.transpose(0, 2, 1)) / 2.0
    if np.any(np.diagonal(cov, axis1=1, axis2=2) < -1e-9) or not np.isfinite(cov).all():
        raise NumericError("Kalman covariance left the PSD cone")
    return cov


def kf_predict(mean: np.ndarray, cov: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Constant-velocity time update of (T, 8) means and (T, 8, 8)
    covariances. Mean extents are floored so the boxes stay valid."""
    std = np.repeat([KF_POS_WEIGHT, KF_VEL_WEIGHT], 4) * np.maximum(mean[:, 3:4], MIN_BOX_EXTENT)
    mean = (_F @ mean[:, :, None])[:, :, 0]
    mean[:, 2:4] = np.maximum(mean[:, 2:4], MIN_BOX_EXTENT)
    return mean, _check_cov(_F @ cov @ _F.T + np.eye(8) * (std * std)[:, None])


def kf_update(mean: np.ndarray, cov: np.ndarray, measurement: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Standard gain correction with Joseph-form covariance update, for
    (T, 8) means, (T, 8, 8) covariances and (T, 4) measured boxes."""
    std = KF_POS_WEIGHT * np.maximum(measurement[:, 3:4], MIN_BOX_EXTENT)
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


def _apply_motion(last: np.ndarray, motion: np.ndarray) -> tuple[np.ndarray, int]:
    """last + motion for (T, 4) arrays, extents floored at MIN_BOX_EXTENT;
    also returns how many rows were floored."""
    pred = last + motion
    small = pred[:, 2:] < MIN_BOX_EXTENT
    pred[:, 2:] = np.maximum(pred[:, 2:], MIN_BOX_EXTENT)
    return pred, int(small.any(axis=1).sum())


def cv_predict(history: np.ndarray) -> np.ndarray:
    """Repeat each track's last observed motion: (T, k, 4) box histories,
    oldest first, -> (T, 4) boxes. A one-box history predicts itself."""
    if history.shape[1] == 0:
        raise InvalidInputError("cv_predict needs at least one box")
    last = history[:, -1]
    return _apply_motion(last, last - history[:, max(history.shape[1] - 2, 0)])[0]


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
    """The track table. Row i of ``ids``, ``misses``, ``confirmed`` and
    every array named in ``_per_track`` belongs to one track; ``ids``
    strictly ascend.
    Subclasses give new tracks' rows (``_first_rows``), take a frame's
    matched boxes (``_update_rows``) and predict raw (T, 4) boxes for every
    row (``_predict``)."""

    _per_track: tuple[str, ...] = ()

    def __init__(self, config: PredictorConfig):
        self.config = config
        self.clamp_count = 0
        self.ids = np.empty(0, dtype=np.int64)
        self.misses = np.empty(0, dtype=np.int64)  # predict_all calls since each row was observed
        self.confirmed = np.empty(0, dtype=bool)  # started confirmed, or observed since its start
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
        check_boxes(boxes, "session")
        return boxes

    def start(self, ids: Sequence[int], boxes: np.ndarray, confirmed: bool = True) -> None:
        """Append one track per (id, first box) of ``ids`` and the (N, 4)
        ``boxes``, confirmed or tentative; the ids must ascend above every
        live id."""
        ids = np.asarray(ids, dtype=np.int64).reshape(-1)
        first = self._check_boxes(boxes, ids.size)
        if (np.diff(np.concatenate([self.ids[-1:], ids])) <= 0).any():
            raise InvalidInputError(f"new track ids {ids.tolist()} must ascend above the last live id {self.ids[-1:]}")
        self.ids = np.concatenate([self.ids, ids])
        self.misses = np.concatenate([self.misses, np.zeros_like(ids)])
        self.confirmed = np.concatenate([self.confirmed, np.full(ids.size, confirmed)])
        for name, value in zip(self._per_track, self._first_rows(ids, first)):
            setattr(self, name, np.concatenate([getattr(self, name), value]))

    def observe(self, rows: Sequence[int], boxes: np.ndarray) -> None:
        """The (N, 4) matched detection boxes of a frame's N matched rows,
        which are confirmed by it."""
        rows = self._check_rows(rows)
        self._update_rows(rows, self._check_boxes(boxes, rows.size))
        self.misses[rows] = 0
        self.confirmed[rows] = True

    def drop(self, rows: Sequence[int]) -> None:
        rows = self._check_rows(rows)
        for name in ("ids", "misses", "confirmed", *self._per_track):
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

    def _trajectory_boxes(self, boxes) -> np.ndarray:
        """The checked (L, 4) boxes of a trajectory of at least one box."""
        boxes = np.asarray(boxes, dtype=np.float64)
        if boxes.ndim != 2 or not len(boxes):
            raise InvalidInputError(f"a trajectory needs (L, 4) boxes with L >= 1, got shape {boxes.shape}")
        return self._check_boxes(boxes, len(boxes))

    def diagnose_trajectory(self, boxes: np.ndarray, track_id: int = -1) -> np.ndarray:
        """(L - 1, 4) one-frame-ahead predictions for frames 2..L given the
        true prefix of the (L, 4) ``boxes``; used by the linearity
        diagnostic. The session must hold no tracks."""
        if self.ids.size:
            raise InvalidInputError(f"diagnose_trajectory needs an empty session, not one of {self.ids.size} tracks")
        boxes = self._trajectory_boxes(boxes)
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
        return kf_initiate(boxes)

    def _update_rows(self, rows: np.ndarray, boxes: np.ndarray) -> None:
        self._mean[rows], self._cov[rows] = kf_update(self._mean[rows], self._cov[rows], boxes)

    def _predict(self) -> np.ndarray:
        self._mean, self._cov = kf_predict(self._mean, self._cov)
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
        return cv_predict(self._boxes)


class D2MPPredictor(_BoxHistoryPredictor):
    """Diffusion-based predictor on normalized boxes; predictions for a
    frame run as one batch.

    The session owns its condition embeddings: ``_emb`` holds one per track
    and ``_pending`` marks the tracks whose window changed (started or
    observed) since the last successful predict. A predict encodes only
    those rows, in one batch, and clears their marks once the encode has
    succeeded, so a predict that raises leaves them pending. A track that
    misses keeps its window and so its embedding. The table takes its
    trailing shape and dtype from the model's first encode.

    The cache gives the bits of re-encoding every row each frame because
    the encoder is batch invariant: every row of a batch of two or more
    windows is bit-equal to that row of any other such batch. A one-row
    batch is not: BLAS multiplies it on its matrix-vector path, whose last
    bits differ. So a lone pending row of a larger table is encoded twice
    over, as a batch of two, and a table's only row is encoded alone at
    every predict, as a full re-encode would, and kept pending.

    Each track's noise comes from its own Generator in blocks of
    ``NOISE_BLOCK`` x 4 (``_normals``, of which ``_used`` rows are spent),
    drawn when the track first samples and whenever its block runs out. A
    Generator's ``standard_normal((n, 4))`` yields the values of n
    ``standard_normal(4)`` calls, so the draws are those of one call per
    track and sampling step.
    """

    _per_track = ("_boxes", "_rngs", "_normals", "_used", "_emb", "_pending")

    def __init__(self, model, config: PredictorConfig | None = None):
        super().__init__(config or PredictorConfig(kind="d2mp"), model.history_length + 1)
        self.model = model
        self.use_units("norm")
        self._rngs = np.empty(0, dtype=object)
        self._normals = np.empty((0, NOISE_BLOCK, 4))
        self._used = np.empty(0, dtype=np.intp)
        self._diag_rngs: dict[int, np.random.Generator] = {}
        self._emb = np.empty(0)
        self._pending = np.empty(0, dtype=bool)

    def _track_rng(self, track_id: int) -> np.random.Generator:
        # SeedSequence entropy must be non-negative; map ids through 2^32
        return np.random.default_rng((self.config.seed, track_id % (2**32)))

    def _first_rows(self, ids: np.ndarray, boxes: np.ndarray):
        rngs = np.array([self._track_rng(int(i)) for i in ids], dtype=object)
        emb = np.empty((ids.size, *self._emb.shape[1:]), self._emb.dtype)
        normals = np.empty((ids.size, NOISE_BLOCK, 4))
        used = np.full(ids.size, NOISE_BLOCK, dtype=np.intp)  # no block drawn yet
        return (*super()._first_rows(ids, boxes), rngs, normals, used, emb, np.ones(ids.size, dtype=bool))

    def _update_rows(self, rows: np.ndarray, boxes: np.ndarray) -> None:
        super()._update_rows(rows, boxes)
        self._pending[rows] = True

    def _encode_pending(self) -> None:
        """Encode the pending rows into ``_emb`` as one batch."""
        alone = self.ids.size == 1
        if alone:
            self._pending[0] = True
        rows = np.flatnonzero(self._pending)
        if not rows.size:
            return
        batch = np.repeat(rows, 2) if rows.size == 1 < self.ids.size else rows
        emb = encode_windows(build_condition_window(self._boxes[batch]), self.model)[: rows.size]
        if self._emb.shape[1:] != emb.shape[1:] or self._emb.dtype != emb.dtype:
            # the first encode: every row is pending, so none is lost
            self._emb = np.empty((self.ids.size, *emb.shape[1:]), emb.dtype)
        self._emb[rows] = emb
        self._pending[rows] = alone

    def _next_normals(self, size: tuple[int, int]) -> np.ndarray:
        """The next (T, 4) standard normals, row i from track i's stream."""
        if tuple(size) != (self.ids.size, 4):
            raise InvalidInputError(f"need ({self.ids.size}, 4) normals, one row per track, got {size}")
        for row in np.flatnonzero(self._used == NOISE_BLOCK):
            self._normals[row] = self._rngs[row].standard_normal((NOISE_BLOCK, 4))
            self._used[row] = 0
        draws = self._normals[np.arange(self.ids.size), self._used]
        self._used += 1
        return draws

    def _sample(self, last: np.ndarray, emb: np.ndarray, rng) -> np.ndarray:
        """Sampled next boxes after the (B, 4) ``last`` boxes, from their
        windows' embeddings."""
        cfg = self.config
        motions = sample_k_steps(cfg.sampling_steps, emb, self.model, rng, cfg.deterministic)
        pred, clamped = _apply_motion(last, motions)
        self.clamp_count += clamped
        return pred

    def _predict(self) -> np.ndarray:
        self._encode_pending()
        return self._sample(self._boxes[:, -1], self._emb, self._next_normals)

    def diagnose_trajectory(self, boxes: np.ndarray, track_id: int = -1) -> np.ndarray:
        """As the base method, in one batched network call per trajectory.
        The first call for a track id seeds its stream from (seed, id); a
        later call for that id (the next run of a gapped trajectory)
        continues the stream instead of replaying its draws."""
        windows = trajectory_windows(self._trajectory_boxes(boxes), self.model.history_length)
        emb = encode_windows(build_condition_window(windows), self.model)
        if track_id not in self._diag_rngs:
            self._diag_rngs[track_id] = self._track_rng(track_id)
        return self._sample(windows[:, -1], emb, self._diag_rngs[track_id])


def make_predictor(config: PredictorConfig, model=None) -> MotionPredictor:
    if config.kind == "kf":
        return KalmanPredictor(config)
    if config.kind == "cv":
        return ConstantVelocityPredictor(config)
    if model is None:
        raise InvalidInputError("the d2mp predictor needs a model")
    return D2MPPredictor(model, config)
