"""Center-format box geometry: the box and detection types, the columnar
table of MOT rows, array trajectories and IoU.

Everything downstream (prediction, association, metrics) is built on these
types. Boxes exist in two unit modes: raw pixels ("px") or image-relative
("norm", coordinates divided by frame width/height). Binary operations on
boxes refuse to mix modes; mixing is always a caller bug. A motion (the
per-frame box delta) is a plain array with a trailing dimension of 4.

All values are immutable and double precision.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields
from typing import Iterable

import numpy as np

UNIT_MODES = ("px", "norm")


class TrackingError(Exception):
    """Base class for every error raised by this package."""


class InvalidInputError(TrackingError, ValueError):
    """A precondition on caller-supplied data was violated."""


class UnitMismatchError(InvalidInputError):
    """Two boxes with different unit modes met in one operation."""


class DegenerateBoxError(InvalidInputError):
    """An operation would produce a box with non-positive extent."""


class FormatError(TrackingError, ValueError):
    """An external file or byte stream does not match its format."""


class NumericError(TrackingError, ArithmeticError):
    """A numeric computation produced non-finite or inconsistent values."""


def _finite_real(v) -> bool:
    if isinstance(v, (bool, np.bool_)) or not isinstance(v, numbers.Real):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:  # an int beyond float range
        return False


def check_field_types(obj) -> None:
    """Raise InvalidInputError for a value of the wrong kind in a field of
    dataclass instance ``obj``: an ``int`` field takes an int, never a bool
    or a float; a ``bool`` field takes a bool; a ``float`` field (``float |
    None`` also takes None) takes a finite real that is not a bool; a
    ``tuple[float, float]`` field takes a pair of finite reals."""
    for f in fields(obj):
        v = getattr(obj, f.name)
        what = f"{type(obj).__name__}.{f.name}"
        if f.type in ("int", int) and (isinstance(v, (bool, np.bool_)) or not isinstance(v, numbers.Integral)):
            raise InvalidInputError(f"{what} must be an integer, got {v!r}")
        if f.type in ("bool", bool) and not isinstance(v, (bool, np.bool_)):
            raise InvalidInputError(f"{what} must be true or false, got {v!r}")
        if f.type in ("float", float) or (f.type == "float | None" and v is not None):
            if not _finite_real(v):
                raise InvalidInputError(f"{what} must be a finite number, got {v!r}")
        if f.type == "tuple[float, float]" and not (isinstance(v, tuple) and len(v) == 2 and all(map(_finite_real, v))):
            raise InvalidInputError(f"{what} must be a pair of finite numbers, got {v!r}")


def check_boxes(boxes: np.ndarray, what: str) -> None:
    """Refuse (N, 4) boxes with a non-finite component or an extent <= 0."""
    if not np.isfinite(boxes).all():
        raise InvalidInputError(f"{what}: non-finite box component")
    if (boxes[:, 2:] <= 0).any():
        raise DegenerateBoxError(f"{what}: box extent must be positive")


_INF = math.inf


@dataclass(frozen=True, slots=True)
class BoundingBox:
    """Axis-aligned box as (center x, center y, width, height)."""

    cx: float
    cy: float
    w: float
    h: float
    units: str = "px"

    def __post_init__(self) -> None:
        # one chained test passes every valid box (NaN fails each comparison);
        # the checks below only run to name what is wrong
        if -_INF < self.cx < _INF and -_INF < self.cy < _INF and 0 < self.w < _INF and 0 < self.h < _INF \
                and self.units in UNIT_MODES:
            return
        for v in (self.cx, self.cy, self.w, self.h):
            if not math.isfinite(v):
                raise InvalidInputError(f"BoundingBox: non-finite component {v!r}")
        if self.w <= 0 or self.h <= 0:
            raise DegenerateBoxError(f"box extent must be positive, got w={self.w}, h={self.h}")
        raise InvalidInputError(f"unknown unit mode {self.units!r}")

    def as_array(self) -> np.ndarray:
        return np.array([self.cx, self.cy, self.w, self.h], dtype=np.float64)


@dataclass(frozen=True, slots=True)
class Detection:
    frame: int
    box: BoundingBox
    confidence: float

    def __post_init__(self) -> None:
        if self.frame < 1:
            raise InvalidInputError(f"frame index must be >= 1, got {self.frame}")
        if not (0.0 <= self.confidence <= 1.0) or not math.isfinite(self.confidence):
            raise InvalidInputError(f"confidence must lie in [0, 1], got {self.confidence}")


@dataclass(frozen=True, slots=True)
class MotRecord:
    """One MOT row as an object, for callers that read rows one by one."""

    frame: int
    track_id: int
    box: BoundingBox
    conf: float = 1.0


def _int_column(values, name: str) -> np.ndarray:
    column = np.asarray(values)
    if column.size and column.dtype.kind not in "iu":
        raise InvalidInputError(f"{name} must be integers, got {column.dtype}")
    return column.astype(np.int64, copy=False).reshape(-1)


class MotTable:
    """MOT rows as columns: ``frame`` and ``track_id`` (N,) int64, ``boxes``
    (N, 4) center-format float64, ``conf`` (N,) float64, all boxes in one
    unit mode. Rows are sorted stably by frame. The constructor validates
    every row as ``MotRecord``/``BoundingBox``/``Detection`` would: frames
    >= 1, finite boxes with positive extent, confidences in [0, 1].

    ``len`` counts rows, slicing and index arrays select rows, and iteration
    yields ``MotRecord`` objects for callers that read rows one by one.
    """

    __slots__ = ("frame", "track_id", "boxes", "conf", "units")

    def __init__(self, frame, track_id, boxes, conf, units: str = "px"):
        frame, track_id = _int_column(frame, "MotTable: frame"), _int_column(track_id, "MotTable: track_id")
        boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
        conf = np.asarray(conf, dtype=np.float64)
        conf = np.full(frame.shape, conf) if conf.ndim == 0 else conf.reshape(-1)
        if not (len(track_id) == len(boxes) == len(conf) == len(frame)):
            raise InvalidInputError(
                f"MotTable: columns differ in length ({len(frame)} frames, {len(track_id)} ids, "
                f"{len(boxes)} boxes, {len(conf)} confidences)"
            )
        if units not in UNIT_MODES:
            raise InvalidInputError(f"unknown unit mode {units!r}")
        if frame.size and frame.min() < 1:
            raise InvalidInputError(f"frame index must be >= 1, got {frame.min()}")
        check_boxes(boxes, "MotTable")
        if not ((conf >= 0.0) & (conf <= 1.0)).all():
            raise InvalidInputError("MotTable: confidence must lie in [0, 1]")
        if (frame[1:] < frame[:-1]).any():
            order = np.argsort(frame, kind="stable")
            frame, track_id, boxes, conf = frame[order], track_id[order], boxes[order], conf[order]
        self.frame, self.track_id, self.boxes, self.conf, self.units = frame, track_id, boxes, conf, units

    @classmethod
    def of(cls, records) -> "MotTable":
        """``records`` as a table: a table is returned as it is, a sequence
        of ``MotRecord`` with boxes of one unit mode is converted once (no
        records give an empty pixel table)."""
        if isinstance(records, cls):
            return records
        records = list(records)
        units = {r.box.units for r in records}
        if len(units) > 1:
            raise UnitMismatchError(f"boxes mix unit modes {sorted(units)}")
        return cls([r.frame for r in records], [r.track_id for r in records], stack_boxes(r.box for r in records),
                   [r.conf for r in records], units.pop() if units else "px")

    @classmethod
    def concat(cls, tables: Iterable[MotTable]) -> MotTable:
        """The rows of ``tables``, whose non-empty ones share one unit mode."""
        return cls.from_parts((t.frame, t.track_id, t.boxes, t.conf, t.units) for t in tables)

    @classmethod
    def from_parts(cls, parts: Iterable[tuple]) -> MotTable:
        """One table of the rows of ``parts``, each a ``(frame, track_id,
        boxes, conf, units)`` tuple of row columns and their unit mode: the
        columns concatenated and validated once. Parts without rows add no
        unit mode, the others must share one; with no rows at all the table
        is an empty pixel table."""
        parts = [p for p in parts if len(p[0])]
        units = {p[4] for p in parts}
        if len(units) > 1:
            raise UnitMismatchError(f"rows mix unit modes {sorted(units)}")
        if not parts:
            return cls([], [], [], [])
        return cls(*(np.concatenate([p[c] for p in parts]) for c in range(4)), units.pop())

    def __len__(self) -> int:
        return len(self.frame)

    def __getitem__(self, rows) -> "MotTable":
        columns = (self.frame[rows], self.track_id[rows], self.boxes[rows], self.conf[rows], self.units)
        if not isinstance(rows, slice) or (rows.step or 1) < 0:
            return MotTable(*columns)
        part = object.__new__(MotTable)  # a forward slice: its rows are checked and in frame order
        part.frame, part.track_id, part.boxes, part.conf, part.units = columns
        return part

    def __iter__(self):
        units = self.units
        columns = (self.frame.tolist(), self.track_id.tolist(), self.boxes.tolist(), self.conf.tolist())
        for frame, track_id, box, conf in zip(*columns):
            yield MotRecord(frame, track_id, BoundingBox(*box, units), conf)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """One object's ``frames`` (L,) int64 and center-format ``boxes`` (L, 4)
    float64 in one unit mode. Sequences (of frames, of box rows) become these
    arrays, checked once: strictly ascending frames, finite boxes, positive
    extents, a known mode."""

    track_id: int
    frames: np.ndarray
    boxes: np.ndarray
    units: str = "px"

    def __post_init__(self) -> None:
        frames = _int_column(self.frames, "Trajectory: frames")
        if (bad := np.flatnonzero(frames[1:] <= frames[:-1])).size:
            raise InvalidInputError(f"Trajectory {self.track_id}: frame {frames[bad[0] + 1]} after frame "
                                    f"{frames[bad[0]]}; frames must strictly increase")
        boxes = np.asarray(self.boxes, dtype=np.float64).reshape(len(frames), 4)
        check_boxes(boxes, "Trajectory")
        if self.units not in UNIT_MODES:
            raise InvalidInputError(f"unknown unit mode {self.units!r}")
        object.__setattr__(self, "frames", frames)
        object.__setattr__(self, "boxes", boxes)

    def __len__(self) -> int:
        return len(self.frames)

    def motion_spans(self) -> list[np.ndarray]:
        """The boxes of each run of consecutive frames that holds at least
        two boxes: the spans over which one-frame motions are defined, so
        none crosses a gap."""
        return [self.boxes[s:e] for s, e in runs(self.frames - np.arange(len(self.frames))) if e - s >= 2]


def runs(keys: np.ndarray) -> list[tuple[int, int]]:
    """(start, end) of each run of equal values in the 1-d ``keys``."""
    if not len(keys):
        return []
    bounds = [0, *(np.flatnonzero(keys[1:] != keys[:-1]) + 1).tolist(), len(keys)]
    return list(zip(bounds[:-1], bounds[1:]))


def stack_boxes(boxes) -> np.ndarray:
    """A sequence of boxes as one (N, 4) array; units are dropped."""
    boxes = list(boxes)
    # one list per column builds several times faster than one tuple per box
    return np.array([[b.cx for b in boxes], [b.cy for b in boxes], [b.w for b in boxes], [b.h for b in boxes]]).T.copy()


def _iou_broadcast(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """IoU of center-format boxes given coordinate-first, as (4, ...)
    arrays, broadcasting the rest."""
    a_half, b_half = a[2:] / 2, b[2:] / 2
    # (x, y) overlap extents; np.maximum/np.minimum, not np.clip: the same
    # values at a fraction of the call overhead on few-box frames
    ext = np.minimum(a[:2] + a_half, b[:2] + b_half) - np.maximum(a[:2] - a_half, b[:2] - b_half)
    ext = np.maximum(ext, 0.0)
    inter = ext[0] * ext[1]
    union = a[2] * a[3] + b[2] * b[3] - inter
    return np.minimum(np.maximum(inter / union, 0.0), 1.0)


def iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise IoU between two arrays of center-format boxes.

    a: (N, 4), b: (M, 4) -> (N, M). Units are the caller's responsibility.
    """
    a = np.asarray(a, dtype=np.float64).reshape(-1, 4)
    b = np.asarray(b, dtype=np.float64).reshape(-1, 4)
    if a.shape[0] == 0 or b.shape[0] == 0:
        return np.zeros((a.shape[0], b.shape[0]))
    # contiguous coordinate rows keep the (2, N, M) broadcasts fast on large matrices
    return _iou_broadcast(np.ascontiguousarray(a.T)[:, :, None], np.ascontiguousarray(b.T)[:, None, :])


def iou_pairs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-by-row IoU of two (N, 4) arrays of center-format boxes;
    identical boxes give exactly 1."""
    return np.where((a == b).all(axis=1), 1.0, _iou_broadcast(a.T, b.T))
