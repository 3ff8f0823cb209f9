"""Center-format box geometry: the box and detection types, the columnar
table of MOT rows, IoU and unit conversions.

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


def check_field_types(obj) -> None:
    """Raise InvalidInputError for a value of the wrong kind in a field of
    dataclass instance ``obj`` annotated ``int`` or ``bool``: an int field
    takes an int, never a bool or a float; a bool field takes a bool."""
    for f in fields(obj):
        v = getattr(obj, f.name)
        if f.type in ("int", int) and (isinstance(v, (bool, np.bool_)) or not isinstance(v, numbers.Integral)):
            raise InvalidInputError(f"{type(obj).__name__}.{f.name} must be an integer, got {v!r}")
        if f.type in ("bool", bool) and not isinstance(v, (bool, np.bool_)):
            raise InvalidInputError(f"{type(obj).__name__}.{f.name} must be true or false, got {v!r}")


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
        raise InvalidInputError(f"MotTable: {name} must be integers, got {column.dtype}")
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
        frame, track_id = _int_column(frame, "frame"), _int_column(track_id, "track_id")
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
        if not np.isfinite(boxes).all():
            raise InvalidInputError("MotTable: non-finite box component")
        if (boxes[:, 2:] <= 0).any():
            raise DegenerateBoxError("MotTable: box extent must be positive")
        if not ((conf >= 0.0) & (conf <= 1.0)).all():
            raise InvalidInputError("MotTable: confidence must lie in [0, 1]")
        if (frame[1:] < frame[:-1]).any():
            order = np.argsort(frame, kind="stable")
            frame, track_id, boxes, conf = frame[order], track_id[order], boxes[order], conf[order]
        self.frame, self.track_id, self.boxes, self.conf, self.units = frame, track_id, boxes, conf, units

    @classmethod
    def from_boxes(cls, frame, track_id, boxes, conf) -> "MotTable":
        """A table from columns whose boxes are ``BoundingBox`` objects of
        one unit mode (no boxes give an empty pixel table)."""
        boxes = list(boxes)
        units = {b.units for b in boxes}
        if len(units) > 1:
            raise UnitMismatchError(f"boxes mix unit modes {sorted(units)}")
        return cls(frame, track_id, stack_boxes(boxes).reshape(-1, 4), conf, units.pop() if units else "px")

    @classmethod
    def of(cls, records) -> "MotTable":
        """``records`` as a table: a table is returned as it is, a sequence
        of ``MotRecord`` is converted once."""
        if isinstance(records, cls):
            return records
        records = list(records)
        return cls.from_boxes([r.frame for r in records], [r.track_id for r in records],
                              [r.box for r in records], [r.conf for r in records])

    def __len__(self) -> int:
        return len(self.frame)

    def __getitem__(self, rows) -> "MotTable":
        return MotTable(self.frame[rows], self.track_id[rows], self.boxes[rows], self.conf[rows], self.units)

    def __iter__(self):
        units = self.units
        columns = (self.frame.tolist(), self.track_id.tolist(), self.boxes.tolist(), self.conf.tolist())
        for frame, track_id, box, conf in zip(*columns):
            yield MotRecord(frame, track_id, BoundingBox(*box, units), conf)


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


def tlwh_to_center(left: float, top: float, w: float, h: float, units: str = "px") -> BoundingBox:
    """MOT files carry (left, top, w, h); the math here is center-format."""
    if w <= 0 or h <= 0:
        raise InvalidInputError(f"tlwh box needs positive extent, got w={w}, h={h}")
    return BoundingBox(left + w / 2, top + h / 2, w, h, units)


def center_to_tlwh(box: BoundingBox) -> tuple[float, float, float, float]:
    return (box.cx - box.w / 2, box.cy - box.h / 2, box.w, box.h)


def normalize_box(box: BoundingBox, width: float, height: float, clamp: bool = True) -> BoundingBox:
    """Pixel box -> image-relative box. Centers are clamped into [0, 1] on ingest."""
    if box.units != "px":
        raise UnitMismatchError("normalize_box expects a pixel box")
    if width <= 0 or height <= 0:
        raise InvalidInputError("frame dimensions must be positive")
    cx, cy = box.cx / width, box.cy / height
    if clamp:
        cx, cy = min(max(cx, 0.0), 1.0), min(max(cy, 0.0), 1.0)
    return BoundingBox(cx, cy, box.w / width, box.h / height, "norm")


def denormalize_box(box: BoundingBox, width: float, height: float) -> BoundingBox:
    if box.units != "norm":
        raise UnitMismatchError("denormalize_box expects a normalized box")
    return BoundingBox(box.cx * width, box.cy * height, box.w * width, box.h * height, "px")
