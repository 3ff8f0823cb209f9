"""Center-format box geometry and frame-to-frame motion arithmetic.

Everything downstream (prediction, association, metrics) is built on these
types. Boxes exist in two unit modes: raw pixels ("px") or image-relative
("norm", coordinates divided by frame width/height). Binary operations on
boxes refuse to mix modes; mixing is always a caller bug.

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


def _require_finite(name: str, *values: float) -> None:
    for v in values:
        if not math.isfinite(v):
            raise InvalidInputError(f"{name}: non-finite component {v!r}")


@dataclass(frozen=True, slots=True)
class BoundingBox:
    """Axis-aligned box as (center x, center y, width, height)."""

    cx: float
    cy: float
    w: float
    h: float
    units: str = "px"

    def __post_init__(self) -> None:
        _require_finite("BoundingBox", self.cx, self.cy, self.w, self.h)
        if self.w <= 0 or self.h <= 0:
            raise DegenerateBoxError(f"box extent must be positive, got w={self.w}, h={self.h}")
        if self.units not in UNIT_MODES:
            raise InvalidInputError(f"unknown unit mode {self.units!r}")

    def as_array(self) -> np.ndarray:
        return np.array([self.cx, self.cy, self.w, self.h], dtype=np.float64)


@dataclass(frozen=True, slots=True)
class Motion:
    """Per-frame box delta; components may be negative."""

    dcx: float
    dcy: float
    dw: float
    dh: float

    def __post_init__(self) -> None:
        _require_finite("Motion", self.dcx, self.dcy, self.dw, self.dh)

    def as_array(self) -> np.ndarray:
        return np.array([self.dcx, self.dcy, self.dw, self.dh], dtype=np.float64)

    @staticmethod
    def zero() -> "Motion":
        return Motion(0.0, 0.0, 0.0, 0.0)


@dataclass(frozen=True, slots=True)
class MotionInfo:
    """A box together with the motion that produced it: the 8-vector
    (cx, cy, w, h, dcx, dcy, dw, dh) consumed by the condition encoder."""

    box: BoundingBox
    motion: Motion

    def as_array(self) -> np.ndarray:
        return np.concatenate([self.box.as_array(), self.motion.as_array()])


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


def _check_units(a: BoundingBox, b: BoundingBox, op: str) -> None:
    if a.units != b.units:
        raise UnitMismatchError(f"{op}: unit modes differ ({a.units} vs {b.units})")


def motion_from_boxes(prev: BoundingBox, curr: BoundingBox) -> Motion:
    """Componentwise curr - prev."""
    _check_units(prev, curr, "motion_from_boxes")
    return Motion(curr.cx - prev.cx, curr.cy - prev.cy, curr.w - prev.w, curr.h - prev.h)


def apply_motion(box: BoundingBox, m: Motion) -> BoundingBox:
    """Componentwise box + m; exact inverse of motion_from_boxes.

    Raises DegenerateBoxError when the shifted extent would be <= 0.
    """
    w = box.w + m.dw
    h = box.h + m.dh
    if w <= 0 or h <= 0:
        raise DegenerateBoxError(f"applying motion yields non-positive extent (w={w}, h={h})")
    return BoundingBox(box.cx + m.dcx, box.cy + m.dcy, w, h, box.units)


def iou(a: BoundingBox, b: BoundingBox) -> float:
    """Intersection over union in [0, 1]; 0 for disjoint or edge-touching boxes."""
    _check_units(a, b, "iou")
    if a == b:
        return 1.0
    ix = min(a.cx + a.w / 2, b.cx + b.w / 2) - max(a.cx - a.w / 2, b.cx - b.w / 2)
    iy = min(a.cy + a.h / 2, b.cy + b.h / 2) - max(a.cy - a.h / 2, b.cy - b.h / 2)
    if ix <= 0 or iy <= 0:
        return 0.0
    inter = ix * iy
    union = a.w * a.h + b.w * b.h - inter
    return min(max(inter / union, 0.0), 1.0)  # rounding can overshoot by an ulp


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
    """Row-by-row IoU of two (N, 4) arrays of center-format boxes, equal
    to ``iou`` on each pair (identical boxes give exactly 1)."""
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
