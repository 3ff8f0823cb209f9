"""File formats and data generation.

Covers the MOT-Challenge CSV convention
(``frame,id,bb_left,bb_top,bb_width,bb_height,conf,x,y,z``, id -1 for
detections), a JSON metadata sidecar, a deterministic synthetic-scene
generator with five motion programs, training-set assembly, and the
binary model container ("D2MP" magic, version, JSON header holding the
architecture config, then every parameter as little-endian float32 in
``hminet.parameter_shapes`` order: the config alone fixes the layout).

MOT text is read and written as columns: ``parse_mot`` converts and checks
whole columns into one ``MotTable`` (and maps a refused row back to its
line number), ``detections_by_frame`` slices the frame-sorted table at its
frame boundaries, and ``write_mot`` formats sorted columns. Lists of
``MotRecord`` are accepted and converted once. Trajectories are arrays too,
and a synthetic scene's detections are one table sliced per frame, so no
box object is built between a scene and its score.
"""
from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, asdict
from typing import Iterable, Sequence

import numpy as np

from .core import (
    FormatError,
    InvalidInputError,
    MotRecord,
    MotTable,
    Trajectory,
    check_field_types,
    runs,
)
from .diffusion import TrainingSet
from .hminet import HMINet, ModelConfig, apply_condition_variant, check_parameters, parameter_shapes
from .predictors import build_condition_window, trajectory_windows

MOTION_PROGRAMS = ("linear", "sinusoidal", "circular", "accelerate", "direction_flip")
MAX_FP_RATE = 1000.0  # false positives per frame
MAX_PERIOD = 1e6  # frames
MAX_OBJECT_COUNT = 1000
MAX_LENGTH = 10_000  # frames


@dataclass(frozen=True)
class SequenceMeta:
    frame_count: int
    width: int
    height: int
    frame_rate: int = 30

    def __post_init__(self) -> None:
        check_field_types(self)
        if min(self.frame_count, self.width, self.height, self.frame_rate) <= 0:
            raise InvalidInputError("sequence metadata fields must be positive")

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2) + "\n"

    def box_scale(self) -> np.ndarray:
        """(4,) factors that take normalized center-format boxes to pixels."""
        return np.array([self.width, self.height, self.width, self.height], dtype=np.float64)

    @classmethod
    def from_json(cls, text: str) -> "SequenceMeta":
        """The metadata in a JSON sidecar; its values are taken as given, so
        a field that is not a positive integer is a FormatError."""
        try:
            d = json.loads(text)
            return cls(d["frame_count"], d["width"], d["height"], d.get("frame_rate", 30))
        except (KeyError, TypeError, ValueError) as e:
            raise FormatError(f"bad sequence metadata: {e}") from e


@dataclass
class ParseResult:
    records: MotTable
    skipped: int = 0  # lines dropped for non-positive extent


# ---------------------------------------------------------------------------
# MOT text format


def _convert(column: Sequence[str], convert, dtype) -> tuple[np.ndarray, str | None]:
    """``convert`` (``int`` or ``float``) over a column of strings, as
    ``dtype``: the values up to the first string it rejects, and why it
    rejects that string (None if it takes them all)."""
    try:
        return np.fromiter(map(convert, column), dtype, len(column)), None
    except (ValueError, OverflowError):
        for bad, text in enumerate(column):
            try:
                dtype(convert(text))
            except (ValueError, OverflowError) as e:
                why = str(e) if isinstance(e, ValueError) else "an integer field is outside the int64 range"
                return np.fromiter(map(convert, column[:bad]), dtype, bad), why
        raise


def _refusal(frame: int, conf: float, left: float, top: float, w: float, h: float) -> str:
    """Why the column checks refused a converted row: the first check it
    fails, in the order its fields are read."""
    if frame < 1:
        return f"frame index must be >= 1, got {frame}"
    if math.isnan(conf):
        return "confidence is NaN"
    with np.errstate(over="ignore"):
        if not np.isfinite([left + w / 2, top + h / 2, w, h]).all():
            return f"box (left, top, w, h) = ({left}, {top}, {w}, {h}) is not finite"
    return f"box extent {w} x {h} underflows to 0 in normalized units"


def parse_mot(text: str | Iterable[str], meta: SequenceMeta | None = None, normalized: bool = False) -> ParseResult:
    """Parse MOT CSV lines into one table sorted by frame.

    ``normalized`` converts boxes to image-relative units (requires meta);
    centers are clamped into [0, 1] on the way in. Confidences are clamped
    into [0, 1]. Lines with w or h <= 0 are skipped and counted; anything
    else malformed (fewer than 7 fields, a field ``int``/``float`` rejects or
    an id beyond int64, frame < 1, a NaN confidence, a non-finite box)
    raises FormatError naming its line number. Every check runs on whole
    columns, and the first refused row is named from their results.
    """
    if normalized and meta is None:
        raise InvalidInputError("normalized parsing needs sequence metadata")
    lines = [line.strip() for line in (text.splitlines() if isinstance(text, str) else text)]
    rows = [line.split(",", 7) for line in lines if line]
    # rows before the first short or unconvertible one (and why it is refused); checked as columns
    end, reason = len(rows), None
    if rows and min(map(len, rows)) < 7:
        end = [len(fields) < 7 for fields in rows].index(True)
        reason = f"expected at least 7 comma-separated fields, got {len(rows[end])}"
    columns = list(zip(*rows[:end]))[:7] or [()] * 7
    values = []
    for i, column in enumerate(columns):
        value, why = _convert(column[:end], int if i < 2 else float, np.int64 if i < 2 else np.float64)
        if why is not None:
            end, reason = len(value), why
        values.append(value)
    frame, track_id, left, top, w, h, conf = (v[:end] for v in values)

    with np.errstate(over="ignore", invalid="ignore"):  # non-finite rows are refused below
        boxes = np.stack([left + w / 2, top + h / 2, w, h], axis=1)
        valid = np.isfinite(boxes).all(axis=1)
        if normalized:
            boxes = boxes / meta.box_scale()
            boxes[:, :2] = np.minimum(np.maximum(boxes[:, :2], 0.0), 1.0)
            valid &= (boxes[:, 2:] > 0).all(axis=1)  # an extent can underflow to 0
    refused = (frame < 1) | np.isnan(conf)
    skip = ~refused & ((w <= 0) | (h <= 0))
    refused |= ~skip & ~valid
    if refused.any() or reason is not None:
        bad = int(np.argmax(refused)) if refused.any() else end
        lineno = [n for n, line in enumerate(lines, start=1) if line][bad]
        if bad < end:
            reason = _refusal(frame[bad], conf[bad], left[bad], top[bad], w[bad], h[bad])
        raise FormatError(f"line {lineno}: {reason}")
    keep = ~skip
    table = MotTable(frame[keep], track_id[keep], boxes[keep], np.minimum(np.maximum(conf[keep], 0.0), 1.0),
                     "norm" if normalized else "px")
    return ParseResult(table, int(skip.sum()))


_MOT_LINE = "%d,%d,%.2f,%.2f,%.2f,%.2f,%.2f,-1,-1,-1\n"


def write_mot(records: MotTable | Sequence[MotRecord], meta: SequenceMeta | None = None) -> str:
    """Canonical MOT text: sorted by (frame, id), reals with two decimals
    (a value that rounds to zero is written ``0.00``, never ``-0.00``),
    world coordinates -1. Normalized boxes are written back in pixels."""
    table = MotTable.of(records)
    boxes = table.boxes
    if table.units == "norm":
        if meta is None:
            raise InvalidInputError("normalized records need metadata to be written in pixels")
        boxes = boxes * meta.box_scale()
    order = np.lexsort((table.track_id, table.frame))
    boxes = boxes[order]
    left_top = boxes[:, :2] - boxes[:, 2:] / 2
    columns = (table.frame[order], table.track_id[order], left_top[:, 0], left_top[:, 1], boxes[:, 2], boxes[:, 3],
               table.conf[order])
    text = "".join(_MOT_LINE % row for row in zip(*(c.tolist() for c in columns)))
    return text.replace(",-0.00", ",0.00")


def detections_by_frame(records: MotTable | Sequence[MotRecord]) -> dict[int, MotTable]:
    """Each frame's rows as one table (a slice of the frame-sorted table),
    keyed by frame in ascending order."""
    table = MotTable.of(records)
    return {int(table.frame[s]): table[s:e] for s, e in runs(table.frame)}


def trajectories_from_records(records: MotTable | Sequence[MotRecord]) -> list[Trajectory]:
    """One trajectory per track id, in ascending id order, each sorted by
    frame (rows of one frame keep their order)."""
    table = MotTable.of(records)
    order = np.lexsort((table.frame, table.track_id))
    ids, frames, boxes = table.track_id[order], table.frame[order], table.boxes[order]
    return [Trajectory(int(ids[s]), frames[s:e], boxes[s:e], table.units) for s, e in runs(ids)]


def records_from_trajectories(trajectories: Sequence[Trajectory]) -> MotTable:
    """Every trajectory's rows as one table, confidence 1."""
    return MotTable.concat([MotTable(t.frames, np.full(len(t), t.track_id), t.boxes, 1.0, t.units)
                            for t in trajectories])


# ---------------------------------------------------------------------------
# synthetic scenes


@dataclass(frozen=True)
class SyntheticSpec:
    """One sequence: ``object_count`` objects all running ``program``.

    The noise model derives detections from ground truth: additive N(0,
    jitter_sigma) on every box component, Bernoulli(drop_prob) misses,
    Poisson(fp_rate) false positives per frame, and uniform confidences
    from conf_range (fp_conf_range for false positives).
    """

    program: str = "linear"
    object_count: int = 3
    length: int = 100
    amplitude: float = 0.12
    period: float = 24.0
    speed: float = 0.004
    box_min: float = 0.08
    box_max: float = 0.14
    jitter_sigma: float = 0.0
    drop_prob: float = 0.0
    fp_rate: float = 0.0
    conf_range: tuple[float, float] = (1.0, 1.0)
    fp_conf_range: tuple[float, float] = (0.45, 0.75)
    width: int = 1000
    height: int = 1000
    frame_rate: int = 30

    def __post_init__(self) -> None:
        check_field_types(self)
        if self.program not in MOTION_PROGRAMS:
            raise InvalidInputError(f"program must be one of {MOTION_PROGRAMS}, got {self.program!r}")
        if not (1 <= self.object_count <= MAX_OBJECT_COUNT and 2 <= self.length <= MAX_LENGTH):
            raise InvalidInputError(f"need object_count in [1, {MAX_OBJECT_COUNT}] and length in [2, {MAX_LENGTH}], "
                                    f"got {self.object_count} and {self.length}")
        if not (0.0 <= self.drop_prob <= 1.0):
            raise InvalidInputError("drop_prob must lie in [0, 1]")
        if not (0 <= self.fp_rate <= MAX_FP_RATE) or self.jitter_sigma < 0:
            raise InvalidInputError(f"fp_rate must lie in [0, {MAX_FP_RATE:g}] and jitter_sigma must be >= 0")
        for lo, hi in (self.conf_range, self.fp_conf_range):
            if not (0.0 <= lo <= hi <= 1.0):
                raise InvalidInputError("confidence ranges must satisfy 0 <= lo <= hi <= 1")
        if not (0.0 < self.box_min <= self.box_max < 0.5):
            raise InvalidInputError("box size range must satisfy 0 < box_min <= box_max < 0.5")
        if self.amplitude <= 0 or not (1 < self.period <= MAX_PERIOD) or self.speed <= 0:
            raise InvalidInputError(f"amplitude and speed must be positive and period lie in (1, {MAX_PERIOD:g}]")


@dataclass
class SynthResult:
    """Normalized ground truth, and each frame's detections as a slice of one table."""

    trajectories: list[Trajectory]
    detections: dict[int, MotTable | list[MotRecord]]
    meta: SequenceMeta


def _start_interval(lo: float, hi: float, disp: np.ndarray) -> tuple[float, float]:
    """Interval of start positions keeping start+disp within [lo, hi]."""
    return lo - min(0.0, float(disp.min())), hi - max(0.0, float(disp.max()))


def _sample_start(rng: np.random.Generator, lo: float, hi: float, disp: np.ndarray) -> float:
    a, b = _start_interval(lo, hi, disp)
    if a > b:
        raise InvalidInputError("motion program does not fit inside the frame; lower speed or amplitude")
    return float(rng.uniform(a, b))


def _program_centers(spec: SyntheticSpec, rng: np.random.Generator, half_w: float, half_h: float):
    """Center coordinates cx(f), cy(f) for f = 1..length, all in bounds."""
    l = spec.length
    f = np.arange(1, l + 1, dtype=np.float64)
    lo_x, hi_x = half_w + 0.01, 1.0 - half_w - 0.01
    lo_y, hi_y = half_h + 0.01, 1.0 - half_h - 0.01

    if spec.program == "linear":
        speed = spec.speed * rng.uniform(0.6, 1.0)
        theta = rng.uniform(0.0, 2.0 * math.pi)
        dx = np.cos(theta) * speed * (f - 1)
        dy = np.sin(theta) * speed * (f - 1)
    elif spec.program == "sinusoidal":
        # exactly cy(f) = cy0 + A sin(2 pi f / P); drift only along x
        speed = spec.speed * rng.uniform(0.6, 1.0) * rng.choice([-1.0, 1.0])
        dx = speed * (f - 1)
        dy = spec.amplitude * np.sin(2.0 * math.pi * f / spec.period)
    elif spec.program == "circular":
        phase = rng.uniform(0.0, 2.0 * math.pi)
        dx = spec.amplitude * np.cos(2.0 * math.pi * f / spec.period + phase)
        dy = spec.amplitude * np.sin(2.0 * math.pi * f / spec.period + phase)
    elif spec.program == "accelerate":
        # smooth speed modulation along a fixed heading
        phase = rng.uniform(0.0, 2.0 * math.pi)
        theta = rng.uniform(0.0, 2.0 * math.pi)
        s = spec.speed * (1.0 + 0.8 * np.sin(2.0 * math.pi * f / spec.period + phase))
        path = np.cumsum(s)
        dx, dy = np.cos(theta) * path, np.sin(theta) * path
    else:  # direction_flip
        theta = rng.uniform(0.0, 2.0 * math.pi)
        speed = spec.speed * rng.uniform(0.7, 1.0)
        offset = int(rng.integers(0, int(spec.period)))
        sign = np.where(((np.arange(l) + offset) // int(spec.period)) % 2 == 0, 1.0, -1.0)
        path = np.cumsum(sign * speed)
        dx, dy = np.cos(theta) * path, np.sin(theta) * path

    # shrink too-wide excursions instead of failing, then place the start
    for d, lo, hi in ((dx, lo_x, hi_x), (dy, lo_y, hi_y)):
        span = d.max() - d.min()
        room = (hi - lo) * 0.95
        if span > room:
            d *= room / span
    cx0 = _sample_start(rng, lo_x, hi_x, dx)
    cy0 = _sample_start(rng, lo_y, hi_y, dy)
    return cx0 + dx, cy0 + dy


def synth_sequence(spec: SyntheticSpec, seed: int) -> SynthResult:
    """Deterministic scene: ground truth stays inside the frame; detections
    carry the requested jitter/drop/false-positive noise."""
    if seed < 0:
        raise InvalidInputError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    meta = SequenceMeta(spec.length, spec.width, spec.height, spec.frame_rate)
    frames, trajectories = np.arange(1, spec.length + 1), []
    for obj in range(spec.object_count):
        w = float(rng.uniform(spec.box_min, spec.box_max))
        h = float(rng.uniform(spec.box_min, spec.box_max))
        cx, cy = _program_centers(spec, rng, w / 2, h / 2)
        boxes = np.column_stack([cx, cy, np.full_like(cx, w), np.full_like(cx, h)])
        trajectories.append(Trajectory(obj + 1, frames, boxes, "norm"))

    # one (frame, cx, cy, w, h, confidence) row per detection, in the order of the draws
    rows, gt_rows = [], [t.boxes.tolist() for t in trajectories]
    for frame in frames.tolist():
        for obj in range(spec.object_count):
            if spec.drop_prob > 0.0 and rng.uniform() < spec.drop_prob:
                continue
            cx, cy, w, h = gt_rows[obj][frame - 1]
            if spec.jitter_sigma > 0.0:
                dx, dy, dw, dh = rng.normal(0.0, spec.jitter_sigma, size=4).tolist()
                cx, cy = min(max(cx + dx, 0.0), 1.0), min(max(cy + dy, 0.0), 1.0)
                w, h = max(w + dw, 0.01), max(h + dh, 0.01)
            rows.append((frame, cx, cy, w, h, rng.uniform(*spec.conf_range)))
        for _ in range(int(rng.poisson(spec.fp_rate)) if spec.fp_rate > 0 else 0):
            w = rng.uniform(spec.box_min, spec.box_max)
            h = rng.uniform(spec.box_min, spec.box_max)
            cx, cy = rng.uniform(w / 2, 1 - w / 2), rng.uniform(h / 2, 1 - h / 2)
            rows.append((frame, cx, cy, w, h, rng.uniform(*spec.fp_conf_range)))
    rows = np.reshape(rows, (-1, 6))
    table = MotTable(rows[:, 0].astype(np.int64), np.full(len(rows), -1), rows[:, 1:5], rows[:, 5], "norm")
    bounds = np.searchsorted(table.frame, np.arange(1, spec.length + 2)).tolist()
    return SynthResult(trajectories, {f: table[bounds[f - 1] : bounds[f]] for f in frames.tolist()}, meta)


def detection_records(result: SynthResult) -> MotTable:
    """Every frame's detections (each through ``MotTable.of``) as one table."""
    return MotTable.concat([MotTable.of(result.detections[f]) for f in sorted(result.detections)])


# ---------------------------------------------------------------------------
# training data


def build_training_set(trajectories: Sequence[Trajectory], n: int, condition_variant: str = "I") -> TrainingSet:
    """One sample per frame f of a trajectory whose previous frame is also
    observed: the window of the last n (box, motion) rows before f and the
    target motion into f, all within f's run of consecutive frames (a
    ground-truth gap starts a new run)."""
    conditions, targets = [], []
    for traj in trajectories:
        for boxes in traj.motion_spans():
            conditions.append(build_condition_window(trajectory_windows(boxes, n)))
            targets.append(np.diff(boxes, axis=0))
    if not conditions:
        raise InvalidInputError("no training samples; trajectories need at least 2 consecutive frames")
    return TrainingSet(apply_condition_variant(np.concatenate(conditions), condition_variant), np.concatenate(targets))


# ---------------------------------------------------------------------------
# model container

MODEL_MAGIC = b"D2MP"
MODEL_VERSION = 3


def save_model(params: dict, config: ModelConfig) -> bytes:
    """Serialize parameters plus config into the binary container: the
    float32 tensors concatenated in ``parameter_shapes(config)`` order.
    Accepts Tensors or plain arrays; their names and shapes must be those
    of the config."""
    check_parameters(config, params)
    header = json.dumps({"config": asdict(config)}, sort_keys=True, separators=(",", ":")).encode()
    payload = b"".join(np.asarray(getattr(params[name], "value", params[name]), dtype="<f4").tobytes()
                       for name in parameter_shapes(config))
    return MODEL_MAGIC + struct.pack("<II", MODEL_VERSION, len(header)) + header + payload


def load_model(data: bytes) -> tuple[dict[str, np.ndarray], ModelConfig]:
    """Parse and validate the container; arrays come back as float64."""
    if len(data) < 12 or data[:4] != MODEL_MAGIC:
        raise FormatError("not a model file (bad magic)")
    version, header_len = struct.unpack("<II", data[4:12])
    if version != MODEL_VERSION:
        raise FormatError(f"unsupported model file version {version}; this build reads version {MODEL_VERSION}")
    if len(data) < 12 + header_len:
        raise FormatError("truncated model file header")
    try:
        config = ModelConfig(**json.loads(data[12 : 12 + header_len].decode())["config"])
    except (KeyError, TypeError, ValueError, InvalidInputError) as e:
        raise FormatError(f"bad model header: {e}") from e
    shapes = parameter_shapes(config)
    sizes = [math.prod(shape) for shape in shapes.values()]
    payload = data[12 + header_len :]
    if len(payload) != 4 * sum(sizes):
        raise FormatError(f"model payload holds {len(payload)} bytes; its config needs {4 * sum(sizes)}")
    values = np.split(np.frombuffer(payload, dtype="<f4"), np.cumsum(sizes)[:-1])
    params: dict[str, np.ndarray] = {}
    for (name, shape), value in zip(shapes.items(), values):
        if not np.all(np.isfinite(value)):
            raise FormatError(f"tensor '{name}': non-finite values in payload")
        params[name] = value.astype(np.float64).reshape(shape)
    return params, config


def load_hminet(data: bytes) -> HMINet:
    """The network in a model container. Its parameters are float64 master
    weights (the float32 payload widens exactly); training and inference
    compute on float32 copies of them, at the file's precision."""
    from . import autodiff as ad

    params, config = load_model(data)
    return HMINet(config, {name: ad.parameter(v, name) for name, v in params.items()})
