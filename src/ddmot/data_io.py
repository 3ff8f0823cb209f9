"""File formats and data generation.

Covers the MOT-Challenge CSV convention
(``frame,id,bb_left,bb_top,bb_width,bb_height,conf,x,y,z``, id -1 for
detections), a JSON metadata sidecar, a deterministic synthetic-scene
generator with five motion programs, training-set assembly, and the
binary model container ("D2MP" magic, JSON header with a tensor index,
little-endian float32 payload).
"""
from __future__ import annotations

import io
import json
import math
import struct
from dataclasses import dataclass, asdict, replace
from typing import Iterable, Sequence

import numpy as np

from .core import (
    BoundingBox,
    Detection,
    FormatError,
    InvalidInputError,
    center_to_tlwh,
    denormalize_box,
    check_field_types,
    normalize_box,
    stack_boxes,
    tlwh_to_center,
)
from .diffusion import TrainingSet
from .hminet import HMINet, ModelConfig, apply_condition_variant, parameter_shapes
from .predictors import build_condition_window, trajectory_windows

MOTION_PROGRAMS = ("linear", "sinusoidal", "circular", "accelerate", "direction_flip")


@dataclass(frozen=True)
class SequenceMeta:
    frame_count: int
    width: int
    height: int
    frame_rate: int = 30

    def __post_init__(self) -> None:
        if min(self.frame_count, self.width, self.height, self.frame_rate) <= 0:
            raise InvalidInputError("sequence metadata fields must be positive")

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "SequenceMeta":
        try:
            d = json.loads(text)
            return cls(int(d["frame_count"]), int(d["width"]), int(d["height"]), int(d.get("frame_rate", 30)))
        except (KeyError, TypeError, ValueError, OverflowError) as e:
            raise FormatError(f"bad sequence metadata: {e}") from e


@dataclass(frozen=True)
class MotRecord:
    frame: int
    track_id: int
    box: BoundingBox
    conf: float = 1.0


@dataclass
class ParseResult:
    records: list[MotRecord]
    skipped: int = 0  # lines dropped for non-positive extent


@dataclass(frozen=True)
class Trajectory:
    track_id: int
    frames: tuple[int, ...]
    boxes: tuple[BoundingBox, ...]

    def __len__(self) -> int:
        return len(self.frames)


# ---------------------------------------------------------------------------
# MOT text format


def parse_mot(text: str | Iterable[str], meta: SequenceMeta | None = None, normalized: bool = False) -> ParseResult:
    """Parse MOT CSV lines into records sorted by frame.

    ``normalized`` converts boxes to image-relative units (requires meta);
    centers are clamped into [0, 1] on the way in. Lines with w or h <= 0
    are skipped and counted; anything else malformed raises FormatError
    with its line number.
    """
    if normalized and meta is None:
        raise InvalidInputError("normalized parsing needs sequence metadata")
    lines = text.splitlines() if isinstance(text, str) else text
    records: list[MotRecord] = []
    skipped = 0
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) < 7:
            raise FormatError(f"line {lineno}: expected at least 7 comma-separated fields, got {len(parts)}")
        try:
            frame = int(parts[0])
            track_id = int(parts[1])
            left, top, w, h = (float(p) for p in parts[2:6])
            conf = float(parts[6])
        except ValueError as e:
            raise FormatError(f"line {lineno}: {e}") from e
        if frame < 1:
            raise FormatError(f"line {lineno}: frame index must be >= 1, got {frame}")
        if math.isnan(conf):
            raise FormatError(f"line {lineno}: confidence is NaN")
        if w <= 0 or h <= 0:
            skipped += 1
            continue
        try:
            box = tlwh_to_center(left, top, w, h, "px")
            if normalized:
                box = normalize_box(box, meta.width, meta.height)
        except InvalidInputError as e:
            raise FormatError(f"line {lineno}: {e}") from e
        records.append(MotRecord(frame, track_id, box, min(max(conf, 0.0), 1.0)))
    records.sort(key=lambda r: r.frame)
    return ParseResult(records, skipped)


def write_mot(records: Sequence[MotRecord], meta: SequenceMeta | None = None) -> str:
    """Canonical MOT text: sorted by (frame, id), reals with two decimals,
    world coordinates -1. Normalized boxes are written back in pixels."""
    lines = []
    for r in sorted(records, key=lambda r: (r.frame, r.track_id)):
        box = r.box
        if box.units == "norm":
            if meta is None:
                raise InvalidInputError("normalized records need metadata to be written in pixels")
            box = denormalize_box(box, meta.width, meta.height)
        left, top, w, h = center_to_tlwh(box)
        lines.append(f"{r.frame},{r.track_id},{left:.2f},{top:.2f},{w:.2f},{h:.2f},{r.conf:.2f},-1,-1,-1")
    return "".join(line + "\n" for line in lines)


def detections_by_frame(records: Sequence[MotRecord]) -> dict[int, list[Detection]]:
    out: dict[int, list[Detection]] = {}
    for r in records:
        out.setdefault(r.frame, []).append(Detection(r.frame, r.box, r.conf))
    return out


def trajectories_from_records(records: Sequence[MotRecord]) -> list[Trajectory]:
    by_id: dict[int, list[MotRecord]] = {}
    for r in records:
        by_id.setdefault(r.track_id, []).append(r)
    out = []
    for tid in sorted(by_id):
        rs = sorted(by_id[tid], key=lambda r: r.frame)
        out.append(Trajectory(tid, tuple(r.frame for r in rs), tuple(r.box for r in rs)))
    return out


def records_from_trajectories(trajectories: Sequence[Trajectory], conf: float = 1.0) -> list[MotRecord]:
    return [
        MotRecord(f, t.track_id, b, conf)
        for t in trajectories
        for f, b in zip(t.frames, t.boxes)
    ]


def normalize_trajectories(trajectories: Sequence[Trajectory], meta: SequenceMeta) -> list[Trajectory]:
    return [
        replace(t, boxes=tuple(normalize_box(b, meta.width, meta.height) for b in t.boxes))
        for t in trajectories
    ]


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
        if self.object_count < 1 or self.length < 2:
            raise InvalidInputError("need object_count >= 1 and length >= 2")
        if not (0.0 <= self.drop_prob <= 1.0):
            raise InvalidInputError("drop_prob must lie in [0, 1]")
        if self.fp_rate < 0 or self.jitter_sigma < 0:
            raise InvalidInputError("fp_rate and jitter_sigma must be >= 0")
        for lo, hi in (self.conf_range, self.fp_conf_range):
            if not (0.0 <= lo <= hi <= 1.0):
                raise InvalidInputError("confidence ranges must satisfy 0 <= lo <= hi <= 1")
        if not (0.0 < self.box_min <= self.box_max < 0.5):
            raise InvalidInputError("box size range must satisfy 0 < box_min <= box_max < 0.5")
        if self.amplitude <= 0 or self.period <= 1 or self.speed <= 0:
            raise InvalidInputError("amplitude, period and speed must be positive (period > 1)")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "SyntheticSpec":
        d = dict(d)
        for key in ("conf_range", "fp_conf_range"):
            if key in d:
                d[key] = tuple(d[key])
        try:
            return cls(**d)
        except TypeError as e:
            raise InvalidInputError(f"bad synthetic spec: {e}") from e


@dataclass
class SynthResult:
    trajectories: list[Trajectory]  # normalized ground truth
    detections: dict[int, list[Detection]]  # normalized, per frame
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
    trajectories = []
    for obj in range(spec.object_count):
        w = float(rng.uniform(spec.box_min, spec.box_max))
        h = float(rng.uniform(spec.box_min, spec.box_max))
        cx, cy = _program_centers(spec, rng, w / 2, h / 2)
        boxes = tuple(BoundingBox(float(x), float(y), w, h, "norm") for x, y in zip(cx, cy))
        trajectories.append(Trajectory(obj + 1, tuple(range(1, spec.length + 1)), boxes))

    detections: dict[int, list[Detection]] = {f: [] for f in range(1, spec.length + 1)}
    for frame in range(1, spec.length + 1):
        for traj in trajectories:
            if spec.drop_prob > 0.0 and rng.uniform() < spec.drop_prob:
                continue
            box = traj.boxes[frame - 1]
            if spec.jitter_sigma > 0.0:
                d = rng.normal(0.0, spec.jitter_sigma, size=4)
                box = BoundingBox(
                    min(max(box.cx + d[0], 0.0), 1.0),
                    min(max(box.cy + d[1], 0.0), 1.0),
                    max(box.w + d[2], 0.01),
                    max(box.h + d[3], 0.01),
                    "norm",
                )
            conf = float(rng.uniform(*spec.conf_range))
            detections[frame].append(Detection(frame, box, conf))
        n_fp = int(rng.poisson(spec.fp_rate)) if spec.fp_rate > 0 else 0
        for _ in range(n_fp):
            w = float(rng.uniform(spec.box_min, spec.box_max))
            h = float(rng.uniform(spec.box_min, spec.box_max))
            box = BoundingBox(float(rng.uniform(w / 2, 1 - w / 2)), float(rng.uniform(h / 2, 1 - h / 2)), w, h, "norm")
            detections[frame].append(Detection(frame, box, float(rng.uniform(*spec.fp_conf_range))))
    return SynthResult(trajectories, detections, meta)


def detection_records(result: SynthResult) -> list[MotRecord]:
    """Detections as MOT records (id -1), for writing with write_mot."""
    return [
        MotRecord(frame, -1, det.box, det.confidence)
        for frame in sorted(result.detections)
        for det in result.detections[frame]
    ]


# ---------------------------------------------------------------------------
# training data


def build_training_set(trajectories: Sequence[Trajectory], n: int, condition_variant: str = "I") -> TrainingSet:
    """One sample per (trajectory, frame f >= 2): the window of the last n
    (box, motion) rows before f and the target motion into f."""
    conditions, targets = [], []
    for traj in trajectories:
        if len(traj) < 2:
            continue
        boxes = stack_boxes(traj.boxes)
        conditions.append(build_condition_window(trajectory_windows(boxes, n)))
        targets.append(np.diff(boxes, axis=0))
    if not conditions:
        raise InvalidInputError("no training samples; trajectories need at least 2 frames")
    return TrainingSet(apply_condition_variant(np.concatenate(conditions), condition_variant), np.concatenate(targets))


# ---------------------------------------------------------------------------
# model container

MODEL_MAGIC = b"D2MP"
MODEL_VERSION = 1


def save_model(params: dict, config: ModelConfig) -> bytes:
    """Serialize parameters (float32 payload) plus config into the binary
    container. Accepts Tensors or plain arrays; names are sorted so the
    output is canonical."""
    index = []
    payload = io.BytesIO()
    offset = 0
    for name in sorted(params):
        value = getattr(params[name], "value", params[name])
        arr = np.ascontiguousarray(np.asarray(value, dtype=np.float64), dtype="<f4")
        index.append({"name": name, "dtype": "<f4", "shape": list(arr.shape), "offset": offset})
        payload.write(arr.tobytes())
        offset += arr.nbytes
    header = json.dumps({"config": config.to_dict(), "tensors": index}, sort_keys=True, separators=(",", ":")).encode()
    return MODEL_MAGIC + struct.pack("<II", MODEL_VERSION, len(header)) + header + payload.getvalue()


def _is_index_entry(entry) -> bool:
    return (
        isinstance(entry, dict)
        and isinstance(entry.get("name"), str)
        and isinstance(entry.get("shape"), list)
        and all(type(v) is int for v in [entry.get("offset"), *entry["shape"]])
    )


def load_model(data: bytes) -> tuple[dict[str, np.ndarray], ModelConfig]:
    """Parse and validate the container; arrays come back as float64."""
    if len(data) < 12 or data[:4] != MODEL_MAGIC:
        raise FormatError("not a model file (bad magic)")
    version, header_len = struct.unpack("<II", data[4:12])
    if version != MODEL_VERSION:
        raise FormatError(f"unsupported model file version {version}")
    if len(data) < 12 + header_len:
        raise FormatError("truncated model file header")
    try:
        header = json.loads(data[12 : 12 + header_len].decode())
        config = ModelConfig.from_dict(header["config"])
        index = header["tensors"]
    except (KeyError, TypeError, ValueError, InvalidInputError) as e:
        raise FormatError(f"bad model header: {e}") from e
    if not isinstance(index, list):
        raise FormatError("bad model header: the tensor index must be a list")
    payload = data[12 + header_len :]
    expected = parameter_shapes(config)
    seen = set()
    params: dict[str, np.ndarray] = {}
    for entry in index:
        if not _is_index_entry(entry):
            raise FormatError(
                f"bad tensor index entry {entry!r:.80}: want a string name, an int list shape and an int offset"
            )
        name, shape, off = entry["name"], tuple(entry["shape"]), entry["offset"]
        if entry.get("dtype") != "<f4":
            raise FormatError(f"tensor '{name}': unsupported dtype {entry.get('dtype')!r}")
        if name not in expected:
            raise FormatError(f"unknown tensor name '{name}' for this configuration")
        if shape != tuple(expected[name]):
            raise FormatError(f"tensor '{name}': shape {shape} does not match config (wants {expected[name]})")
        nbytes = int(np.prod(shape)) * 4 if shape else 4
        if off < 0 or off + nbytes > len(payload):
            raise FormatError(f"tensor '{name}': extent [{off}, {off + nbytes}) outside payload of {len(payload)} bytes")
        value = np.frombuffer(payload, dtype="<f4", count=int(np.prod(shape)), offset=off).reshape(shape)
        if not np.all(np.isfinite(value)):
            raise FormatError(f"tensor '{name}': non-finite values in payload")
        params[name] = value.astype(np.float64)
        seen.add(name)
    missing = sorted(set(expected) - seen)
    if missing:
        raise FormatError(f"model file is missing tensors: {missing}")
    return params, config


def load_hminet(data: bytes) -> HMINet:
    """The network in a model container. Its parameters are float64 for
    training (the float32 payload widens exactly); inference runs on
    float32 copies of them, so it computes at the file's precision."""
    from . import autodiff as ad

    params, config = load_model(data)
    return HMINet(config, {name: ad.parameter(v, name) for name, v in params.items()})
