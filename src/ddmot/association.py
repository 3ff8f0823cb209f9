"""Two-stage matching cascade and track lifecycle management.

High-confidence detections are matched to predicted boxes first (blended
IoU/appearance cost); the leftover predictions get a second chance against
low-confidence detections on IoU alone. Matched tracks pass their
detections to the predictor, unmatched tracks age out, and confident
leftover detections spawn new tracks.

Per frame, ``Tracker.step`` makes one ``predict_all`` call, returning a
(T, 4) array, and one ``observe`` call with every matched detection.

The tracker keeps only each live track's frames since its last match
(``Tracker.tracks``). The predictor session under the same track id is the
only owner of per-track motion state.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

from .core import BoundingBox, Detection, InvalidInputError, check_field_types, iou_matrix, stack_boxes

# (live track ids in row order, high-confidence detections) -> (T, N) costs
AppearanceCost = Callable[[Sequence[int], Sequence[Detection]], np.ndarray]


@dataclass(frozen=True)
class TrackerConfig:
    tau_high: float = 0.6
    tau_low: float = 0.4
    new_track_conf: float = 0.7
    iou_gate_first: float = 0.3
    iou_gate_second: float = 0.4
    max_age: int = 30  # 0 deletes unmatched tracks immediately
    iou_weight: float = 1.0  # cost = w*(1-IoU) + (1-w)*appearance

    def __post_init__(self) -> None:
        check_field_types(self)
        if not (0.0 <= self.tau_low < self.tau_high <= 1.0):
            raise InvalidInputError(f"need 0 <= tau_low < tau_high <= 1, got {self.tau_low}, {self.tau_high}")
        if self.new_track_conf < self.tau_high:
            raise InvalidInputError("new_track_conf must be >= tau_high")
        if self.max_age < 0:
            raise InvalidInputError("max_age must be >= 0")
        if not (0.0 <= self.iou_weight <= 1.0):
            raise InvalidInputError("iou_weight must lie in [0, 1]")
        for g in (self.iou_gate_first, self.iou_gate_second):
            if not (0.0 <= g <= 1.0):
                raise InvalidInputError("IoU gates must lie in [0, 1]")


@dataclass
class CostMatrix:
    costs: np.ndarray  # (n_tracks, n_detections)
    feasible: np.ndarray  # bool mask, False = gated out


@dataclass(frozen=True)
class Assignment:
    matches: tuple[tuple[int, int], ...]
    unmatched_rows: tuple[int, ...]
    unmatched_cols: tuple[int, ...]


def build_cost_matrix(
    predicted: np.ndarray,
    detections: np.ndarray,
    gate: float,
    appearance: np.ndarray | None = None,
    iou_weight: float = 1.0,
) -> CostMatrix:
    """1 - IoU costs between (T, 4) predicted and (N, 4) detected boxes,
    optionally blended with an appearance cost matrix; pairs below the IoU
    gate are marked infeasible."""
    if len(predicted) == 0 or len(detections) == 0:
        shape = (len(predicted), len(detections))
        return CostMatrix(np.zeros(shape), np.zeros(shape, dtype=bool))
    overlap = iou_matrix(predicted, detections)
    costs = 1.0 - overlap
    if appearance is not None and iou_weight < 1.0:
        appearance = np.asarray(appearance, dtype=np.float64)
        if appearance.shape != costs.shape:
            raise InvalidInputError(f"appearance cost shape {appearance.shape} != {costs.shape}")
        costs = iou_weight * costs + (1.0 - iou_weight) * appearance
    return CostMatrix(costs, overlap >= gate)


_INFEASIBLE = 1e9


def hungarian(cost: CostMatrix) -> Assignment:
    """Minimum-cost assignment over feasible pairs; gated pairs never match.

    Deterministic for a given input. An empty matrix yields everything
    unmatched.
    """
    n, m = cost.costs.shape
    if n == 0 or m == 0 or not cost.feasible.any():
        return Assignment((), tuple(range(n)), tuple(range(m)))
    padded = np.where(cost.feasible, cost.costs, _INFEASIBLE)
    rows, cols = linear_sum_assignment(padded)
    matches = [(int(r), int(c)) for r, c in zip(rows, cols) if cost.feasible[r, c]]
    matched_rows = {r for r, _ in matches}
    matched_cols = {c for _, c in matches}
    return Assignment(
        tuple(sorted(matches)),
        tuple(r for r in range(n) if r not in matched_rows),
        tuple(c for c in range(m) if c not in matched_cols),
    )


# ---------------------------------------------------------------------------
# track lifecycle


@dataclass
class FrameResult:
    frame: int
    matched: list[tuple[int, BoundingBox]]  # (track id, updated box)
    new_tracks: list[int]
    removed_tracks: list[int]


class Tracker:
    """Sequential two-stage tracker over one sequence."""

    def __init__(self, config: TrackerConfig, predictor, appearance_cost: AppearanceCost | None = None):
        self.config = config
        self.predictor = predictor
        self.appearance_cost = appearance_cost
        self.tracks: dict[int, int] = {}  # live track id -> frames since its last match
        self._next_id = 1
        self._last_frame = 0

    def _split_detections(self, detections: Sequence[Detection]) -> tuple[list[Detection], list[Detection]]:
        first = [d for d in detections if d.confidence > self.config.tau_high]
        second = [d for d in detections if self.config.tau_low < d.confidence <= self.config.tau_high]
        return first, second

    def step(self, frame: int, detections: Sequence[Detection]) -> FrameResult:
        if frame <= self._last_frame:
            raise InvalidInputError(f"frames must strictly increase (got {frame} after {self._last_frame})")
        for d in detections:
            if d.frame != frame:
                raise InvalidInputError(f"detection carries frame {d.frame}, expected {frame}")
        self._last_frame = frame

        d_first, d_second = self._split_detections(detections)
        track_ids = sorted(self.tracks)
        predicted = self.predictor.predict_all(track_ids)

        # stage 1: predictions x high-confidence detections, blended cost
        appearance = None
        if self.appearance_cost is not None and self.config.iou_weight < 1.0 and track_ids and d_first:
            appearance = np.asarray(self.appearance_cost(track_ids, d_first), dtype=np.float64)
        stage1 = hungarian(
            build_cost_matrix(
                predicted,
                stack_boxes(d.box for d in d_first),
                self.config.iou_gate_first,
                appearance,
                self.config.iou_weight,
            )
        )
        matched: list[tuple[int, Detection]] = [(track_ids[r], d_first[c]) for r, c in stage1.matches]

        # stage 2: leftover predictions x low-confidence detections, IoU only
        rest_rows = list(stage1.unmatched_rows)
        stage2 = hungarian(
            build_cost_matrix(
                predicted[rest_rows],
                stack_boxes(d.box for d in d_second),
                self.config.iou_gate_second,
            )
        )
        matched += [(track_ids[rest_rows[r]], d_second[c]) for r, c in stage2.matches]

        matched.sort(key=lambda m: m[0])
        result = FrameResult(frame, [(tid, det.box) for tid, det in matched], [], [])
        self.predictor.observe([tid for tid, _ in result.matched], [box for _, box in result.matched])
        matched_ids = {tid for tid, _ in matched}

        # reset matched tracks; age and possibly remove unmatched ones
        for tid in track_ids:
            if tid in matched_ids:
                self.tracks[tid] = 0
                continue
            self.tracks[tid] += 1
            if self.tracks[tid] > self.config.max_age:
                del self.tracks[tid]
                self.predictor.drop(tid)
                result.removed_tracks.append(tid)

        # spawn tracks from confident leftover first-stage detections
        for c in stage1.unmatched_cols:
            det = d_first[c]
            if det.confidence > self.config.new_track_conf:
                tid = self._next_id
                self._next_id += 1
                self.tracks[tid] = 0
                self.predictor.start(tid, det.box)
                result.matched.append((tid, det.box))
                result.new_tracks.append(tid)
        result.matched.sort(key=lambda m: m[0])
        return result


def run_sequence(
    frames: Iterable[tuple[int, Sequence[Detection]]],
    predictor,
    config: TrackerConfig,
    appearance_cost: AppearanceCost | None = None,
) -> list[tuple[int, int, BoundingBox]]:
    """Track a whole sequence; returns (frame, track id, box) records for
    every track matched in that frame. Frames must arrive in increasing
    order (missing frame numbers are fine)."""
    tracker = Tracker(config, predictor, appearance_cost)
    records: list[tuple[int, int, BoundingBox]] = []
    for frame, dets in frames:
        result = tracker.step(frame, dets)
        records.extend((frame, tid, box) for tid, box in result.matched)
    return records
