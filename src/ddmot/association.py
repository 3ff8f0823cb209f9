"""Two-stage matching cascade and track lifecycle management.

High-confidence detections are matched to predicted boxes first on
1 - IoU; the leftover predictions get a second chance against
low-confidence detections. Matched tracks pass their detections to the
predictor, tracks unmatched for more than ``max_age`` frames are removed,
and confident leftover detections spawn new tracks.

The predictor session is the only track table (``ids``, ``misses`` and
the motion state, one row per track). Per frame, ``Tracker.step`` makes
one ``predict_all`` call, returning a (T, 4) array whose rows the
Hungarian matches, one ``observe`` call with the matched rows, one
``drop`` with the rows whose ``misses`` exceed ``max_age`` and one
``start`` with the births, which take the largest ids (each only when
there are any).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

from .core import BoundingBox, Detection, InvalidInputError, check_field_types, iou_matrix, stack_boxes


@dataclass(frozen=True)
class TrackerConfig:
    tau_high: float = 0.6
    tau_low: float = 0.4
    new_track_conf: float = 0.7
    iou_gate_first: float = 0.3
    iou_gate_second: float = 0.4
    max_age: int = 30  # 0 deletes unmatched tracks immediately

    def __post_init__(self) -> None:
        check_field_types(self)
        if not (0.0 <= self.tau_low < self.tau_high <= 1.0):
            raise InvalidInputError(f"need 0 <= tau_low < tau_high <= 1, got {self.tau_low}, {self.tau_high}")
        if self.new_track_conf < self.tau_high:
            raise InvalidInputError("new_track_conf must be >= tau_high")
        if self.max_age < 0:
            raise InvalidInputError("max_age must be >= 0")
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


def build_cost_matrix(predicted: np.ndarray, detections: np.ndarray, gate: float) -> CostMatrix:
    """1 - IoU costs between (T, 4) predicted and (N, 4) detected boxes;
    pairs below the IoU gate are marked infeasible."""
    if len(predicted) == 0 or len(detections) == 0:
        shape = (len(predicted), len(detections))
        return CostMatrix(np.zeros(shape), np.zeros(shape, dtype=bool))
    overlap = iou_matrix(predicted, detections)
    return CostMatrix(1.0 - overlap, overlap >= gate)


def hungarian(cost: CostMatrix) -> Assignment:
    """Minimum-cost assignment over feasible pairs; gated pairs never match.

    The most feasible pairs match, at least total cost among those.
    Deterministic for a given input. An empty matrix yields everything
    unmatched.
    """
    n, m = cost.costs.shape
    if n == 0 or m == 0 or not cost.feasible.any():
        return Assignment((), tuple(range(n)), tuple(range(m)))
    # a gated pair costs more than any feasible assignment can differ by, so
    # each extra feasible match lowers the total, yet the pad stays small
    # enough to keep the float64 resolution of the feasible costs
    pad = 2.0 * min(n, m) * np.abs(cost.costs[cost.feasible]).max() + 1.0
    padded = np.where(cost.feasible, cost.costs, pad)
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
    """Sequential two-stage tracker over one sequence; its tracks live in
    the predictor session."""

    def __init__(self, config: TrackerConfig, predictor):
        self.config = config
        self.predictor = predictor
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

        cfg, session = self.config, self.predictor
        d_first, d_second = self._split_detections(detections)
        predicted = session.predict_all()

        # stage 1: predictions x high-confidence detections
        stage1 = hungarian(build_cost_matrix(predicted, stack_boxes(d.box for d in d_first), cfg.iou_gate_first))
        matched = [(r, d_first[c].box) for r, c in stage1.matches]

        # stage 2: leftover predictions x low-confidence detections
        rest_rows = list(stage1.unmatched_rows)
        stage2 = hungarian(
            build_cost_matrix(predicted[rest_rows], stack_boxes(d.box for d in d_second), cfg.iou_gate_second)
        )
        matched += [(rest_rows[r], d_second[c].box) for r, c in stage2.matches]

        # rows ascend with ids, so sorting by row sorts the matches by id
        matched.sort(key=lambda m: m[0])
        rows, boxes = [r for r, _ in matched], [box for _, box in matched]
        session.observe(rows, boxes)
        matched_ids = session.ids[rows].tolist()

        dead = np.flatnonzero(session.misses > cfg.max_age)
        removed = session.ids[dead].tolist()
        if removed:
            session.drop(dead)

        # births take the largest ids, so they keep the table and the matches sorted
        born = [d_first[c].box for c in stage1.unmatched_cols if d_first[c].confidence > cfg.new_track_conf]
        new_ids = list(range(self._next_id, self._next_id + len(born)))
        self._next_id += len(born)
        if born:
            session.start(new_ids, born)
        return FrameResult(frame, list(zip(matched_ids + new_ids, boxes + born)), new_ids, removed)


def run_sequence(
    frames: Iterable[tuple[int, Sequence[Detection]]],
    predictor,
    config: TrackerConfig,
) -> list[tuple[int, int, BoundingBox]]:
    """Track a whole sequence; returns (frame, track id, box) records for
    every track matched in that frame. Frames must arrive in increasing
    order (missing frame numbers are fine)."""
    tracker = Tracker(config, predictor)
    records: list[tuple[int, int, BoundingBox]] = []
    for frame, dets in frames:
        result = tracker.step(frame, dets)
        records.extend((frame, tid, box) for tid, box in result.matched)
    return records
