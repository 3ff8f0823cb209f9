"""Two-stage matching cascade and track lifecycle management.

High-confidence detections are matched to predicted boxes first on
1 - IoU; the leftover predictions get a second chance against
low-confidence detections. Matched tracks pass their detections to the
predictor, tracks unmatched for more than ``max_age`` frames are removed,
and confident leftover detections spawn new tracks.

The predictor session is the only track table (``ids``, ``misses`` and
the motion state, one row per track). Per frame, ``Tracker.step`` takes
the frame's detections as one ``MotTable`` (a list of ``Detection`` is
converted once on entry), fixes the session's unit mode from it, splits
the confidences with masks and makes one ``predict_all`` call, returning a
(T, 4) array whose rows both Hungarian stages match against index arrays
of the detections. Then it makes one ``observe`` call with the matched
rows and their (k, 4) boxes, one ``drop`` with the rows whose ``misses``
exceed ``max_age`` and one ``start`` with the births, which take the
largest ids (each only when there are any). ``FrameResult`` carries the
frame's ids and boxes as arrays.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

from .core import BoundingBox, Detection, InvalidInputError, MotTable, check_field_types, iou_matrix


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
    rows, cols = linear_sum_assignment(padded)  # rows ascend
    keep = cost.feasible[rows, cols]
    rows, cols = rows[keep], cols[keep]
    free_rows, free_cols = np.ones(n, dtype=bool), np.ones(m, dtype=bool)
    free_rows[rows] = False
    free_cols[cols] = False
    return Assignment(
        tuple(zip(rows.tolist(), cols.tolist())),
        tuple(np.flatnonzero(free_rows).tolist()),
        tuple(np.flatnonzero(free_cols).tolist()),
    )


# ---------------------------------------------------------------------------
# track lifecycle


@dataclass
class FrameResult:
    frame: int
    ids: np.ndarray  # (k,) ids of the frame's matched and new tracks, ascending
    boxes: np.ndarray  # (k, 4) their boxes: the detections they took
    new_tracks: list[int]
    removed_tracks: list[int]
    units: str = "px"

    @property
    def matched(self) -> list[tuple[int, BoundingBox]]:
        """(track id, box) pairs, for callers that read boxes as objects."""
        units = self.units
        return [(tid, BoundingBox(*box, units)) for tid, box in zip(self.ids.tolist(), self.boxes.tolist())]


def split_confidences(conf: np.ndarray, config: TrackerConfig) -> tuple[np.ndarray, np.ndarray]:
    """Indices of the first-stage (confidence above tau_high) and the
    second-stage (above tau_low, at most tau_high) detections."""
    high = conf > config.tau_high
    return np.flatnonzero(high), np.flatnonzero(~high & (conf > config.tau_low))


def _frame_table(frame: int, detections: MotTable | Sequence[Detection]) -> MotTable:
    """A frame's detections as one table: a table of the frame's rows, or
    a list of ``Detection`` converted once."""
    if not isinstance(detections, MotTable):
        detections = list(detections)
        detections = MotTable.from_boxes([d.frame for d in detections], np.full(len(detections), -1),
                                         [d.box for d in detections], [d.confidence for d in detections])
    stray = detections.frame[detections.frame != frame]
    if stray.size:
        raise InvalidInputError(f"detection carries frame {stray[0]}, expected {frame}")
    return detections


class Tracker:
    """Sequential two-stage tracker over one sequence; its tracks live in
    the predictor session."""

    def __init__(self, config: TrackerConfig, predictor):
        self.config = config
        self.predictor = predictor
        self._next_id = 1
        self._last_frame = 0

    def step(self, frame: int, detections: MotTable | Sequence[Detection]) -> FrameResult:
        """Track one frame. ``detections`` is the frame's table (a value of
        ``detections_by_frame``) or a list of ``Detection``."""
        if frame <= self._last_frame:
            raise InvalidInputError(f"frames must strictly increase (got {frame} after {self._last_frame})")
        table = _frame_table(frame, detections)
        cfg, session = self.config, self.predictor
        if len(table):
            session.use_units(table.units)
        self._last_frame = frame

        boxes = table.boxes
        first, second = split_confidences(table.conf, cfg)
        predicted = session.predict_all()

        # stage 1: predictions x high-confidence detections
        stage1 = hungarian(build_cost_matrix(predicted, boxes[first], cfg.iou_gate_first))
        # stage 2: leftover predictions x low-confidence detections
        rest = np.array(stage1.unmatched_rows, dtype=np.intp)
        stage2 = hungarian(build_cost_matrix(predicted[rest], boxes[second], cfg.iou_gate_second))

        m1 = np.array(stage1.matches, dtype=np.intp).reshape(-1, 2)
        m2 = np.array(stage2.matches, dtype=np.intp).reshape(-1, 2)
        rows = np.concatenate([m1[:, 0], rest[m2[:, 0]]])
        taken = np.concatenate([first[m1[:, 1]], second[m2[:, 1]]])
        # rows ascend with ids, so sorting by row sorts the matches by id
        order = np.argsort(rows)
        rows, taken = rows[order], taken[order]
        session.observe(rows, boxes[taken])
        matched_ids = session.ids[rows]

        dead = np.flatnonzero(session.misses > cfg.max_age)
        removed = session.ids[dead].tolist()
        if removed:
            session.drop(dead)

        # births take the largest ids, so they keep the table and the matches sorted
        unmatched = first[list(stage1.unmatched_cols)]
        born = unmatched[table.conf[unmatched] > cfg.new_track_conf]
        new_ids = np.arange(self._next_id, self._next_id + born.size, dtype=np.int64)
        self._next_id += born.size
        if born.size:
            session.start(new_ids, boxes[born])
        taken = np.concatenate([taken, born])
        return FrameResult(frame, np.concatenate([matched_ids, new_ids]), boxes[taken], new_ids.tolist(), removed,
                           session.units or table.units)


def run_sequence(
    frames: Iterable[tuple[int, MotTable | Sequence[Detection]]],
    predictor,
    config: TrackerConfig,
) -> MotTable:
    """Track a whole sequence; returns the (frame, track id, box) rows of
    every track matched in each frame, confidence 1, as one table.

    Frames must arrive in increasing order. A frame number may be skipped,
    but the predictors do not see the gap: each step predicts one frame
    ahead and counts one miss, so a jump of k frames is tracked as a jump of
    one.
    """
    tracker = Tracker(config, predictor)
    results = [tracker.step(frame, dets) for frame, dets in frames]
    return MotTable(
        np.repeat([r.frame for r in results], [r.ids.size for r in results]).astype(np.int64),
        np.concatenate([r.ids for r in results]) if results else np.empty(0, dtype=np.int64),
        np.concatenate([r.boxes for r in results]) if results else np.empty((0, 4)),
        1.0,
        predictor.units or "px",
    )
