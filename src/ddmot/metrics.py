"""Desk-scale evaluation: CLEAR MOTA, IDF1, and the predictor linearity
diagnostic (mean one-frame-ahead IoU against ground truth).
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

from .association import build_cost_matrix, hungarian
from .core import InvalidInputError, MotRecord, MotTable, UnitMismatchError, iou_matrix, iou_pairs, runs
from .data_io import Trajectory, records_from_trajectories


@dataclass(frozen=True)
class MotaReport:
    fp: int
    fn: int
    idsw: int
    gt: int
    mota: float

    def to_dict(self) -> dict:
        return {"FP": self.fp, "FN": self.fn, "IDSW": self.idsw, "GT": self.gt, "MOTA": self.mota}


@dataclass(frozen=True)
class Idf1Report:
    idtp: int
    idfp: int
    idfn: int
    idf1: float

    def to_dict(self) -> dict:
        return {"IDTP": self.idtp, "IDFP": self.idfp, "IDFN": self.idfn, "IDF1": self.idf1}


@dataclass(frozen=True)
class DiagReport:
    per_trajectory: dict[int, float]
    mean: float
    count: int  # predictions pooled into the mean

    def to_dict(self) -> dict:
        return {"mean_iou": self.mean, "predictions": self.count,
                "per_trajectory": {str(k): v for k, v in self.per_trajectory.items()}}


FrameRows = tuple[list[int], np.ndarray]  # one frame's ids and (k, 4) boxes
_NO_ROWS: FrameRows = ([], np.empty((0, 4)))


def _by_frame(table: MotTable) -> dict[int, FrameRows]:
    """The rows of a (frame-sorted) table grouped by frame. A track id may
    appear once per frame; a repeated row would be scored twice."""
    ids = table.track_id.tolist()
    grouped = {int(table.frame[s]): (ids[s:e], table.boxes[s:e]) for s, e in runs(table.frame)}
    # equal keys flag a repeated (frame, id); keys wrap past int64 range, so each frame confirms a hit
    keys = np.sort((table.frame << 32) + table.track_id)
    if np.any(keys[1:] == keys[:-1]):
        for frame, (frame_ids, _) in grouped.items():
            if len(set(frame_ids)) < len(frame_ids):
                repeated = min(i for i in frame_ids if frame_ids.count(i) > 1)
                raise InvalidInputError(f"frame {frame}: track id {repeated} appears more than once")
    return grouped


def check_iou_threshold(iou_threshold: float) -> None:
    """A match threshold must lie in (0, 1]: at 0 disjoint boxes would
    match, and NaN would match nothing."""
    if not (0.0 < iou_threshold <= 1.0):
        raise InvalidInputError(f"IoU threshold must lie in (0, 1], got {iou_threshold}")


def _frame_index(gt: Sequence[Trajectory], res: MotTable) -> tuple[dict[int, FrameRows], dict[int, FrameRows]]:
    """Ground truth and results grouped by frame. All boxes must share one
    unit mode."""
    gt = records_from_trajectories(gt)
    if len(gt) and len(res) and gt.units != res.units:
        raise UnitMismatchError(f"ground truth and results mix unit modes {sorted({gt.units, res.units})}")
    return _by_frame(gt), _by_frame(res)


def mota(gt: Sequence[Trajectory], records: MotTable | Sequence[MotRecord], iou_threshold: float = 0.5) -> MotaReport:
    """CLEAR accounting with the continuity rule: a ground-truth object
    keeps its previous hypothesis while that hypothesis still overlaps
    above the threshold; remaining pairs are matched by Hungarian on IoU.
    Identity switches are counted on matched frames only.
    """
    check_iou_threshold(iou_threshold)
    gt_frames, res_frames = _frame_index(gt, MotTable.of(records))
    last_match: dict[int, int] = {}
    fp = fn = idsw = gt_total = 0
    for frame in sorted(set(gt_frames) | set(res_frames)):
        gt_ids, gt_boxes = gt_frames.get(frame, _NO_ROWS)
        res_ids, res_boxes = res_frames.get(frame, _NO_ROWS)
        gt_total += len(gt_ids)
        matched_gt: dict[int, int] = {}  # gt id -> res index
        used_res: set[int] = set()

        # continuity: keep previous correspondences that still hold
        res_by_id = {rid: j for j, rid in enumerate(res_ids)}
        kept = [(i, res_by_id[last_match[gid]]) for i, gid in enumerate(gt_ids) if last_match.get(gid) in res_by_id]
        if kept:
            gi, rj = zip(*kept)
            overlaps = iou_pairs(gt_boxes[list(gi)], res_boxes[list(rj)]).tolist()
            keepers = [(ov, gt_ids[i], j) for ov, (i, j) in zip(overlaps, kept) if ov >= iou_threshold]
            for _, gid, j in sorted(keepers, reverse=True):
                if gid in matched_gt or j in used_res:
                    continue
                matched_gt[gid] = j
                used_res.add(j)

        rem_gt = [i for i, gid in enumerate(gt_ids) if gid not in matched_gt]
        rem_res = [j for j in range(len(res_ids)) if j not in used_res]
        if rem_gt and rem_res:
            for r_i, c_i in hungarian(build_cost_matrix(gt_boxes[rem_gt], res_boxes[rem_res], iou_threshold)).matches:
                matched_gt[gt_ids[rem_gt[r_i]]] = rem_res[c_i]
                used_res.add(rem_res[c_i])

        for gid, j in matched_gt.items():
            rid = res_ids[j]
            if gid in last_match and last_match[gid] != rid:
                idsw += 1
            last_match[gid] = rid
        fn += len(gt_ids) - len(matched_gt)
        fp += len(res_ids) - len(used_res)
    score = 1.0 - (fp + fn + idsw) / max(gt_total, 1)
    return MotaReport(fp, fn, idsw, gt_total, score)


def idf1(gt: Sequence[Trajectory], records: MotTable | Sequence[MotRecord], iou_threshold: float = 0.5) -> Idf1Report:
    """Identity F1: optimal global bipartite matching of ground-truth ids
    to predicted ids by per-frame overlap counts."""
    check_iou_threshold(iou_threshold)
    res = MotTable.of(records)
    gt_frames, res_frames = _frame_index(gt, res)
    gt_ids = sorted({t.track_id for t in gt})
    pred_ids = np.unique(res.track_id).tolist()
    hit_gt: list[int] = []  # ids of each overlapping (gt, result) pair
    hit_res: list[int] = []
    for frame, (frame_gt_ids, gt_boxes) in gt_frames.items():
        if frame not in res_frames:
            continue
        frame_res_ids, res_boxes = res_frames[frame]
        a, b = np.nonzero(iou_matrix(gt_boxes, res_boxes) >= iou_threshold)
        hit_gt += [frame_gt_ids[i] for i in a.tolist()]
        hit_res += [frame_res_ids[j] for j in b.tolist()]
    overlap = np.zeros((len(gt_ids), len(pred_ids)))
    np.add.at(overlap, (np.searchsorted(gt_ids, hit_gt), np.searchsorted(pred_ids, hit_res)), 1)
    total_gt = sum(len(t.frames) for t in gt)
    total_pred = len(res)
    idtp = 0
    if overlap.size:
        rows, cols = linear_sum_assignment(-overlap)
        idtp = int(overlap[rows, cols].sum())
    idfn = total_gt - idtp
    idfp = total_pred - idtp
    denom = 2 * idtp + idfp + idfn
    return Idf1Report(idtp, idfp, idfn, (2.0 * idtp / denom) if denom else 1.0)


def predictor_iou_diagnostic(trajectories: Sequence[Trajectory], predictor, burn_in: int = 0) -> DiagReport:
    """Mean IoU between one-frame-ahead predictions (given the true history)
    and ground truth. Each run of consecutive frames is predicted from its
    own first box, so no prediction spans a ground-truth gap. ``burn_in``
    (>= 0) drops the first predictions of each run, where stateful
    predictors are still converging."""
    if burn_in < 0:
        raise InvalidInputError(f"burn_in must be >= 0, got {burn_in}")
    per_traj: dict[int, float] = {}
    pooled: list[float] = []
    for traj in trajectories:
        ious = []
        for boxes in traj.motion_spans():
            predictor.use_units(traj.units)
            ious += iou_pairs(predictor.diagnose_trajectory(boxes, traj.track_id), boxes[1:]).tolist()[burn_in:]
        if not ious:
            continue
        per_traj[traj.track_id] = float(np.mean(ious))
        pooled.extend(ious)
    return DiagReport(per_traj, float(np.mean(pooled)) if pooled else 0.0, len(pooled))


# ---------------------------------------------------------------------------
# report rendering


def render_table(headers: Sequence[str], rows: Sequence[Sequence]) -> str:
    """Aligned plain-text table."""
    cells = [[str(h) for h in headers]] + [
        [f"{v:.4f}" if isinstance(v, float) else str(v) for v in row] for row in rows
    ]
    widths = [max(len(r[i]) for r in cells) for i in range(len(headers))]
    lines = []
    for i, row in enumerate(cells):
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines) + "\n"


def reports_to_json(reports: dict[str, object]) -> str:
    return json.dumps({k: v.to_dict() for k, v in reports.items()}, sort_keys=True, indent=2) + "\n"
