"""Desk-scale evaluation: CLEAR MOTA, IDF1, and the predictor linearity
diagnostic (mean one-frame-ahead IoU against ground truth).
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

from .association import CostMatrix, hungarian
from .core import BoundingBox, UnitMismatchError, iou_matrix, iou_pairs, stack_boxes
from .data_io import MotRecord, Trajectory


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


def _by_frame(frames: list[int], ids: list[int], boxes: list[BoundingBox]) -> dict[int, FrameRows]:
    """Rows grouped by frame, each frame's rows in their given order."""
    order = np.argsort(frames, kind="stable")
    starts, first = np.unique(np.asarray(frames)[order], return_index=True)
    ids, boxes = np.asarray(ids)[order].tolist(), stack_boxes(boxes)[order]
    ends = [*first[1:].tolist(), len(ids)]
    return {f: (ids[s:e], boxes[s:e]) for f, s, e in zip(starts.tolist(), first.tolist(), ends)}


def _frame_index(gt: Sequence[Trajectory], records: Sequence[MotRecord]) -> tuple[dict[int, FrameRows], dict[int, FrameRows]]:
    """Ground truth and results grouped by frame. All boxes must share one
    unit mode."""
    gt_boxes = [b for t in gt for b in t.boxes]
    res_boxes = [r.box for r in records]
    units = {b.units for b in gt_boxes} | {b.units for b in res_boxes}
    if len(units) > 1:
        raise UnitMismatchError(f"ground truth and results mix unit modes {sorted(units)}")
    gt_frames = _by_frame([f for t in gt for f in t.frames], [t.track_id for t in gt for _ in t.frames], gt_boxes)
    res_frames = _by_frame([r.frame for r in records], [r.track_id for r in records], res_boxes)
    return gt_frames, res_frames


def mota(gt: Sequence[Trajectory], records: Sequence[MotRecord], iou_threshold: float = 0.5) -> MotaReport:
    """CLEAR accounting with the continuity rule: a ground-truth object
    keeps its previous hypothesis while that hypothesis still overlaps
    above the threshold; remaining pairs are matched by Hungarian on IoU.
    Identity switches are counted on matched frames only.
    """
    gt_frames, res_frames = _frame_index(gt, records)
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
            overlap = iou_matrix(gt_boxes[rem_gt], res_boxes[rem_res])
            for r_i, c_i in hungarian(CostMatrix(1.0 - overlap, overlap >= iou_threshold)).matches:
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


def idf1(gt: Sequence[Trajectory], records: Sequence[MotRecord], iou_threshold: float = 0.5) -> Idf1Report:
    """Identity F1: optimal global bipartite matching of ground-truth ids
    to predicted ids by per-frame overlap counts."""
    gt_frames, res_frames = _frame_index(gt, records)
    gt_ids = sorted({t.track_id for t in gt})
    pred_ids = sorted({r.track_id for r in records})
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
    total_pred = len(records)
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
    and ground truth. ``burn_in`` drops the first predictions of each
    trajectory, where stateful predictors are still converging."""
    per_traj: dict[int, float] = {}
    pooled: list[float] = []
    for traj in trajectories:
        if len(traj) < 2:
            continue
        preds = predictor.diagnose_trajectory(list(traj.boxes), traj.track_id)
        ious = iou_pairs(preds, stack_boxes(traj.boxes[1:])).tolist()[burn_in:]
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
