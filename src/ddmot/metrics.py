"""Desk-scale evaluation: CLEAR MOTA, IDF1, and the predictor linearity
diagnostic (mean one-frame-ahead IoU against ground truth).
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

from .core import iou, iou_matrix
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


def _frame_index(gt: Sequence[Trajectory], records: Sequence[MotRecord]):
    gt_frames: dict[int, list[tuple[int, object]]] = {}
    for t in gt:
        for f, b in zip(t.frames, t.boxes):
            gt_frames.setdefault(f, []).append((t.track_id, b))
    res_frames: dict[int, list[tuple[int, object]]] = {}
    for r in records:
        res_frames.setdefault(r.frame, []).append((r.track_id, r.box))
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
        gts = gt_frames.get(frame, [])
        res = res_frames.get(frame, [])
        gt_total += len(gts)
        matched_gt: dict[int, int] = {}  # gt id -> res index
        used_res: set[int] = set()

        # continuity: keep previous correspondences that still hold
        res_by_id = {rid: j for j, (rid, _) in enumerate(res)}
        keepers = []
        for gid, gbox in gts:
            j = res_by_id.get(last_match.get(gid, None))
            if j is not None and j not in used_res:
                ov = iou(gbox, res[j][1])
                if ov >= iou_threshold:
                    keepers.append((ov, gid, j))
        for _, gid, j in sorted(keepers, reverse=True):
            if gid in matched_gt or j in used_res:
                continue
            matched_gt[gid] = j
            used_res.add(j)

        rem_gt = [(gid, gbox) for gid, gbox in gts if gid not in matched_gt]
        rem_res = [j for j in range(len(res)) if j not in used_res]
        if rem_gt and rem_res:
            overlap = iou_matrix(
                np.stack([g[1].as_array() for g in rem_gt]),
                np.stack([res[j][1].as_array() for j in rem_res]),
            )
            cost = np.where(overlap >= iou_threshold, 1.0 - overlap, 1e9)
            rows, cols = linear_sum_assignment(cost)
            for r_i, c_i in zip(rows, cols):
                if overlap[r_i, c_i] >= iou_threshold:
                    gid = rem_gt[r_i][0]
                    matched_gt[gid] = rem_res[c_i]
                    used_res.add(rem_res[c_i])

        for gid, j in matched_gt.items():
            rid = res[j][0]
            if gid in last_match and last_match[gid] != rid:
                idsw += 1
            last_match[gid] = rid
        fn += len(gts) - len(matched_gt)
        fp += len(res) - len(used_res)
    score = 1.0 - (fp + fn + idsw) / max(gt_total, 1)
    return MotaReport(fp, fn, idsw, gt_total, score)


def idf1(gt: Sequence[Trajectory], records: Sequence[MotRecord], iou_threshold: float = 0.5) -> Idf1Report:
    """Identity F1: optimal global bipartite matching of ground-truth ids
    to predicted ids by per-frame overlap counts."""
    gt_frames, res_frames = _frame_index(gt, records)
    gt_ids = sorted({t.track_id for t in gt})
    pred_ids = sorted({r.track_id for r in records})
    gt_pos = {g: i for i, g in enumerate(gt_ids)}
    pred_pos = {p: i for i, p in enumerate(pred_ids)}
    overlap = np.zeros((len(gt_ids), len(pred_ids)))
    for frame, gts in gt_frames.items():
        res = res_frames.get(frame, [])
        if not res:
            continue
        m = iou_matrix(
            np.stack([g[1].as_array() for g in gts]),
            np.stack([r[1].as_array() for r in res]),
        )
        a, b = np.nonzero(m >= iou_threshold)
        rows = np.array([gt_pos[gid] for gid, _ in gts])
        cols = np.array([pred_pos[rid] for rid, _ in res])
        np.add.at(overlap, (rows[a], cols[b]), 1)
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
        ious = [iou(p, b) for p, b in zip(preds, traj.boxes[1:])][burn_in:]
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
