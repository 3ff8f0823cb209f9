import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from ddmot import metrics
from ddmot.core import BoundingBox, InvalidInputError, UnitMismatchError, iou_matrix, iou_pairs, stack_boxes
from ddmot.data_io import MotRecord, SyntheticSpec, Trajectory, synth_sequence
from ddmot.association import CostMatrix, TrackerConfig, hungarian, run_sequence
from ddmot.metrics import (
    DiagReport,
    Idf1Report,
    MotaReport,
    idf1,
    mota,
    predictor_iou_diagnostic,
    render_table,
    reports_to_json,
)
from ddmot.predictors import ConstantVelocityPredictor, D2MPPredictor, KalmanPredictor, PredictorConfig
from test_core import iou


def nbox(cx, cy, w=0.1, h=0.1):
    return BoundingBox(cx, cy, w, h, "norm")


def straight_trajectory(tid, n, x0=0.2, y=0.5, v=0.005):
    frames = tuple(range(1, n + 1))
    boxes = tuple(nbox(x0 + v * f, y) for f in frames)
    return trajectory(tid, frames, boxes)


def trajectory(tid, frames, boxes):
    """A normalized trajectory of ``BoundingBox`` objects as arrays."""
    return Trajectory(tid, frames, stack_boxes(boxes), "norm")


def box_objects(traj):
    """(frame, BoundingBox) of each row of a trajectory."""
    return [(f, BoundingBox(*b, traj.units)) for f, b in zip(traj.frames.tolist(), traj.boxes.tolist())]


def records_of(traj, pred_id=None):
    pid = traj.track_id if pred_id is None else pred_id
    return [MotRecord(f, pid, b) for f, b in box_objects(traj)]


class TestMota:
    def test_perfect_tracking(self):
        gt = [straight_trajectory(1, 20), straight_trajectory(2, 20, y=0.2)]
        res = records_of(gt[0]) + records_of(gt[1])
        report = mota(gt, res)
        assert report.mota == 1.0 and report.idsw == 0 and report.fp == 0 and report.fn == 0

    def test_hand_counted_frame(self):
        # 10 gt boxes in one frame; 9 are matched, one result is far away
        gt = [trajectory(i, (1,), (nbox(0.08 * i + 0.05, 0.3),)) for i in range(1, 11)]
        res = [MotRecord(1, i, nbox(0.08 * i + 0.05, 0.3)) for i in range(1, 10)]
        res.append(MotRecord(1, 10, nbox(0.9, 0.9)))
        report = mota(gt, res)
        assert (report.fp, report.fn, report.idsw, report.gt) == (1, 1, 0, 10)
        assert report.mota == pytest.approx(0.8)

    def test_empty_results(self):
        gt = [straight_trajectory(1, 10)]
        report = mota(gt, [])
        assert report.mota == 0.0 and report.fn == 10

    def test_removing_one_match_costs_one_over_gt(self):
        gt = [straight_trajectory(1, 25)]
        res = records_of(gt[0])
        full = mota(gt, res).mota
        partial = mota(gt, res[:-1]).mota
        assert full - partial == pytest.approx(1 / 25)

    def test_identity_switch_counted(self):
        gt = [straight_trajectory(1, 10)]
        res = records_of(gt[0])
        for i in range(5, 10):
            res[i] = MotRecord(res[i].frame, 99, res[i].box)
        report = mota(gt, res)
        assert report.idsw == 1
        assert report.mota == pytest.approx(1 - 1 / 10)

    def test_continuity_rule_prefers_previous_hypothesis(self):
        # frame 2 offers a slightly better-overlapping new id; CLEAR keeps
        # the existing correspondence while it clears the threshold
        gt = [trajectory(1, (1, 2), (nbox(0.5, 0.5), nbox(0.5, 0.5)))]
        res = [
            MotRecord(1, 7, nbox(0.5, 0.5)),
            MotRecord(2, 7, nbox(0.51, 0.5)),  # previous id, slightly off
            MotRecord(2, 8, nbox(0.5, 0.5)),  # perfect overlap, new id
        ]
        report = mota(gt, res)
        assert report.idsw == 0
        assert report.fp == 1  # the perfect newcomer goes unmatched

    def test_switch_across_gap(self):
        gt = [trajectory(1, (1, 2, 3), (nbox(0.5, 0.5),) * 3)]
        res = [MotRecord(1, 7, nbox(0.5, 0.5)), MotRecord(3, 8, nbox(0.5, 0.5))]
        report = mota(gt, res)
        assert report.idsw == 1 and report.fn == 1


class TestIdf1:
    def test_perfect(self):
        gt = [straight_trajectory(1, 15)]
        assert idf1(gt, records_of(gt[0])).idf1 == 1.0

    def test_split_track_is_half(self):
        gt = [straight_trajectory(1, 20)]
        res = records_of(gt[0])
        for i in range(10, 20):
            res[i] = MotRecord(res[i].frame, 2, res[i].box)
        report = idf1(gt, res)
        assert (report.idtp, report.idfp, report.idfn) == (10, 10, 10)
        assert report.idf1 == pytest.approx(0.5)

    def test_empty_results(self):
        gt = [straight_trajectory(1, 10)]
        assert idf1(gt, []).idf1 == 0.0

    def test_relabeling_invariance(self):
        gt = [straight_trajectory(1, 12), straight_trajectory(2, 12, y=0.25)]
        res = records_of(gt[0]) + records_of(gt[1])
        base = idf1(gt, res).idf1
        relabeled = [MotRecord(r.frame, r.track_id + 1000, r.box, r.conf) for r in res]
        assert idf1(gt, relabeled).idf1 == base


grid_boxes = st.builds(
    nbox,
    st.sampled_from([0.1, 0.15, 0.2]),
    st.sampled_from([0.1, 0.15]),
    st.sampled_from([0.1, 0.15]),
    st.sampled_from([0.1, 0.15]),
)


@st.composite
def scored_outputs(draw):
    """Ground truth and results on a coarse box grid, so many pairs overlap;
    a predicted id has at most one record per frame, as the metrics require."""
    gt = []
    for gid in draw(st.lists(st.integers(1, 6), unique=True, max_size=4)):
        frames = tuple(sorted(draw(st.sets(st.integers(1, 4), min_size=1))))
        gt.append(trajectory(gid, frames, tuple(draw(grid_boxes) for _ in frames)))
    records = draw(st.lists(st.builds(MotRecord, st.integers(1, 4), st.integers(1, 3), grid_boxes), max_size=12,
                            unique_by=lambda r: (r.frame, r.track_id)))
    return gt, records


def brute_force_idf1(gt, records, threshold=0.5):
    """IDF1 from a per-pair loop: every (ground-truth box, result box) pair
    of a frame that overlaps by at least the threshold counts once."""
    gt_ids = sorted({t.track_id for t in gt})
    pred_ids = sorted({r.track_id for r in records})
    overlap = np.zeros((len(gt_ids), len(pred_ids)))
    for t in gt:
        for f, gbox in box_objects(t):
            for r in records:
                if r.frame == f and iou_matrix(gbox.as_array(), r.box.as_array())[0, 0] >= threshold:
                    overlap[gt_ids.index(t.track_id), pred_ids.index(r.track_id)] += 1
    idtp = 0
    if overlap.size:
        rows, cols = linear_sum_assignment(-overlap)
        idtp = int(overlap[rows, cols].sum())
    idfn = sum(len(t.frames) for t in gt) - idtp
    idfp = len(records) - idtp
    denom = 2 * idtp + idfp + idfn
    return Idf1Report(idtp, idfp, idfn, (2.0 * idtp / denom) if denom else 1.0)


class TestIdf1Counting:
    @settings(max_examples=80, deadline=None)
    @given(case=scored_outputs())
    def test_matches_per_pair_count(self, case):
        gt, records = case
        assert idf1(gt, records) == brute_force_idf1(gt, records)


def reference_mota(gt, records, threshold=0.5):
    """CLEAR MOTA with the continuity rule, one scalar ``iou`` call per
    ground-truth object that keeps its previous hypothesis."""
    gt_frames, res_frames = {}, {}
    for t in gt:
        for f, b in box_objects(t):
            gt_frames.setdefault(f, []).append((t.track_id, b))
    for r in records:
        res_frames.setdefault(r.frame, []).append((r.track_id, r.box))
    last_match = {}
    fp = fn = idsw = gt_total = 0
    for frame in sorted(set(gt_frames) | set(res_frames)):
        gts, res = gt_frames.get(frame, []), res_frames.get(frame, [])
        gt_total += len(gts)
        matched_gt, used_res = {}, set()
        res_by_id = {rid: j for j, (rid, _) in enumerate(res)}
        keepers = []
        for gid, gbox in gts:
            j = res_by_id.get(last_match.get(gid, None))
            if j is not None:
                ov = iou(gbox, res[j][1])
                if ov >= threshold:
                    keepers.append((ov, gid, j))
        for _, gid, j in sorted(keepers, reverse=True):
            if gid not in matched_gt and j not in used_res:
                matched_gt[gid] = j
                used_res.add(j)
        rem_gt = [(gid, gbox) for gid, gbox in gts if gid not in matched_gt]
        rem_res = [j for j in range(len(res)) if j not in used_res]
        if rem_gt and rem_res:
            overlap = iou_matrix(np.stack([g[1].as_array() for g in rem_gt]),
                                 np.stack([res[j][1].as_array() for j in rem_res]))
            # the assignment is hungarian's (checked against brute force in
            # test_association): an lsa of its own picked another optimum on
            # tied costs, and a pad of 1e9 rounded away cost differences
            for r_i, c_i in hungarian(CostMatrix(1.0 - overlap, overlap >= threshold)).matches:
                matched_gt[rem_gt[r_i][0]] = rem_res[c_i]
                used_res.add(rem_res[c_i])
        for gid, j in matched_gt.items():
            if gid in last_match and last_match[gid] != res[j][0]:
                idsw += 1
            last_match[gid] = res[j][0]
        fn += len(gts) - len(matched_gt)
        fp += len(res) - len(used_res)
    return MotaReport(fp, fn, idsw, gt_total, 1.0 - (fp + fn + idsw) / max(gt_total, 1))


class TestMotaContinuity:
    @settings(max_examples=150, deadline=None)
    @given(case=scored_outputs())
    @example(case=(
        [trajectory(1, (1, 2, 3), (nbox(0.1, 0.1),) * 3),
         trajectory(2, (1, 3, 4), (nbox(0.1, 0.15), nbox(0.15, 0.15, 0.1, 0.15), nbox(0.15, 0.1)))],
        [MotRecord(1, 1, nbox(0.1, 0.1)), MotRecord(1, 2, nbox(0.1, 0.1)), MotRecord(1, 3, nbox(0.1, 0.1)),
         MotRecord(3, 2, nbox(0.15, 0.15)), MotRecord(4, 1, nbox(0.15, 0.1)),
         MotRecord(3, 1, nbox(0.15, 0.15, 0.15, 0.15))],
    ))
    def test_matches_scalar_iou_reference(self, case):
        gt, records = case
        assert mota(gt, records) == reference_mota(gt, records)

    def test_matches_reference_on_a_crowded_scene(self, monkeypatch):
        """Each frame scores its continuity pairs in one vectorised call;
        the counts still equal the reference."""
        scene = synth_sequence(SyntheticSpec(object_count=40, length=30, box_min=0.03, box_max=0.06,
                                             jitter_sigma=0.002, drop_prob=0.1, fp_rate=2.0), 3)
        frames = [(f, scene.detections[f]) for f in sorted(scene.detections)]
        res = run_sequence(frames, KalmanPredictor(), TrackerConfig())
        calls = []
        monkeypatch.setattr(metrics, "iou_pairs", lambda a, b: calls.append(len(a)) or iou_pairs(a, b))
        assert mota(scene.trajectories, res) == reference_mota(scene.trajectories, res)
        assert calls and max(calls) > 1

    @pytest.mark.parametrize("threshold", [float("nan"), 0.0, -0.1, 1.5])
    def test_threshold_outside_unit_interval_rejected(self, threshold):
        """At 0 or below disjoint boxes would pair up, and NaN pairs nothing."""
        gt = [straight_trajectory(1, 3)]
        for score in (mota, idf1):
            with pytest.raises(InvalidInputError, match="threshold"):
                score(gt, records_of(gt[0]), threshold)

    def test_threshold_of_one_accepted(self):
        gt = [straight_trajectory(1, 3)]
        assert mota(gt, records_of(gt[0]), 1.0).mota == 1.0 and idf1(gt, records_of(gt[0]), 1.0).idf1 == 1.0

    def test_mixed_units_rejected(self):
        gt = [straight_trajectory(1, 3)]
        res = [MotRecord(1, 1, BoundingBox(10, 10, 5, 5, "px"))]
        with pytest.raises(UnitMismatchError):
            mota(gt, res)
        with pytest.raises(UnitMismatchError):
            idf1(gt, res)

    @pytest.mark.parametrize("source", ["result", "ground truth"])
    def test_repeated_id_in_a_frame_rejected(self, source):
        # a repeated result row would be scored twice: IDF1 above 1, IDFN below 0
        truth = straight_trajectory(1, 3)
        gt, res = [truth], records_of(truth)
        if source == "result":
            res.insert(1, res[1])
        else:
            gt.append(trajectory(1, (2,), (nbox(0.5, 0.5),)))
        for score in (mota, idf1):
            with pytest.raises(InvalidInputError, match="frame 2: track id 1 appears more than once"):
                score(gt, res)


class OraclePredictor:
    """Returns the true next box (upper bound for the diagnostic)."""

    def use_units(self, units):
        pass

    def diagnose_trajectory(self, boxes, track_id=-1):
        return boxes[1:]


class TestDiagnostic:
    def test_oracle_predictor_scores_one(self):
        trajs = [straight_trajectory(1, 30), straight_trajectory(2, 30, y=0.3)]
        report = predictor_iou_diagnostic(trajs, OraclePredictor())
        assert report.mean == 1.0 and report.count == 58

    def test_kf_on_noiseless_linear_after_burn_in(self):
        trajs = [straight_trajectory(i, 60, y=0.2 + 0.15 * i, v=0.003 + 0.001 * i) for i in range(1, 4)]
        report = predictor_iou_diagnostic(trajs, KalmanPredictor(), burn_in=5)
        assert report.mean >= 0.99

    def test_trajectory_order_invariance(self):
        trajs = [straight_trajectory(1, 25), straight_trajectory(2, 25, y=0.3, v=0.004)]
        a = predictor_iou_diagnostic(trajs, ConstantVelocityPredictor()).mean
        b = predictor_iou_diagnostic(trajs[::-1], ConstantVelocityPredictor()).mean
        assert a == pytest.approx(b, abs=1e-15)

    def test_kf_linear_beats_nonlinear_corpus(self):
        """Small-scale version of the linearity contrast: the KF's mean IoU
        on linear motion exceeds its mean on non-linear programs."""
        linear = synth_sequence(SyntheticSpec(program="linear", object_count=6, length=80), 0).trajectories
        curved = synth_sequence(
            SyntheticSpec(program="sinusoidal", object_count=6, length=80, amplitude=0.14, period=18), 1
        ).trajectories
        kf_lin = predictor_iou_diagnostic(linear, KalmanPredictor()).mean
        kf_cur = predictor_iou_diagnostic(curved, KalmanPredictor()).mean
        assert kf_lin - kf_cur >= 0.1

    def test_no_prediction_spans_a_gap(self):
        # frames 1-3 and 10-12, 0.01 per frame: each run is predicted from its own first box
        frames = (1, 2, 3, 10, 11, 12)
        gapped = trajectory(1, frames, tuple(nbox(0.2 + 0.01 * f, 0.5) for f in frames))
        assert predictor_iou_diagnostic([gapped], ConstantVelocityPredictor()).count == 4

    def test_each_run_continues_its_tracks_noise(self):
        """The second run of a gapped trajectory draws on from the track's
        stream instead of replaying the first run's draws."""
        frames = (1, 2, 3, 10, 11, 12)
        gapped = trajectory(1, frames, tuple(nbox(0.2 + 0.01 * f, 0.5) for f in frames))
        net = NoiseRecorder()
        predictor_iou_diagnostic([gapped], D2MPPredictor(net, PredictorConfig(kind="d2mp", seed=3)))
        first, second = net.noisy
        stream = np.random.default_rng((3, 1))
        assert np.array_equal(first, stream.standard_normal((2, 4)))
        assert np.array_equal(second, stream.standard_normal((2, 4)))

    def test_negative_burn_in_rejected(self):
        # a negative burn-in would slice each trajectory's predictions from its end
        with pytest.raises(InvalidInputError, match="burn_in"):
            predictor_iou_diagnostic([straight_trajectory(1, 20)], KalmanPredictor(), burn_in=-1)

    def test_report_values_in_unit_interval(self):
        trajs = [straight_trajectory(1, 20)]
        report = predictor_iou_diagnostic(trajs, ConstantVelocityPredictor())
        assert all(0.0 <= v <= 1.0 for v in report.per_trajectory.values())
        assert 0.0 <= report.mean <= 1.0


class NoiseRecorder:
    """A zero-motion d2mp network that keeps the noisy motion of each
    sampling step."""

    history_length = 3

    def __init__(self):
        self.noisy = []

    def embed_condition(self, windows):
        return windows

    def predict_values(self, noisy, t, windows):
        self.noisy.append(np.array(noisy))
        return np.zeros((len(windows), 4)), None


class TestRendering:
    def test_table_alignment(self):
        text = render_table(["name", "value"], [["a", 1.0], ["longer", 0.25]])
        lines = text.splitlines()
        assert len({len(l) for l in lines}) == 1  # all rows equally wide
        assert "0.2500" in lines[-1]

    def test_json_rendering(self):
        report = DiagReport({1: 0.5}, 0.5, 10)
        out = reports_to_json({"diag": report})
        assert '"mean_iou": 0.5' in out
