import itertools

import numpy as np
import pytest

from ddmot.association import (
    CostMatrix,
    Tracker,
    TrackerConfig,
    build_cost_matrix,
    hungarian,
    run_sequence,
)
from ddmot.core import BoundingBox, Detection, InvalidInputError, stack_boxes
from ddmot.predictors import ConstantVelocityPredictor, KalmanPredictor


def nbox(cx, cy, w=0.1, h=0.1):
    return BoundingBox(cx, cy, w, h, "norm")


def det(frame, cx, cy, conf=0.9, w=0.1, h=0.1):
    return Detection(frame, nbox(cx, cy, w, h), conf)


def brute_force_min_cost(costs: np.ndarray, feasible: np.ndarray):
    """Oracle: enumerate every maximum-cardinality feasible assignment and
    return (best cost, number of matches)."""
    n, m = costs.shape
    rows, cols = (range(n), range(m))
    best_cost, best_k = None, -1
    smaller, larger = (rows, cols) if n <= m else (cols, rows)
    for perm in itertools.permutations(larger, len(list(smaller))):
        pairs = list(zip(smaller, perm)) if n <= m else [(r, c) for c, r in zip(smaller, perm)]
        pairs = [(r, c) for r, c in pairs if feasible[r, c]]
        k = len(pairs)
        cost = sum(costs[r, c] for r, c in pairs)
        if k > best_k or (k == best_k and cost < best_cost - 1e-12):
            best_cost, best_k = cost, k
    return best_cost, best_k


class TestBuildCostMatrix:
    def test_identical_boxes_cost_zero(self):
        cm = build_cost_matrix(stack_boxes([nbox(0.5, 0.5)]), stack_boxes([nbox(0.5, 0.5)]), gate=0.3)
        assert cm.costs[0, 0] == 0.0 and cm.feasible[0, 0]

    def test_disjoint_gated_out(self):
        cm = build_cost_matrix(stack_boxes([nbox(0.2, 0.2)]), stack_boxes([nbox(0.8, 0.8)]), gate=0.1)
        assert not cm.feasible[0, 0]

    def test_third_overlap_cost(self):
        a = BoundingBox(0, 0, 2, 2)
        b = BoundingBox(1, 0, 2, 2)
        cm = build_cost_matrix(stack_boxes([a]), stack_boxes([b]), gate=0.0)
        assert cm.costs[0, 0] == pytest.approx(2 / 3, abs=1e-12)

    def test_appearance_blend(self):
        a, b = nbox(0.5, 0.5), nbox(0.5, 0.5)
        appearance = np.array([[0.8]])
        cm = build_cost_matrix(stack_boxes([a]), stack_boxes([b]), gate=0.0, appearance=appearance, iou_weight=0.5)
        assert cm.costs[0, 0] == pytest.approx(0.5 * 0.0 + 0.5 * 0.8)

    def test_iou_weight_one_ignores_appearance(self):
        cm = build_cost_matrix(stack_boxes([nbox(0.5, 0.5)]), stack_boxes([nbox(0.5, 0.5)]), gate=0.0,
                               appearance=np.array([[0.8]]), iou_weight=1.0)
        assert cm.costs[0, 0] == 0.0

    def test_empty(self):
        cm = build_cost_matrix(stack_boxes([]), stack_boxes([nbox(0.5, 0.5)]), gate=0.3)
        assert cm.costs.shape == (0, 1)


class TestHungarian:
    def test_singleton(self):
        out = hungarian(CostMatrix(np.array([[0.0]]), np.ones((1, 1), bool)))
        assert out.matches == ((0, 0),)

    def test_two_by_two(self):
        out = hungarian(CostMatrix(np.array([[1.0, 2.0], [2.0, 1.0]]), np.ones((2, 2), bool)))
        assert out.matches == ((0, 0), (1, 1))

    def test_empty_matrix(self):
        out = hungarian(CostMatrix(np.zeros((0, 3)), np.zeros((0, 3), bool)))
        assert out.matches == () and out.unmatched_cols == (0, 1, 2)

    def test_gated_pairs_never_match(self):
        costs = np.array([[0.1, 0.2], [0.3, 0.4]])
        feasible = np.array([[False, True], [True, False]])
        out = hungarian(CostMatrix(costs, feasible))
        assert out.matches == ((0, 1), (1, 0))

    def test_matches_brute_force_on_random_matrices(self):
        """Exact oracle equality over random matrices up to 7x7, mixed with
        random gating (matched-pair count first, then total cost)."""
        rng = np.random.default_rng(0)
        for trial in range(500):
            n, m = rng.integers(1, 8, size=2)
            costs = rng.uniform(0, 1, size=(n, m))
            feasible = np.ones((n, m), bool) if trial % 2 == 0 else rng.uniform(size=(n, m)) < 0.7
            got = hungarian(CostMatrix(costs, feasible))
            got_cost = sum(costs[r, c] for r, c in got.matches)
            want_cost, want_k = brute_force_min_cost(costs, feasible)
            assert len(got.matches) == want_k
            assert got_cost == pytest.approx(want_cost, abs=1e-9)

    def test_partition_property(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            n, m = rng.integers(0, 6, size=2)
            feasible = rng.uniform(size=(n, m)) < 0.5
            out = hungarian(CostMatrix(rng.uniform(size=(n, m)), feasible))
            rows = [r for r, _ in out.matches] + list(out.unmatched_rows)
            cols = [c for _, c in out.matches] + list(out.unmatched_cols)
            assert sorted(rows) == list(range(n))
            assert sorted(cols) == list(range(m))

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        costs = rng.uniform(size=(5, 5))
        cm = CostMatrix(costs, np.ones((5, 5), bool))
        assert hungarian(cm) == hungarian(cm)


class TestTrackerConfig:
    def test_threshold_ordering(self):
        with pytest.raises(InvalidInputError):
            TrackerConfig(tau_high=0.4, tau_low=0.6)
        with pytest.raises(InvalidInputError):
            TrackerConfig(new_track_conf=0.5)  # below tau_high
        with pytest.raises(InvalidInputError):
            TrackerConfig(max_age=-1)


def make_tracker(max_age=30, **kw):
    return Tracker(TrackerConfig(max_age=max_age, **kw), ConstantVelocityPredictor())


class TestTwoStage:
    def test_confidence_partition(self):
        tracker = make_tracker()
        first, second = tracker._split_detections(
            [det(1, 0.5, 0.5, conf=0.7), det(1, 0.3, 0.3, conf=0.5), det(1, 0.7, 0.7, conf=0.3)]
        )
        assert [d.confidence for d in first] == [0.7]
        assert [d.confidence for d in second] == [0.5]

    def test_partition_is_exhaustive_and_exclusive(self):
        tracker = make_tracker()
        rng = np.random.default_rng(3)
        dets = [det(1, 0.5, 0.5, conf=float(c)) for c in rng.uniform(0, 1, 200)]
        first, second = tracker._split_detections(dets)
        discarded = [d for d in dets if d not in first and d not in second]
        assert len(first) + len(second) + len(discarded) == len(dets)
        assert all(d.confidence > 0.6 for d in first)
        assert all(0.4 < d.confidence <= 0.6 for d in second)
        assert all(d.confidence <= 0.4 for d in discarded)

    def test_single_overlapping_detection_keeps_id(self):
        tracker = make_tracker()
        r1 = tracker.step(1, [det(1, 0.5, 0.5, conf=0.9)])
        assert r1.new_tracks == [1]
        r2 = tracker.step(2, [det(2, 0.5, 0.5, conf=0.9)])
        assert [tid for tid, _ in r2.matched] == [1]
        assert r2.new_tracks == []

    def test_second_stage_rescues_low_conf(self):
        tracker = make_tracker()
        tracker.step(1, [det(1, 0.5, 0.5, conf=0.9)])
        r = tracker.step(2, [det(2, 0.5, 0.5, conf=0.5)])
        assert [tid for tid, _ in r.matched] == [1]

    def test_low_conf_never_spawns(self):
        tracker = make_tracker()
        r = tracker.step(1, [det(1, 0.5, 0.5, conf=0.65)])  # > tau_high, <= new_track_conf
        assert r.new_tracks == [] and r.matched == []

    def test_discarded_confidence_ignored(self):
        tracker = make_tracker()
        tracker.step(1, [det(1, 0.5, 0.5, conf=0.9)])
        r = tracker.step(2, [det(2, 0.5, 0.5, conf=0.3)])
        assert r.matched == []
        assert tracker.tracks[1].status == "lost"

    def test_max_age_zero_is_immediate_deletion(self):
        tracker = make_tracker(max_age=0)
        tracker.step(1, [det(1, 0.5, 0.5, conf=0.9)])
        r = tracker.step(2, [])
        assert r.removed_tracks == [1]
        assert tracker.tracks == {}

    def test_max_age_keeps_lost_track_alive(self):
        tracker = make_tracker(max_age=3)
        tracker.step(1, [det(1, 0.5, 0.5, conf=0.9)])
        for f in range(2, 5):
            r = tracker.step(f, [])
            assert r.removed_tracks == []
        r = tracker.step(5, [])
        assert r.removed_tracks == [1]

    def test_lost_track_recovers_identity(self):
        tracker = make_tracker(max_age=5)
        tracker.step(1, [det(1, 0.5, 0.5, conf=0.9)])
        tracker.step(2, [])
        r = tracker.step(3, [det(3, 0.5, 0.5, conf=0.9)])
        assert [tid for tid, _ in r.matched] == [1]
        assert tracker.tracks[1].status == "active"

    def test_duplicate_frame_rejected(self):
        tracker = make_tracker()
        tracker.step(1, [det(1, 0.5, 0.5)])
        with pytest.raises(InvalidInputError):
            tracker.step(1, [det(1, 0.5, 0.5)])

    def test_detection_frame_mismatch_rejected(self):
        tracker = make_tracker()
        with pytest.raises(InvalidInputError):
            tracker.step(2, [det(1, 0.5, 0.5)])

    def test_ids_never_reused(self):
        tracker = make_tracker(max_age=0)
        seen = set()
        rng = np.random.default_rng(4)
        for f in range(1, 30):
            dets = []
            if f % 3 != 0:  # drop every third frame so tracks die
                dets = [det(f, float(rng.uniform(0.2, 0.8)), 0.5, conf=0.9)]
            r = tracker.step(f, dets)
            for tid in r.new_tracks:
                assert tid not in seen
                seen.add(tid)

    def test_appearance_hook_blends(self):
        calls = []

        def appearance(tracks, dets):
            calls.append((len(tracks), len(dets)))
            return np.zeros((len(tracks), len(dets)))

        tracker = Tracker(TrackerConfig(iou_weight=0.5), ConstantVelocityPredictor(), appearance)
        tracker.step(1, [det(1, 0.5, 0.5, conf=0.9)])
        tracker.step(2, [det(2, 0.5, 0.5, conf=0.9)])
        assert calls == [(1, 1)]


class TestRunSequence:
    def test_empty_stream(self):
        assert run_sequence([], ConstantVelocityPredictor(), TrackerConfig()) == []

    def test_single_object_single_id(self):
        frames = [(f, [det(f, 0.3 + 0.004 * f, 0.5, conf=1.0)]) for f in range(1, 51)]
        records = run_sequence(frames, KalmanPredictor(), TrackerConfig())
        assert len(records) == 50
        assert {tid for _, tid, _ in records} == {1}

    def test_two_well_separated_objects_no_switches(self):
        frames = []
        for f in range(1, 51):
            frames.append((f, [
                det(f, 0.2 + 0.004 * f, 0.25, conf=1.0),
                det(f, 0.8 - 0.004 * f, 0.75, conf=1.0),
            ]))
        records = run_sequence(frames, KalmanPredictor(), TrackerConfig())
        ids_by_y = {}
        for _, tid, box in records:
            ids_by_y.setdefault(round(box.cy, 1), set()).add(tid)
        assert all(len(v) == 1 for v in ids_by_y.values())  # one stable id per lane

    def test_deterministic_records(self):
        frames = [(f, [det(f, 0.3 + 0.004 * f, 0.5, conf=1.0)]) for f in range(1, 21)]
        a = run_sequence(frames, ConstantVelocityPredictor(), TrackerConfig())
        b = run_sequence(frames, ConstantVelocityPredictor(), TrackerConfig())
        assert a == b
