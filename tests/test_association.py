import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ddmot.association import (
    CostMatrix,
    Tracker,
    TrackerConfig,
    build_cost_matrix,
    hungarian,
    run_sequence,
    split_confidences,
)
from ddmot.core import BoundingBox, Detection, InvalidInputError, MotTable, UnitMismatchError, stack_boxes
from ddmot.data_io import detections_by_frame
from ddmot.predictors import ConstantVelocityPredictor, KalmanPredictor, PredictorConfig, make_predictor


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

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n=st.integers(0, 5), m=st.integers(0, 5))
    def test_matches_brute_force_on_gated_matrices(self, data, n, m):
        """Only feasible pairs match, and the assignment has the brute-force
        optimum's number of matches and total cost."""
        costs = data.draw(arrays(np.float64, (n, m), elements=st.floats(0.0, 1.0)))
        feasible = data.draw(arrays(bool, (n, m)))
        got = hungarian(CostMatrix(costs, feasible))
        assert all(feasible[r, c] for r, c in got.matches)
        want_cost, want_k = brute_force_min_cost(costs, feasible)
        assert len(got.matches) == want_k
        assert sum(costs[r, c] for r, c in got.matches) == pytest.approx(want_cost, abs=1e-9)

    def test_gated_pad_keeps_close_costs_apart(self):
        """When the optimum must leave a row on a gated pair, feasible costs
        1e-9 to 1e-7 apart still resolve: the pad on gated pairs stays small
        enough for float64 to tell them apart."""
        rng = np.random.default_rng(0)
        feasible = np.array([[True, False], [True, False]])
        for c, d in zip(rng.uniform(0.0, 1.0, 2000), rng.uniform(1e-9, 1e-7, 2000)):
            costs = np.array([[c + d, 0.5], [c, 0.5]])
            got = hungarian(CostMatrix(costs, feasible))
            want_cost, want_k = brute_force_min_cost(costs, feasible)
            assert len(got.matches) == want_k
            assert sum(costs[r, col] for r, col in got.matches) == pytest.approx(want_cost, abs=1e-12)

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
        first, second = split_confidences(np.array([0.7, 0.5, 0.3]), TrackerConfig())
        assert first.tolist() == [0] and second.tolist() == [1]

    def test_partition_is_exhaustive_and_exclusive(self):
        rng = np.random.default_rng(3)
        conf = rng.uniform(0, 1, 200)
        first, second = split_confidences(conf, TrackerConfig())
        discarded = np.setdiff1d(np.arange(conf.size), np.concatenate([first, second]))
        assert first.size + second.size + discarded.size == conf.size
        assert not set(first.tolist()) & set(second.tolist())
        assert (conf[first] > 0.6).all()
        assert ((conf[second] > 0.4) & (conf[second] <= 0.6)).all()
        assert (conf[discarded] <= 0.4).all()

    def test_table_and_detection_list_track_alike(self):
        """A frame given as its table slice and as a list of Detection gives
        the same ids and boxes."""
        rows = [(f, 0.3 + 0.004 * f, 0.5, 0.9) for f in range(1, 8)] + [(f, 0.7, 0.2, 0.5) for f in range(3, 8)]
        table = MotTable([r[0] for r in rows], np.full(len(rows), -1),
                         [[r[1], r[2], 0.1, 0.1] for r in rows], [r[3] for r in rows], "norm")
        by_table, by_list = make_tracker(), make_tracker()
        for f, frame_rows in detections_by_frame(table).items():
            a = by_table.step(f, frame_rows)
            b = by_list.step(f, [Detection(r.frame, r.box, r.conf) for r in frame_rows])
            assert a.ids.tolist() == b.ids.tolist() and np.array_equal(a.boxes, b.boxes)
            assert a.matched == b.matched and a.units == "norm"

    def test_frame_in_the_other_unit_mode_rejected(self):
        tracker = make_tracker()
        tracker.step(1, [det(1, 0.5, 0.5)])
        with pytest.raises(UnitMismatchError):
            tracker.step(2, [Detection(2, BoundingBox(50, 50, 10, 10, "px"), 0.9)])
        d2mp = Tracker(TrackerConfig(), make_predictor(PredictorConfig(kind="d2mp"), StillOracle()))
        with pytest.raises(UnitMismatchError):
            d2mp.step(1, [Detection(1, BoundingBox(50, 50, 10, 10, "px"), 0.9)])

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
        assert tracker.predictor.ids.tolist() == [1]
        assert tracker.predictor.misses.tolist() == [1]  # frames since its last match

    def test_max_age_zero_is_immediate_deletion(self):
        tracker = make_tracker(max_age=0)
        tracker.step(1, [det(1, 0.5, 0.5, conf=0.9)])
        r = tracker.step(2, [])
        assert r.removed_tracks == [1]
        assert tracker.predictor.ids.size == 0

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
        assert tracker.predictor.misses.tolist() == [0]

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


class StillOracle:
    """A d2mp network whose one-step sample is zero motion."""

    history_length = 3

    def embed_condition(self, windows):
        return windows

    def bind_condition(self, windows):
        return windows

    def predict_values(self, noisy, t, windows):
        return np.zeros((len(windows), 4)), None


# (frames since the previous step, [(cx, cy, confidence)]) per step; few
# centres and confidences, so tracks match, miss, die and spawn
detection_streams = st.lists(
    st.tuples(
        st.integers(1, 3),
        st.lists(st.tuples(st.sampled_from([0.2, 0.24, 0.5, 0.8]), st.sampled_from([0.3, 0.6]),
                           st.sampled_from([0.3, 0.5, 0.65, 0.9])), max_size=5),
    ),
    min_size=1, max_size=20,
)


class TestTrackTable:
    """The predictor session is the only track table; its ids, miss counts
    and confirmed flags follow the tracker's lifecycle events."""

    @pytest.mark.parametrize("kind", ["kf", "cv", "d2mp"])
    @settings(max_examples=40, deadline=None)
    @given(stream=detection_streams, max_age=st.integers(0, 3))
    def test_lifecycle_matches_oracle(self, kind, stream, max_age):
        session = make_predictor(PredictorConfig(kind=kind), StillOracle())
        tracker = Tracker(TrackerConfig(max_age=max_age), session)
        live: dict[int, int] = {}  # written, not removed: id -> consecutive unmatched steps
        tentative: set[int] = set()  # started, not yet written
        seen: set[int] = set()  # every id started so far
        frame = 0
        for step, (gap, dets) in enumerate(stream):
            frame += gap
            r = tracker.step(frame, [det(frame, cx, cy, conf) for cx, cy, conf in dets])
            ids = [tid for tid, _ in r.matched]
            assert ids == sorted(set(ids))
            new = set(r.new_tracks)
            assert new <= set(ids) and not new & set(live)
            if step:
                assert new <= tentative  # later births are written when their next match confirms them
            kept = set(ids) - new
            assert kept <= set(live)
            for tid in live:
                live[tid] = 0 if tid in kept else live[tid] + 1
            assert r.removed_tracks == sorted(tid for tid, misses in live.items() if misses > max_age)
            for tid in r.removed_tracks:
                assert live.pop(tid) == max_age + 1
            live.update((tid, 0) for tid in new)
            # an unconfirmed tentative track is dropped at once, so the tentative
            # tracks left are this step's births, none on the first step
            tentative = set(session.ids.tolist()) - set(live)
            assert not (tentative and step == 0)
            assert not tentative & seen  # births take fresh ids
            seen |= tentative | new
            assert (np.diff(session.ids) > 0).all()
            assert session.ids.tolist() == sorted(set(live) | tentative)
            assert session.misses.tolist() == [live.get(tid, 0) for tid in session.ids.tolist()]
            assert session.confirmed.tolist() == [tid in live for tid in session.ids.tolist()]


class TestConfirmation:
    """A track born after the first step is written from its next match on;
    one that misses before is dropped unwritten."""

    def test_lone_false_positive_never_written(self):
        tracker = make_tracker()
        for f in range(1, 4):
            r = tracker.step(f, [det(f, 0.2, 0.2, conf=0.9)] + ([det(f, 0.7, 0.7, conf=0.9)] if f == 2 else []))
            assert [tid for tid, _ in r.matched] == [1] and r.removed_tracks == []
            assert r.new_tracks == ([1] if f == 1 else [])
            if f == 2:
                assert tracker.predictor.ids.tolist() == [1, 2]  # started, not written
        assert tracker.predictor.ids.tolist() == [1]  # gone after the frame it missed

    def test_late_object_written_from_its_second_frame(self):
        frames = [(f, [det(f, 0.2, 0.2, conf=0.9)] + ([det(f, 0.5 + 0.004 * f, 0.6, conf=0.9)] if f >= 5 else []))
                  for f in range(1, 12)]
        records = run_sequence(frames, KalmanPredictor(), TrackerConfig())
        late = [(f, tid) for f, tid, box in rows_of(records) if box[1] > 0.4]
        assert [f for f, _ in late] == list(range(6, 12))
        assert len({tid for _, tid in late}) == 1

    def test_first_step_births_written_at_once(self):
        tracker = make_tracker()
        r = tracker.step(1, [det(1, 0.2 + 0.2 * i, 0.5, conf=0.9) for i in range(4)])
        assert r.new_tracks == [1, 2, 3, 4] and r.ids.tolist() == [1, 2, 3, 4]
        assert tracker.predictor.confirmed.tolist() == [True] * 4
        r = tracker.step(2, [])
        assert r.removed_tracks == [] and tracker.predictor.ids.tolist() == [1, 2, 3, 4]

    @pytest.mark.parametrize("kind", ["kf", "cv", "d2mp"])
    @settings(max_examples=40, deadline=None)
    @given(stream=detection_streams, max_age=st.integers(0, 3))
    def test_written_ids_were_born_first_or_matched_twice_in_a_row(self, kind, stream, max_age):
        """Every written id was born on the first step or started on one step
        and matched on the next."""
        session = make_predictor(PredictorConfig(kind=kind), StillOracle())
        started: dict[int, int] = {}  # id -> step it started on
        matched: set[tuple[int, int]] = set()  # (id, step)
        step = 0
        start, observe = session.start, session.observe

        def spy_start(ids, boxes, **kw):
            started.update((int(tid), step) for tid in np.asarray(ids).tolist())
            start(ids, boxes, **kw)

        def spy_observe(rows, boxes):
            matched.update((int(tid), step) for tid in session.ids[rows].tolist())
            observe(rows, boxes)

        session.start, session.observe = spy_start, spy_observe
        tracker = Tracker(TrackerConfig(max_age=max_age), session)
        frame = 0
        for step, (gap, dets) in enumerate(stream):
            frame += gap
            r = tracker.step(frame, [det(frame, cx, cy, conf) for cx, cy, conf in dets])
            for tid in r.ids.tolist():
                born = started[tid]
                assert born == 0 or (tid, born + 1) in matched


def rows_of(table):
    """A result table as (frame, id, box) tuples."""
    return list(zip(table.frame.tolist(), table.track_id.tolist(), table.boxes.tolist()))


class TestRunSequence:
    def test_empty_stream(self):
        assert rows_of(run_sequence([], ConstantVelocityPredictor(), TrackerConfig())) == []

    def test_single_object_single_id(self):
        frames = [(f, [det(f, 0.3 + 0.004 * f, 0.5, conf=1.0)]) for f in range(1, 51)]
        records = run_sequence(frames, KalmanPredictor(), TrackerConfig())
        assert len(records) == 50
        assert set(records.track_id.tolist()) == {1}

    def test_two_well_separated_objects_no_switches(self):
        frames = []
        for f in range(1, 51):
            frames.append((f, [
                det(f, 0.2 + 0.004 * f, 0.25, conf=1.0),
                det(f, 0.8 - 0.004 * f, 0.75, conf=1.0),
            ]))
        records = run_sequence(frames, KalmanPredictor(), TrackerConfig())
        ids_by_y = {}
        for _, tid, box in rows_of(records):
            ids_by_y.setdefault(round(box[1], 1), set()).add(tid)
        assert all(len(v) == 1 for v in ids_by_y.values())  # one stable id per lane

    def test_deterministic_records(self):
        frames = [(f, [det(f, 0.3 + 0.004 * f, 0.5, conf=1.0)]) for f in range(1, 21)]
        a = run_sequence(frames, ConstantVelocityPredictor(), TrackerConfig())
        b = run_sequence(frames, ConstantVelocityPredictor(), TrackerConfig())
        assert rows_of(a) == rows_of(b) and a.units == b.units == "norm"
