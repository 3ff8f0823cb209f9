import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddmot.association import Tracker, TrackerConfig
from ddmot.core import (
    BoundingBox,
    InvalidInputError,
    NumericError,
    UnitMismatchError,
    iou_pairs,
    stack_boxes,
)
from ddmot.hminet import HMINet, ModelConfig
from ddmot.predictors import (
    ConstantVelocityPredictor,
    D2MPPredictor,
    KalmanPredictor,
    MIN_BOX_EXTENT,
    NOISE_BLOCK,
    PredictorConfig,
    build_condition_window,
    cv_predict,
    kf_initiate,
    kf_predict,
    kf_update,
    make_predictor,
    trajectory_windows,
)

from test_association import StillOracle, det, detection_streams


def nbox(cx, cy, w=0.1, h=0.1):
    return BoundingBox(cx, cy, w, h, "norm")


class LookupOracle:
    """Returns the exact attenuation for the track whose most recent
    window row matches a known ground-truth box."""

    def __init__(self, table, history_length=5):
        # table: {rounded last-box 4-tuple: next motion (4,)}
        self.table = table
        self.history_length = history_length

    def embed_condition(self, windows):
        return windows

    def predict_values(self, noisy, t, windows):
        out = []
        for row in windows:
            key = tuple(np.round(row[0, :4], 9))
            out.append(-np.asarray(self.table[key]))
        return np.stack(out), None


class WindowRecorder:
    """A zero-motion network that keeps every condition batch it sees."""

    def __init__(self, history_length):
        self.history_length = history_length
        self.windows = []

    def embed_condition(self, windows):
        return windows

    def predict_values(self, noisy, t, windows):
        self.windows.append(np.array(windows))
        return np.zeros((len(windows), 4)), None


def observed(predictor, boxes, track_id=1):
    """Start a track on boxes[0] and observe the rest on its row."""
    predictor.start([track_id], stack_boxes(boxes[:1]))
    row = predictor.ids.size - 1
    for b in boxes[1:]:
        predictor.observe([row], stack_boxes([b]))
    return predictor


def stack(*boxes):
    """One track's boxes as a T=1 stack."""
    return stack_boxes(boxes)[None]


def session_windows(histories, n):
    """The (B, n, 8) condition windows a d2mp session builds for tracks
    that observed ``histories``."""
    model = WindowRecorder(history_length=n)
    p = D2MPPredictor(model)
    for tid, history in enumerate(histories, start=1):
        observed(p, history, tid)
    p.predict_all()
    return model.windows[-1]


class TestKalman:
    def test_linear_transition(self):
        mean, cov = kf_initiate(stack_boxes([nbox(10, 10, 4, 8)]))
        mean[:, 4:] = [1.0, 0.0, 0.0, 0.0]
        mean, _ = kf_predict(mean, cov)
        assert np.allclose(mean[0, :4], [11, 10, 4, 8])

    def test_zero_velocity_is_stationary(self):
        mean, cov = kf_initiate(stack_boxes([nbox(0.4, 0.4)]))
        mean, _ = kf_predict(mean, cov)
        assert np.allclose(mean[0, :4], [0.4, 0.4, 0.1, 0.1])

    def test_covariance_grows_under_predict(self):
        mean, cov = kf_initiate(stack_boxes([nbox(0.4, 0.4)]))
        _, advanced = kf_predict(mean, cov)
        assert np.trace(advanced[0]) > np.trace(cov[0])

    def test_update_with_predicted_mean_changes_nothing(self):
        mean, cov = kf_predict(*kf_initiate(stack_boxes([nbox(0.4, 0.4)])))
        updated, _ = kf_update(mean, cov, mean[:, :4])
        assert np.allclose(updated, mean, atol=1e-12)

    def test_repeated_updates_converge_to_measurement(self):
        mean, cov = kf_initiate(stack_boxes([nbox(0.2, 0.2)]))
        target = stack_boxes([nbox(0.6, 0.6)])
        for _ in range(60):
            mean, cov = kf_update(*kf_predict(mean, cov), target)
        assert np.abs(mean[:, :4] - target).max() < 1e-3

    def test_update_contracts_position_variance(self):
        mean, cov = kf_predict(*kf_initiate(stack_boxes([nbox(0.4, 0.4)])))
        _, updated = kf_update(mean, cov, stack_boxes([nbox(0.41, 0.4)]))
        assert np.all(np.diag(updated[0])[:4] <= np.diag(cov[0])[:4] + 1e-15)

    @pytest.mark.parametrize("bad", [-1.0, np.nan, np.inf])
    def test_bad_covariance_raises(self, bad):
        """A negative variance or a non-finite entry in any row fails the
        batched predict and update."""
        mean, cov = kf_initiate(stack_boxes([nbox(0.3, 0.3), nbox(0.6, 0.6)]))
        cov[1, 6, 6] = bad  # the width velocity, which no measurement corrects
        with np.errstate(invalid="ignore"), pytest.raises(NumericError):
            kf_predict(mean, cov)
        with np.errstate(invalid="ignore"), pytest.raises(NumericError):
            kf_update(mean, cov, mean[:, :4])

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), t=st.integers(1, 12))
    def test_batch_equals_per_track(self, seed, t):
        """Each row of a batched predict and update is bit-identical to the
        same filter run on that track alone."""
        rng = np.random.default_rng(seed)
        boxes = np.column_stack([rng.uniform(0, 1, (t, 2)), rng.uniform(0.01, 0.3, (t, 2))])
        mean, cov = kf_initiate(boxes)
        for _ in range(3):
            measured = boxes + rng.normal(0, 0.01, (t, 4))
            batch = kf_update(*kf_predict(mean, cov), measured)
            for i in range(t):
                alone = kf_update(*kf_predict(mean[i:i + 1], cov[i:i + 1]), measured[i:i + 1])
                assert np.array_equal(batch[0][i], alone[0][0]) and np.array_equal(batch[1][i], alone[1][0])
            mean, cov = batch


class TestConstantVelocity:
    def test_linear_extrapolation(self):
        pred = cv_predict(stack(BoundingBox(8, 9, 4, 8), BoundingBox(10, 10, 4, 8)))
        assert np.allclose(pred, [[12, 11, 4, 8]])

    def test_stationary(self):
        b = nbox(0.3, 0.3)
        assert np.array_equal(cv_predict(stack(b, b)), stack_boxes([b]))

    def test_single_box(self):
        b = nbox(0.3, 0.3)
        assert np.array_equal(cv_predict(stack(b)), stack_boxes([b]))

    def test_empty_history_rejected(self):
        with pytest.raises(InvalidInputError):
            cv_predict(np.empty((1, 0, 4)))

    def test_shrinking_box_clamped(self):
        big = nbox(0.5, 0.5, 0.3, 0.3)
        small = nbox(0.5, 0.5, 0.05, 0.05)
        pred = cv_predict(stack(big, small))
        assert pred[0, 2] >= 1e-4 and pred[0, 3] >= 1e-4

    def test_non_finite_prediction_raises(self):
        # each box is finite, but the repeated motion overflows
        p = observed(ConstantVelocityPredictor(), [BoundingBox(-1.5e308, 0, 4, 8), BoundingBox(1.5e308, 0, 4, 8)])
        with np.errstate(over="ignore"), pytest.raises(NumericError):
            p.predict_all()


box_strategy = st.tuples(
    st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.01, 0.3), st.floats(0.01, 0.3)
).map(lambda v: nbox(*v))
box_sequences = st.lists(box_strategy, min_size=1, max_size=12)


class TestConditionWindow:
    def test_full_history(self):
        boxes = [nbox(0.1 + 0.01 * i, 0.2) for i in range(6)]
        (w,) = build_condition_window(stack(*boxes[-4:]))
        assert w.shape == (3, 8)
        # most recent first
        assert w[0, 0] == pytest.approx(0.15)
        assert w[1, 0] == pytest.approx(0.14)
        assert np.allclose(w[:, 4], 0.01)  # per-frame dx

    def test_padding_repeats_oldest(self):
        boxes = [nbox(0.1, 0.2), nbox(0.12, 0.2)]
        (w,) = session_windows([boxes], 5)
        assert w.shape == (5, 8)
        assert np.allclose(w[0, :4], [0.12, 0.2, 0.1, 0.1])
        assert w[0, 4] == pytest.approx(0.02)
        # rows 1.. repeat the oldest row, whose motion is zero
        for k in range(1, 5):
            assert np.allclose(w[k], [0.1, 0.2, 0.1, 0.1, 0, 0, 0, 0])

    def test_length_one_history_zero_motion(self):
        (w,) = session_windows([[nbox(0.4, 0.4)]], 4)
        assert np.allclose(w[:, 4:], 0.0)
        assert np.allclose(w[:, :4], [0.4, 0.4, 0.1, 0.1])

    def test_empty_history_rejected(self):
        # a track with no history is a row the session never started
        p = observed(D2MPPredictor(WindowRecorder(history_length=5)), [nbox(0.4, 0.4)])
        for row in (1, -1):
            with pytest.raises(InvalidInputError):
                p.observe([row], stack_boxes([nbox(0.4, 0.4)]))

    def test_mixed_units_rejected(self):
        """A session fixes its unit mode once and rejects the other mode
        afterwards; its boxes keep the scale of that mode."""
        for p in (KalmanPredictor(), ConstantVelocityPredictor()):
            p.use_units("px")
            p.start([1], stack_boxes([BoundingBox(10, 10, 5, 5, "px")]))
            with pytest.raises(UnitMismatchError):
                p.use_units("norm")
            p.use_units("px")
            p.observe([0], stack_boxes([BoundingBox(11, 10, 5, 5, "px")]))
            # the prediction stays on the pixel scale of the px boxes
            assert np.allclose(p.predict_all()[0, 1:], [10, 5, 5])

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.integers(1, 6), batch=st.integers(1, 4))
    def test_batch_equals_per_row_reference(self, data, n, batch):
        """Each batch row equals the window built row by row by
        ``reference_window``, for histories of 1 to n + 2 boxes."""
        histories = [
            data.draw(st.lists(box_strategy, min_size=1, max_size=n + 2)) for _ in range(batch)
        ]
        got = session_windows(histories, n)
        assert got.shape == (batch, n, 8)
        for history, w in zip(histories, got):
            assert np.array_equal(w, reference_window(history, n))

    @settings(max_examples=60, deadline=None)
    @given(seq=st.lists(box_strategy, min_size=2, max_size=12), n=st.integers(1, 6))
    def test_trajectory_windows_match_reference(self, seq, n):
        """The training-set and diagnostic windows of a whole trajectory: row
        i is the window of the prefix that ends at box i."""
        got = build_condition_window(trajectory_windows(stack_boxes(seq), n))
        assert got.shape == (len(seq) - 1, n, 8)
        for i, w in enumerate(got):
            assert np.array_equal(w, reference_window(seq[:i + 1], n))


def reference_window(history, n):
    """Row i is the i-th most recent (box, motion into it); a history with
    fewer than n + 1 boxes repeats its oldest row, whose motion is zero."""
    boxes = [b.as_array() for b in history]
    rows = []
    for i in range(len(boxes) - 1, max(len(boxes) - 1 - n, -1), -1):
        motion = boxes[i] - boxes[i - 1] if i > 0 else np.zeros(4)
        rows.append(np.concatenate([boxes[i], motion]))
    rows += [rows[-1]] * (n - len(rows))
    return np.stack(rows)


class TestD2MPPredict:
    def _trajectory(self, n_frames=12):
        # a bent path with known per-frame motions
        boxes = []
        cx, cy = 0.3, 0.3
        for f in range(n_frames):
            boxes.append(nbox(cx, cy))
            cx += 0.004
            cy += 0.004 * np.sin(f / 2.0)
        return boxes

    def test_oracle_network_reproduces_ground_truth(self):
        boxes = self._trajectory()
        table = {
            tuple(np.round(boxes[i].as_array(), 9)): (boxes[i + 1].as_array() - boxes[i].as_array())
            for i in range(len(boxes) - 1)
        }
        p = D2MPPredictor(LookupOracle(table), PredictorConfig(kind="d2mp"))
        p.start([1], stack_boxes(boxes[:1]))
        for i in range(1, len(boxes) - 1):
            p.observe([0], stack_boxes([boxes[i]]))
            pred = p.predict_all()[0]
            assert np.abs(pred - boxes[i + 1].as_array()).max() < 1e-12

    def test_zero_motion_model_keeps_box(self):
        p = D2MPPredictor(LookupOracle({tuple(np.round(nbox(0.4, 0.4).as_array(), 9)): np.zeros(4)}))
        p.start([1], stack_boxes([nbox(0.4, 0.4)]))
        assert np.array_equal(p.predict_all(), stack(nbox(0.4, 0.4))[0])

    def test_fixed_seed_deterministic(self):
        boxes = self._trajectory(6)
        table = {
            tuple(np.round(b.as_array(), 9)): np.array([0.004, 0.0, 0.0, 0.0]) for b in boxes
        }
        cfg = PredictorConfig(kind="d2mp", sampling_steps=10, seed=5)
        a = observed(D2MPPredictor(LookupOracle(table), cfg), boxes).predict_all()
        b = observed(D2MPPredictor(LookupOracle(table), cfg), boxes).predict_all()
        assert np.array_equal(a, b)

    def test_window_length_comes_from_model(self):
        boxes = [nbox(0.3 + 0.01 * i, 0.3) for i in range(6)]
        model = WindowRecorder(history_length=3)
        p = observed(observed(D2MPPredictor(model), boxes, 1), boxes, 2)
        p.predict_all()
        assert model.windows[-1].shape == (2, 3, 8)


class ReencodingD2MP(D2MPPredictor):
    """The reference for the embedding cache: every predict encodes every
    row, as if no embedding were kept."""

    def _predict(self):
        self._pending[:] = True
        return super()._predict()


class FailingEncoder(WindowRecorder):
    """A zero-motion network whose second encode raises."""

    def __init__(self, history_length):
        super().__init__(history_length)
        self.encoded = []

    def embed_condition(self, windows):
        self.encoded.append(np.array(windows))
        if len(self.encoded) == 2:
            raise NumericError("encoder overflow")
        return windows


class TestEmbeddingCache:
    """The d2mp session encodes a track's window only when it changes: when
    the track starts or is observed. A predict encodes those rows alone."""

    def test_encodes_rows_started_or_observed_since_last_predict(self, monkeypatch):
        encoded = []
        embed = HMINet.embed_condition

        def spy(self, windows):
            encoded.append(np.array(windows))
            return embed(self, windows)

        monkeypatch.setattr(HMINet, "embed_condition", spy)
        p = D2MPPredictor(HMINet.init(ModelConfig(), 0))
        latest = {}

        def start(tid, cx):
            latest[tid] = nbox(cx, 0.5).as_array()
            p.start([tid], latest[tid][None])

        def observe(tid, dx):
            latest[tid] = latest[tid] + [dx, 0, 0, 0]
            p.observe([p.ids.tolist().index(tid)], latest[tid][None])

        def predict_encodes(ids):
            """Predict; the one encode (if any) holds exactly the windows of
            ``ids``, whose most recent box is their first row."""
            before = len(encoded)
            p.predict_all()
            if not ids:
                assert len(encoded) == before
                return
            assert len(encoded) == before + 1
            got = encoded[-1]
            assert {tuple(w[0, :4]) for w in got} == {tuple(latest[tid]) for tid in ids}
            # a lone changed row of a larger table is encoded as a batch of two
            assert len(got) == (2 if len(ids) == 1 < p.ids.size else len(ids))

        for tid, cx in [(1, 0.2), (2, 0.5), (3, 0.8)]:
            start(tid, cx)
        predict_encodes([1, 2, 3])
        observe(2, 0.01)
        predict_encodes([2])
        predict_encodes([])  # every track missed: no window changed
        observe(1, 0.01)
        observe(3, -0.01)
        start(4, 0.35)
        predict_encodes([1, 3, 4])
        p.drop([1])
        predict_encodes([])
        p.drop([0, 1])
        # the only track is encoded alone at every predict, as a full re-encode would be
        predict_encodes([4])
        predict_encodes([4])
        start(5, 0.9)
        predict_encodes([4, 5])
        predict_encodes([])

    @pytest.mark.parametrize("steps", [1, 3])
    @settings(max_examples=20, deadline=None)
    @given(stream=detection_streams, max_age=st.integers(0, 3), seed=st.integers(0, 2**16))
    def test_cached_predictions_equal_reencoding_every_row(self, steps, stream, max_age, seed):
        """Through misses, births and deaths, each frame's predictions are
        bit-equal to a session that re-encodes every row, drawing from the
        same rng streams."""
        net = HMINet.init(ModelConfig(), 1)
        config = PredictorConfig(kind="d2mp", sampling_steps=steps, seed=seed)
        sessions = [D2MPPredictor(net, config), ReencodingD2MP(net, config)]
        predictions = [[], []]
        for session, out in zip(sessions, predictions):
            def predict_all(predict=session.predict_all, out=out):
                out.append(predict())
                return out[-1]
            session.predict_all = predict_all
        trackers = [Tracker(TrackerConfig(max_age=max_age), s) for s in sessions]
        frame = 0
        for gap, dets in stream:
            frame += gap
            for tracker in trackers:
                tracker.step(frame, [det(frame, cx, cy, conf) for cx, cy, conf in dets])
        assert len(predictions[0]) == len(predictions[1]) == len(stream)
        for cached, full in zip(*predictions):
            assert np.array_equal(cached, full)

    def test_failed_predict_leaves_rows_pending(self):
        """A predict that raises encodes nothing for good: the next one
        encodes the same rows, although they now count a miss."""
        model = FailingEncoder(history_length=3)
        p = D2MPPredictor(model)
        boxes = stack_boxes([nbox(0.3, 0.3), nbox(0.6, 0.6)])
        p.start([1, 2], boxes)
        p.predict_all()
        p.observe([1], stack_boxes([nbox(0.62, 0.6)]))
        with pytest.raises(NumericError):
            p.predict_all()
        assert p.misses.tolist() == [2, 1]
        pred = p.predict_all()
        assert [len(w) for w in model.encoded] == [2, 2, 2]
        assert np.array_equal(model.encoded[2], model.encoded[1])  # row 1 twice, as a batch of two
        assert np.array_equal(pred, stack_boxes([nbox(0.3, 0.3), nbox(0.62, 0.6)]))


class RecordingD2MP(D2MPPredictor):
    """A d2mp session that keeps every batch of normals it serves, with the
    ids of the rows it served them to."""

    def __init__(self, model, config):
        super().__init__(model, config)
        self.drawn = []
        self.predicts = 0

    def _predict(self):
        self.predicts += 1
        return super()._predict()

    def _next_normals(self, size):
        draws = super()._next_normals(size)
        self.drawn.append((self.ids.copy(), draws))
        return draws


class TestNoiseStreams:
    """A d2mp track's noise is the stream of its own Generator, seeded from
    (seed, id), whatever the tracks beside it and however its block of
    normals is buffered."""

    @pytest.mark.parametrize("deterministic", [False, True])
    @pytest.mark.parametrize("steps", [1, 3])
    @settings(max_examples=25, deadline=None)
    @given(stream=detection_streams, max_age=st.integers(0, 3), seed=st.integers(0, 2**16))
    def test_draws_equal_per_track_streams(self, steps, deterministic, stream, max_age, seed):
        config = PredictorConfig(kind="d2mp", sampling_steps=steps, deterministic=deterministic, seed=seed)
        session = RecordingD2MP(StillOracle(), config)
        tracker = Tracker(TrackerConfig(max_age=max_age), session)
        frame = 0
        for gap, dets in stream:
            frame += gap
            tracker.step(frame, [det(frame, cx, cy, conf) for cx, cy, conf in dets])
        # the first draw, then one noise draw per step but the noise-free last
        assert len(session.drawn) == session.predicts * (1 if deterministic else steps)
        reference = {}
        for ids, draws in session.drawn:
            for tid, row in zip(ids.tolist(), draws):
                rng = reference.setdefault(tid, np.random.default_rng((seed, tid)))
                assert np.array_equal(row, rng.standard_normal(4))

    def test_used_up_blocks_continue_the_stream(self):
        session = RecordingD2MP(StillOracle(), PredictorConfig(kind="d2mp", sampling_steps=10, seed=2))
        session.start([4], stack_boxes([nbox(0.5, 0.5)]))
        for _ in range(2 * NOISE_BLOCK // 10 + 1):  # 10 draws per predict: three blocks
            session.predict_all()
        drawn = np.concatenate([draws for _, draws in session.drawn])
        assert len(drawn) > 2 * NOISE_BLOCK
        assert np.array_equal(drawn, np.random.default_rng((2, 4)).standard_normal((len(drawn), 4)))


class TestBoundedSessionHistory:
    """A session keeps only a track's latest boxes; what its predictor reads
    must equal what it would read from the whole observed sequence."""

    @settings(max_examples=60, deadline=None)
    @given(seq=box_sequences)
    def test_cv_matches_full_history(self, seq):
        pred = observed(ConstantVelocityPredictor(), seq).predict_all()
        assert np.array_equal(pred, cv_predict(stack(*seq)))

    @settings(max_examples=60, deadline=None)
    @given(seq=box_sequences, n=st.integers(1, 6))
    def test_d2mp_window_matches_full_history(self, seq, n):
        model = WindowRecorder(history_length=n)
        observed(D2MPPredictor(model), seq).predict_all()
        assert np.array_equal(model.windows[-1][0], reference_window(seq, n))


class TestSessions:
    def test_common_contract(self):
        table = {tuple(np.round(nbox(0.4, 0.4).as_array(), 9)): np.zeros(4)}
        predictors = [
            KalmanPredictor(),
            ConstantVelocityPredictor(),
            D2MPPredictor(LookupOracle(table)),
        ]
        for p in predictors:
            p.start([1], stack_boxes([nbox(0.4, 0.4)]))
            pred = p.predict_all()
            assert pred.shape == (1, 4) and (pred[:, 2:] > 0).all()
            p.drop([0])
            assert p.ids.size == 0 and p.predict_all().shape == (0, 4)
            with pytest.raises(InvalidInputError):
                p.drop([0])

    def test_start_live_id_rejected(self):
        table = {tuple(np.round(nbox(0.4, 0.4).as_array(), 9)): np.zeros(4)}
        for p in (KalmanPredictor(), ConstantVelocityPredictor(), D2MPPredictor(LookupOracle(table))):
            p.start([1], stack_boxes([nbox(0.4, 0.4)]))
            with pytest.raises(InvalidInputError):
                p.start([1], stack_boxes([nbox(0.4, 0.4)]))
            p.drop([0])
            # the session may take a dropped id again; the tracker never does
            p.start([1], stack_boxes([nbox(0.4, 0.4)]))
            assert np.array_equal(p.predict_all(), stack(nbox(0.4, 0.4))[0])

    @pytest.mark.parametrize("ids", [[3, 2], [2, 2], [1]])
    def test_new_ids_must_ascend_above_live_ids(self, ids):
        p = KalmanPredictor()
        p.start([1], stack_boxes([nbox(0.4, 0.4)]))
        with pytest.raises(InvalidInputError):
            p.start(ids, stack_boxes([nbox(0.4, 0.4)] * len(ids)))
        assert p.ids.tolist() == [1]

    @pytest.mark.parametrize("rows", [[-1], [2], [0, 2]])
    def test_rows_outside_the_table_rejected(self, rows):
        """A negative row would silently index from the end."""
        for p in (KalmanPredictor(), ConstantVelocityPredictor()):
            p.start([1, 2], stack_boxes([nbox(0.3, 0.3), nbox(0.6, 0.6)]))
            with pytest.raises(InvalidInputError):
                p.observe(rows, stack_boxes([nbox(0.3, 0.3)] * len(rows)))
            with pytest.raises(InvalidInputError):
                p.drop(rows)
            assert p.ids.tolist() == [1, 2]

    def test_misses_count_predicts_since_observed(self):
        p = ConstantVelocityPredictor()
        p.start([1, 2], stack_boxes([nbox(0.3, 0.3), nbox(0.6, 0.6)]))
        assert p.misses.tolist() == [0, 0]
        p.predict_all()
        p.predict_all()
        p.observe([1], stack_boxes([nbox(0.6, 0.6)]))
        p.start([5], stack_boxes([nbox(0.8, 0.8)]))
        assert p.misses.tolist() == [2, 0, 0]
        p.drop([0])
        p.predict_all()
        assert p.ids.tolist() == [2, 5] and p.misses.tolist() == [1, 1]

    def test_predictions_are_fresh_arrays(self):
        """Writing into a returned prediction leaves the session's state as
        it was."""
        for p in (KalmanPredictor(), ConstantVelocityPredictor()):
            p.start([1], stack_boxes([nbox(0.4, 0.4)]))
            p.predict_all()[:] = 0.0
            assert np.array_equal(p.predict_all(), stack(nbox(0.4, 0.4))[0])

    def test_diagnose_needs_empty_session(self):
        boxes = [nbox(0.4 + 0.01 * i, 0.4) for i in range(4)]
        p = KalmanPredictor()
        assert p.diagnose_trajectory(stack_boxes(boxes)).shape == (3, 4) and p.ids.size == 0
        p.start([1], stack_boxes(boxes[:1]))
        with pytest.raises(InvalidInputError):
            p.diagnose_trajectory(stack_boxes(boxes))

    def test_d2mp_clamps_floored_and_counted(self):
        shrink, keep = nbox(0.4, 0.4), nbox(0.7, 0.7)
        table = {
            tuple(np.round(shrink.as_array(), 9)): np.array([0.0, 0.0, -0.2, 0.0]),
            tuple(np.round(keep.as_array(), 9)): np.zeros(4),
        }
        p = D2MPPredictor(LookupOracle(table))
        p.start([1, 2, 3], stack_boxes([shrink, shrink, keep]))
        pred = p.predict_all()
        assert np.array_equal(pred[:2, 2], [MIN_BOX_EXTENT] * 2)
        assert np.array_equal(pred[2], keep.as_array())
        assert p.clamp_count == 2

    def test_d2mp_requires_normalized_boxes(self):
        p = D2MPPredictor(LookupOracle({}))
        with pytest.raises(UnitMismatchError):
            p.use_units("px")

    def test_kf_cv_track_constant_velocity_to_high_iou(self):
        """Noiseless constant-velocity track: both linear predictors reach
        IoU >= 0.99 after a burn-in of 5 frames."""
        boxes = [nbox(0.2 + 0.004 * f, 0.3 + 0.002 * f) for f in range(40)]
        for p in (KalmanPredictor(), ConstantVelocityPredictor()):
            preds = p.diagnose_trajectory(stack_boxes(boxes))
            ious = iou_pairs(preds, stack_boxes(boxes[1:]))[5:]
            assert min(ious) >= 0.99, type(p).__name__

    def test_d2mp_batch_matches_composition(self):
        # per-track rngs make each track's draw independent of the batch
        table = {}
        starts = [nbox(0.2, 0.2), nbox(0.5, 0.5), nbox(0.8, 0.8)]
        for b in starts:
            table[tuple(np.round(b.as_array(), 9))] = np.array([0.01, 0.0, 0.0, 0.0])
        p = D2MPPredictor(LookupOracle(table), PredictorConfig(kind="d2mp", seed=3))
        p.start([1, 2, 3], stack_boxes(starts))
        batch = p.predict_all()
        for tid, b in zip([1, 2, 3], starts):
            assert np.allclose(batch[tid - 1], b.as_array() + [0.01, 0, 0, 0])

    def test_make_predictor_dispatch(self):
        assert isinstance(make_predictor(PredictorConfig(kind="kf")), KalmanPredictor)
        assert isinstance(make_predictor(PredictorConfig(kind="cv")), ConstantVelocityPredictor)
        with pytest.raises(InvalidInputError):
            make_predictor(PredictorConfig(kind="d2mp"))

    def test_config_validation(self):
        with pytest.raises(InvalidInputError):
            PredictorConfig(kind="lstm")
        with pytest.raises(InvalidInputError):
            PredictorConfig(sampling_steps=0)
