import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddmot.core import BoundingBox, InvalidInputError, Motion, MotionInfo, UnitMismatchError, iou, motion_from_boxes
from ddmot.predictors import (
    ConstantVelocityPredictor,
    D2MPPredictor,
    KalmanPredictor,
    PredictorConfig,
    build_condition_window,
    cv_predict,
    kf_initiate,
    kf_predict,
    kf_update,
    make_predictor,
)

KF_CFG = PredictorConfig(kind="kf")


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
        w = np.asarray(windows)
        if w.ndim == 2:
            w = w[None]
        out = []
        for row in w:
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
    """Start a session on boxes[0] and observe the rest."""
    predictor.start(track_id, boxes[0])
    for b in boxes[1:]:
        predictor.observe(track_id, b)
    return predictor


class TestKalman:
    def test_linear_transition(self):
        state = kf_initiate(nbox(10, 10, 4, 8), KF_CFG)
        state.mean[4:] = [1.0, 0.0, 0.0, 0.0]
        box, _ = kf_predict(state, KF_CFG, "norm")
        assert np.allclose(box.as_array(), [11, 10, 4, 8])

    def test_zero_velocity_is_stationary(self):
        state = kf_initiate(nbox(0.4, 0.4), KF_CFG)
        box, _ = kf_predict(state, KF_CFG, "norm")
        assert np.allclose(box.as_array(), [0.4, 0.4, 0.1, 0.1])

    def test_covariance_grows_under_predict(self):
        state = kf_initiate(nbox(0.4, 0.4), KF_CFG)
        _, advanced = kf_predict(state, KF_CFG)
        assert np.trace(advanced.cov) > np.trace(state.cov)

    def test_update_with_predicted_mean_changes_nothing(self):
        state = kf_initiate(nbox(0.4, 0.4), KF_CFG)
        _, state = kf_predict(state, KF_CFG)
        measurement = BoundingBox(*state.mean[:4], "norm")
        updated = kf_update(state, measurement, KF_CFG)
        assert np.allclose(updated.mean, state.mean, atol=1e-12)

    def test_repeated_updates_converge_to_measurement(self):
        state = kf_initiate(nbox(0.2, 0.2), KF_CFG)
        target = nbox(0.6, 0.6)
        for _ in range(60):
            _, state = kf_predict(state, KF_CFG)
            state = kf_update(state, target, KF_CFG)
        assert np.abs(state.mean[:4] - target.as_array()).max() < 1e-3

    def test_update_contracts_position_variance(self):
        state = kf_initiate(nbox(0.4, 0.4), KF_CFG)
        _, state = kf_predict(state, KF_CFG)
        updated = kf_update(state, nbox(0.41, 0.4), KF_CFG)
        assert np.all(np.diag(updated.cov)[:4] <= np.diag(state.cov)[:4] + 1e-15)


class TestConstantVelocity:
    def test_linear_extrapolation(self):
        pred = cv_predict([BoundingBox(8, 9, 4, 8), BoundingBox(10, 10, 4, 8)])
        assert np.allclose(pred.as_array(), [12, 11, 4, 8])

    def test_stationary(self):
        b = nbox(0.3, 0.3)
        assert cv_predict([b, b]) == b

    def test_single_box(self):
        b = nbox(0.3, 0.3)
        assert cv_predict([b]) == b

    def test_empty_history_rejected(self):
        with pytest.raises(InvalidInputError):
            cv_predict([])

    def test_shrinking_box_clamped(self):
        big = nbox(0.5, 0.5, 0.3, 0.3)
        small = nbox(0.5, 0.5, 0.05, 0.05)
        pred = cv_predict([big, small], min_extent=1e-4)
        assert pred.w >= 1e-4 and pred.h >= 1e-4


box_strategy = st.tuples(
    st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.01, 0.3), st.floats(0.01, 0.3)
).map(lambda v: nbox(*v))
box_sequences = st.lists(box_strategy, min_size=1, max_size=12)


class TestConditionWindow:
    def test_full_history(self):
        boxes = [nbox(0.1 + 0.01 * i, 0.2) for i in range(6)]
        (w,) = build_condition_window([boxes], 3)
        assert w.shape == (3, 8)
        # most recent first
        assert w[0, 0] == pytest.approx(0.15)
        assert w[1, 0] == pytest.approx(0.14)
        assert np.allclose(w[:, 4], 0.01)  # per-frame dx

    def test_padding_repeats_oldest(self):
        boxes = [nbox(0.1, 0.2), nbox(0.12, 0.2)]
        (w,) = build_condition_window([boxes], 5)
        assert w.shape == (5, 8)
        assert np.allclose(w[0, :4], [0.12, 0.2, 0.1, 0.1])
        assert w[0, 4] == pytest.approx(0.02)
        # rows 1.. repeat the oldest row, whose motion is zero
        for k in range(1, 5):
            assert np.allclose(w[k], [0.1, 0.2, 0.1, 0.1, 0, 0, 0, 0])

    def test_length_one_history_zero_motion(self):
        (w,) = build_condition_window([[nbox(0.4, 0.4)]], 4)
        assert np.allclose(w[:, 4:], 0.0)
        assert np.allclose(w[:, :4], [0.4, 0.4, 0.1, 0.1])

    def test_empty_history_rejected(self):
        with pytest.raises(InvalidInputError):
            build_condition_window([[nbox(0.4, 0.4)], []], 5)

    def test_mixed_units_rejected(self):
        with pytest.raises(UnitMismatchError):
            build_condition_window([[BoundingBox(10, 10, 5, 5, "px"), nbox(0.4, 0.4)]], 3)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.integers(1, 6), batch=st.integers(1, 4))
    def test_batch_equals_per_row_reference(self, data, n, batch):
        """Each batch row equals the window built row by row from
        ``motion_from_boxes``/``MotionInfo``, for histories of 1 to n + 2 boxes."""
        histories = [
            data.draw(st.lists(box_strategy, min_size=1, max_size=n + 2)) for _ in range(batch)
        ]
        got = build_condition_window(histories, n)
        assert got.shape == (batch, n, 8)
        for history, w in zip(histories, got):
            assert np.array_equal(w, reference_window(history, n))


def reference_window(history, n):
    """Row i is the i-th most recent (box, motion into it); a history with
    fewer than n + 1 boxes repeats its oldest row, whose motion is zero."""
    rows = []
    for i in range(len(history) - 1, max(len(history) - 1 - n, -1), -1):
        motion = motion_from_boxes(history[i - 1], history[i]) if i > 0 else Motion.zero()
        rows.append(MotionInfo(history[i], motion).as_array())
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
        p.start(1, boxes[0])
        for i in range(1, len(boxes) - 1):
            p.observe(1, boxes[i])
            pred = p.predict(1)
            assert np.abs(pred.as_array() - boxes[i + 1].as_array()).max() < 1e-12

    def test_zero_motion_model_keeps_box(self):
        p = D2MPPredictor(LookupOracle({tuple(np.round(nbox(0.4, 0.4).as_array(), 9)): np.zeros(4)}))
        p.start(1, nbox(0.4, 0.4))
        assert p.predict(1) == nbox(0.4, 0.4)

    def test_fixed_seed_deterministic(self):
        boxes = self._trajectory(6)
        table = {
            tuple(np.round(b.as_array(), 9)): np.array([0.004, 0.0, 0.0, 0.0]) for b in boxes
        }
        cfg = PredictorConfig(kind="d2mp", sampling_steps=10, seed=5)
        a = observed(D2MPPredictor(LookupOracle(table), cfg), boxes).predict(1).as_array()
        b = observed(D2MPPredictor(LookupOracle(table), cfg), boxes).predict(1).as_array()
        assert np.array_equal(a, b)

    def test_window_length_comes_from_model(self):
        boxes = [nbox(0.3 + 0.01 * i, 0.3) for i in range(6)]
        model = WindowRecorder(history_length=3)
        p = observed(observed(D2MPPredictor(model), boxes, 1), boxes, 2)
        p.predict_all([1, 2])
        assert model.windows[-1].shape == (2, 3, 8)


class TestBoundedSessionHistory:
    """A session keeps only a track's latest boxes; what its predictor reads
    must equal what it would read from the whole observed sequence."""

    @settings(max_examples=60, deadline=None)
    @given(seq=box_sequences)
    def test_cv_matches_full_history(self, seq):
        assert observed(ConstantVelocityPredictor(), seq).predict(1) == cv_predict(seq)

    @settings(max_examples=60, deadline=None)
    @given(seq=box_sequences, n=st.integers(1, 6))
    def test_d2mp_window_matches_full_history(self, seq, n):
        model = WindowRecorder(history_length=n)
        observed(D2MPPredictor(model), seq).predict(1)
        assert np.array_equal(model.windows[-1][0], build_condition_window([seq], n)[0])


class TestSessions:
    def test_common_contract(self):
        table = {tuple(np.round(nbox(0.4, 0.4).as_array(), 9)): np.zeros(4)}
        predictors = [
            KalmanPredictor(),
            ConstantVelocityPredictor(),
            D2MPPredictor(LookupOracle(table)),
        ]
        for p in predictors:
            p.start(1, nbox(0.4, 0.4))
            box = p.predict(1)
            assert isinstance(box, BoundingBox) and box.w > 0 and box.h > 0
            p.drop(1)
            with pytest.raises(KeyError):
                p.predict(1)

    def test_d2mp_requires_normalized_boxes(self):
        p = D2MPPredictor(LookupOracle({}))
        with pytest.raises(UnitMismatchError):
            p.start(1, BoundingBox(10, 10, 5, 5, "px"))

    def test_kf_cv_track_constant_velocity_to_high_iou(self):
        """Noiseless constant-velocity track: both linear predictors reach
        IoU >= 0.99 after a burn-in of 5 frames."""
        boxes = [nbox(0.2 + 0.004 * f, 0.3 + 0.002 * f) for f in range(40)]
        for p in (KalmanPredictor(), ConstantVelocityPredictor()):
            preds = p.diagnose_trajectory(boxes)
            ious = [iou(a, b) for a, b in zip(preds, boxes[1:])][5:]
            assert min(ious) >= 0.99, type(p).__name__

    def test_d2mp_batch_matches_composition(self):
        # per-track rngs make each track's draw independent of the batch
        table = {}
        starts = [nbox(0.2, 0.2), nbox(0.5, 0.5), nbox(0.8, 0.8)]
        for b in starts:
            table[tuple(np.round(b.as_array(), 9))] = np.array([0.01, 0.0, 0.0, 0.0])
        p = D2MPPredictor(LookupOracle(table), PredictorConfig(kind="d2mp", seed=3))
        for tid, b in enumerate(starts, start=1):
            p.start(tid, b)
        batch = p.predict_all([1, 2, 3])
        for tid, b in zip([1, 2, 3], starts):
            assert np.allclose(batch[tid - 1].as_array(), b.as_array() + [0.01, 0, 0, 0])

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
