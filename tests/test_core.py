import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddmot.core import (
    BoundingBox,
    DegenerateBoxError,
    Detection,
    InvalidInputError,
    MotRecord,
    MotTable,
    UnitMismatchError,
    center_to_tlwh,
    denormalize_box,
    iou_matrix,
    iou_pairs,
    normalize_box,
    stack_boxes,
    tlwh_to_center,
)
from ddmot.predictors import _apply_motion, build_condition_window


def iou(a: BoundingBox, b: BoundingBox) -> float:
    """Reference scalar IoU of two boxes of one unit mode, in [0, 1]; 0 for
    disjoint or edge-touching boxes. ``iou_pairs`` and ``iou_matrix`` must
    agree with it."""
    if a.units != b.units:
        raise UnitMismatchError(f"iou: unit modes differ ({a.units} vs {b.units})")
    if a == b:
        return 1.0
    ix = min(a.cx + a.w / 2, b.cx + b.w / 2) - max(a.cx - a.w / 2, b.cx - b.w / 2)
    iy = min(a.cy + a.h / 2, b.cy + b.h / 2) - max(a.cy - a.h / 2, b.cy - b.h / 2)
    if ix <= 0 or iy <= 0:
        return 0.0
    inter = ix * iy
    union = a.w * a.h + b.w * b.h - inter
    return min(max(inter / union, 0.0), 1.0)  # rounding can overshoot by an ulp


def box(cx, cy, w, h, units="px"):
    return BoundingBox(cx, cy, w, h, units)


def random_box(rng, units="px"):
    return BoundingBox(rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(0.1, 4), rng.uniform(0.1, 4), units)


def window_motion(prev, curr):
    """The motion into ``curr`` as the condition window of (prev, curr)
    carries it."""
    return build_condition_window(stack_boxes([prev, curr])[None])[0, 0, 4:]


class TestMotionFromBoxes:
    """A motion is a box array's row-wise delta; the condition window's
    motion half is its one implementation."""

    def test_direct_delta(self):
        assert window_motion(box(8, 9, 4, 8), box(10, 10, 4, 8)).tolist() == [2, 1, 0, 0]

    def test_identity(self):
        b = box(3, 4, 2, 2)
        assert window_motion(b, b).tolist() == [0, 0, 0, 0]

    def test_negative_components(self):
        m = window_motion(box(0.5, 0.5, 0.2, 0.4, "norm"), box(0.45, 0.5, 0.25, 0.4, "norm"))
        assert np.allclose(m, [-0.05, 0.0, 0.05, 0.0])


class TestApplyMotion:
    """Boxes plus motions with floored extents, the one implementation
    that the constant-velocity and d2mp predictors share."""

    def test_inverse_of_delta(self):
        pred, clamped = _apply_motion(np.array([[8.0, 9, 4, 8]]), np.array([[2.0, 1, 0, 0]]), 1e-4)
        assert pred.tolist() == [[10, 10, 4, 8]] and clamped == 0

    def test_zero_motion(self):
        b = np.array([[8.0, 9, 4, 8]])
        assert np.array_equal(_apply_motion(b, np.zeros((1, 4)), 1e-4)[0], b)

    def test_degenerate_width(self):
        # a motion that closes the box is floored at the minimum extent and counted
        pred, clamped = _apply_motion(np.array([[0.5, 0.5, 0.1, 0.1]]), np.array([[0.0, 0, -0.1, 0]]), 1e-4)
        assert pred.tolist() == [[0.5, 0.5, 1e-4, 0.1]] and clamped == 1

    def test_round_trip_property(self):
        rng = np.random.default_rng(7)
        prev = stack_boxes([random_box(rng) for _ in range(200)])
        curr = stack_boxes([random_box(rng) for _ in range(200)])
        motion = build_condition_window(np.stack([prev, curr], axis=1))[:, 0, 4:]
        back, _ = _apply_motion(prev, motion, 1e-4)
        assert np.abs(back - curr).max() < 1e-12


class TestIou:
    def test_identical(self):
        b = box(1, 2, 3, 4)
        assert iou(b, b) == 1.0

    def test_edge_touching(self):
        assert iou(box(0, 0, 1, 1), box(1, 0, 1, 1)) == 0.0

    def test_hand_computed_third(self):
        # inter = 1x2 = 2, union = 4 + 4 - 2 = 6
        assert iou(box(0, 0, 2, 2), box(1, 0, 2, 2)) == pytest.approx(1 / 3, abs=1e-15)

    def test_symmetry_bounds_translation(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            a, b = random_box(rng), random_box(rng)
            v = iou(a, b)
            assert 0.0 <= v <= 1.0
            assert v == pytest.approx(iou(b, a), abs=1e-15)
            dx, dy = rng.uniform(-3, 3, 2)
            a2 = BoundingBox(a.cx + dx, a.cy + dy, a.w, a.h)
            b2 = BoundingBox(b.cx + dx, b.cy + dy, b.w, b.h)
            assert iou(a2, b2) == pytest.approx(v, abs=1e-12)

    def test_one_iff_identical(self):
        a = box(0, 0, 2, 2)
        almost = box(0, 0, 2, 2.000001)
        assert iou(a, almost) < 1.0

    def test_matrix_matches_scalar(self):
        rng = np.random.default_rng(3)
        boxes_a = [random_box(rng) for _ in range(6)]
        boxes_b = [random_box(rng) for _ in range(4)]
        m = iou_matrix(np.stack([b.as_array() for b in boxes_a]), np.stack([b.as_array() for b in boxes_b]))
        for i, a in enumerate(boxes_a):
            for j, b in enumerate(boxes_b):
                assert m[i, j] == pytest.approx(iou(a, b), abs=1e-12)

    def test_pairs_equal_scalar(self):
        """Row-by-row IoU is bit-equal to the scalar one, identical boxes
        (exactly 1) included."""
        rng = np.random.default_rng(4)
        boxes_a = [random_box(rng) for _ in range(200)]
        boxes_b = [random_box(rng) if i % 2 else a for i, a in enumerate(boxes_a)]
        got = iou_pairs(stack_boxes(boxes_a), stack_boxes(boxes_b))
        assert got.tolist() == [iou(a, b) for a, b in zip(boxes_a, boxes_b)]

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), n=st.integers(0, 8), m=st.integers(0, 8))
    def test_array_forms_symmetric_and_bounded(self, data, n, m):
        """``iou_matrix`` is exactly its own transpose under swapped
        arguments and lies in [0, 1]; ``iou_pairs`` is exactly symmetric."""
        rows = st.tuples(st.floats(-5, 5), st.floats(-5, 5), st.floats(1e-3, 4), st.floats(1e-3, 4))
        a = np.array(data.draw(st.lists(rows, min_size=n, max_size=n)), dtype=np.float64).reshape(n, 4)
        b = np.array(data.draw(st.lists(rows, min_size=m, max_size=m)), dtype=np.float64).reshape(m, 4)
        ab = iou_matrix(a, b)
        assert np.array_equal(ab, iou_matrix(b, a).T)
        assert ((ab >= 0.0) & (ab <= 1.0)).all()
        k = min(n, m)
        assert np.array_equal(iou_pairs(a[:k], b[:k]), iou_pairs(b[:k], a[:k]))


class TestTlwhConversion:
    def test_definition(self):
        assert tlwh_to_center(0, 0, 2, 2) == box(1, 1, 2, 2)
        assert tlwh_to_center(10, 20, 4, 8) == box(12, 24, 4, 8)

    def test_round_trip_dyadic_exact(self):
        b = box(12.5, 24.25, 4.0, 8.5)
        assert tlwh_to_center(*center_to_tlwh(b)) == b

    def test_round_trip_within_1e12(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            b = random_box(rng)
            back = tlwh_to_center(*center_to_tlwh(b))
            assert np.abs(back.as_array() - b.as_array()).max() < 1e-12

    def test_rejects_flat_boxes(self):
        with pytest.raises(InvalidInputError):
            tlwh_to_center(0, 0, 0, 2)


class TestTypes:
    def test_box_invariants(self):
        with pytest.raises(DegenerateBoxError):
            BoundingBox(0, 0, -1, 1)
        with pytest.raises(InvalidInputError):
            BoundingBox(0, 0, 1, 1, "furlongs")
        with pytest.raises(InvalidInputError):
            BoundingBox(np.nan, 0, 1, 1)

    def test_detection_invariants(self):
        with pytest.raises(InvalidInputError):
            Detection(0, box(1, 1, 1, 1), 0.5)
        with pytest.raises(InvalidInputError):
            Detection(1, box(1, 1, 1, 1), 1.5)

    def test_immutability(self):
        b = box(1, 1, 1, 1)
        with pytest.raises(AttributeError):
            b.cx = 2.0


class TestNormalization:
    def test_round_trip(self):
        b = box(320, 240, 64, 48)
        n = normalize_box(b, 640, 480)
        assert n.units == "norm"
        assert np.allclose(n.as_array(), [0.5, 0.5, 0.1, 0.1])
        assert denormalize_box(n, 640, 480) == b

    def test_center_clamped_on_ingest(self):
        n = normalize_box(box(-10, 700, 20, 20), 640, 480)
        assert n.cx == 0.0 and n.cy == 1.0

    def test_mode_guards(self):
        with pytest.raises(UnitMismatchError):
            normalize_box(box(1, 1, 1, 1, "norm"), 10, 10)
        with pytest.raises(UnitMismatchError):
            denormalize_box(box(1, 1, 1, 1, "px"), 10, 10)


class TestMotTable:
    def test_rows_sorted_stably_by_frame(self):
        t = MotTable([3, 1, 3, 1], [1, 2, 3, 4], [[5, 5, 2, 2]] * 4, 1.0)
        assert t.frame.tolist() == [1, 1, 3, 3] and t.track_id.tolist() == [2, 4, 1, 3]

    def test_iteration_yields_validated_records(self):
        t = MotTable([1, 2], [7, 8], [[5, 5, 2, 2], [6, 5, 2, 3]], [0.5, 1.0], "norm")
        assert list(t) == [MotRecord(1, 7, box(5, 5, 2, 2, "norm"), 0.5), MotRecord(2, 8, box(6, 5, 2, 3, "norm"), 1.0)]
        assert len(t) == 2 and len(t[1:]) == 1 and t[1:].units == "norm"

    def test_of_converts_records_once_and_keeps_tables(self):
        t = MotTable.of([MotRecord(2, 1, box(5, 5, 2, 2)), MotRecord(1, 2, box(6, 6, 2, 2), 0.3)])
        assert t.frame.tolist() == [1, 2] and t.conf.tolist() == [0.3, 1.0] and t.units == "px"
        assert MotTable.of(t) is t
        with pytest.raises(UnitMismatchError):
            MotTable.of([MotRecord(1, 1, box(5, 5, 2, 2)), MotRecord(1, 2, box(0.5, 0.5, 0.1, 0.1, "norm"))])

    @pytest.mark.parametrize("frame, boxes, conf, units, error", [
        ([0], [[5, 5, 2, 2]], 1.0, "px", InvalidInputError),
        ([1.5], [[5, 5, 2, 2]], 1.0, "px", InvalidInputError),
        ([1], [[5, np.inf, 2, 2]], 1.0, "px", InvalidInputError),
        ([1], [[5, 5, 0, 2]], 1.0, "px", DegenerateBoxError),
        ([1], [[5, 5, 2, 2]], 1.5, "px", InvalidInputError),
        ([1], [[5, 5, 2, 2]], np.nan, "px", InvalidInputError),
        ([1], [[5, 5, 2, 2]], 1.0, "mm", InvalidInputError),
        ([1, 2], [[5, 5, 2, 2]], 1.0, "px", InvalidInputError),
    ])
    def test_every_row_is_checked(self, frame, boxes, conf, units, error):
        with pytest.raises(error):
            MotTable(frame, [1] * len(frame), boxes, conf, units)
