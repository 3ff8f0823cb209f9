import numpy as np
import pytest

from ddmot.core import (
    BoundingBox,
    DegenerateBoxError,
    Detection,
    InvalidInputError,
    Motion,
    MotionInfo,
    UnitMismatchError,
    apply_motion,
    center_to_tlwh,
    denormalize_box,
    iou,
    iou_matrix,
    iou_pairs,
    motion_from_boxes,
    normalize_box,
    stack_boxes,
    tlwh_to_center,
)


def box(cx, cy, w, h, units="px"):
    return BoundingBox(cx, cy, w, h, units)


def random_box(rng, units="px"):
    return BoundingBox(rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(0.1, 4), rng.uniform(0.1, 4), units)


class TestMotionFromBoxes:
    def test_direct_delta(self):
        m = motion_from_boxes(box(8, 9, 4, 8), box(10, 10, 4, 8))
        assert (m.dcx, m.dcy, m.dw, m.dh) == (2, 1, 0, 0)

    def test_identity(self):
        b = box(3, 4, 2, 2)
        assert motion_from_boxes(b, b) == Motion(0, 0, 0, 0)

    def test_negative_components(self):
        m = motion_from_boxes(box(0.5, 0.5, 0.2, 0.4, "norm"), box(0.45, 0.5, 0.25, 0.4, "norm"))
        assert np.allclose(m.as_array(), [-0.05, 0.0, 0.05, 0.0])

    def test_unit_mismatch(self):
        with pytest.raises(UnitMismatchError):
            motion_from_boxes(box(1, 1, 1, 1, "px"), box(1, 1, 1, 1, "norm"))


class TestApplyMotion:
    def test_inverse_of_delta(self):
        assert apply_motion(box(8, 9, 4, 8), Motion(2, 1, 0, 0)) == box(10, 10, 4, 8)

    def test_zero_motion(self):
        b = box(8, 9, 4, 8)
        assert apply_motion(b, Motion.zero()) == b

    def test_degenerate_width(self):
        with pytest.raises(DegenerateBoxError):
            apply_motion(box(0.5, 0.5, 0.1, 0.1, "norm"), Motion(0, 0, -0.1, 0))

    def test_round_trip_property(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            prev, curr = random_box(rng), random_box(rng)
            back = apply_motion(prev, motion_from_boxes(prev, curr))
            assert np.abs(back.as_array() - curr.as_array()).max() < 1e-12


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

    def test_motion_info_is_box_plus_motion(self):
        mi = MotionInfo(box(1, 2, 3, 4), Motion(0.1, 0.2, 0.3, 0.4))
        assert np.allclose(mi.as_array(), [1, 2, 3, 4, 0.1, 0.2, 0.3, 0.4])

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
