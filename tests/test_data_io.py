import json
import struct
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddmot import autodiff as ad
from ddmot.cli import _build
from ddmot.core import (
    BoundingBox,
    DegenerateBoxError,
    FormatError,
    InvalidInputError,
    UnitMismatchError,
    stack_boxes,
)
from ddmot.data_io import (
    MotRecord,
    MotTable,
    SequenceMeta,
    SynthResult,
    SyntheticSpec,
    Trajectory,
    build_training_set,
    detection_records,
    detections_by_frame,
    load_hminet,
    load_model,
    parse_mot,
    records_from_trajectories,
    save_model,
    synth_sequence,
    trajectories_from_records,
    write_mot,
)
from ddmot.hminet import HMINet, ModelConfig, init_params, parameter_shapes


# one MOT line without line breaks: well-typed numbers (non-finite floats
# too), or fields that mix numbers with short junk
_FIELD = st.one_of(
    st.integers(-3, 10**6).map(str),
    st.floats().map(repr),
    st.text(st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp")), max_size=6),
)
MOT_LINES = st.one_of(
    st.tuples(st.integers(-3, 10**6), st.integers(-3, 10**6), *[st.floats()] * 5).map(
        lambda v: ",".join(map(repr, v))
    ),
    st.lists(_FIELD, max_size=11).map(",".join),
)


class TestParseMot:
    def test_detection_line(self):
        result = parse_mot("1,-1,10,20,4,8,0.9,-1,-1,-1")
        (r,) = result.records
        assert r.frame == 1 and r.track_id == -1 and r.conf == 0.9
        assert np.allclose(r.box.as_array(), [12, 24, 4, 8])

    def test_gt_line(self):
        (r,) = parse_mot("1,7,0,0,10,10,1,-1,-1,-1").records
        assert r.track_id == 7
        assert np.allclose(r.box.as_array(), [5, 5, 10, 10])

    def test_empty_file(self):
        result = parse_mot("")
        assert len(result.records) == 0 and result.skipped == 0

    def test_malformed_line_number(self):
        with pytest.raises(FormatError, match="line 2"):
            parse_mot("1,-1,0,0,5,5,1,-1,-1,-1\n1,-1,zero,0,5,5,1,-1,-1,-1")

    @pytest.mark.parametrize("line, normalized, message", [
        ("1,-1,0,0,5", False, "expected at least 7 comma-separated fields, got 5"),
        ("x,1.5,zero,0,5", False, "expected at least 7 comma-separated fields, got 5"),
        ("1,-1,0,0,5\n1,-1,zero,0,5,5,1", False, "expected at least 7 comma-separated fields, got 5"),
        ("1,-1,zero,0,5,5,1\n1,-1,0,0,5", False, "could not convert string to float: 'zero'"),
        ("1.5,x,zero,0,5,5,nan", False, "invalid literal for int() with base 10: '1.5'"),
        ("99999999999999999999,-1,0,0,5,5,1", False, "an integer field is outside the int64 range"),
        ("1,99999999999999999999,zero,0,5,5,1", False, "an integer field is outside the int64 range"),
        ("0,-1,zero,0,5,5,nan", False, "could not convert string to float: 'zero'"),
        ("0,-1,inf,0,5,5,nan", False, "frame index must be >= 1, got 0"),
        ("0,-1,0,0,-5,5,1", False, "frame index must be >= 1, got 0"),
        ("1,-1,inf,0,5,5,nan", False, "confidence is NaN"),
        ("1,-1,inf,0,5,5,1", False, "box (left, top, w, h) = (inf, 0.0, 5.0, 5.0) is not finite"),
        ("1,-1,1.7e308,0,1.7e308,5,1", True, "box (left, top, w, h) = (1.7e+308, 0.0, 1.7e+308, 5.0) is not finite"),
        ("1,-1,0,0,5e-324,5,1", True, "box extent 5e-324 x 5.0 underflows to 0 in normalized units"),
    ])
    def test_refused_row_reports_its_first_failed_check(self, line, normalized, message):
        """A row that fails several checks is named by the first one, in the
        order its fields are read: field count, the integer columns, the
        float columns, the frame index, the confidence, the box. The first
        refused row of a file is named, whatever a later row fails."""
        with pytest.raises(FormatError) as e:
            parse_mot("1,-1,0,0,5,5,1\n\n" + line, SequenceMeta(10, 640, 480), normalized)
        assert str(e.value) == f"line 3: {message}"

    def test_flat_boxes_skipped_and_counted(self):
        result = parse_mot("1,-1,0,0,0,5,1,-1,-1,-1\n2,-1,0,0,5,5,1,-1,-1,-1")
        assert result.skipped == 1 and len(result.records) == 1

    def test_sorted_by_frame(self):
        text = "3,-1,0,0,5,5,1,-1,-1,-1\n1,-1,0,0,5,5,1,-1,-1,-1"
        frames = [r.frame for r in parse_mot(text).records]
        assert frames == [1, 3]

    def test_normalized_requires_meta(self):
        with pytest.raises(InvalidInputError):
            parse_mot("1,-1,0,0,5,5,1,-1,-1,-1", normalized=True)

    @pytest.mark.parametrize("field", [2, 3, 4, 5])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_box_field_names_line(self, field, value):
        parts = "1,-1,10,20,4,8,0.9,-1,-1,-1".split(",")
        parts[field] = value
        with pytest.raises(FormatError, match="line 2"):
            parse_mot("1,-1,0,0,5,5,1,-1,-1,-1\n" + ",".join(parts))

    def test_nan_confidence_names_line(self):
        with pytest.raises(FormatError, match="line 2"):
            parse_mot("1,-1,0,0,5,5,1,-1,-1,-1\n1,-1,10,20,4,8,nan,-1,-1,-1")

    @settings(max_examples=200, deadline=None)
    @given(line=MOT_LINES, normalized=st.booleans())
    def test_any_line_parses_or_names_its_line(self, line, normalized):
        text = "1,-1,0,0,5,5,1,-1,-1,-1\n" + line
        try:
            result = parse_mot(text, SequenceMeta(10, 640, 480), normalized)
        except FormatError as e:
            assert str(e).startswith("line 2:")
        else:
            assert len(result.records) + result.skipped <= 2

    def test_normalized_conversion(self):
        meta = SequenceMeta(10, 100, 200)
        (r,) = parse_mot("1,-1,10,20,20,40,1,-1,-1,-1", meta, normalized=True).records
        assert r.box.units == "norm"
        assert np.allclose(r.box.as_array(), [0.2, 0.2, 0.2, 0.2])


class TestWriteMot:
    def test_canonical_line(self):
        rec = MotRecord(1, 3, BoundingBox(12, 24, 4, 8), 1.0)
        assert write_mot([rec]) == "1,3,10.00,20.00,4.00,8.00,1.00,-1,-1,-1\n"

    def test_round_trip_byte_identity(self):
        rng = np.random.default_rng(0)
        records = [
            MotRecord(int(f), int(i), BoundingBox(*(rng.uniform(10, 50, 4))), float(np.round(rng.uniform(), 2)))
            for f in rng.integers(1, 20, 30)
            for i in [rng.integers(1, 5)]
        ]
        text = write_mot(records)
        again = write_mot(parse_mot(text).records)
        assert text == again

    def test_empty(self):
        assert write_mot([]) == ""

    def test_sorting(self):
        recs = [
            MotRecord(2, 1, BoundingBox(5, 5, 2, 2)),
            MotRecord(1, 2, BoundingBox(5, 5, 2, 2)),
            MotRecord(1, 1, BoundingBox(5, 5, 2, 2)),
        ]
        lines = write_mot(recs).splitlines()
        assert [l.split(",")[:2] for l in lines] == [["1", "1"], ["1", "2"], ["2", "1"]]


@st.composite
def mot_tables(draw, max_rows=30):
    """Random MOT columns in pixels: coordinates within +-1e4 and extents
    from 0.01, the text format's resolution, so each value survives two
    decimals."""
    n = draw(st.integers(0, max_rows))
    column = lambda elements: st.lists(elements, min_size=n, max_size=n)
    coord, extent = st.floats(-1e4, 1e4), st.floats(0.01, 1e4)
    return MotTable(
        draw(column(st.integers(1, 10**6))),
        draw(column(st.integers(-1, 10**6))),
        np.array(draw(column(st.tuples(coord, coord, extent, extent))), dtype=np.float64).reshape(-1, 4),
        draw(column(st.floats(0.0, 1.0))),
    )


# one malformed line per check the parser makes
MALFORMED_LINES = st.sampled_from([
    "1,-1,0,0,5",
    "1,-1,zero,0,5,5,1,-1,-1,-1",
    "1.5,-1,0,0,5,5,1,-1,-1,-1",
    "1,99999999999999999999,0,0,5,5,1,-1,-1,-1",
    "0,-1,0,0,5,5,1,-1,-1,-1",
    "1,-1,0,0,5,5,nan,-1,-1,-1",
    "1,-1,inf,0,5,5,1,-1,-1,-1",
    "1,-1,0,0,5,nan,1,-1,-1,-1",
])


class TestColumnProperties:
    @settings(max_examples=150, deadline=None)
    @given(table=mot_tables())
    def test_write_parse_write_is_byte_identical(self, table):
        text = write_mot(table)
        parsed = parse_mot(text)
        assert len(parsed.records) == len(table) and parsed.skipped == 0
        assert write_mot(parsed.records) == text

    @settings(max_examples=150, deadline=None)
    @given(table=mot_tables(), bad=MALFORMED_LINES, data=st.data(), normalized=st.booleans())
    def test_malformed_line_is_named_by_its_number(self, table, bad, data, normalized):
        lines = write_mot(table).splitlines()
        at = data.draw(st.integers(0, len(lines)))
        lines.insert(at, bad)
        for blank in data.draw(st.lists(st.integers(0, len(lines)), max_size=3)):
            lines.insert(blank, "")
            at += blank <= at
        with pytest.raises(FormatError) as e:
            parse_mot("\n".join(lines), SequenceMeta(10, 640, 480), normalized)
        assert str(e.value).startswith(f"line {at + 1}:")

    def test_negative_zero_is_written_as_zero(self):
        """A coordinate that rounds to zero from below is written 0.00, so a
        re-parsed file writes back the same text."""
        text = write_mot([MotRecord(1, 1, BoundingBox(1.998, 5, 4, 2))])
        assert text == "1,1,0.00,4.00,4.00,2.00,1.00,-1,-1,-1\n"
        assert write_mot(parse_mot(text).records) == text


class TestSynth:
    def test_noiseless_detections_equal_gt(self):
        spec = SyntheticSpec(program="linear", object_count=2, length=20)
        result = synth_sequence(spec, 0)
        for traj in result.trajectories:
            for f, box in zip(traj.frames.tolist(), traj.boxes):
                dets = result.detections[f]
                assert any(np.array_equal(b, box) and c == 1.0 for b, c in zip(dets.boxes, dets.conf))

    def test_full_drop_leaves_only_false_positives(self):
        spec = SyntheticSpec(program="linear", object_count=3, length=15, drop_prob=1.0, fp_rate=0.5)
        result = synth_sequence(spec, 1)
        total = sum(len(v) for v in result.detections.values())
        assert total > 0  # Poisson false positives remain
        gt_boxes = {tuple(np.round(b, 12)) for t in result.trajectories for b in t.boxes}
        for dets in result.detections.values():
            for b in dets.boxes:
                assert tuple(np.round(b, 12)) not in gt_boxes

    def test_sinusoidal_closed_form(self):
        spec = SyntheticSpec(program="sinusoidal", object_count=4, length=60, amplitude=0.1, period=17.0)
        result = synth_sequence(spec, 2)
        f = np.arange(1, 61)
        for traj in result.trajectories:
            cy = traj.boxes[:, 1]
            residual = cy - spec.amplitude * np.sin(2 * np.pi * f / spec.period)
            assert residual.max() - residual.min() < 1e-9  # cy0 + A sin(2 pi f / P)

    def test_deterministic(self):
        spec = SyntheticSpec(program="circular", object_count=2, length=30, jitter_sigma=0.01, fp_rate=1.0,
                             conf_range=(0.3, 1.0), drop_prob=0.2)
        a, b = synth_sequence(spec, 7), synth_sequence(spec, 7)
        for ta, tb in zip(a.trajectories, b.trajectories, strict=True):
            assert ta.track_id == tb.track_id and ta.units == tb.units
            assert np.array_equal(ta.frames, tb.frames) and np.array_equal(ta.boxes, tb.boxes)
        assert list(a.detections) == list(b.detections)
        for f in a.detections:
            da, db = a.detections[f], b.detections[f]
            assert np.array_equal(da.frame, db.frame) and np.array_equal(da.boxes, db.boxes)
            assert np.array_equal(da.conf, db.conf) and da.units == db.units

    @pytest.mark.parametrize("program", ["linear", "sinusoidal", "circular", "accelerate", "direction_flip"])
    def test_gt_stays_in_bounds(self, program):
        spec = SyntheticSpec(program=program, object_count=5, length=120, speed=0.01, amplitude=0.2)
        result = synth_sequence(spec, 3)
        for traj in result.trajectories:
            cx, cy, w, h = traj.boxes.T
            assert (cx - w / 2 >= 0).all() and (cx + w / 2 <= 1).all()
            assert (cy - h / 2 >= 0).all() and (cy + h / 2 <= 1).all()

    def test_invalid_spec(self):
        with pytest.raises(InvalidInputError):
            SyntheticSpec(program="teleport")
        with pytest.raises(InvalidInputError):
            SyntheticSpec(drop_prob=1.5)
        with pytest.raises(InvalidInputError, match="warp"):
            _build(SyntheticSpec, {"warp": 1}, "synthetic spec")

    def test_detection_record_export(self):
        spec = SyntheticSpec(program="linear", object_count=1, length=5)
        recs = detection_records(synth_sequence(spec, 0))
        assert len(recs) == 5 and all(r.track_id == -1 for r in recs)


@st.composite
def trajectory_sets(draw, units=None):
    """Trajectories in ascending id order, each with frames in strictly
    ascending order and boxes of one unit mode."""
    units = units or draw(st.sampled_from(["px", "norm"]))
    coord = st.floats(-1e4, 1e4, allow_nan=False)
    extent = st.floats(1e-3, 1e3, allow_nan=False)
    trajectories = []
    for tid in sorted(draw(st.sets(st.integers(-5, 10**6), max_size=5))):
        n = draw(st.integers(0, 6))
        frames = sorted(draw(st.sets(st.integers(1, 10**6), min_size=n, max_size=n)))
        boxes = draw(st.lists(st.tuples(coord, coord, extent, extent), min_size=n, max_size=n))
        trajectories.append(Trajectory(tid, frames, boxes, units))
    return trajectories


class TestTrajectory:
    def test_sequences_become_checked_arrays(self):
        t = Trajectory(3, (np.int64(1), 2), ((0.5, 0.5, 0.1, 0.1), np.array([0.6, 0.5, 0.1, 0.1])), "norm")
        assert t.frames.dtype == np.int64 and t.frames.tolist() == [1, 2] and len(t) == 2
        assert t.boxes.dtype == np.float64 and t.boxes.shape == (2, 4)
        with pytest.raises(ValueError):  # one box row per frame
            Trajectory(1, (1, 2), [(0.5, 0.5, 0.1, 0.1)], "norm")

    @pytest.mark.parametrize("frames, boxes, units, error", [
        ((1,), [(np.nan, 0.5, 0.1, 0.1)], "norm", InvalidInputError),
        ((1,), [(0.5, np.inf, 0.1, 0.1)], "norm", InvalidInputError),
        ((1,), [(0.5, 0.5, 0.0, 0.1)], "norm", DegenerateBoxError),
        ((1,), [(0.5, 0.5, 0.1, -1.0)], "norm", DegenerateBoxError),
        ((1,), [(0.5, 0.5, 0.1, 0.1)], "furlongs", InvalidInputError),
        ((1.5,), [(0.5, 0.5, 0.1, 0.1)], "norm", InvalidInputError),
    ])
    def test_every_box_check_kept(self, frames, boxes, units, error):
        """A box is refused as BoundingBox refused it: non-finite, flat or
        of an unknown unit mode, each with its error type."""
        with pytest.raises(error):
            Trajectory(1, frames, boxes, units)

    @pytest.mark.parametrize("frames", [(1, 1), (3, 2), (1, 4, 4)])
    def test_frames_must_strictly_increase(self, frames):
        # a repeated frame would be scored twice as ground truth
        box = (0.5, 0.5, 0.1, 0.1)
        message = f"Trajectory 7: frame {frames[-1]} after frame {frames[-2]}"
        with pytest.raises(InvalidInputError, match=message):
            Trajectory(7, frames, [box] * len(frames), "norm")

    def test_edited_by_index_with_tuples(self):
        """``replace`` with tuples of frames and box rows, as the benchmark
        cuts occlusion gaps, gives checked arrays again."""
        t = synth_sequence(SyntheticSpec(length=6), 0).trajectories[0]
        cut = replace(t, frames=tuple(t.frames[i] for i in (0, 3)), boxes=tuple(t.boxes[i] for i in (0, 3)))
        assert cut.frames.tolist() == [1, 4] and np.array_equal(cut.boxes, t.boxes[[0, 3]]) and cut.units == "norm"
        empty = replace(t, frames=(), boxes=())
        assert len(empty) == 0 and empty.boxes.shape == (0, 4)

    @settings(max_examples=100, deadline=None)
    @given(trajectories=trajectory_sets())
    def test_records_round_trip_keeps_every_column(self, trajectories):
        table = records_from_trajectories(trajectories)
        back = trajectories_from_records(table)
        kept = [t for t in trajectories if len(t)]
        assert [t.track_id for t in back] == [t.track_id for t in kept]
        for a, b in zip(kept, back):
            assert b.units == a.units and b.frames.dtype == np.int64
            assert np.array_equal(a.frames, b.frames) and np.array_equal(a.boxes, b.boxes)

    @settings(max_examples=100, deadline=None)
    @given(trajectories=trajectory_sets("px"), width=st.integers(1, 4000), height=st.integers(1, 4000))
    def test_normalize_equals_per_box_reference(self, trajectories, width, height):
        """Ground truth read normalized is the pixel parse of the same text
        divided by the frame size, centers clamped into [0, 1], bit for bit."""
        text = [f"{f},{t.track_id},{cx - w / 2!r},{cy - h / 2!r},{w!r},{h!r},1"
                for t in trajectories for f, (cx, cy, w, h) in zip(t.frames.tolist(), t.boxes.tolist())]
        pixel = trajectories_from_records(parse_mot(text).records)
        normalized = trajectories_from_records(parse_mot(text, SequenceMeta(10, width, height), normalized=True).records)
        for t, n in zip(pixel, normalized, strict=True):
            reference = [(min(max(cx / width, 0.0), 1.0), min(max(cy / height, 0.0), 1.0), w / width, h / height)
                         for cx, cy, w, h in t.boxes.tolist()]
            assert n.units == "norm" and n.track_id == t.track_id and np.array_equal(n.frames, t.frames)
            assert np.array_equal(n.boxes, np.array(reference).reshape(-1, 4))

    def test_records_refuse_mixed_units(self):
        px = Trajectory(1, (1,), [(5, 5, 1, 1)], "px")
        norm = Trajectory(2, (1,), [(0.5, 0.5, 0.1, 0.1)], "norm")
        with pytest.raises(UnitMismatchError):
            records_from_trajectories([px, norm])

    def test_benchmark_gap_cut_pattern_writes_the_column_text(self):
        """The benchmark cuts occlusion gaps by editing trajectories with
        ``replace`` and tuples of rows, and each frame's detections as a
        list of ``MotRecord`` (detection i of a frame is object i when
        nothing drops). Uncut, that path writes the scene's own text; cut,
        it writes the scene's text without the hidden rows."""
        spec = SyntheticSpec(program="circular", object_count=4, length=30, jitter_sigma=0.002, fp_rate=0.5,
                             conf_range=(0.5, 1.0))
        scene = synth_sequence(spec, 3)
        meta = scene.meta
        gt_text = write_mot(records_from_trajectories(scene.trajectories), meta)
        det_text = write_mot(detection_records(scene), meta)
        for hidden in (set(), {(0, 2), (0, 3), (2, 10), (3, 30)}):  # (object index, frame)
            trajectories = []
            for obj, t in enumerate(scene.trajectories):
                keep = [i for i, f in enumerate(t.frames) if (obj, f) not in hidden]
                trajectories.append(replace(t, frames=tuple(t.frames[i] for i in keep),
                                            boxes=tuple(t.boxes[i] for i in keep)))
            detections = {f: [d for i, d in enumerate(dets) if (i, f) not in hidden]
                          for f, dets in scene.detections.items()}
            cut = SynthResult(trajectories, detections, meta)
            gt_lines = [line for line in gt_text.splitlines(keepends=True)
                        if (int(line.split(",")[1]) - 1, int(line.split(",")[0])) not in hidden]
            det_lines, index = [], {}  # index: a frame's last detection row
            for line in det_text.splitlines(keepends=True):
                f = int(line.split(",")[0])
                index[f] = index.get(f, -1) + 1
                if (index[f], f) not in hidden:
                    det_lines.append(line)
            assert write_mot(records_from_trajectories(cut.trajectories), meta) == "".join(gt_lines)
            assert write_mot(detection_records(cut), meta) == "".join(det_lines)
            assert len(gt_lines) == len(gt_text.splitlines()) - len(hidden)


class TestTrainingSetAssembly:
    def _traj(self, boxes, tid=1):
        return Trajectory(tid, tuple(range(1, len(boxes) + 1)), stack_boxes(boxes), "norm")

    def test_sample_count(self):
        boxes = [BoundingBox(0.2 + 0.01 * i, 0.5, 0.1, 0.1, "norm") for i in range(9)]
        ds = build_training_set([self._traj(boxes)], n=5)
        assert len(ds) == 8  # L - 1

    def test_constant_velocity_targets_identical(self):
        boxes = [BoundingBox(0.2 + 0.01 * i, 0.5, 0.1, 0.1, "norm") for i in range(7)]
        ds = build_training_set([self._traj(boxes)], n=3)
        assert np.allclose(ds.targets, ds.targets[0])

    def test_targets_reproduce_next_box(self):
        spec = SyntheticSpec(program="circular", object_count=2, length=25)
        trajs = synth_sequence(spec, 4).trajectories
        ds = build_training_set(trajs, n=5)
        k = 0
        for traj in trajs:
            boxes = traj.boxes
            back = boxes[:-1] + ds.targets[k:k + len(boxes) - 1]
            assert np.abs(back - boxes[1:]).max() < 1e-12
            k += len(boxes) - 1
        assert k == len(ds)

    def test_condition_variant_b_zeroes_motion_half(self):
        boxes = [BoundingBox(0.2 + 0.01 * i, 0.5, 0.1, 0.1, "norm") for i in range(6)]
        ds = build_training_set([self._traj(boxes)], n=4, condition_variant="B")
        assert np.array_equal(ds.conditions[..., 4:], np.zeros_like(ds.conditions[..., 4:]))
        assert not np.allclose(ds.conditions[..., :4], 0)

    def test_no_sample_spans_a_gap(self):
        # frames 1-3 and 10-12, 0.01 per frame: the jump across the gap is no sample
        frames = (1, 2, 3, 10, 11, 12)
        boxes = np.array([(0.2 + 0.01 * f, 0.5, 0.1, 0.1) for f in frames])
        ds = build_training_set([Trajectory(1, frames, boxes, "norm")], n=3)
        assert len(ds) == 4 and np.allclose(ds.targets[:, 0], 0.01) and not ds.targets[:, 1:].any()
        # the window before frame 11 holds frame 10's box alone, front-padded
        assert np.array_equal(ds.conditions[2, :, :4], np.tile(boxes[3], (3, 1))) and not ds.conditions[2, :, 4:].any()

    def test_too_short_rejected(self):
        with pytest.raises(InvalidInputError):
            build_training_set([self._traj([BoundingBox(0.5, 0.5, 0.1, 0.1, "norm")])], n=3)


SMALL = ModelConfig(token_dim=16, n_heads=2, n_condition_layers=1, n_fusion_blocks=1)


class TestModelFile:
    def test_save_load_save_byte_identical(self):
        params = init_params(SMALL, 9)
        blob = save_model(params, SMALL)
        loaded, cfg = load_model(blob)
        assert cfg == SMALL
        assert save_model(loaded, cfg) == blob

    def test_float32_round_trip_error_bound(self):
        params = init_params(SMALL, 10)
        loaded, _ = load_model(save_model(params, SMALL))
        for name, p in params.items():
            err = np.abs(loaded[name] - p.value)
            assert err.max() <= np.abs(p.value).max() * 2**-23 + 1e-12

    def test_bad_magic_rejected(self):
        blob = bytearray(save_model(init_params(SMALL, 0), SMALL))
        blob[:4] = b"XXXX"
        with pytest.raises(FormatError, match="magic"):
            load_model(bytes(blob))

    def test_truncated_payload_rejected(self):
        blob = save_model(init_params(SMALL, 0), SMALL)
        with pytest.raises(FormatError):
            load_model(blob[: len(blob) - 40])

    def test_unknown_tensor_name_rejected(self):
        params = init_params(SMALL, 0)
        params["mystery.w"] = params["cond.cls"]
        with pytest.raises(InvalidInputError, match="mystery.w"):
            save_model(params, SMALL)

    def test_missing_tensor_rejected(self):
        params = init_params(SMALL, 0)
        del params["head.b2"]
        with pytest.raises(InvalidInputError, match="head.b2"):
            save_model(params, SMALL)

    def test_wrong_tensor_shape_rejected(self):
        params = init_params(SMALL, 0)
        params["head.b2"] = np.zeros(5)
        with pytest.raises(InvalidInputError, match="head.b2"):
            save_model(params, SMALL)

    def test_header_holds_only_the_config(self):
        blob = save_model(init_params(SMALL, 0), SMALL)
        (header_len,) = struct.unpack("<I", blob[8:12])
        assert json.loads(blob[12:12 + header_len]) == {"config": asdict(SMALL)}
        sizes = [int(np.prod(shape)) for shape in parameter_shapes(SMALL).values()]
        assert len(blob) == 12 + header_len + 4 * sum(sizes)

    def test_desk_scale_file_holds_100_tensors(self):
        # the attention blocks declare no key bias, which softmax would cancel
        blob = save_model(init_params(ModelConfig(), 0), ModelConfig())
        tensors = payload_tensors(blob)
        assert len(tensors) == 100 and not [n for n in tensors if n.endswith(".attn.bk")]
        assert sum(len(raw) for raw in tensors.values()) == 4 * 267_780

    def test_shapes_match_config_arithmetic(self):
        loaded, cfg = load_model(save_model(init_params(SMALL, 3), SMALL))
        expected = parameter_shapes(cfg)
        assert set(loaded) == set(expected)
        assert all(loaded[k].shape == tuple(expected[k]) for k in expected)

    def test_load_hminet_runs(self):
        net = HMINet.init(SMALL, 1)
        again = load_hminet(save_model(net.params, SMALL))
        rng = np.random.default_rng(0)
        w = rng.normal(size=(1, 5, 8)) * 0.2
        a, _ = net.predict_values(np.zeros((1, 4)), 1.0, net.embed_condition(w))
        b, _ = again.predict_values(np.zeros((1, 4)), 1.0, again.embed_condition(w))
        assert np.abs(a - b).max() < 1e-4  # float32 storage rounding only


@st.composite
def small_models(draw):
    """(config, seed) over small architectures of every variant."""
    n_heads = draw(st.sampled_from([1, 2]))
    config = ModelConfig(
        token_dim=n_heads * draw(st.sampled_from([2, 4])),
        n_heads=n_heads,
        n_condition_layers=draw(st.integers(1, 2)),
        n_fusion_blocks=draw(st.integers(1, 2)),
        history_length=draw(st.integers(1, 5)),
        variant=draw(st.sampled_from(["OB", "TB"])),
        condition_variant=draw(st.sampled_from(["B", "M", "I"])),
    )
    return config, draw(st.integers(0, 2**32 - 1))


def payload_tensors(blob: bytes) -> dict[str, bytes]:
    """Each tensor's raw little-endian float32 bytes, read straight from
    the container: the payload holds them back to back in
    ``parameter_shapes`` order."""
    (header_len,) = struct.unpack("<I", blob[8:12])
    config = ModelConfig(**json.loads(blob[12:12 + header_len])["config"])
    at = 12 + header_len
    out = {}
    for name, shape in parameter_shapes(config).items():
        nbytes = 4 * int(np.prod(shape))
        out[name] = blob[at:at + nbytes]
        at += nbytes
    assert at == len(blob)
    return out


class TestModelFileProperties:
    @settings(max_examples=20, deadline=None)
    @given(small_models())
    def test_save_load_hminet_save_byte_identical(self, model):
        config, seed = model
        blob = save_model(init_params(config, seed), config)
        net = load_hminet(blob)
        assert net.config == config
        assert save_model(net.params, net.config) == blob

    @settings(max_examples=20, deadline=None)
    @given(small_models())
    def test_inference_weights_are_the_file_payload(self, model):
        config, seed = model
        blob = save_model(init_params(config, seed), config)
        net = load_hminet(blob)
        with ad.no_grad():
            weights = {name: net._p(name).value for name in net.params}
        for name, raw in payload_tensors(blob).items():
            assert weights[name].dtype == np.float32
            assert weights[name].astype("<f4").tobytes() == raw, name

    @settings(max_examples=30, deadline=None)
    @given(small_models(), st.integers(1, 64), st.booleans())
    def test_payload_of_the_wrong_length_rejected(self, model, nbytes, extend):
        config, seed = model
        blob = save_model(init_params(config, seed), config)
        bad = blob + bytes(nbytes) if extend else blob[:-nbytes]
        with pytest.raises(FormatError, match="payload"):
            load_model(bad)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 2) | st.integers(0, 2**32 - 1).filter(lambda v: v != 3))
    def test_only_version_3_is_read(self, version):
        blob = save_model(init_params(SMALL, 0), SMALL)
        assert blob[4:8] == struct.pack("<I", 3)
        with pytest.raises(FormatError, match=f"version {version}"):
            load_model(blob[:4] + struct.pack("<I", version) + blob[8:])


class TestMeta:
    def test_json_round_trip(self):
        meta = SequenceMeta(100, 1280, 720, 25)
        assert SequenceMeta.from_json(meta.to_json()) == meta

    def test_bad_meta(self):
        with pytest.raises(FormatError):
            SequenceMeta.from_json("{}")

    def test_direct_construction_checks_types(self):
        with pytest.raises(InvalidInputError, match="frame_rate"):
            SequenceMeta(10, 640, 480, 29.97)

    def test_grouping_helpers(self):
        records = [
            MotRecord(1, 1, BoundingBox(5, 5, 2, 2)),
            MotRecord(2, 1, BoundingBox(6, 5, 2, 2)),
            MotRecord(1, -1, BoundingBox(9, 9, 2, 2), 0.8),
        ]
        trajs = trajectories_from_records([r for r in records if r.track_id > 0])
        assert len(trajs) == 1 and trajs[0].frames.tolist() == [1, 2]
        dets = detections_by_frame([r for r in records if r.track_id == -1])
        assert list(dets) == [1] and dets[1].conf.tolist() == [0.8]

    def test_normalize_trajectories(self):
        meta = SequenceMeta(5, 100, 100)
        (n,) = trajectories_from_records(parse_mot("1,1,45,45,10,10,1", meta, normalized=True).records)
        assert n.units == "norm" and n.boxes.tolist() == [[0.5, 0.5, 0.1, 0.1]]
