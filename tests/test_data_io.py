import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddmot import autodiff as ad
from ddmot.core import BoundingBox, FormatError, InvalidInputError, stack_boxes
from ddmot.data_io import (
    MotRecord,
    SequenceMeta,
    SyntheticSpec,
    Trajectory,
    build_training_set,
    detection_records,
    detections_by_frame,
    load_hminet,
    load_model,
    normalize_trajectories,
    parse_mot,
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
        assert parse_mot("") == type(parse_mot(""))([], 0)

    def test_malformed_line_number(self):
        with pytest.raises(FormatError, match="line 2"):
            parse_mot("1,-1,0,0,5,5,1,-1,-1,-1\n1,-1,zero,0,5,5,1,-1,-1,-1")

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


class TestSynth:
    def test_noiseless_detections_equal_gt(self):
        spec = SyntheticSpec(program="linear", object_count=2, length=20)
        result = synth_sequence(spec, 0)
        for traj in result.trajectories:
            for f, box in zip(traj.frames, traj.boxes):
                dets = result.detections[f]
                assert any(np.array_equal(d.box.as_array(), box.as_array()) and d.confidence == 1.0 for d in dets)

    def test_full_drop_leaves_only_false_positives(self):
        spec = SyntheticSpec(program="linear", object_count=3, length=15, drop_prob=1.0, fp_rate=0.5)
        result = synth_sequence(spec, 1)
        total = sum(len(v) for v in result.detections.values())
        assert total > 0  # Poisson false positives remain
        gt_boxes = {tuple(np.round(b.as_array(), 12)) for t in result.trajectories for b in t.boxes}
        for dets in result.detections.values():
            for d in dets:
                assert tuple(np.round(d.box.as_array(), 12)) not in gt_boxes

    def test_sinusoidal_closed_form(self):
        spec = SyntheticSpec(program="sinusoidal", object_count=4, length=60, amplitude=0.1, period=17.0)
        result = synth_sequence(spec, 2)
        f = np.arange(1, 61)
        for traj in result.trajectories:
            cy = np.array([b.cy for b in traj.boxes])
            residual = cy - spec.amplitude * np.sin(2 * np.pi * f / spec.period)
            assert residual.max() - residual.min() < 1e-9  # cy0 + A sin(2 pi f / P)

    def test_deterministic(self):
        spec = SyntheticSpec(program="circular", object_count=2, length=30, jitter_sigma=0.01, fp_rate=1.0,
                             conf_range=(0.3, 1.0), drop_prob=0.2)
        a, b = synth_sequence(spec, 7), synth_sequence(spec, 7)
        assert a.trajectories == b.trajectories
        for f in a.detections:
            assert a.detections[f] == b.detections[f]

    @pytest.mark.parametrize("program", ["linear", "sinusoidal", "circular", "accelerate", "direction_flip"])
    def test_gt_stays_in_bounds(self, program):
        spec = SyntheticSpec(program=program, object_count=5, length=120, speed=0.01, amplitude=0.2)
        result = synth_sequence(spec, 3)
        for traj in result.trajectories:
            for b in traj.boxes:
                assert b.cx - b.w / 2 >= 0 and b.cx + b.w / 2 <= 1
                assert b.cy - b.h / 2 >= 0 and b.cy + b.h / 2 <= 1

    def test_invalid_spec(self):
        with pytest.raises(InvalidInputError):
            SyntheticSpec(program="teleport")
        with pytest.raises(InvalidInputError):
            SyntheticSpec(drop_prob=1.5)
        with pytest.raises(InvalidInputError, match="warp"):
            SyntheticSpec.from_dict({"warp": 1})

    def test_detection_record_export(self):
        spec = SyntheticSpec(program="linear", object_count=1, length=5)
        recs = detection_records(synth_sequence(spec, 0))
        assert len(recs) == 5 and all(r.track_id == -1 for r in recs)


class TestTrainingSetAssembly:
    def _traj(self, boxes, tid=1):
        return Trajectory(tid, tuple(range(1, len(boxes) + 1)), tuple(boxes))

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
            boxes = stack_boxes(traj.boxes)
            back = boxes[:-1] + ds.targets[k:k + len(boxes) - 1]
            assert np.abs(back - boxes[1:]).max() < 1e-12
            k += len(boxes) - 1
        assert k == len(ds)

    def test_condition_variant_b_zeroes_motion_half(self):
        boxes = [BoundingBox(0.2 + 0.01 * i, 0.5, 0.1, 0.1, "norm") for i in range(6)]
        ds = build_training_set([self._traj(boxes)], n=4, condition_variant="B")
        assert np.array_equal(ds.conditions[..., 4:], np.zeros_like(ds.conditions[..., 4:]))
        assert not np.allclose(ds.conditions[..., :4], 0)

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
        assert json.loads(blob[12:12 + header_len]) == {"config": SMALL.to_dict()}
        sizes = [int(np.prod(shape)) for shape in parameter_shapes(SMALL).values()]
        assert len(blob) == 12 + header_len + 4 * sum(sizes)

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
        positional_encoding=draw(st.booleans()),
    )
    return config, draw(st.integers(0, 2**32 - 1))


def payload_tensors(blob: bytes) -> dict[str, bytes]:
    """Each tensor's raw little-endian float32 bytes, read straight from
    the container: the payload holds them back to back in
    ``parameter_shapes`` order."""
    (header_len,) = struct.unpack("<I", blob[8:12])
    config = ModelConfig.from_dict(json.loads(blob[12:12 + header_len])["config"])
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
    @given(st.integers(0, 2**32 - 1).filter(lambda v: v != 2))
    def test_only_version_2_is_read(self, version):
        blob = save_model(init_params(SMALL, 0), SMALL)
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
        assert len(trajs) == 1 and trajs[0].frames == (1, 2)
        dets = detections_by_frame([r for r in records if r.track_id == -1])
        assert list(dets) == [1] and dets[1][0].confidence == 0.8

    def test_normalize_trajectories(self):
        meta = SequenceMeta(5, 100, 100)
        t = Trajectory(1, (1,), (BoundingBox(50, 50, 10, 10),))
        (n,) = normalize_trajectories([t], meta)
        assert n.boxes[0].units == "norm" and n.boxes[0].cx == 0.5
