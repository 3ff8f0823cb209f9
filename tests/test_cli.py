import io
import json
import math
import re
import struct
import tempfile
import xml.etree.ElementTree as ET
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields, replace
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ddmot import association, cli
from ddmot.association import TrackerConfig
from ddmot.cli import main
from ddmot.core import BoundingBox, Detection
from ddmot.data_io import (
    MotRecord,
    SyntheticSpec,
    build_training_set,
    parse_mot,
    save_model,
    synth_sequence,
    trajectories_from_records,
)
from ddmot.diffusion import TrainConfig, train
from ddmot.hminet import ModelConfig, init_params, parameter_shapes
from ddmot.metrics import idf1, mota, predictor_iou_diagnostic
from ddmot.predictors import PredictorConfig, make_predictor

SMALL_MODEL = {"token_dim": 16, "n_heads": 2, "n_condition_layers": 1, "n_fusion_blocks": 1}


def write_json(path: Path, payload: dict) -> str:
    path.write_text(json.dumps(payload))
    return str(path)


def dir_bytes(d: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(d.iterdir()) if p.is_file()}


@pytest.fixture()
def scene(tmp_path):
    """A small noiseless synthetic scene on disk."""
    out = tmp_path / "seq"
    spec = write_json(tmp_path / "spec.json", {"program": "linear", "object_count": 3, "length": 60, "speed": 0.003})
    assert main(["synth", "--spec", spec, "--out", str(out), "--seed", "5"]) == 0
    return out


class TestSynth:
    def test_deterministic_output_directory(self, tmp_path):
        spec = write_json(tmp_path / "spec.json", {"program": "sinusoidal", "object_count": 2, "length": 40})
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["synth", "--spec", spec, "--out", str(a), "--seed", "3"]) == 0
        assert main(["synth", "--spec", spec, "--out", str(b), "--seed", "3"]) == 0
        assert dir_bytes(a) == dir_bytes(b)

    def test_gt_line_count(self, tmp_path):
        spec = write_json(tmp_path / "spec.json", {"program": "linear", "object_count": 3, "length": 200})
        out = tmp_path / "seq"
        assert main(["synth", "--spec", spec, "--out", str(out), "--seed", "0"]) == 0
        assert len((out / "gt.txt").read_text().splitlines()) == 600

    def test_invalid_spec_field_named(self, tmp_path, capsys):
        spec = write_json(tmp_path / "spec.json", {"program": "linear", "hyperdrive": 9})
        out = tmp_path / "seq"
        assert main(["synth", "--spec", spec, "--out", str(out), "--seed", "0"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "hyperdrive" in err
        assert not out.exists()  # no partial outputs on validation failure


class TestTrain:
    def test_outputs_and_determinism(self, scene, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", {"model": SMALL_MODEL, "train": {"steps": 25, "batch_size": 32}})
        outs = []
        for name in ("t1", "t2"):
            out = tmp_path / name
            assert main(["train", "--data", str(scene), "--config", cfg, "--out", str(out), "--seed", "1"]) == 0
            assert (out / "model.d2mp").exists() and (out / "loss_history.csv").exists()
            outs.append(dir_bytes(out))
        assert outs[0] == outs[1]

    def test_loss_csv_shape(self, scene, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", {"model": SMALL_MODEL, "train": {"steps": 10, "batch_size": 16}})
        out = tmp_path / "t"
        assert main(["train", "--data", str(scene), "--config", cfg, "--out", str(out), "--seed", "1"]) == 0
        lines = (out / "loss_history.csv").read_text().splitlines()
        assert lines[0] == "step,loss" and len(lines) == 11

    def test_constant_motion_corpus_final_loss(self, scene, tmp_path):
        # the scene fixture is constant-velocity motion, so the loss ends tiny
        cfg = write_json(tmp_path / "cfg.json", {"model": SMALL_MODEL, "train": {"steps": 60, "batch_size": 64}})
        out = tmp_path / "t"
        assert main(["train", "--data", str(scene), "--config", cfg, "--out", str(out), "--seed", "1"]) == 0
        final = float((out / "loss_history.csv").read_text().splitlines()[-1].split(",")[1])
        assert final < 0.01

    def test_summary_reports_steps_run_and_loss(self, scene, tmp_path, capsys):
        """An early stop ends training before --steps; the summary line
        counts the steps that ran and prints the final loss of
        loss_history.csv in scientific notation."""
        cfg = write_json(tmp_path / "cfg.json", {"model": SMALL_MODEL, "train": {"stop_below": 100.0}})
        out = tmp_path / "t"
        assert main(["train", "--data", str(scene), "--config", cfg, "--out", str(out), "--seed", "1",
                     "--steps", "50", "--batch-size", "16"]) == 0
        rows = (out / "loss_history.csv").read_text().splitlines()[1:]
        assert len(rows) == 1
        final = float(rows[-1].split(",")[1])
        stdout = capsys.readouterr().out
        assert "trained 1 steps on " in stdout
        assert stdout.rstrip().endswith(f"final loss {final:.3e}")

    def test_missing_data_dir(self, tmp_path, capsys):
        assert main(["train", "--data", str(tmp_path / "nope"), "--out", str(tmp_path / "t")]) == 2
        assert "error:" in capsys.readouterr().err


class TestTrack:
    def test_kf_perfect_scene_is_perfect(self, scene, tmp_path):
        res = tmp_path / "res.txt"
        assert main(["track", "--detections", str(scene / "det.txt"), "--meta", str(scene / "meta.json"),
                     "--predictor", "kf", "--out", str(res), "--seed", "0"]) == 0
        gt = trajectories_from_records(parse_mot((scene / "gt.txt").read_text()).records)
        records = parse_mot(res.read_text()).records
        assert mota(gt, records).mota == 1.0
        assert idf1(gt, records).idf1 == 1.0

    def test_byte_identical_reruns(self, scene, tmp_path):
        args = ["track", "--detections", str(scene / "det.txt"), "--meta", str(scene / "meta.json"),
                "--predictor", "cv", "--seed", "7"]
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_d2mp_without_model_fails(self, scene, tmp_path, capsys):
        code = main(["track", "--detections", str(scene / "det.txt"), "--meta", str(scene / "meta.json"),
                     "--predictor", "d2mp", "--out", str(tmp_path / "r.txt")])
        assert code == 2
        assert "model" in capsys.readouterr().err

    def test_stops_after_the_last_detection_frame(self, scene, tmp_path, monkeypatch, capsys):
        # no track is matched past the last detection, so those frames write
        # nothing; a huge frame_count must not make them run
        last = int(parse_mot((scene / "det.txt").read_text()).records.frame.max())
        meta = json.loads((scene / "meta.json").read_text())
        meta["frame_count"] = 10**9
        huge = write_json(tmp_path / "meta.json", meta)
        args = ["track", "--detections", str(scene / "det.txt"), "--predictor", "kf", "--seed", "0"]
        assert main(args + ["--meta", str(scene / "meta.json"), "--out", str(tmp_path / "a.txt")]) == 0
        real_step = association.Tracker.step

        def step(tracker, frame, detections):
            if frame > last:
                raise AssertionError(f"stepped frame {frame} past the last detection frame {last}")
            return real_step(tracker, frame, detections)

        monkeypatch.setattr(association.Tracker, "step", step)
        capsys.readouterr()
        assert main(args + ["--meta", huge, "--out", str(tmp_path / "b.txt")]) == 0
        assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()
        assert capsys.readouterr().out.startswith(f"tracked {last} frames -> ")

    def test_d2mp_end_to_end_with_trained_model(self, scene, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", {"model": SMALL_MODEL, "train": {"steps": 40, "batch_size": 32}})
        model_dir = tmp_path / "m"
        assert main(["train", "--data", str(scene), "--config", cfg, "--out", str(model_dir), "--seed", "2"]) == 0
        res = tmp_path / "res.txt"
        assert main(["track", "--detections", str(scene / "det.txt"), "--meta", str(scene / "meta.json"),
                     "--predictor", "d2mp", "--model", str(model_dir / "model.d2mp"),
                     "--out", str(res), "--seed", "0"]) == 0
        gt = trajectories_from_records(parse_mot((scene / "gt.txt").read_text()).records)
        assert idf1(gt, parse_mot(res.read_text()).records).idf1 == 1.0


class TestEval:
    def test_gt_vs_itself(self, scene, capsys):
        assert main(["eval", "--gt", str(scene / "gt.txt"), "--res", str(scene / "gt.txt")]) == 0
        out = capsys.readouterr().out
        assert "MOTA" in out and "1.0000" in out

    def test_json_output(self, scene, capsys):
        assert main(["eval", "--gt", str(scene / "gt.txt"), "--res", str(scene / "gt.txt"), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["mota"]["MOTA"] == 1.0 and payload["idf1"]["IDF1"] == 1.0

    def test_unknown_metric_lists_valid_names(self, scene, capsys):
        assert main(["eval", "--gt", str(scene / "gt.txt"), "--res", str(scene / "gt.txt"),
                     "--metrics", "hota"]) == 2
        err = capsys.readouterr().err
        assert "hota" in err and "mota" in err and "idf1" in err

    def test_swapped_disjoint_id_spaces_degrade_gracefully(self, scene, tmp_path, capsys):
        res = tmp_path / "res.txt"
        text = (scene / "gt.txt").read_text().splitlines()
        shifted = [",".join([l.split(",")[0], "99"] + l.split(",")[2:]) for l in text if l.split(",")[1] == "1"]
        res.write_text("\n".join(shifted) + "\n")
        assert main(["eval", "--gt", str(scene / "gt.txt"), "--res", str(res), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert 0 <= payload["idf1"]["IDF1"] < 1.0

    @pytest.mark.parametrize("repeated", ["gt", "res"])
    def test_repeated_id_in_a_frame_refused(self, scene, tmp_path, capsys, repeated):
        # a repeated (frame, id) row would be scored twice: IDF1 above 1 or a negative count
        lines = (scene / "gt.txt").read_text().splitlines()
        frame, track_id = lines[4].split(",")[:2]
        (tmp_path / "dup.txt").write_text("\n".join(lines[:5] + [lines[4]] + lines[5:]) + "\n")
        files = {"gt": str(scene / "gt.txt"), "res": str(scene / "gt.txt"), repeated: str(tmp_path / "dup.txt")}
        assert main(["eval", "--gt", files["gt"], "--res", files["res"]]) == 2
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert captured.out == "" and len(err) == 1 and err[0].startswith("error: invalid-config:"), err
        assert f"frame {frame}" in err[0] and track_id in err[0]


class TestDiag:
    def test_kf_row_per_corpus(self, scene, capsys):
        assert main(["diag", "--gt", str(scene), "--predictor", "kf"]) == 0
        out = capsys.readouterr().out
        assert "corpus-mean" in out and str(scene) in out

    def test_missing_model_for_d2mp(self, scene, capsys):
        assert main(["diag", "--gt", str(scene), "--predictor", "d2mp"]) == 2
        assert "model" in capsys.readouterr().err

    def test_negative_burn_in_refused(self, scene, capsys):
        # a negative burn-in would slice each trajectory's predictions from its end
        assert main(["diag", "--gt", str(scene), "--predictor", "kf", "--burn-in", "-1"]) == 2
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert captured.out == "" and len(err) == 1 and err[0].startswith("error: invalid-config:"), err
        assert "burn_in" in err[0]

    def test_json_mode(self, scene, capsys):
        assert main(["diag", "--gt", str(scene), "--predictor", "cv", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert str(scene) in payload


class TestViz:
    def test_empty_results_valid_svg(self, scene, tmp_path):
        res = tmp_path / "empty.txt"
        res.write_text("")
        out = tmp_path / "t.svg"
        assert main(["viz", "--res", str(res), "--meta", str(scene / "meta.json"), "--out", str(out)]) == 0
        root = ET.fromstring(out.read_text())
        assert root.tag.endswith("svg")

    def test_k_ids_k_distinct_colors(self, scene, tmp_path):
        out = tmp_path / "t.svg"
        assert main(["viz", "--res", str(scene / "gt.txt"), "--meta", str(scene / "meta.json"),
                     "--out", str(out)]) == 0
        root = ET.fromstring(out.read_text())
        polys = [el for el in root.iter() if el.tag.endswith("polyline")]
        colors = {p.attrib["stroke"] for p in polys}
        assert len(polys) == 3 and len(colors) == 3

    def test_well_formed_xml(self, scene, tmp_path):
        out = tmp_path / "t.svg"
        assert main(["viz", "--res", str(scene / "gt.txt"), "--meta", str(scene / "meta.json"),
                     "--out", str(out)]) == 0
        ET.fromstring(out.read_text())  # parse must not raise


class TestErrorSurface:
    def test_usage_error_nonzero(self):
        assert main(["synth"]) != 0  # missing --out

    def test_error_line_is_machine_parseable(self, tmp_path, capsys):
        assert main(["eval", "--gt", str(tmp_path / "a.txt"), "--res", str(tmp_path / "b.txt")]) == 2
        err = capsys.readouterr().err.strip().splitlines()[-1]
        assert err.startswith("error: missing-input:")

    def _one_error_line(self, capsys, category: str) -> str:
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {category}:"), err
        return err[0]

    def test_non_utf8_input_is_a_format_error(self, scene, tmp_path, capsys):
        binary = tmp_path / "bin.txt"
        binary.write_bytes(b"1,1,10,10,5,5,1,-1,-1,-1\n\xff\xfe\x81,2\n")
        assert main(["eval", "--gt", str(binary), "--res", str(scene / "gt.txt")]) == 2
        assert "bin.txt" in self._one_error_line(capsys, "format-error")

    def test_out_naming_a_directory_is_invalid_config(self, scene, capsys):
        assert main(["track", "--detections", str(scene / "det.txt"), "--meta", str(scene / "meta.json"),
                     "--predictor", "kf", "--out", str(scene)]) == 2
        assert str(scene) in self._one_error_line(capsys, "invalid-config")

    @pytest.mark.parametrize("value", ["nan", "0", "-0.5", "1.5", "inf"])
    def test_iou_threshold_outside_unit_interval(self, scene, capsys, value):
        gt = str(scene / "gt.txt")
        assert main(["eval", "--gt", gt, "--res", gt, "--iou-threshold", value]) == 2
        assert "threshold" in self._one_error_line(capsys, "invalid-config")

    def test_empty_metric_list(self, scene, capsys):
        gt = str(scene / "gt.txt")
        assert main(["eval", "--gt", gt, "--res", gt, "--metrics", ""]) == 2
        self._one_error_line(capsys, "invalid-config")


def test_track_builds_no_row_objects(tmp_path, monkeypatch):
    """MOT rows and trajectories stay columns from the scene to the score:
    ``ddmot synth``, ``track --predictor cv``, ``eval``, ``diag`` and
    ``train``, and ``build_training_set``, ``mota``, ``idf1`` and
    ``predictor_iou_diagnostic`` on a synthetic scene construct no
    BoundingBox, MotRecord or Detection."""
    spec = SyntheticSpec(program="sinusoidal", object_count=8, length=40, jitter_sigma=0.003, drop_prob=0.1,
                         fp_rate=1.0, conf_range=(0.45, 1.0))
    built = []
    for cls in (BoundingBox, MotRecord, Detection):
        init = cls.__init__
        monkeypatch.setattr(cls, "__init__",
                            lambda self, *a, _init=init, **k: built.append(self) or _init(self, *a, **k))
    seq, res = tmp_path / "seq", tmp_path / "res.txt"
    assert main(["synth", "--spec", write_json(tmp_path / "spec.json", spec.to_dict()), "--out", str(seq),
                 "--seed", "2"]) == 0
    assert main(["track", "--detections", str(seq / "det.txt"), "--meta", str(seq / "meta.json"),
                 "--predictor", "cv", "--out", str(res)]) == 0
    assert main(["eval", "--gt", str(seq / "gt.txt"), "--res", str(res)]) == 0
    assert main(["diag", "--gt", str(seq), "--predictor", "kf"]) == 0
    cfg = write_json(tmp_path / "cfg.json", {"model": SMALL_MODEL, "train": {"steps": 2, "batch_size": 8}})
    assert main(["train", "--data", str(seq), "--config", cfg, "--out", str(tmp_path / "m")]) == 0
    scene = synth_sequence(spec, 2)
    build_training_set(scene.trajectories, 5)
    tracked = parse_mot(res.read_text(), scene.meta, normalized=True).records
    assert mota(scene.trajectories, tracked).mota > 0.5 and idf1(scene.trajectories, tracked).idf1 > 0.5
    assert predictor_iou_diagnostic(scene.trajectories, make_predictor(PredictorConfig(kind="cv"))).count > 0
    assert built == []
    assert len(res.read_text().splitlines()) > 200
    list(parse_mot(res.read_text()).records)  # the spy does see objects built from a table
    assert built


def _header(blob: bytes) -> tuple[dict, int]:
    """The JSON header of a model container and the offset of its payload."""
    (header_len,) = struct.unpack("<I", blob[8:12])
    return json.loads(blob[12 : 12 + header_len]), 12 + header_len


def repack(blob: bytes, edit) -> bytes:
    """Apply ``edit`` to the JSON header of a model container."""
    header, payload_at = _header(blob)
    edit(header)
    text = json.dumps(header).encode()
    return blob[:8] + struct.pack("<I", len(text)) + text + blob[payload_at:]


def poison(blob: bytes, tensor: str, value: float) -> bytes:
    """Overwrite the first element of ``tensor`` in the payload, which holds
    the tensors back to back in ``parameter_shapes`` order."""
    header, at = _header(blob)
    for name, shape in parameter_shapes(ModelConfig.from_dict(header["config"])).items():
        if name == tensor:
            return blob[:at] + struct.pack("<f", value) + blob[at + 4 :]
        at += 4 * math.prod(shape)
    raise KeyError(tensor)


class TestMalformedInputs:
    """Malformed files end in one ``error: format-error:`` line, exit 2."""

    def _track(self, scene, tmp_path, capsys, model_bytes=None, det_text=None, meta_text=None):
        det, meta = scene / "det.txt", scene / "meta.json"
        if det_text is not None:
            det = tmp_path / "det.txt"
            det.write_text(det_text)
        if meta_text is not None:
            meta = tmp_path / "meta.json"
            meta.write_text(meta_text)
        predictor = ["--predictor", "kf"]
        if model_bytes is not None:
            (tmp_path / "m.d2mp").write_bytes(model_bytes)
            predictor = ["--predictor", "d2mp", "--model", str(tmp_path / "m.d2mp")]
        code = main(["track", "--detections", str(det), "--meta", str(meta),
                     "--out", str(tmp_path / "res.txt")] + predictor)
        err = capsys.readouterr().err.splitlines()
        assert code == 2 and len(err) == 1 and err[0].startswith("error: format-error:"), err
        return err[0]

    def _model(self):
        cfg = ModelConfig(**SMALL_MODEL)
        return save_model(init_params(cfg, 0), cfg)

    def test_version_1_model_file(self, scene, tmp_path, capsys):
        blob = self._model()
        err = self._track(scene, tmp_path, capsys, model_bytes=blob[:4] + struct.pack("<I", 1) + blob[8:])
        assert "version 1" in err

    def test_version_2_model_file(self, scene, tmp_path, capsys):
        # version 2 declared the attention key biases that version 3 drops
        blob = self._model()
        err = self._track(scene, tmp_path, capsys, model_bytes=blob[:4] + struct.pack("<I", 2) + blob[8:])
        assert "version 2" in err

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_payload(self, scene, tmp_path, capsys, value):
        err = self._track(scene, tmp_path, capsys, model_bytes=poison(self._model(), "head.b2", value))
        assert "head.b2" in err

    def test_wrong_kind_in_model_config(self, scene, tmp_path, capsys):
        model = repack(self._model(), lambda h: h["config"].update(history_length="5"))
        err = self._track(scene, tmp_path, capsys, model_bytes=model)
        assert "history_length" in err

    @pytest.mark.parametrize("field", ["left", "conf"])
    def test_nan_detection_field(self, scene, tmp_path, capsys, field):
        lines = (scene / "det.txt").read_text().splitlines()
        parts = lines[2].split(",")
        parts[2 if field == "left" else 6] = "nan"
        lines[2] = ",".join(parts)
        err = self._track(scene, tmp_path, capsys, det_text="\n".join(lines) + "\n")
        assert "line 3" in err

    def test_detections_past_frame_count(self, scene, tmp_path, capsys):
        # the scene has 60 frames of detections; none may be silently dropped
        meta = json.loads((scene / "meta.json").read_text())
        meta["frame_count"] = 50
        err = self._track(scene, tmp_path, capsys, meta_text=json.dumps(meta))
        assert "frame 51" in err
        assert not (tmp_path / "res.txt").exists()

    def test_overflowing_meta_field(self, scene, tmp_path, capsys):
        # JSON reads 1e400 as inf, which no int holds
        err = self._track(scene, tmp_path, capsys, meta_text='{"frame_count": 1e400, "width": 640, "height": 480}')
        assert "metadata" in err

    @pytest.mark.parametrize("field, value", [
        ("frame_count", 2.7), ("frame_count", True), ("width", "640"), ("frame_rate", 29.97),
    ])
    def test_meta_field_of_the_wrong_kind(self, scene, tmp_path, capsys, field, value):
        # a value is taken as given: neither truncated nor parsed from a string
        meta = json.loads((scene / "meta.json").read_text())
        meta[field] = value
        err = self._track(scene, tmp_path, capsys, meta_text=json.dumps(meta))
        assert "metadata" in err and field in err


class TestConfigSections:
    """A config section that is not a JSON object ends in one
    ``error: format-error:`` line naming the file and the section."""

    @staticmethod
    def _argv(command, scene, tmp_path):
        out = str(tmp_path / "out")
        if command == "track":
            return ["track", "--detections", str(scene / "det.txt"), "--meta", str(scene / "meta.json"),
                    "--predictor", "kf", "--out", out]
        if command == "synth":
            return ["synth", "--out", out]
        return ["train", "--data", str(scene), "--out", out]

    @pytest.mark.parametrize("value", ["x", ["ab", "cd"], 7, None])
    @pytest.mark.parametrize("command, section", [
        ("track", "predictor"), ("track", "tracker"), ("synth", "spec"), ("train", "model"), ("train", "train"),
    ])
    def test_non_object_section(self, scene, tmp_path, capsys, command, section, value):
        cfg = write_json(tmp_path / "cfg.json", {section: value})
        code = main(self._argv(command, scene, tmp_path) + ["--config", cfg])
        err = capsys.readouterr().err.splitlines()
        assert code == 2 and len(err) == 1 and err[0].startswith("error: format-error:"), err
        assert cfg in err[0] and f"'{section}'" in err[0]
        assert not (tmp_path / "out").exists()

    def test_spec_file_not_an_object(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text('["ab", "cd"]')
        assert main(["synth", "--spec", str(spec), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: format-error: spec file"), err


class TestConfigTypes:
    """A config value of the wrong kind ends in one ``error: invalid-config:``
    line, exit 2, before any output is written: an int field takes an int,
    never a bool or a float, and a bool field takes a bool."""

    def _argv(self, command, scene, tmp_path):
        out = str(tmp_path / "out")
        if command == "track":
            cfg = ModelConfig(**SMALL_MODEL)
            (tmp_path / "m.d2mp").write_bytes(save_model(init_params(cfg, 0), cfg))
            return ["track", "--detections", str(scene / "det.txt"), "--meta", str(scene / "meta.json"),
                    "--predictor", "d2mp", "--model", str(tmp_path / "m.d2mp"), "--out", out]
        if command == "synth":
            return ["synth", "--out", out]
        return ["train", "--data", str(scene), "--out", out, "--steps", "1"]

    def _assert_invalid(self, argv, tmp_path, capsys):
        code = main(argv)
        err = capsys.readouterr().err.splitlines()
        assert code == 2 and len(err) == 1 and err[0].startswith("error: invalid-config:"), err
        assert not (tmp_path / "out").exists()
        return err[0]

    @pytest.mark.parametrize("command, section, field, value", [
        ("track", "predictor", "sampling_steps", 2.5),
        ("track", "predictor", "sampling_steps", 1e12),
        ("track", "predictor", "sampling_steps", 10**12),
        ("track", "predictor", "deterministic", "x"),
        ("track", "predictor", "seed", 1.5),
        ("track", "tracker", "max_age", 2.5),
        ("track", "tracker", "max_age", True),
        ("train", "train", "steps", 2.5),
        ("train", "train", "batch_size", 2.5),
        ("train", "model", "history_length", True),
        ("train", "model", "positional_encoding", "x"),
        ("synth", "spec", "object_count", 2.5),
        ("synth", "spec", "object_count", True),
        ("synth", "spec", "length", 60.0),
        ("synth", "spec", "width", 640.5),
        ("synth", "spec", "height", 480.0),
        ("synth", "spec", "frame_rate", True),
    ])
    def test_wrong_kind_rejected(self, scene, tmp_path, capsys, command, section, field, value):
        cfg = write_json(tmp_path / "cfg.json", {section: {field: value}})
        self._assert_invalid(self._argv(command, scene, tmp_path) + ["--config", cfg], tmp_path, capsys)

    @pytest.mark.parametrize("predictor", ["d2mp", "kf", "cv"])
    def test_min_box_extent_beyond_normalized_frame_rejected(self, scene, tmp_path, capsys, predictor):
        # track reads normalized boxes, whose frame is one unit wide
        argv = self._argv("track", scene, tmp_path)
        argv[argv.index("--predictor") + 1] = predictor
        cfg = write_json(tmp_path / "cfg.json", {"predictor": {"min_box_extent": 2.5}})
        self._assert_invalid(argv + ["--config", cfg], tmp_path, capsys)

    def test_iou_weight_rejected(self, scene, tmp_path, capsys):
        # association has no appearance term, so there is nothing to weigh IoU against
        cfg = write_json(tmp_path / "cfg.json", {"tracker": {"iou_weight": 1.0}})
        err = self._assert_invalid(self._argv("track", scene, tmp_path) + ["--config", cfg], tmp_path, capsys)
        assert "iou_weight" in err

    @pytest.mark.parametrize("section, field, value", [
        ("model", "positional_encoding", True),
        ("train", "t_min", 0.001),
        ("train", "z_loss", "smooth_l1"),
    ])
    def test_removed_option_rejected(self, scene, tmp_path, capsys, section, field, value):
        # positional encodings, the training time floor and the noise-head
        # loss are fixed; setting one, even to its only value, is refused
        cfg = write_json(tmp_path / "cfg.json", {section: {field: value}})
        argv = self._argv("train", scene, tmp_path) + ["--config", cfg]
        assert field in self._assert_invalid(argv, tmp_path, capsys)

    @pytest.mark.parametrize("command, section, field, value", [
        ("train", "train", "stop_below", "abc"),
        ("synth", "spec", "conf_range", 5),
        ("synth", "spec", "conf_range", [0.5]),
        ("train", "train", "learning_rate", math.nan),
        ("track", "predictor", "kf_pos_weight", math.nan),
        ("track", "predictor", "min_box_extent", math.nan),
        ("synth", "spec", "fp_rate", math.nan),
        ("synth", "spec", "jitter_sigma", math.nan),
        ("train", "train", "z_loss", "bogus"),
    ])
    def test_float_field_takes_a_finite_number(self, scene, tmp_path, capsys, command, section, field, value):
        # a float field takes a finite real (JSON reads NaN and Infinity) and
        # a range a pair of them; z_loss is no field at all
        argv = self._argv(command, scene, tmp_path)
        if command == "track":
            argv[argv.index("--predictor") + 1] = "kf"
        cfg = write_json(tmp_path / "cfg.json", {section: {field: value}})
        assert field in self._assert_invalid(argv + ["--config", cfg], tmp_path, capsys)

    def test_train_flag_overrides_still_checked(self, scene, tmp_path, capsys):
        # the command line replaces the file's steps; the file's value must still be valid
        cfg = write_json(tmp_path / "cfg.json", {"train": {"steps": 2.5}})
        self._assert_invalid(["train", "--data", str(scene), "--out", str(tmp_path / "out"), "--steps", "3",
                              "--config", cfg], tmp_path, capsys)

    @pytest.mark.parametrize("command", ["track", "train", "synth"])
    def test_negative_seed_rejected(self, scene, tmp_path, capsys, command):
        self._assert_invalid(self._argv(command, scene, tmp_path) + ["--seed", "-1"], tmp_path, capsys)


# ---------------------------------------------------------------------------
# fuzz of the one-line error contract


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    """Input files the fuzzed commands read and never write: a 12-frame
    scene, a small model and a config that trains it for two steps."""
    root = tmp_path_factory.mktemp("fuzz")
    spec = write_json(root / "spec.json", {"program": "circular", "object_count": 3, "length": 12, "fp_rate": 0.5,
                                           "jitter_sigma": 0.002, "conf_range": [0.5, 1.0]})
    assert main(["synth", "--spec", spec, "--out", str(root / "seq"), "--seed", "1"]) == 0
    cfg = ModelConfig(**SMALL_MODEL)
    (root / "m.d2mp").write_bytes(save_model(init_params(cfg, 0), cfg))
    write_json(root / "cfg.json", {"model": SMALL_MODEL, "train": {"steps": 2, "batch_size": 8}})
    return root


def run_main(argv: list[str]) -> None:
    """``main(argv)`` in a fresh output directory ``{out}``: it exits 0, or
    nonzero with exactly one stderr line ``error: <category>: <message>``.
    Training runs at most two steps."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as out, redirect_stdout(io.StringIO()), redirect_stderr(err), \
            mock.patch.object(cli, "train", lambda data, model, cfg: train(data, model, replace(cfg, steps=2))):
        (Path(out) / "file").write_text("x")
        (Path(out) / "dir").mkdir()
        code = main([a.replace("{out}", out) for a in argv])
    lines = err.getvalue().splitlines()
    assert code == 0 or (code == 2 and len(lines) == 1 and re.match(r"error: [a-z-]+: ", lines[0])), (argv, lines)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 8) | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=2),
    max_leaves=5,
)
SECTIONS = {"model": ModelConfig, "train": TrainConfig, "predictor": PredictorConfig, "tracker": TrackerConfig,
            "spec": SyntheticSpec}
FUZZ = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])


class TestFuzzErrorContract:
    """Whatever the metadata text, config values or argv, a command
    succeeds or ends in one ``error: <category>:`` line (JSON reads NaN
    and Infinity, and integers of any size)."""

    @FUZZ
    @given(text=st.one_of(
        st.text(max_size=40),
        st.dictionaries(st.sampled_from(["frame_count", "width", "height", "frame_rate", "fps"]), json_values,
                        max_size=5).map(json.dumps),
    ))
    def test_sequence_metadata(self, fuzz_inputs, text):
        meta = fuzz_inputs / "fuzzed_meta.json"
        meta.write_text(text)
        run_main(["viz", "--res", str(fuzz_inputs / "seq" / "gt.txt"), "--meta", str(meta), "--out", "{out}/t.svg"])

    @FUZZ
    @given(data=st.data(), section=st.sampled_from(sorted(SECTIONS)), predictor=st.sampled_from(["kf", "cv", "d2mp"]))
    def test_config_section_values(self, fuzz_inputs, data, section, predictor):
        keys = st.sampled_from([f.name for f in fields(SECTIONS[section])] + ["bogus"])
        body = data.draw(st.dictionaries(keys, json_values, max_size=4))
        cfg = fuzz_inputs / "fuzzed_cfg.json"
        cfg.write_text(json.dumps({section: body}))
        seq = fuzz_inputs / "seq"
        train = ["train", "--data", str(seq), "--steps", "2", "--batch-size", "8"]
        track = ["track", "--detections", str(seq / "det.txt"), "--meta", str(seq / "meta.json"),
                 "--predictor", predictor, "--model", str(fuzz_inputs / "m.d2mp")]
        argv = {"model": train, "train": train, "spec": ["synth"]}.get(section, track)
        run_main(argv + ["--config", str(cfg), "--out", "{out}/o"])

    @FUZZ
    @given(data=st.data())
    def test_argv(self, fuzz_inputs, data):
        seq = fuzz_inputs / "seq"
        paths = [str(p) for p in (seq, seq / "det.txt", seq / "gt.txt", seq / "meta.json", fuzz_inputs / "m.d2mp",
                                  fuzz_inputs / "cfg.json", fuzz_inputs / "spec.json", fuzz_inputs / "missing")]
        values = {
            "--out": st.sampled_from(["{out}/new", "{out}/new.txt", "{out}/file", "{out}/dir", "{out}/file/sub"]),
            "--predictor": st.sampled_from(["kf", "cv", "d2mp", "lstm"]),
            "--metrics": st.sampled_from(["mota", "idf1", "mota,idf1", "hota", "", ","]),
        }
        words = st.sampled_from(["0", "1", "2", "-1", "1.5", "nan", "inf", "1e400", "x", "", *paths])
        flags = ["--spec", "--config", "--out", "--seed", "--data", "--steps", "--batch-size", "--lr", "--detections",
                 "--meta", "--predictor", "--model", "--sampling-steps", "--deterministic", "--gt", "--res",
                 "--metrics", "--iou-threshold", "--json", "--burn-in", "--bogus"]
        argv = [data.draw(st.sampled_from(["synth", "train", "track", "eval", "diag", "viz", "bogus"]))]
        for _ in range(data.draw(st.integers(0, 8))):
            flag = data.draw(st.sampled_from(flags))
            argv += [flag, data.draw(values.get(flag, words))]
        if data.draw(st.booleans()):
            argv.insert(data.draw(st.integers(0, len(argv))), data.draw(st.text(max_size=6)))
        run_main(argv)
