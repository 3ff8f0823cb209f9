"""Output pins: every predictor's tracking output and track births and
deaths, the training set, the linearity diagnostic and a short training
run on one seeded scene hash to recorded digests, and so does the
desk-scale model file.

A change that alters any of these outputs on purpose updates the digest
here and names it in CHANGES.md.
"""
import hashlib

import numpy as np
import pytest

from ddmot.association import Tracker, TrackerConfig, run_sequence
from ddmot.core import MotTable
from ddmot.data_io import SyntheticSpec, build_training_set, save_model, synth_sequence, write_mot
from ddmot.diffusion import TrainConfig, train
from ddmot.hminet import HMINet, ModelConfig
from ddmot.predictors import PredictorConfig, make_predictor

SPEC = SyntheticSpec(
    program="circular", object_count=6, length=60, drop_prob=0.1, fp_rate=0.3,
    jitter_sigma=0.003, conf_range=(0.5, 1.0),
)
SEED = 7

# (kind, sampling steps, unit mode) -> sha256 of the written MOT text and
# of the unrounded boxes, so a last-ulp change shows too
TRACK_DIGESTS = {
    ("kf", 1, "norm"): "8cfce5d282b11183eb4efee742256ff4081be05d01118f73529023c3e6817903",
    ("cv", 1, "norm"): "5e1ebbc8cb7d3393f1daad04ec650f9ca56df5c0f98ed222b137a1bb7b8ceaaa",
    ("d2mp", 1, "norm"): "f680fdc836a1edd36c02006e9e8ec367fa62c0b03ff756e20e018b197f4c3f6d",
    ("d2mp", 10, "norm"): "f680fdc836a1edd36c02006e9e8ec367fa62c0b03ff756e20e018b197f4c3f6d",
    ("kf", 1, "px"): "b5282b7738c6ab087801abcb99099d69b09bbc54f3e3e2fb93ecd1f9f91d85dc",
    ("cv", 1, "px"): "73d78bf6ad5087a49788afd8986efac4d5d656b6d54fba4e54b5c04d760a2500",
}
# (kind, max_age) -> sha256 of each frame's new and removed track ids
LIFECYCLE_DIGESTS = {
    ("kf", 30): "e9d5bf9bc489dbae03c79365fb615fb49596ff35b68e76de1757be4e7aded10b",
    ("kf", 2): "668a42ac9108cd2273f29e88b4d5ef49ef7c20d0f35d73c4a408adbfd0c6bfc4",
    ("cv", 30): "0993058699e60bd24807a6cf0ef87bb5a45707dbdf892145dbe49ea105c7d3d9",
    ("cv", 2): "c2e225655149a2c1e345f0f368df57a0f9e557b2b6f4c512a1c97f37568f0d85",
    ("d2mp", 30): "00e7322a4f80b77af1a5f853bdc8d3d3aa2b0efbf5135a1213692e396e2e732c",
    ("d2mp", 2): "2078bc5a391a197070b6a29dfcf5b86e21d3129da077479497895f645c6b037d",
}
TRAINING_SET_DIGEST = "eee3b69bcb1976039d9dcfee9110892b54bb071d4e0420a571a21240618036d5"
DIAG_DIGESTS = {
    "kf": "542ca8467f6f14a0fd38a764df83f9acfe15d07598e3f93a5d255e0aba62c80f",
    "cv": "0b22e52c0c7db43edbfac432cbd2ff4c2543c0b7f866a57298864baf9e883c97",
    "d2mp": "7f0c81524ea695d7d45469dc669cd1f416f580d56096ef7ab03b4a7059b2adb8",
}

# loss history and final parameters of a few training steps on a small net;
# each step computes in float32 and updates float64 master weights, and for a
# fixed seed these bits are fixed
TRAIN_CONFIG = ModelConfig(token_dim=16, n_heads=2, n_condition_layers=1, n_fusion_blocks=1)
TRAIN_DIGEST = "f06dc08ee147b8883d19838c49779020337f469c70a8120d5e94869b0ac08b46"

# the model file of the desk-scale net at init seed 0: its container layout
# and its init draws
MODEL_FILE_DIGEST = "5a0c7c78335497558d8a554c30af11527c866018cd3c8bb7797c05638c8321ce"


def sha(*parts: bytes) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p)
    return h.hexdigest()


@pytest.fixture(scope="module")
def scene():
    return synth_sequence(SPEC, SEED)


@pytest.fixture(scope="module")
def model():
    return HMINet.init(ModelConfig(), 0)


def _frames(scene, units):
    meta = scene.meta
    for f in sorted(scene.detections):
        dets = scene.detections[f]
        if units == "px":
            dets = MotTable(dets.frame, dets.track_id, dets.boxes * meta.box_scale(), dets.conf, "px")
        yield f, dets


@pytest.mark.parametrize("key", list(TRACK_DIGESTS), ids=lambda k: f"{k[0]}-k{k[1]}-{k[2]}")
def test_tracking_output(scene, model, key):
    kind, steps, units = key
    predictor = make_predictor(PredictorConfig(kind=kind, sampling_steps=steps, seed=3), model if kind == "d2mp" else None)
    table = run_sequence(_frames(scene, units), predictor, TrackerConfig())
    text = write_mot(table, scene.meta)
    raw = np.column_stack([table.frame, table.track_id, table.boxes]).astype(np.float64)
    assert sha(text.encode(), raw.tobytes()) == TRACK_DIGESTS[key]


@pytest.mark.parametrize("key", list(LIFECYCLE_DIGESTS), ids=lambda k: f"{k[0]}-age{k[1]}")
def test_lifecycle_events(scene, model, key):
    kind, max_age = key
    predictor = make_predictor(PredictorConfig(kind=kind, seed=3), model if kind == "d2mp" else None)
    tracker = Tracker(TrackerConfig(max_age=max_age), predictor)
    events = []
    for f, dets in _frames(scene, "norm"):
        result = tracker.step(f, dets)
        events.append(f"{f} {result.new_tracks} {result.removed_tracks}")
    assert sha("\n".join(events).encode()) == LIFECYCLE_DIGESTS[key]


def test_training_set(scene):
    ds = build_training_set(scene.trajectories, ModelConfig().history_length)
    assert sha(ds.conditions.tobytes(), ds.targets.tobytes()) == TRAINING_SET_DIGEST


@pytest.mark.parametrize("kind", list(DIAG_DIGESTS))
def test_diagnostic_predictions(scene, model, kind):
    predictor = make_predictor(PredictorConfig(kind=kind, seed=3), model if kind == "d2mp" else None)
    preds = [predictor.diagnose_trajectory(t.boxes, t.track_id) for t in scene.trajectories]
    assert sha(*(p.tobytes() for p in preds)) == DIAG_DIGESTS[kind]


def test_training_steps(scene):
    net = HMINet.init(TRAIN_CONFIG, 1)
    ds = build_training_set(scene.trajectories, TRAIN_CONFIG.history_length)
    losses = train(ds, net, TrainConfig(steps=4, batch_size=32, learning_rate=1e-3, seed=2))
    params = [net.params[name].value.tobytes() for name in sorted(net.params)]
    assert sha(np.array(losses).tobytes(), *params) == TRAIN_DIGEST


def test_model_file(model):
    assert sha(save_model(model.params, model.config)) == MODEL_FILE_DIGEST
