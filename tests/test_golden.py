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
    ("kf", 1, "norm"): "14b4a8bada4139a0129e2866c2313bb4d0b10712c85f46f28189265785664db1",
    ("cv", 1, "norm"): "f80c42e340c3f09c4a1ae40919dd6a0c4286801e92f75ecfe51aa14e626b7a8a",
    ("d2mp", 1, "norm"): "e0563303e314706dfca6e5bf327ab0d259db02165ec88cbd7b959c5902521c78",
    ("d2mp", 10, "norm"): "17bcbb74969f3d4fefb0662f1e20edee09790eb40a69027b36482cc4c8d8bc8f",
    ("kf", 1, "px"): "346d9f4faea40b597525004b6f5d90e74aab06dc8798d8cd1b42b47692044cec",
    ("cv", 1, "px"): "0e52ca7dfbf49380f0ae4ecbf6a8d9b8e938acd8c4300953b842831c1cdaf903",
}
# (kind, max_age) -> sha256 of each frame's new and removed track ids
LIFECYCLE_DIGESTS = {
    ("kf", 30): "549c8b3493bf8f091c06fd2c451c08ac75b7fd061e0ef84ad0fd25aea7907388",
    ("kf", 2): "dc197261d5497cc78389a4ef2d1ba66ae87f07f170e4dad27ba0ae56635a7bb0",
    ("cv", 30): "36c62ea20cd6dc067d570a37b83a1c94f9c10ee7955700695728b983ab7d2923",
    ("cv", 2): "026710c04717b188fcdae1152f7f1a1a6aa41ca4b58205d38772a69ad32cc932",
    ("d2mp", 30): "8eb13ead02acf3c12777cb540ca67add463a0423cd935990799ba5f6c8ed3e88",
    ("d2mp", 2): "92e8fd956473f5370abe9515279d9c41b578eedc2b2b38597d2875e497c88371",
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
