"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with `pytest -s tests/test_acceptance.py` to watch).

The expensive pieces (desk-scale training, full gradient audit) live here
rather than in the unit tests; everything is seeded and deterministic.
"""
import itertools
import json
import time
from pathlib import Path

import numpy as np
import pytest

from ddmot import autodiff as ad
from ddmot.association import CostMatrix, TrackerConfig, hungarian, run_sequence
from ddmot.cli import main
from ddmot.core import BoundingBox, Detection, stack_boxes
from ddmot.data_io import (
    SyntheticSpec,
    Trajectory,
    build_training_set,
    load_model,
    save_model,
    synth_sequence,
)
from ddmot.diffusion import (
    T_MIN,
    TrainConfig,
    attenuation_constant,
    derive_noise,
    encode_windows,
    forward_diffuse,
    reverse_step,
    sample_k_steps,
    sample_one_step,
    train,
    training_loss,
)
from ddmot.hminet import HMINet, ModelConfig
from ddmot.metrics import idf1, mota, predictor_iou_diagnostic
from ddmot.predictors import (
    ConstantVelocityPredictor,
    D2MPPredictor,
    KalmanPredictor,
    PredictorConfig,
    build_condition_window,
    trajectory_windows,
)

from test_inference import INFERENCE_TOLERANCE, graph_sample, window_sample

# training budget for the desk-scale comparison (criterion 7);
# hard ceiling: 20k steps at batch 256
TRAIN_STEPS = 1200
TRAIN_BATCH = 256
TRAIN_LR = 3e-4


def report(num: int, name: str, ok: bool, detail: str = ""):
    print(f"\n[ACCEPTANCE {num:02d}] {name}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


class OracleNet:
    """c_hat == -M_0 exactly, the idealized trained network."""

    def __init__(self, target, history_length=5):
        self.target = np.asarray(target, dtype=np.float64)
        self.history_length = history_length

    def embed_condition(self, windows):
        return windows

    def bind_condition(self, windows):
        return windows

    def predict_values(self, noisy, t, windows):
        return np.broadcast_to(-self.target, noisy.shape).copy(), None


def test_criterion_1_forward_reverse_identity():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    m0 = rng.normal(size=(1000, 4))
    z = rng.normal(size=(1000, 4))
    t = rng.uniform(T_MIN, 1.0, size=1000)
    noisy, _ = forward_diffuse(m0, t, z)
    out = reverse_step(noisy, t, attenuation_constant(m0), z=z, noise=rng.normal(size=(1000, 4)))
    err = np.abs(out.values - m0).max()
    elapsed = time.perf_counter() - start
    report(1, "forward/reverse analytic identity", err < 1e-9 and elapsed < 1.0,
           f"max abs err {err:.2e}, {elapsed * 1e3:.0f} ms")


def test_criterion_2_ob_tb_equivalence():
    from ddmot.diffusion import NoisyMotion

    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(1000):
        t = rng.uniform(T_MIN, 1.0)
        dt = rng.uniform(1e-6, t)
        m = NoisyMotion(rng.normal(size=4), t)
        c = rng.normal(size=4)
        ob = reverse_step(m, dt, c).values
        tb = reverse_step(m, dt, c, z=derive_noise(m, c)).values
        worst = max(worst, float(np.abs(ob - tb).max()))
    report(2, "one-branch/two-branch mean equivalence", worst < 1e-12, f"max abs err {worst:.2e}")


def test_criterion_3_one_step_endpoint():
    target = np.array([0.31, -0.12, 0.05, 0.0])
    net = OracleNet(target)
    emb = encode_windows(np.zeros((1, 5, 8)), net)
    one = sample_one_step(emb, net, np.random.default_rng(103))
    exact = np.array_equal(one, target[None])
    worst = 0.0
    for k in (1, 10, 20):
        out = sample_k_steps(k, emb, net, np.random.default_rng(104), deterministic=True)
        worst = max(worst, float(np.abs(out - target).max()))
    report(3, "one-step endpoint and K-step agreement", exact and worst < 1e-9,
           f"one-step exact={exact}, K-step max err {worst:.2e}")


def test_criterion_4_gradient_audit():
    start = time.perf_counter()
    rng = np.random.default_rng(105)
    cfg = ModelConfig(token_dim=16, n_heads=2, n_condition_layers=1, n_fusion_blocks=1)
    net = HMINet.init(cfg, 11)
    windows = rng.normal(size=(3, 5, 8)) * 0.3
    m0 = rng.normal(size=(3, 4)) * 0.5
    t = rng.uniform(0.2, 1.0, 3)
    z = rng.normal(size=(3, 4))
    noisy, _ = forward_diffuse(m0, t, z)

    def f():
        c_hat, _ = net.predict_graph(noisy.values, t, windows)
        return training_loss(c_hat, attenuation_constant(m0))

    audit = ad.finite_difference_check(f, net.params, h=1e-5, tolerance=1e-4)
    elapsed = time.perf_counter() - start
    n_params = sum(p.value.size for p in net.params.values())
    report(4, "full-network gradient audit", audit.ok and elapsed < 120.0,
           f"{n_params} params, max rel err {audit.max_rel_error:.2e}, {elapsed:.1f} s")


def test_criterion_5_hungarian_optimality():
    rng = np.random.default_rng(106)
    start = time.perf_counter()
    checked = 0
    for _ in range(500):
        n, m = (int(v) for v in rng.integers(1, 8, size=2))
        costs = rng.uniform(0.0, 1.0, size=(n, m))
        got = hungarian(CostMatrix(costs, np.ones((n, m), bool)))
        got_cost = sum(costs[r, c] for r, c in got.matches)
        k = min(n, m)
        best = min(
            sum(costs[r, c] for r, c in zip(range(k), perm)) if n <= m
            else sum(costs[r, c] for c, r in zip(range(k), perm))
            for perm in itertools.permutations(range(max(n, m)), k)
        )
        assert len(got.matches) == k
        assert abs(got_cost - best) < 1e-9, (costs, got)
        checked += 1
    elapsed = time.perf_counter() - start
    report(5, "Hungarian equals brute-force optimum", checked == 500 and elapsed < 10.0,
           f"{checked} matrices, {elapsed:.1f} s")


def _lane_scene(n_frames=200):
    """Three objects in parallel lanes, comfortably separated forever."""
    lanes = [0.2, 0.5, 0.8]
    trajs, frames = [], {}
    for tid, y in enumerate(lanes, start=1):
        boxes = [(0.15 + 0.003 * f, y, 0.1, 0.1) for f in range(1, n_frames + 1)]
        trajs.append(Trajectory(tid, tuple(range(1, n_frames + 1)), boxes, "norm"))
    for f in range(1, n_frames + 1):
        frames[f] = [Detection(f, BoundingBox(*t.boxes[f - 1], "norm"), 1.0) for t in trajs]
    return trajs, frames


def test_criterion_6_end_to_end_sanity():
    trajs, frames = _lane_scene(200)
    results = {}
    predictors = {
        "kf": KalmanPredictor(),
        "cv": ConstantVelocityPredictor(),
        "d2mp": D2MPPredictor(HMINet.init(ModelConfig(), 0), PredictorConfig(kind="d2mp", seed=0)),
    }
    ok = True
    details = []
    for name, predictor in predictors.items():
        records = run_sequence(sorted(frames.items()), predictor, TrackerConfig())
        m = mota(trajs, records)
        i = idf1(trajs, records)
        results[name] = (m, i)
        ok &= m.mota == 1.0 and i.idf1 == 1.0 and m.idsw == 0
        details.append(f"{name}: MOTA={m.mota:.3f} IDF1={i.idf1:.3f} IDSW={m.idsw}")
    report(6, "end-to-end sanity on a clean scene", ok, "; ".join(details))


def _nonlinear_specs(objects=10, length=100):
    return [
        SyntheticSpec(program="sinusoidal", object_count=objects, length=length, amplitude=0.14, period=18, speed=0.004),
        SyntheticSpec(program="sinusoidal", object_count=objects, length=length, amplitude=0.10, period=14, speed=0.005),
        SyntheticSpec(program="direction_flip", object_count=objects, length=length, period=12, speed=0.008),
        SyntheticSpec(program="accelerate", object_count=objects, length=length, period=20, speed=0.006),
    ]


def _corpus(seed0, n_seq):
    trajs = []
    for i in range(n_seq):
        for j, spec in enumerate(_nonlinear_specs()):
            trajs.extend(synth_sequence(spec, seed0 + 97 * i + j).trajectories)
    return trajs


@pytest.fixture(scope="module")
def desk_model():
    """Desk-config model trained on the non-linear corpus (criterion 7);
    reused by the latency and serialization criteria."""
    start = time.perf_counter()
    train_trajs = _corpus(0, 6)  # 240 trajectories
    dataset = build_training_set(train_trajs, 5)
    model = HMINet.init(ModelConfig(), 0)
    losses = train(dataset, model, TrainConfig(steps=TRAIN_STEPS, batch_size=TRAIN_BATCH,
                                               learning_rate=TRAIN_LR, seed=1))
    return model, losses, len(train_trajs), len(dataset), time.perf_counter() - start


def test_criterion_7_desk_scale_advantage(desk_model):
    model, losses, n_traj, n_samples, train_time = desk_model
    start = time.perf_counter()
    held = _corpus(10_000, 1)
    linear = synth_sequence(SyntheticSpec(program="linear", object_count=40, length=100, speed=0.004), 777).trajectories

    kf_nonlinear = predictor_iou_diagnostic(held, KalmanPredictor()).mean
    kf_linear = predictor_iou_diagnostic(linear, KalmanPredictor()).mean
    d2mp = predictor_iou_diagnostic(held, D2MPPredictor(model, PredictorConfig(kind="d2mp", seed=7))).mean

    total = train_time + (time.perf_counter() - start)
    margin = d2mp - kf_nonlinear
    contrast = kf_linear - kf_nonlinear
    ok = (
        n_traj >= 200
        and TRAIN_STEPS <= 20_000
        and margin >= 0.05
        and contrast >= 0.10
        and total < 900.0
    )
    report(
        7,
        "desk-scale non-linear prediction advantage",
        ok,
        f"{n_traj} trajs / {n_samples} samples, {TRAIN_STEPS} steps (final loss {losses[-1]:.3e}); "
        f"d2mp {d2mp:.4f} vs KF {kf_nonlinear:.4f} (margin {margin:+.4f}, need >= +0.05); "
        f"KF linear {kf_linear:.4f} (contrast {contrast:+.4f}, need >= +0.10); "
        f"runtime {total:.0f} s (< 900)",
    )


def test_criterion_8_smooth_l1_anchors():
    checks = [
        (training_loss(np.array([0.0]), np.array([0.0])), 0.0),
        (training_loss(np.array([0.5]), np.array([0.0])), 0.125),
        (training_loss(np.array([-0.5]), np.array([0.0])), 0.125),
        (training_loss(np.array([2.0]), np.array([0.0])), 1.5),
        (training_loss(np.array([-2.0]), np.array([0.0])), 1.5),
    ]
    ok = all(abs(got - want) < 1e-15 for got, want in checks)
    quad_at_one = 0.5 * 1.0**2
    lin_at_one = 1.0 - 0.5
    ok &= quad_at_one == lin_at_one == 0.5
    report(8, "smooth-L1 anchor values and C1 join", ok,
           "loss(0)=0, loss(+-0.5)=0.125, loss(+-2)=1.5, both branches 0.5 at |d|=1")


def test_criterion_9_cli_determinism(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"program": "sinusoidal", "object_count": 3, "length": 50}))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "model": {"token_dim": 16, "n_heads": 2, "n_condition_layers": 1, "n_fusion_blocks": 1},
        "train": {"steps": 20, "batch_size": 32},
    }))

    def contents(d):
        return {p.name: p.read_bytes() for p in sorted(d.iterdir())}

    # identical invocations (same inputs, flags, seeds) into fresh targets
    synth_dirs = [tmp_path / f"synth_{t}" for t in "ab"]
    for d in synth_dirs:
        assert main(["synth", "--spec", str(spec), "--out", str(d), "--seed", "3"]) == 0
    same = contents(synth_dirs[0]) == contents(synth_dirs[1])

    train_dirs = [tmp_path / f"train_{t}" for t in "ab"]
    for d in train_dirs:
        assert main(["train", "--data", str(synth_dirs[0]), "--config", str(cfg),
                     "--out", str(d), "--seed", "4"]) == 0
    same &= contents(train_dirs[0]) == contents(train_dirs[1])

    track_files = [tmp_path / f"res_{t}.txt" for t in "ab"]
    for f in track_files:
        assert main(["track", "--detections", str(synth_dirs[0] / "det.txt"),
                     "--meta", str(synth_dirs[0] / "meta.json"),
                     "--predictor", "d2mp", "--model", str(train_dirs[0] / "model.d2mp"),
                     "--out", str(f), "--seed", "5"]) == 0
    same &= track_files[0].read_bytes() == track_files[1].read_bytes()
    echoes = [Path(str(f) + ".config.json").read_bytes() for f in track_files]
    same &= echoes[0] == echoes[1]
    n = len(contents(synth_dirs[0])) + len(contents(train_dirs[0])) + 2
    report(9, "cmd_synth/train/track byte determinism", same, f"{n} artifacts compared")


def test_criterion_10_latency_64_tracks(desk_model):
    model, *_ = desk_model
    predictor = D2MPPredictor(model, PredictorConfig(kind="d2mp", seed=2))
    rng = np.random.default_rng(108)
    ids = list(range(1, 65))
    for tid in ids:
        box = BoundingBox(float(rng.uniform(0.2, 0.8)), float(rng.uniform(0.2, 0.8)), 0.1, 0.1, "norm")
        predictor.start([tid], stack_boxes([box]))
        for _ in range(5):
            predictor.observe([tid - 1], stack_boxes([BoundingBox(box.cx + rng.uniform(-0.004, 0.004),
                                                                  box.cy, 0.1, 0.1, "norm")]))
    timings = []
    for _ in range(5):
        t0 = time.perf_counter()
        out = predictor.predict_all()
        timings.append(time.perf_counter() - t0)
        assert len(out) == 64
    best = min(timings)
    report(10, "one-step inference latency for 64 tracks", best < 0.100, f"best {best * 1e3:.1f} ms")


def test_criterion_11_serialization(desk_model):
    model, *_ = desk_model
    blob = save_model(model.params, model.config)
    params, cfg = load_model(blob)
    byte_stable = save_model(params, cfg) == blob

    from ddmot.data_io import load_hminet

    loaded = load_hminet(blob)
    rng = np.random.default_rng(109)
    worst = 0.0
    for _ in range(100):
        w = rng.normal(size=(1, 5, 8)) * 0.3
        m = rng.normal(size=(1, 4))
        t = float(rng.uniform(T_MIN, 1.0))
        a, _ = model.predict_values(m, t, model.embed_condition(w))
        b, _ = loaded.predict_values(m, t, loaded.embed_condition(w))
        worst = max(worst, float(np.abs(a - b).max()))
    report(11, "model file round trip", byte_stable and worst < 1e-4,
           f"save-load-save identical={byte_stable}, max prediction drift {worst:.2e}")


def test_float32_inference_on_desk_model(desk_model):
    """Inference runs in float32; on the trained desk model its samples
    stay within INFERENCE_TOLERANCE of the float64 forward pass on every
    held-out window of criterion 7, for one step and for K=10."""
    model, *_ = desk_model
    windows = np.concatenate([
        build_condition_window(trajectory_windows(t.boxes, model.history_length))
        for t in _corpus(10_000, 1)
    ])
    worst = {}
    for k in (1, 10):
        worst[k] = 0.0
        for rows in np.array_split(windows, 4):
            got = window_sample(k, rows, model, np.random.default_rng(k))
            want = graph_sample(k, rows, model, np.random.default_rng(k))
            worst[k] = max(worst[k], float(np.abs(got - want).max()))
    print(f"\nfloat32 inference on {len(windows)} held-out windows: max |float32 - float64| "
          f"{worst[1]:.2e} (K=1), {worst[10]:.2e} (K=10)")
    assert len(windows) == 3960
    assert max(worst.values()) <= INFERENCE_TOLERANCE, worst
