"""Workload definitions and seeded input generation for the benchmark.

Every input is derived from the workload seed: the tracking scene, its
ground-truth and detection MOT text, the untrained model file and the
training corpus. The program under test only ever sees the generated text
and bytes, as it would through ``ddmot track``, ``ddmot eval`` and
``ddmot train``.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ddmot import data_io
from ddmot.core import Detection
from ddmot.data_io import SyntheticSpec, Trajectory
from ddmot.hminet import HMINet, ModelConfig

# (name, kind, sampling steps) for every predictor pass the benchmark runs
PREDICTORS = (("kf", "kf", 1), ("cv", "cv", 1), ("d2mp", "d2mp", 1), ("d2mp_k10", "d2mp", 10))
# predictors whose output is scored; d2mp_k10 is a speed ablation only
SCORED = ("kf", "cv", "d2mp")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    scene: SyntheticSpec
    gaps_per_object: int  # contiguous occlusion gaps cut from each object
    gap_frames: tuple[int, int]  # inclusive range of gap lengths
    k10_frames: int | None  # d2mp_k10 tracks only this prefix (None = whole scene)
    shares: dict[str, float]  # share of --seconds given to each job


# training corpus: CORPUS_OBJECTS objects of CORPUS_LENGTH frames per program
CORPUS_OBJECTS = 4
CORPUS_LENGTH = 100
_CORPUS_PROGRAMS = (
    dict(program="sinusoidal", amplitude=0.14, period=18, speed=0.004),
    dict(program="circular", amplitude=0.10, period=40),
    dict(program="direction_flip", period=12, speed=0.008),
    dict(program="accelerate", period=20, speed=0.006),
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="track-sparse",
            why="6 orbiting objects with occlusion gaps: d2mp cost is per-op Python on tiny batches; K=10 ablation",
            scene=SyntheticSpec(
                program="circular", object_count=6, length=200, amplitude=0.1, period=60,
                box_min=0.05, box_max=0.07, jitter_sigma=0.002, fp_rate=0.3,
                conf_range=(0.5, 1.0), fp_conf_range=(0.45, 0.65),
            ),
            gaps_per_object=2,
            gap_frames=(6, 8),
            k10_frames=None,
            shares={"setup": 0.05, "kf": 0.15, "cv": 0.1, "d2mp": 0.25, "d2mp_k10": 0.2, "eval": 0.1, "train": 0.15},
        ),
        Workload(
            name="track-crowded",
            why="150 small objects, 5 false positives/frame: per-track loops, 300x150 costs, 300-row batches, MOT I/O",
            scene=SyntheticSpec(
                program="sinusoidal", object_count=150, length=200, amplitude=0.02, period=40,
                speed=0.002, box_min=0.025, box_max=0.04, jitter_sigma=0.001, drop_prob=0.05,
                fp_rate=5.0, conf_range=(0.45, 1.0), fp_conf_range=(0.5, 0.9),
            ),
            gaps_per_object=0,
            gap_frames=(0, 0),
            k10_frames=6,
            shares={"setup": 0.05, "kf": 0.12, "cv": 0.05, "d2mp": 0.45, "d2mp_k10": 0.08, "eval": 0.12, "train": 0.13},
        ),
    )
}


@dataclass
class Inputs:
    """Everything one workload run feeds the library, as text and bytes."""

    meta: data_io.SequenceMeta
    det_text: str  # detections, MOT CSV with id -1
    gt_text: str  # ground truth, MOT CSV
    k10_det_text: str  # detections of the d2mp_k10 prefix
    k10_frames: int  # frames the d2mp_k10 pass tracks
    model_bytes: bytes  # untrained desk-scale HMINet, .d2mp container
    corpus: list[Trajectory]  # normalized training trajectories


def _cut_gaps(scene: data_io.SynthResult, workload: Workload, rng: np.random.Generator) -> data_io.SynthResult:
    """Remove contiguous occlusion gaps from the ground truth and from the
    detections derived from it. ``synth_sequence`` emits each frame's
    object detections first, in trajectory order, so with no independent
    drops detection i of a frame belongs to trajectory i."""
    spec = workload.scene
    if workload.gaps_per_object == 0:
        return scene
    if spec.drop_prob != 0.0:
        raise ValueError("occlusion gaps need drop_prob == 0 to attribute detections to objects")
    lo, hi = workload.gap_frames
    hidden: set[tuple[int, int]] = set()  # (object index, frame)
    for obj in range(spec.object_count):
        # one gap near the middle of each equal slice of the sequence, so
        # every object breaks into pieces of similar length
        bounds = np.linspace(0, spec.length, workload.gaps_per_object + 1)
        for a, b in zip(bounds[:-1], bounds[1:]):
            length = int(rng.integers(lo, hi + 1))
            start = int((a + b) / 2 + rng.uniform(-0.1, 0.1) * (b - a)) - length // 2
            hidden.update((obj, f) for f in range(start, start + length))
    trajectories = []
    for obj, t in enumerate(scene.trajectories):
        keep = [i for i, f in enumerate(t.frames) if (obj, f) not in hidden]
        trajectories.append(replace(t, frames=tuple(t.frames[i] for i in keep), boxes=tuple(t.boxes[i] for i in keep)))
    detections: dict[int, list[Detection]] = {}
    for frame, dets in scene.detections.items():
        detections[frame] = [d for i, d in enumerate(dets) if not (i < spec.object_count and (i, frame) in hidden)]
    return data_io.SynthResult(trajectories, detections, scene.meta)


def _corpus(seed: int) -> list[Trajectory]:
    trajs: list[Trajectory] = []
    for j, params in enumerate(_CORPUS_PROGRAMS):
        spec = SyntheticSpec(object_count=CORPUS_OBJECTS, length=CORPUS_LENGTH, **params)
        trajs.extend(data_io.synth_sequence(spec, seed * 101 + j).trajectories)
    return trajs


def make_inputs(workload: Workload, seed: int) -> Inputs:
    """Synthesize the scene and corpus and render them the way the CLI
    would find them on disk. Deterministic in (workload, seed)."""
    scene = data_io.synth_sequence(workload.scene, seed)
    scene = _cut_gaps(scene, workload, np.random.default_rng((seed, 1)))
    meta = scene.meta
    det_records = data_io.detection_records(scene)
    det_text = data_io.write_mot(det_records, meta)
    gt_text = data_io.write_mot(data_io.records_from_trajectories(scene.trajectories), meta)
    k10_det_text, k10_frames = det_text, meta.frame_count
    if workload.k10_frames is not None:
        k10_frames = workload.k10_frames
        k10_det_text = data_io.write_mot([r for r in det_records if r.frame <= k10_frames], meta)
    config = ModelConfig()
    model_bytes = data_io.save_model(HMINet.init(config, seed).params, config)
    return Inputs(meta, det_text, gt_text, k10_det_text, k10_frames, model_bytes, _corpus(seed))
