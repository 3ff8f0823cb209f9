"""Jobs, measurement loop, correctness checks and reporting of the benchmark.

Every input is generated from ``--seed``. The tracker is driven the way
``ddmot track`` drives it (parse MOT text, group by frame, one
``Tracker.step`` per frame in order, write MOT text), scored the way
``ddmot eval`` scores it, and trained the way ``ddmot train`` trains. All of
it runs in this one process; frame f+1 is handed in only after frame f
returns.

``--trace 0`` measures the end-to-end metrics with no tracing. Jobs run
round-robin, each repeated until it has used its share of ``--seconds``
(at least once), and timings are medians over the repetitions.
``--trace 1`` runs one untraced round and one traced round and reports
the per-layer metrics of the traced one, plus the difference between the
two rounds as the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import ctypes
import gc
import glob
import hashlib
import json
import math
import os
import platform
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

from ddmot import association, data_io, diffusion, metrics
from ddmot.core import NumericError, TrackingError
from ddmot.predictors import PredictorConfig, make_predictor
from tracing import Tracer, instrument, layer_metrics, trace_predictor
from workloads import PREDICTORS, SCORED, WORKLOADS, Workload, make_inputs

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
MIN_SETUPS = 3
BATCH = 256
TRAIN_CHUNK = 4  # training steps per timed repetition
FRAME_BUDGET_MS = 1000.0 / 30.0


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _blas_threads() -> int | None:
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _blas_threads(),
        "git_commit": _git_commit(),
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------------
# jobs


@dataclass
class State:
    """What one set-up produces."""

    inputs: object
    model: object  # the loaded d2mp HMINet
    dataset: object  # TrainingSet
    gt: list  # ground-truth trajectories, parsed from MOT text as ddmot eval does
    digest: str


@dataclass
class Outcome:
    """One repetition of one job."""

    seconds: float
    text: str = ""  # MOT output of a tracking pass
    frames: int = 0
    rows: int = 0
    frame_s: list[float] = field(default_factory=list)
    failed: int = 0
    clamps: int = 0
    losses: list[float] = field(default_factory=list)
    reports: dict = field(default_factory=dict)  # eval: name -> (MotaReport, Idf1Report)
    digest: str = ""  # set-up: hash of every generated input


def setup(workload, seed: int) -> tuple[float, State]:
    t0 = perf_counter()
    inputs = make_inputs(workload, seed)
    model = data_io.load_hminet(inputs.model_bytes)
    cfg = model.config
    dataset = data_io.build_training_set(inputs.corpus, cfg.history_length, cfg.condition_variant)
    gt = data_io.trajectories_from_records(data_io.parse_mot(inputs.gt_text).records)
    elapsed = perf_counter() - t0
    h = hashlib.sha256()
    for part in (inputs.det_text.encode(), inputs.gt_text.encode(), inputs.k10_det_text.encode(), inputs.model_bytes,
                 dataset.conditions.tobytes(), dataset.targets.tobytes()):
        h.update(part)
    return elapsed, State(inputs, model, dataset, gt, h.hexdigest())


def track_pass(state: State, name: str, kind: str, steps: int, seed: int, tracer=None) -> Outcome:
    """One ``ddmot track`` run, from detection text to result text."""
    inputs = state.inputs
    text_in = inputs.k10_det_text if name == "d2mp_k10" else inputs.det_text
    n_frames = inputs.k10_frames if name == "d2mp_k10" else inputs.meta.frame_count
    t0 = perf_counter()
    parsed = data_io.parse_mot(text_in, inputs.meta, normalized=True)
    frames = data_io.detections_by_frame(parsed.records)
    config = PredictorConfig(kind=kind, sampling_steps=steps, seed=seed)
    predictor = make_predictor(config, state.model if kind == "d2mp" else None)
    if tracer is not None:
        trace_predictor(predictor, tracer)
    tracker = association.Tracker(association.TrackerConfig(), predictor)
    rows, frame_s, failed = [], [], 0
    for f in range(1, n_frames + 1):
        s = perf_counter()
        try:
            result = tracker.step(f, frames.get(f, []))
        except TrackingError as e:
            print(f"  {name} frame {f} failed: {type(e).__name__}: {e}")
            failed += 1
            continue
        frame_s.append(perf_counter() - s)
        rows.extend((f, tid, box) for tid, box in result.matched)
    text = data_io.write_mot([data_io.MotRecord(f, tid, box, 1.0) for f, tid, box in rows], inputs.meta)
    elapsed = perf_counter() - t0
    return Outcome(elapsed, text=text, frames=n_frames, rows=len(rows), frame_s=frame_s, failed=failed,
                   clamps=getattr(predictor, "clamp_count", 0))


def eval_pass(state: State, results: dict) -> Outcome:
    """``ddmot eval --metrics mota,idf1`` over every scored output."""
    t0 = perf_counter()
    reports = {name: (metrics.mota(state.gt, res), metrics.idf1(state.gt, res)) for name, res in results.items()}
    return Outcome(perf_counter() - t0, reports=reports)


def train_pass(state: State, steps: int, seed: int) -> Outcome:
    """``ddmot train`` for ``steps`` Adam steps from the untrained model."""
    model = data_io.load_hminet(state.inputs.model_bytes)
    t0 = perf_counter()
    try:
        losses = diffusion.train(state.dataset, model, diffusion.TrainConfig(steps=steps, batch_size=BATCH, seed=seed))
    except NumericError as e:
        print(f"  train chunk failed: {e}")
        return Outcome(perf_counter() - t0, failed=steps)
    return Outcome(perf_counter() - t0, losses=losses)


class Runner:
    """Runs the jobs of one workload and keeps every outcome.

    The first set-up provides the inputs every other job uses; later
    set-ups are only timed and compared with it."""

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.jobs = ["setup"] + [p[0] for p in PREDICTORS] + ["eval", "train"]
        self.outcomes: dict[str, list[Outcome]] = {j: [] for j in self.jobs}
        self.checks: dict[str, bool] = {}
        self.state: State | None = None
        self.scored: dict = {}  # re-parsed result records of the first passes

    def run(self, job: str, tracer=None) -> Outcome:
        gc.collect()
        if tracer is not None:
            tracer.set_job(job)
        if job == "setup":
            elapsed, state = setup(self.workload, self.seed)
            self.state = self.state or state
            out = Outcome(elapsed, digest=state.digest)
        elif job == "eval":
            out = eval_pass(self.state, self.scored)
        elif job == "train":
            out = train_pass(self.state, TRAIN_CHUNK, self.seed)
        else:
            _, kind, steps = next(p for p in PREDICTORS if p[0] == job)
            out = track_pass(self.state, job, kind, steps, self.seed, tracer)
        self.outcomes[job].append(out)
        if len(self.outcomes[job]) == 1:
            if tracer is not None:
                tracer.set_job("check")
            self._first_checks(job, out)
        return out

    def _first_checks(self, job: str, out: Outcome) -> None:
        if out.text:
            records = data_io.parse_mot(out.text).records
            self.checks[f"{job}: written MOT re-parses to the same row count"] = len(records) == out.rows
            if job.startswith("d2mp"):
                self.checks[f"{job}: every box is finite"] = all(
                    math.isfinite(v) for r in records for v in (r.box.cx, r.box.cy, r.box.w, r.box.h))
            if job in SCORED:
                self.scored[job] = records
        if job == "train":
            self.checks["train: every loss is finite"] = all(math.isfinite(v) for v in out.losses)

    def round(self, tracer=None) -> float:
        """Every job once, in order; returns the wall time."""
        t0 = perf_counter()
        for job in self.jobs:
            self.run(job, tracer)
        return perf_counter() - t0

    def measure(self, seconds: float) -> None:
        """Round-robin until every job has had its share of ``seconds``;
        each runs at least once, set-up at least ``MIN_SETUPS`` times."""
        spent = {j: 0.0 for j in self.jobs}

        def pending(job: str) -> bool:
            least = MIN_SETUPS if job == "setup" else 1
            return len(self.outcomes[job]) < least or spent[job] < self.workload.shares[job] * seconds

        while todo := [j for j in self.jobs if pending(j)]:
            for job in todo:
                spent[job] += self.run(job).seconds

    def fingerprint(self, job: str, out: Outcome):
        if job == "setup":
            return out.digest
        if job == "eval":
            return {k: (m.to_dict(), i.to_dict()) for k, (m, i) in out.reports.items()}
        if job == "train":
            return out.losses if not out.failed else None
        return out.text

    def check_repeats(self) -> None:
        for job in self.jobs:
            outs = self.outcomes[job]
            first = self.fingerprint(job, outs[0])
            self.checks[f"{job}: all {len(outs)} repetitions give identical output"] = all(
                self.fingerprint(job, o) == first for o in outs[1:])

    def counts(self) -> tuple[int, int]:
        """(frames and training steps attempted, those that failed)."""
        attempted = failed = 0
        for job in self.jobs:
            for o in self.outcomes[job]:
                if job == "train":
                    attempted += TRAIN_CHUNK
                else:
                    attempted += o.frames
                failed += o.failed
        return attempted, failed


# ---------------------------------------------------------------------------
# reporting


def end_to_end(runner: Runner) -> dict[str, tuple[float, str]]:
    outcomes = runner.outcomes
    out = {"setup_s": (statistics.median(o.seconds for o in outcomes["setup"]), "s")}
    # throughput is all work done over all the time it took: on a shared
    # machine whose speed drifts for seconds at a time this is steadier
    # than the median repetition
    for job, _, _ in PREDICTORS:
        out[f"{job}.fps"] = (sum(o.frames for o in outcomes[job]) / sum(o.seconds for o in outcomes[job]), "frames/s")
    frame_ms = np.array([s for o in outcomes["d2mp"] for s in o.frame_s]) * 1000.0
    out["d2mp.frame_ms_p50"] = (float(np.percentile(frame_ms, 50)), "ms")
    out["d2mp.frame_ms_p95"] = (float(np.percentile(frame_ms, 95)), "ms")
    reports = outcomes["eval"][0].reports
    for job in SCORED:
        m, i = reports[job]
        out[f"{job}.mota"] = (m.mota, "ratio")
        out[f"{job}.idf1"] = (i.idf1, "ratio")
    out["eval_s"] = (statistics.mean(o.seconds for o in outcomes["eval"]), "s")
    train = [o for o in outcomes["train"] if not o.failed] or outcomes["train"]
    out["train.steps_per_s"] = (TRAIN_CHUNK * len(train) / sum(o.seconds for o in train), "steps/s")
    return out


def _print_metrics(values: dict[str, tuple[float, str]]) -> None:
    width = max(len(k) for k in values)
    for name, (value, unit) in values.items():
        print(f"  {name:<{width}}  {value:>14.6g}  {unit}")


def _result(checks: dict[str, bool], attempted: int, failed: int, values: dict) -> dict:
    print("checks:")
    for name, ok in checks.items():
        print(f"  [{'ok' if ok else 'FAIL'}] {name}")
    return {
        "correct": all(checks.values()),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
    }


def measure_end_to_end(workload: Workload, seed: int, seconds: float) -> dict:
    runner = Runner(workload, seed)
    runner.measure(seconds)
    runner.check_repeats()
    values = end_to_end(runner)
    d2mp_frames = sum(len(o.frame_s) for o in runner.outcomes["d2mp"])
    print("end-to-end (rates over all repetitions, set-up median, eval mean):")
    _print_metrics(values)
    print("repetitions: " + ", ".join(f"{j}={len(o)}" for j, o in runner.outcomes.items()))
    print(f"d2mp frame latency over {d2mp_frames} Tracker.step calls; "
          f"real-time budget at 30 fps is {FRAME_BUDGET_MS:.1f} ms (information, not a bound)")
    attempted, failed = runner.counts()
    return _result(runner.checks, attempted, failed, values)


def measure_layers(workload: Workload, seed: int) -> dict:
    plain = Runner(workload, seed)
    untraced_s = plain.round()
    traced = Runner(workload, seed)
    tracer = Tracer()
    with instrument(tracer):
        traced_s = traced.round(tracer)

    checks = dict(traced.checks)
    for job in traced.jobs:
        same = plain.fingerprint(job, plain.outcomes[job][0]) == traced.fingerprint(job, traced.outcomes[job][0])
        checks[f"{job}: traced and untraced output are identical"] = same
    clamps = sum(o.clamps for j in ("d2mp", "d2mp_k10") for o in traced.outcomes[j])
    values = layer_metrics(tracer, clamps)
    values["trace.overhead_s"] = (traced_s - untraced_s, "s")
    print(f"one round: untraced {untraced_s:.3f} s, traced {traced_s:.3f} s, "
          f"{len(tracer.start)} spans, {tracer.ops()[0]} autodiff op calls")
    print("per-layer (one traced round):")
    _print_metrics(values)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{workload.name}-seed{seed}.jsonl.gz"
    tracer.write(path)
    print(f"spans written to {path.relative_to(ROOT)}")
    attempted, failed = traced.counts()
    return _result(checks, attempted, failed, values)


def main(workload_name: str, seed: int, seconds: float, trace: bool) -> int:
    if workload_name not in WORKLOADS:
        print(f"error: invalid-config: unknown workload {workload_name!r}; one of {', '.join(WORKLOADS)}")
        return 2
    workload = WORKLOADS[workload_name]
    print(f"workload {workload.name} (seed {seed}): {workload.why}")
    print("env: " + json.dumps(environment(), sort_keys=True))
    result = measure_layers(workload, seed) if trace else measure_end_to_end(workload, seed, seconds)
    print(json.dumps(result))
    return 0
