"""Span tracing around the library's public entry points.

Nothing here edits the library: ``instrument`` swaps module attributes and
class methods for timing wrappers and puts the originals back on exit, and
``trace_predictor`` wraps the predictor object handed to ``Tracker``. Spans
(name, start, end, parent, job, frame) are kept in flat arrays in memory
and written out once, at the end of the run.

Autodiff ops run ~225 times per network call, so they are not kept as
individual spans: each op name gets a call count and a total time per job.
"""
from __future__ import annotations

import contextlib
import gzip
import json
from array import array
from collections import Counter, defaultdict
from time import perf_counter

from ddmot import association, autodiff, data_io, metrics, predictors
from ddmot.hminet import HMINet
from workloads import PREDICTORS

AUTODIFF_OPS = (
    "add", "mul", "scale", "matmul", "sigmoid", "softmax", "concat", "slice_",
    "reshape", "swapaxes", "broadcast_to", "mean", "layer_norm", "smooth_l1",
)
TRACK_JOBS = tuple(p[0] for p in PREDICTORS)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.jobs: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.frame = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._job = -1
        self._frame = 0
        self._in_op = False
        self.stage = 0  # hungarian calls seen in the current Tracker.step
        self.counts: Counter = Counter()  # (job, key) -> count
        self._agg = None
        self.op_calls: Counter = Counter()  # (job, op) -> calls
        self.op_time: Counter = Counter()  # (job, op) -> seconds

    def set_job(self, job: str) -> None:
        self.jobs.append(job)
        self._job = len(self.jobs) - 1
        self._frame = 0

    def begin_frame(self, frame: int) -> None:
        self._frame = frame
        self.stage = 0

    def span(self, name: str, fn, hook=None):
        """``fn`` wrapped in a span; ``hook(tracer, args, result)`` counts."""
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        name_id = self._name_ids[name]

        def traced(*args, **kwargs):
            i = len(self.start)
            self.name.append(name_id)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.job.append(self._job)
            self.frame.append(self._frame)
            self.end.append(0.0)
            self._stack.append(i)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[i] = perf_counter()
                self._stack.pop()
            if hook is not None:
                hook(self, args, result)
            return result

        return traced

    def op(self, name: str, fn):
        """``fn`` wrapped in an aggregated op timer."""

        def traced(*args, **kwargs):
            if self._in_op:
                return fn(*args, **kwargs)
            self._in_op = True
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                key = (self._job, name)
                self.op_time[key] += perf_counter() - t0
                self.op_calls[key] += 1
                self._in_op = False

        return traced

    def add(self, key: str, n) -> None:
        self.counts[(self._job, key)] += n

    # -- summaries ---------------------------------------------------------

    def _keep(self, jobs) -> set[int]:
        return {i for i, j in enumerate(self.jobs) if jobs is None or j in jobs}

    def _aggregate(self) -> dict:
        """(name, job) -> [calls, total seconds, self seconds]."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            if self.parent[i] >= 0:
                child[self.parent[i]] += self.end[i] - self.start[i]
        agg: dict = defaultdict(lambda: [0, 0.0, 0.0])
        for i in range(n):
            row = agg[(self.names[self.name[i]], self.job[i])]
            dur = self.end[i] - self.start[i]
            row[0] += 1
            row[1] += dur
            row[2] += dur - child[i]
        return agg

    def total(self, name: str, jobs=None, column: int = 1) -> float:
        """Summed duration (column 1), self time (2) or calls (0) of the
        spans called ``name`` recorded while one of ``jobs`` ran."""
        if self._agg is None:
            self._agg = self._aggregate()
        keep = self._keep(jobs)
        return sum(row[column] for (n, j), row in self._agg.items() if n == name and j in keep)

    def calls(self, name: str, jobs=None) -> int:
        return self.total(name, jobs, column=0)

    def count(self, key: str, jobs=None) -> int:
        keep = self._keep(jobs)
        return sum(v for (j, k), v in self.counts.items() if k == key and j in keep)

    def ops(self, jobs=None, op: str | None = None) -> tuple[int, float]:
        keep = self._keep(jobs)
        calls = sum(n for (j, o), n in self.op_calls.items() if j in keep and op in (None, o))
        secs = sum(s for (j, o), s in self.op_time.items() if j in keep and op in (None, o))
        return calls, secs

    def write(self, path) -> None:
        """All spans as gzipped JSON lines, then one line of op aggregates
        and counters."""
        origin = min(self.start, default=0.0)
        with gzip.open(path, "wt") as fh:
            for i in range(len(self.start)):
                fh.write(json.dumps({
                    "id": i, "name": self.names[self.name[i]], "parent": self.parent[i],
                    "job": self.jobs[self.job[i]] if self.job[i] >= 0 else None, "frame": self.frame[i],
                    "start_s": self.start[i] - origin, "end_s": self.end[i] - origin,
                }) + "\n")
            fh.write(json.dumps({
                "ops": [{"job": self.jobs[j], "op": o, "calls": n, "seconds": self.op_time[(j, o)]}
                        for (j, o), n in sorted(self.op_calls.items())],
                "counts": [{"job": self.jobs[j], "key": k, "count": v} for (j, k), v in sorted(self.counts.items())],
            }) + "\n")


# ---------------------------------------------------------------------------
# counting hooks


def _count_parse(t: Tracer, args, result) -> None:
    t.add("data_io.rows", len(result.records))


def _count_write(t: Tracer, args, result) -> None:
    t.add("data_io.rows", result.count("\n"))


def _count_predict(t: Tracer, args, result) -> None:
    t.add("predictors.rows", len(result))


def _count_cost(t: Tracer, args, result) -> None:
    t.add("association.pairs", result.feasible.size)
    t.add("association.gated_out", int(result.feasible.size - result.feasible.sum()))


def _count_assign(t: Tracer, args, result) -> None:
    # Tracker.step runs the high-confidence stage first, then the second
    t.stage += 1
    t.add(f"association.matches_stage{t.stage}", len(result.matches))


def _count_step(t: Tracer, args, result) -> None:
    t.add("association.steps", 1)
    t.add("association.births", len(result.new_tracks))
    t.add("association.deaths", len(result.removed_tracks))
    t.add("predictors.useful", len(result.matched) - len(result.new_tracks))


def _count_rows(t: Tracer, args, result) -> None:
    t.add("hminet.rows", result[0].shape[0])


def _count_idsw(t: Tracer, args, result) -> None:
    t.add("metrics.idsw", result.idsw)


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Route the library's public entry points through ``tracer``."""
    step = tracer.span("association.step", association.Tracker.step, _count_step)

    def step_with_frame(self, frame, detections):
        tracer.begin_frame(frame)
        return step(self, frame, detections)

    patches = [
        (association.Tracker, "step", step_with_frame),
        (association, "build_cost_matrix", tracer.span("association.cost", association.build_cost_matrix, _count_cost)),
        (association, "hungarian", tracer.span("association.assign", association.hungarian, _count_assign)),
        (predictors, "build_condition_window", tracer.span("predictors.window", predictors.build_condition_window)),
        (predictors, "sample_k_steps", tracer.span("diffusion.sample", predictors.sample_k_steps)),
        (HMINet, "embed_condition", tracer.span("hminet.encoder", HMINet.embed_condition)),
        (HMINet, "predict_graph", tracer.span("hminet.forward", HMINet.predict_graph, _count_rows)),
        (HMINet, "predict_values", tracer.span("hminet.predict_values", HMINet.predict_values)),
        (autodiff, "backward", tracer.span("autodiff.backward", autodiff.backward)),
        (autodiff, "adam_step", tracer.span("autodiff.adam", autodiff.adam_step)),
        (data_io, "parse_mot", tracer.span("data_io.parse", data_io.parse_mot, _count_parse)),
        (data_io, "write_mot", tracer.span("data_io.write", data_io.write_mot, _count_write)),
        (data_io, "load_hminet", tracer.span("data_io.model_load", data_io.load_hminet)),
        (data_io, "build_training_set", tracer.span("data_io.training_set", data_io.build_training_set)),
        (metrics, "mota", tracer.span("metrics.mota", metrics.mota, _count_idsw)),
        (metrics, "idf1", tracer.span("metrics.idf1", metrics.idf1)),
    ]
    patches += [(autodiff, op, tracer.op(op, getattr(autodiff, op))) for op in AUTODIFF_OPS]
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
    try:
        for owner, attr, fn in patches:
            setattr(owner, attr, fn)
        yield tracer
    finally:
        for owner, attr, fn in originals:
            setattr(owner, attr, fn)


def trace_predictor(predictor, tracer: Tracer):
    """Wrap the session methods of the predictor handed to ``Tracker``."""
    predictor.predict_all = tracer.span("predictors.predict", predictor.predict_all, _count_predict)
    predictor.observe = tracer.span("predictors.observe", predictor.observe)
    predictor.start = tracer.span("predictors.start", predictor.start)
    predictor.drop = tracer.span("predictors.drop", predictor.drop)
    return predictor


def layer_metrics(t: Tracer, clamps: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics (value, unit) over one traced round."""
    track = TRACK_JOBS
    steps = max(t.count("association.steps"), 1)
    predicted = t.count("predictors.rows")
    forward_track = t.total("hminet.forward", track)
    encoder_track = t.total("hminet.encoder", track)
    net_calls = t.calls("hminet.predict_values", track)
    nodes_track, _ = t.ops(track)
    nodes, op_s = t.ops()
    _, matmul_s = t.ops(op="matmul")
    return {
        "data_io.parse_s": (t.total("data_io.parse", track), "s"),
        "data_io.write_s": (t.total("data_io.write", track), "s"),
        "data_io.rows": (t.count("data_io.rows", track), "count"),
        "data_io.model_load_s": (t.total("data_io.model_load", ("setup",)), "s"),
        "data_io.training_set_s": (t.total("data_io.training_set", ("setup",)), "s"),
        "predictors.predict_s": (t.total("predictors.predict"), "s"),
        "predictors.observe_s": (t.total("predictors.observe"), "s"),
        "predictors.rows": (predicted, "count"),
        "predictors.window_s": (t.total("predictors.window"), "s"),
        "predictors.useful_ratio": (t.count("predictors.useful") / max(predicted, 1), "ratio"),
        "predictors.clamps": (clamps, "count"),
        "diffusion.sample_s": (t.total("diffusion.sample"), "s"),
        "diffusion.sample_calls": (t.calls("diffusion.sample"), "count"),
        "diffusion.net_calls": (net_calls, "count"),
        "hminet.encoder_s": (encoder_track, "s"),
        "hminet.fusion_head_s": (forward_track - encoder_track, "s"),
        "hminet.calls": (t.calls("hminet.forward"), "count"),
        "hminet.rows": (t.count("hminet.rows"), "count"),
        "hminet.forward_s": (t.total("hminet.forward", ("train",)), "s"),
        "autodiff.nodes": (nodes, "count"),
        "autodiff.nodes_per_net_call": (nodes_track / max(net_calls, 1), "count"),
        "autodiff.op_s": (op_s, "s"),
        "autodiff.matmul_s": (matmul_s, "s"),
        "autodiff.backward_s": (t.total("autodiff.backward"), "s"),
        "autodiff.adam_s": (t.total("autodiff.adam"), "s"),
        "association.step_s": (t.total("association.step"), "s"),
        "association.cost_s": (t.total("association.cost"), "s"),
        "association.assign_s": (t.total("association.assign"), "s"),
        "association.lifecycle_s": (t.total("association.step", column=2), "s"),
        "association.pairs": (t.count("association.pairs"), "count"),
        "association.gated_out": (t.count("association.gated_out"), "count"),
        "association.matches_stage1": (t.count("association.matches_stage1"), "count"),
        "association.matches_stage2": (t.count("association.matches_stage2"), "count"),
        "association.births": (t.count("association.births"), "count"),
        "association.deaths": (t.count("association.deaths"), "count"),
        "association.tracks_active": (predicted / steps, "count"),
        "metrics.mota_s": (t.total("metrics.mota"), "s"),
        "metrics.idf1_s": (t.total("metrics.idf1"), "s"),
        "metrics.idsw": (t.count("metrics.idsw"), "count"),
    }
