"""Command-line front end: synth | train | track | eval | diag | viz.

Every command validates its full configuration before touching the
filesystem, echoes the effective merged config next to its outputs, and is
byte-deterministic for fixed inputs and seeds. Failures print one
machine-parseable line ``error: <category>: <message>`` on stderr and exit
nonzero.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from .association import TrackerConfig, run_sequence
from .core import FormatError, InvalidInputError, MotTable, NumericError, TrackingError, runs
from .data_io import (
    SequenceMeta,
    SyntheticSpec,
    build_training_set,
    detection_records,
    detections_by_frame,
    load_hminet,
    parse_mot,
    records_from_trajectories,
    save_model,
    synth_sequence,
    trajectories_from_records,
    write_mot,
)
from .diffusion import TrainConfig, train
from .hminet import HMINet, ModelConfig
from .metrics import check_iou_threshold, idf1, mota, predictor_iou_diagnostic, render_table, reports_to_json
from .predictors import PredictorConfig, make_predictor

METRIC_NAMES = ("mota", "idf1")


class CliError(TrackingError):
    def __init__(self, category: str, message: str):
        super().__init__(message)
        self.category = category


def _read_text(path: str) -> str:
    p = Path(path)
    if not p.is_file():
        raise CliError("missing-input", f"no such file: {path}")
    try:
        return p.read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise FormatError(f"{path}: not UTF-8 text ({e.reason} at byte {e.start})") from e


def _parse_mot_file(path: str, meta: SequenceMeta | None = None, normalized: bool = False):
    """``parse_mot`` on a file's text; a refused row names the file too."""
    text = _read_text(path)
    try:
        return parse_mot(text, meta, normalized=normalized)
    except FormatError as e:
        raise FormatError(f"{path}: {e}") from e


def _output_file(path: str) -> Path:
    """The path of a file a command writes; refused before any work when it
    names a directory."""
    p = Path(path)
    if p.is_dir():
        raise CliError("invalid-config", f"--out {path} is a directory; it must name a file")
    return p


def _read_config_file(path: str | None, what: str = "config file") -> dict:
    if path is None:
        return {}
    try:
        cfg = json.loads(_read_text(path))
    except json.JSONDecodeError as e:
        raise FormatError(f"{what} {path}: {e}") from e
    if not isinstance(cfg, dict):
        raise FormatError(f"{what} {path}: top level must be a JSON object")
    return cfg


def _config_section(file_cfg: dict, name: str, path: str | None) -> dict:
    """A copy of one section of a config file; absent means empty."""
    section = file_cfg.get(name, {})
    if not isinstance(section, dict):
        raise FormatError(f"config file {path}: section '{name}' must be a JSON object")
    return dict(section)


def _build(cls, section: dict, what: str, **overrides):
    """``cls`` from one config-file section (a JSON list is a tuple), then
    the command line's overrides: the file's own values are validated even
    where a flag replaces them."""
    try:
        return replace(cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in section.items()}), **overrides)
    except TypeError as e:
        raise InvalidInputError(f"{what}: {e}") from e


def _effective_json(command: str, seed: int, sections: dict) -> str:
    payload = {"command": command, "seed": seed}
    payload.update(sections)
    return json.dumps(payload, sort_keys=True, indent=2, default=str) + "\n"


def _load_sequence_dirs(paths: list[str]) -> list[tuple[str, list]]:
    """Each path is a sequence directory (gt.txt + meta.json) or a parent
    of such directories; returns (name, normalized trajectories) pairs, one
    per sequence."""
    seq_dirs: list[Path] = []
    for p in paths:
        root = Path(p)
        if (root / "gt.txt").is_file():
            seq_dirs.append(root)
        elif root.is_dir():
            seq_dirs.extend(sorted(d for d in root.iterdir() if (d / "gt.txt").is_file()))
        else:
            raise CliError("missing-input", f"no such data directory: {p}")
    if not seq_dirs:
        raise CliError("missing-input", f"no sequence directories (gt.txt + meta.json) under {paths}")
    out = []
    for d in seq_dirs:
        meta = SequenceMeta.from_json(_read_text(str(d / "meta.json")))
        gt = _parse_mot_file(str(d / "gt.txt"), meta, normalized=True).records
        out.append((str(d), trajectories_from_records(gt)))
    return out


# ---------------------------------------------------------------------------
# commands


def cmd_synth(args) -> int:
    file_cfg = _read_config_file(args.config)
    section = _config_section(file_cfg, "spec", args.config)
    section.update(_read_config_file(args.spec, "spec file"))
    spec = _build(SyntheticSpec, section, "synthetic spec")
    result = synth_sequence(spec, args.seed)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    gt_records = records_from_trajectories(result.trajectories)
    (out / "gt.txt").write_text(write_mot(gt_records, result.meta))
    (out / "det.txt").write_text(write_mot(detection_records(result), result.meta))
    (out / "meta.json").write_text(result.meta.to_json())
    (out / "effective_config.json").write_text(
        _effective_json("synth", args.seed, {"spec": asdict(spec)})
    )
    print(f"wrote {len(gt_records)} ground-truth rows for {spec.object_count} objects to {out}")
    return 0


def cmd_train(args) -> int:
    file_cfg = _read_config_file(args.config)
    model_cfg = _build(ModelConfig, _config_section(file_cfg, "model", args.config), "model config")
    overrides = {"seed": args.seed}
    for flag, key in (("steps", "steps"), ("batch_size", "batch_size"), ("lr", "learning_rate")):
        value = getattr(args, flag)
        if value is not None:
            overrides[key] = value
    train_cfg = _build(TrainConfig, _config_section(file_cfg, "train", args.config), "train config", **overrides)

    sequences = _load_sequence_dirs(args.data)
    trajectories = [t for _, trajs in sequences for t in trajs]
    dataset = build_training_set(trajectories, model_cfg.history_length, model_cfg.condition_variant)

    model = HMINet.init(model_cfg, args.seed)
    losses = train(dataset, model, train_cfg)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "model.d2mp").write_bytes(save_model(model.params, model_cfg))
    (out / "loss_history.csv").write_text(
        "step,loss\n" + "".join(f"{i},{v!r}\n" for i, v in enumerate(losses))
    )
    (out / "effective_config.json").write_text(
        _effective_json("train", args.seed, {
            "model": asdict(model_cfg),
            "train": asdict(train_cfg),
            "data": [d for d, _ in sequences],
            "samples": len(dataset),
        })
    )
    print(f"trained {len(losses)} steps on {len(dataset)} samples; final loss {losses[-1]:.3e}")
    return 0


def _predictor_from_args(args, file_cfg: dict):
    overrides = {"kind": args.predictor, "seed": args.seed}
    if args.sampling_steps is not None:
        overrides["sampling_steps"] = args.sampling_steps
    if args.deterministic:
        overrides["deterministic"] = True
    pred_cfg = _build(PredictorConfig, _config_section(file_cfg, "predictor", args.config), "predictor config", **overrides)
    model = None
    if args.predictor == "d2mp":
        if not args.model:
            raise CliError("invalid-config", "--predictor d2mp requires --model")
        path = Path(args.model)
        if not path.is_file():
            raise CliError("missing-input", f"no such file: {args.model}")
        model = load_hminet(path.read_bytes())
    return pred_cfg, model


def cmd_track(args) -> int:
    out = _output_file(args.out)
    file_cfg = _read_config_file(args.config)
    tracker_cfg = _build(TrackerConfig, _config_section(file_cfg, "tracker", args.config), "tracker config")
    pred_cfg, model = _predictor_from_args(args, file_cfg)
    meta = SequenceMeta.from_json(_read_text(args.meta))
    parsed = _parse_mot_file(args.detections, meta, normalized=True)
    if parsed.skipped:
        print(f"warning: skipped {parsed.skipped} detection rows with non-positive extent", file=sys.stderr)
    late = parsed.records.frame[parsed.records.frame > meta.frame_count]  # ascending
    if late.size:
        raise FormatError(f"{args.detections}: detection frame {late[0]} is past frame_count {meta.frame_count}")
    frames = detections_by_frame(parsed.records)

    predictor = make_predictor(pred_cfg, model)
    # past the last detection no track is matched, so no frame writes a row
    last = int(parsed.records.frame[-1]) if len(parsed.records) else 0
    stream = ((f, frames.get(f, [])) for f in range(1, last + 1))
    table = run_sequence(stream, predictor, tracker_cfg)

    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(write_mot(table, meta))
    Path(str(out) + ".config.json").write_text(
        _effective_json("track", args.seed, {
            "tracker": asdict(tracker_cfg),
            "predictor": asdict(pred_cfg),
            "detections": args.detections,
            "model": args.model,
        })
    )
    print(f"tracked {last} frames -> {len(table)} rows, {np.unique(table.track_id).size} ids")
    return 0


def cmd_eval(args) -> int:
    names = [m.strip() for m in args.metrics.split(",") if m.strip()]
    unknown = [m for m in names if m not in METRIC_NAMES]
    if unknown or not names:
        what = f"unknown metric(s) {unknown}" if unknown else "no metric named"
        raise CliError("invalid-config", f"{what}; valid names: {', '.join(METRIC_NAMES)}")
    check_iou_threshold(args.iou_threshold)
    gt = trajectories_from_records(_parse_mot_file(args.gt).records)
    res = _parse_mot_file(args.res).records
    reports = {}
    rows = []
    if "mota" in names:
        r = mota(gt, res, args.iou_threshold)
        reports["mota"] = r
        rows.append(["MOTA", r.mota, f"FP={r.fp} FN={r.fn} IDSW={r.idsw} GT={r.gt}"])
    if "idf1" in names:
        r = idf1(gt, res, args.iou_threshold)
        reports["idf1"] = r
        rows.append(["IDF1", r.idf1, f"IDTP={r.idtp} IDFP={r.idfp} IDFN={r.idfn}"])
    if args.json:
        print(reports_to_json(reports), end="")
    else:
        print(render_table(["metric", "value", "counts"], rows), end="")
    return 0


def cmd_diag(args) -> int:
    file_cfg = _read_config_file(args.config)
    pred_cfg, model = _predictor_from_args(args, file_cfg)
    sequences = _load_sequence_dirs(args.gt)
    rows = []
    reports = {}
    pooled_sum, pooled_n = 0.0, 0
    for name, trajs in sequences:
        predictor = make_predictor(pred_cfg, model)
        report = predictor_iou_diagnostic(trajs, predictor, burn_in=args.burn_in)
        reports[name] = report
        rows.append([name, report.mean, report.count])
        pooled_sum += report.mean * report.count
        pooled_n += report.count
    rows.append(["corpus-mean", pooled_sum / max(pooled_n, 1), pooled_n])
    if args.json:
        print(reports_to_json(reports), end="")
    else:
        print(render_table(["sequence", "mean_iou", "predictions"], rows), end="")
    return 0


# ---------------------------------------------------------------------------
# SVG rendering


def _polyline_color(i: int) -> str:
    return f"hsl({(i * 137) % 360},70%,45%)"


def render_trajectories_svg(records: MotTable, meta: SequenceMeta) -> str:
    """Per-id colored polylines of box centers on the image canvas."""
    boxes = records.boxes
    if records.units == "norm":
        boxes = boxes * meta.box_scale()
    order = np.lexsort((records.frame, records.track_id))  # by id, then frame
    centers = boxes[order, :2].tolist()
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{meta.width}" height="{meta.height}" '
        f'viewBox="0 0 {meta.width} {meta.height}">',
        f'<rect width="{meta.width}" height="{meta.height}" fill="white"/>',
    ]
    for i, (s, e) in enumerate(runs(records.track_id[order])):
        points = " ".join(f"{cx:.2f},{cy:.2f}" for cx, cy in centers[s:e])
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="{_polyline_color(i)}" stroke-width="2"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def cmd_viz(args) -> int:
    out = _output_file(args.out)
    meta = SequenceMeta.from_json(_read_text(args.meta))
    records = _parse_mot_file(args.res).records
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(render_trajectories_svg(records, meta))
    print(f"wrote {out} with {np.unique(records.track_id).size} trajectories")
    return 0


# ---------------------------------------------------------------------------
# parser / entry point


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        """A usage error ends in the one-line contract, not in usage text."""
        raise CliError("invalid-config", f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ddmot", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    # the flags that choose and configure a predictor, shared by track and diag
    predictor_flags = argparse.ArgumentParser(add_help=False)
    predictor_flags.add_argument("--predictor", required=True, choices=["d2mp", "kf", "cv"])
    predictor_flags.add_argument("--model", help="model file (required for d2mp)")
    predictor_flags.add_argument("--config", help="JSON config file (section 'predictor'; track also reads 'tracker')")
    predictor_flags.add_argument("--sampling-steps", dest="sampling_steps", type=int)
    predictor_flags.add_argument("--deterministic", action="store_true")
    predictor_flags.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("synth", help="generate a synthetic sequence (gt, detections, metadata)")
    p.add_argument("--spec", help="JSON file with SyntheticSpec fields")
    p.add_argument("--config", help="JSON config file (section 'spec')")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train the motion model on ground-truth sequences")
    p.add_argument("--data", nargs="+", required=True, help="sequence directories (gt.txt + meta.json)")
    p.add_argument("--config", help="JSON config file (sections 'model', 'train')")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--steps", type=int)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--lr", type=float)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("track", parents=[predictor_flags], help="run the tracker over a detection file")
    p.add_argument("--detections", required=True)
    p.add_argument("--meta", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_track)

    p = sub.add_parser("eval", help="score a result file against ground truth")
    p.add_argument("--gt", required=True)
    p.add_argument("--res", required=True)
    p.add_argument("--metrics", default="mota,idf1")
    p.add_argument("--iou-threshold", dest="iou_threshold", type=float, default=0.5)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("diag", parents=[predictor_flags],
                       help="predictor linearity diagnostic (mean IoU vs ground truth)")
    p.add_argument("--gt", nargs="+", required=True, help="sequence directories")
    p.add_argument("--burn-in", dest="burn_in", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_diag)

    p = sub.add_parser("viz", help="render result trajectories to SVG")
    p.add_argument("--res", required=True)
    p.add_argument("--meta", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_viz)
    return parser


_CATEGORIES = (
    (CliError, None),
    (FileNotFoundError, "missing-input"),
    (OSError, "io-error"),  # e.g. an --out whose parent is a file
    (FormatError, "format-error"),
    (InvalidInputError, "invalid-config"),
    (NumericError, "numeric-error"),
    (TrackingError, "internal"),
)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        # numpy prints no warnings: the library's own finite checks refuse a
        # non-finite result, as one numeric-error line
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return args.func(args)
    except SystemExit as e:  # --help
        return int(e.code or 0)
    except tuple(t for t, _ in _CATEGORIES) as e:
        category = getattr(e, "category", None)
        if category is None:
            for t, cat in _CATEGORIES:
                if isinstance(e, t):
                    category = cat
                    break
        message = " ".join(str(e).splitlines())  # a message may quote text with line breaks
        print(f"error: {category}: {message}", file=sys.stderr)
        return 2


def console_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
