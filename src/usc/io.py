"""Dataset, config and report serialization, plus the synthetic generator.

Dataset files are UTF-8 line-delimited JSON, one frame per line::

    {"frame_id": str,
     "ground_truths": [{"class": str, "center": [x, y, z],
                        "size": [l, h, w], "yaw": rad,
                        "velocity"?: [vx, vz], "attribute"?: str}, ...],
     "predictions":   [same fields plus "score": float]}

Configs and reports are single JSON documents. Floats are written in
Python's shortest round-trip form (up to 17 significant digits), so
load(save(x)) is lossless and re-saving is byte-identical. Undefined
metrics serialize as null, never as 0.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, fields
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import ParseError, SchemaError
from .evaluation import (Annotation, BucketSummary, ClassBucketMetrics,
                         Detection, MetricsReport, ProtocolConfig)
from .geometry import Box3D, wrap_angle
from .loss import LossConfig


@dataclass
class FrameRecord:
    """One frame's ground truths and predictions."""

    frame_id: str
    ground_truths: List[Annotation]
    predictions: List[Detection]


# --- dataset parsing ---------------------------------------------------------


def _decode(text: str, line: Optional[int] = None):
    """Decode one JSON document; ParseError, at ``line`` if given and else at
    the decoder's line, on malformed JSON or nesting too deep to decode."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(str(exc), exc.lineno if line is None else line) from exc
    except RecursionError:
        raise ParseError("JSON nested too deeply to decode", line) from None


def _require(obj: dict, key: str, path: str):
    if key not in obj:
        raise SchemaError(f"missing required field '{key}'", path)
    return obj[key]


def _float(value, path: str) -> float:
    """A JSON number as a float; SchemaError for any other type and for an
    integer beyond the float range."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"expected a number, got {type(value).__name__}", path)
    try:
        return float(value)
    except OverflowError:
        raise SchemaError("integer beyond the float range", path) from None


def _number(value, path: str) -> float:
    number = _float(value, path)
    if not math.isfinite(number):
        raise SchemaError(f"expected a finite number, got {number}", path)
    return number


def _vector(value, length: int, path: str) -> Tuple[float, ...]:
    if not isinstance(value, list) or len(value) != length:
        raise SchemaError(f"expected a list of {length} numbers", path)
    return tuple(_number(v, f"{path}[{i}]") for i, v in enumerate(value))


def _parse_box(obj: dict, path: str) -> Box3D:
    center = _vector(_require(obj, "center", path), 3, f"{path}.center")
    size = _vector(_require(obj, "size", path), 3, f"{path}.size")
    yaw = _number(_require(obj, "yaw", f"{path}.yaw"), f"{path}.yaw")
    try:
        return Box3D(center[0], center[1], center[2],
                     size[0], size[1], size[2], yaw)
    except ValueError as exc:
        raise SchemaError(str(exc), path) from exc


def _parse_object(obj, path: str, with_score: bool):
    if not isinstance(obj, dict):
        raise SchemaError("expected an object", path)
    class_name = _require(obj, "class", path)
    if not isinstance(class_name, str) or not class_name:
        raise SchemaError("'class' must be a non-empty string", f"{path}.class")
    box = _parse_box(obj, path)
    velocity = None
    if obj.get("velocity") is not None:
        velocity = _vector(obj["velocity"], 2, f"{path}.velocity")
    attribute = obj.get("attribute")
    if attribute is not None and not isinstance(attribute, str):
        raise SchemaError("'attribute' must be a string", f"{path}.attribute")
    if with_score:
        score = _number(_require(obj, "score", path), f"{path}.score")
        if not (0.0 <= score <= 1.0):
            raise SchemaError(f"score must be in [0, 1], got {score}", f"{path}.score")
        return Detection(class_name, box, score, velocity, attribute)
    return Annotation(class_name, box, velocity, attribute)


def _parse_frame(obj, path: str) -> FrameRecord:
    if not isinstance(obj, dict):
        raise SchemaError("expected a JSON object", path)
    frame_id = _require(obj, "frame_id", path)
    if not isinstance(frame_id, str) or not frame_id:
        raise SchemaError("'frame_id' must be a non-empty string", f"{path}.frame_id")
    gts_raw = obj.get("ground_truths", [])
    preds_raw = obj.get("predictions", [])
    if not isinstance(gts_raw, list):
        raise SchemaError("'ground_truths' must be a list", f"{path}.ground_truths")
    if not isinstance(preds_raw, list):
        raise SchemaError("'predictions' must be a list", f"{path}.predictions")
    gts = [_parse_object(g, f"{path}.ground_truths[{i}]", with_score=False)
           for i, g in enumerate(gts_raw)]
    preds = [_parse_object(p, f"{path}.predictions[{i}]", with_score=True)
             for i, p in enumerate(preds_raw)]
    return FrameRecord(frame_id, gts, preds)


def load_dataset(path) -> List[FrameRecord]:
    """Load a line-delimited dataset; blank lines are ignored.

    Raises ParseError (with the 1-based line number) on malformed JSON and
    SchemaError (with the offending field path) on structural problems.
    """
    frames: List[FrameRecord] = []
    seen = set()
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            frame = _parse_frame(_decode(line, lineno), f"line {lineno}")
            if frame.frame_id in seen:
                raise SchemaError(f"duplicate frame_id '{frame.frame_id}'",
                                  f"line {lineno}.frame_id")
            seen.add(frame.frame_id)
            frames.append(frame)
    return frames


def _object_to_dict(obj) -> dict:
    box = obj.box
    out = {
        "class": obj.class_name,
        "center": [box.center_x, box.center_y, box.center_z],
        "size": [box.length, box.height, box.width],
        "yaw": box.yaw,
    }
    if obj.velocity is not None:
        out["velocity"] = list(obj.velocity)
    if obj.attribute is not None:
        out["attribute"] = obj.attribute
    if isinstance(obj, Detection):
        out["score"] = obj.score
    return out


def save_dataset(frames: Sequence[FrameRecord], path) -> None:
    """Write a dataset in the canonical line-delimited form."""
    with open(path, "w", encoding="utf-8") as handle:
        for frame in frames:
            record = {
                "frame_id": frame.frame_id,
                "ground_truths": [_object_to_dict(g) for g in frame.ground_truths],
                "predictions": [_object_to_dict(p) for p in frame.predictions],
            }
            handle.write(json.dumps(record) + "\n")


def merge_datasets(gt_frames: Sequence[FrameRecord],
                   pred_frames: Sequence[FrameRecord]) -> List[FrameRecord]:
    """Join ground-truth and prediction files on frame_id.

    Frames present in only one input keep an empty other side; ordering
    follows the ground-truth file, with prediction-only frames appended.
    """
    preds_by_id = {f.frame_id: f for f in pred_frames}
    merged: List[FrameRecord] = []
    for frame in gt_frames:
        other = preds_by_id.pop(frame.frame_id, None)
        merged.append(FrameRecord(frame.frame_id, list(frame.ground_truths),
                                  list(other.predictions) if other else []))
    for frame in pred_frames:
        if frame.frame_id in preds_by_id:
            merged.append(FrameRecord(frame.frame_id, [], list(frame.predictions)))
    return merged


# --- configuration -----------------------------------------------------------

_CONFIG_KEYS = {
    "range_buckets", "match_thresholds", "ap_distance_thresholds",
    "tp_measures", "skip_missing_classes", "focal",
    "lambda", "smooth_l1_beta", "yaw_wrapping",
}


def config_from_dict(obj: dict) -> Tuple[ProtocolConfig, LossConfig]:
    """Build configs from a parsed JSON object, filling defaults."""
    if not isinstance(obj, dict):
        raise SchemaError("config must be a JSON object")
    unknown = set(obj) - _CONFIG_KEYS
    if unknown:
        raise SchemaError(f"unknown config keys: {sorted(unknown)}")
    protocol_kwargs = {}
    if "range_buckets" in obj:
        if not isinstance(obj["range_buckets"], list):
            raise SchemaError("expected a list of [near, far] pairs", "range_buckets")
        protocol_kwargs["range_buckets"] = tuple(
            tuple(_vector(b, 2, f"range_buckets[{i}]"))
            for i, b in enumerate(obj["range_buckets"]))
    for key, name in (("match_thresholds", "match_thresholds"),
                      ("ap_distance_thresholds", "ap_distance_thresholds")):
        if key in obj:
            if not isinstance(obj[key], list):
                raise SchemaError("expected a list of numbers", key)
            protocol_kwargs[name] = tuple(_number(v, f"{key}[{i}]")
                                          for i, v in enumerate(obj[key]))
    if "tp_measures" in obj:
        if (not isinstance(obj["tp_measures"], list)
                or not all(isinstance(m, str) for m in obj["tp_measures"])):
            raise SchemaError("expected a list of measure names", "tp_measures")
        protocol_kwargs["tp_measures"] = tuple(obj["tp_measures"])
    if "skip_missing_classes" in obj:
        if not isinstance(obj["skip_missing_classes"], bool):
            raise SchemaError("expected a boolean", "skip_missing_classes")
        protocol_kwargs["skip_missing_classes"] = obj["skip_missing_classes"]
    if "focal" in obj:
        protocol_kwargs["focal"] = _number(obj["focal"], "focal")
    loss_kwargs = {}
    if "lambda" in obj:
        loss_kwargs["blend_lambda"] = _number(obj["lambda"], "lambda")
    if "smooth_l1_beta" in obj:
        loss_kwargs["smooth_l1_beta"] = _number(obj["smooth_l1_beta"], "smooth_l1_beta")
    if "yaw_wrapping" in obj:
        if not isinstance(obj["yaw_wrapping"], bool):
            raise SchemaError("expected a boolean", "yaw_wrapping")
        loss_kwargs["yaw_wrapping"] = obj["yaw_wrapping"]
    try:
        return ProtocolConfig(**protocol_kwargs), LossConfig(**loss_kwargs)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


def load_config(path) -> Tuple[ProtocolConfig, LossConfig]:
    """Load a config file; missing fields fall back to protocol defaults."""
    with open(path, "r", encoding="utf-8") as handle:
        obj = _decode(handle.read())
    return config_from_dict(obj)


# --- reports -----------------------------------------------------------------


def _class_bucket_to_dict(m: ClassBucketMetrics) -> dict:
    return {
        "ap": {repr(k): v for k, v in m.ap.items()},
        "tp_errors": dict(m.tp_errors),
        "ausc": m.ausc,
        "tp": m.tp, "fp": m.fp, "fn": m.fn,
        "usc_excluded": m.usc_excluded,
    }


def _summary_to_dict(s: BucketSummary) -> dict:
    return {
        "mean_ap": s.mean_ap, "nds": s.nds, "mausc": s.mausc,
        "usc_nds": s.usc_nds, "tp_errors": dict(s.tp_errors),
        "tp": s.tp, "fp": s.fp, "fn": s.fn, "usc_excluded": s.usc_excluded,
    }


def report_to_dict(report: MetricsReport) -> dict:
    return {
        "range_buckets": [list(b) for b in report.range_buckets],
        "classes": list(report.classes),
        "ap_distance_thresholds": list(report.ap_distance_thresholds),
        "tp_measures": list(report.tp_measures),
        "frames": report.frames,
        "per_class": {c: {label: _class_bucket_to_dict(m)
                          for label, m in buckets.items()}
                      for c, buckets in report.per_class.items()},
        "per_bucket": {label: _summary_to_dict(s)
                       for label, s in report.per_bucket.items()},
        "overall": _summary_to_dict(report.overall) if report.overall else None,
    }


def _count(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"expected an integer, got {type(value).__name__}", path)
    return value


def _metric(value, path: str) -> Optional[float]:
    return None if value is None else _float(value, path)


def _slice_fields(obj: dict, path: str, metrics: Sequence[str]) -> dict:
    """Type-checked metric, TP-error and count fields of a report slice."""
    fields = {key: _metric(obj[key], f"{path}.{key}") for key in metrics}
    fields["tp_errors"] = {m: _metric(v, f"{path}.tp_errors.{m}")
                           for m, v in obj["tp_errors"].items()}
    for key in ("tp", "fp", "fn", "usc_excluded"):
        fields[key] = _count(obj[key], f"{path}.{key}")
    return fields


def _class_bucket_from_dict(obj: dict, path: str) -> ClassBucketMetrics:
    ap = {}
    for key, value in obj["ap"].items():
        try:
            threshold = float(key)
        except ValueError:
            raise SchemaError("expected a number as AP key", f"{path}.ap.{key}") from None
        ap[threshold] = _metric(value, f"{path}.ap.{key}")
    return ClassBucketMetrics(ap=ap, **_slice_fields(obj, path, ("ausc",)))


def _summary_from_dict(obj: dict, path: str) -> BucketSummary:
    return BucketSummary(**_slice_fields(obj, path,
                                         ("mean_ap", "nds", "mausc", "usc_nds")))


def report_from_dict(obj: dict) -> MetricsReport:
    """Rebuild a report from its JSON form; SchemaError names a missing or
    mistyped field."""
    try:
        report = MetricsReport(
            range_buckets=[tuple(b) for b in obj["range_buckets"]],
            classes=list(obj["classes"]),
            ap_distance_thresholds=[
                _float(t, f"ap_distance_thresholds[{i}]")
                for i, t in enumerate(obj["ap_distance_thresholds"])],
            tp_measures=list(obj["tp_measures"]),
            frames=_count(obj["frames"], "frames"),
            per_class={
                c: {label: _class_bucket_from_dict(m, f"per_class.{c}.{label}")
                    for label, m in buckets.items()}
                for c, buckets in obj["per_class"].items()},
            per_bucket={label: _summary_from_dict(s, f"per_bucket.{label}")
                        for label, s in obj["per_bucket"].items()},
            overall=(_summary_from_dict(obj["overall"], "overall")
                     if obj["overall"] else None),
        )
    except (KeyError, TypeError, AttributeError) as exc:
        raise SchemaError(f"malformed report: {exc}") from exc
    return report


def _fmt(value: Optional[float]) -> str:
    return f"{value:.3f}" if value is not None else "  -  "


def format_report_table(report: MetricsReport) -> str:
    """Aligned human-readable summary of a report."""
    lines = []
    ap_cols = [f"AP@{d:g}m" for d in report.ap_distance_thresholds]
    header = (["bucket", "class"] + ap_cols + list(report.tp_measures)
              + ["AUSC", "TP", "FP", "FN"])
    rows = [header]
    labels = [f"[{near:g},{far:g})" for near, far in report.range_buckets]
    for label in labels:
        for class_name in report.classes:
            m = report.per_class[class_name][label]
            rows.append([label, class_name]
                        + [_fmt(m.ap[d]) for d in report.ap_distance_thresholds]
                        + [_fmt(m.tp_errors[t]) for t in report.tp_measures]
                        + [_fmt(m.ausc), str(m.tp), str(m.fp), str(m.fn)])
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    for row in rows:
        lines.append("  ".join(cell.rjust(w) if i >= 2 else cell.ljust(w)
                               for i, (cell, w) in enumerate(zip(row, widths))))
    lines.append("")
    summary_rows = [["bucket", "mAP", "NDS", "mAUSC", "USC-NDS", "TP", "FP", "FN"]]
    for label in labels:
        s = report.per_bucket[label]
        summary_rows.append([label, _fmt(s.mean_ap), _fmt(s.nds), _fmt(s.mausc),
                             _fmt(s.usc_nds), str(s.tp), str(s.fp), str(s.fn)])
    if report.overall is not None:
        s = report.overall
        summary_rows.append(["overall", _fmt(s.mean_ap), _fmt(s.nds), _fmt(s.mausc),
                             _fmt(s.usc_nds), str(s.tp), str(s.fp), str(s.fn)])
    widths = [max(len(r[i]) for r in summary_rows) for i in range(len(summary_rows[0]))]
    for row in summary_rows:
        lines.append("  ".join(cell.rjust(w) if i >= 1 else cell.ljust(w)
                               for i, (cell, w) in enumerate(zip(row, widths))))
    return "\n".join(lines) + "\n"


def write_report(report: MetricsReport, path, fmt: str = "json") -> None:
    """Write a report as stable-key-ordered JSON or as an aligned table."""
    if fmt == "json":
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(report_to_dict(report), handle, indent=2, sort_keys=True)
            handle.write("\n")
    elif fmt == "table":
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(format_report_table(report))
    else:
        raise ValueError(f"unknown report format {fmt!r}")


def load_report(path) -> MetricsReport:
    with open(path, "r", encoding="utf-8") as handle:
        obj = _decode(handle.read())
    return report_from_dict(obj)


# --- synthetic scenarios -----------------------------------------------------

#: Base (length, height, width) per synthetic class, meters.
_CLASS_SIZES = {
    "car": (4.5, 1.7, 1.9),
    "pedestrian": (0.6, 1.75, 0.6),
    "truck": (7.0, 3.0, 2.5),
    "bicycle": (1.8, 1.4, 0.6),
}
_DEFAULT_SIZE = (2.0, 1.5, 1.5)


@dataclass(frozen=True)
class SyntheticSpec:
    """Scenario generator parameters.

    Ground truths are placed fully ahead of the vehicle inside
    [range_min, range_max) meters and within +/- max_azimuth radians of the
    heading. Predictions perturb their ground truth: depth_bias shifts the
    center radially (positive = away from the vehicle), lateral_noise jitters
    it sideways, size_noise scales dimensions relatively, yaw_noise turns
    the heading. miss_rate drops predictions; fp_rate spawns spurious ones.
    """

    seed: int = 0
    frames: int = 10
    objects_min: int = 1
    objects_max: int = 4
    classes: Tuple[str, ...] = ("car", "pedestrian", "truck")
    depth_bias: float = 0.0
    lateral_noise: float = 0.0
    size_noise: float = 0.0
    yaw_noise: float = 0.0
    miss_rate: float = 0.0
    fp_rate: float = 0.0
    range_min: float = 4.0
    range_max: float = 19.0
    max_azimuth: float = 0.45

    def __post_init__(self):
        if self.frames < 0:
            raise ValueError("frames must be >= 0")
        if not (0 <= self.objects_min <= self.objects_max):
            raise ValueError("need 0 <= objects_min <= objects_max")
        if not self.classes:
            raise ValueError("at least one class is required")
        for name in ("miss_rate", "fp_rate"):
            rate = getattr(self, name)
            if not (0.0 <= rate <= 1.0):
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        for name in ("lateral_noise", "size_noise", "yaw_noise"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if not (0.0 < self.range_min < self.range_max):
            raise ValueError("need 0 < range_min < range_max")
        object.__setattr__(self, "classes", tuple(self.classes))


#: Integer fields of SyntheticSpec; ``classes`` is a list of names and every
#: other field is a number.
_SPEC_INTEGERS = ("seed", "frames", "objects_min", "objects_max")


def spec_kwargs_from_dict(obj) -> dict:
    """Check a parsed SyntheticSpec JSON document and return its fields as
    keyword arguments for SyntheticSpec."""
    if not isinstance(obj, dict):
        raise SchemaError("spec must be a JSON object")
    names = {f.name for f in fields(SyntheticSpec)}
    kwargs = {}
    for key, value in obj.items():
        if key not in names:
            raise SchemaError("unknown spec key", key)
        if key == "classes":
            if (not isinstance(value, list)
                    or not all(isinstance(c, str) and c for c in value)):
                raise SchemaError("expected a list of class names", key)
            kwargs[key] = tuple(value)
        elif key in _SPEC_INTEGERS:
            if isinstance(value, bool) or not isinstance(value, int):
                raise SchemaError("expected an integer", key)
            kwargs[key] = value
        else:
            kwargs[key] = _number(value, key)
    return kwargs


def _sample_ground_truth(rng: random.Random, spec: SyntheticSpec,
                         placed: List[Tuple[float, float]]) -> Annotation:
    class_name = rng.choice(list(spec.classes))
    base = _CLASS_SIZES.get(class_name, _DEFAULT_SIZE)
    length, height, width = (d * rng.uniform(0.9, 1.1) for d in base)
    half_diag = math.hypot(length, width) / 2.0
    for _ in range(200):
        rng_range = rng.uniform(spec.range_min, spec.range_max)
        az = rng.uniform(-spec.max_azimuth, spec.max_azimuth)
        x = rng_range * math.sin(az)
        z = rng_range * math.cos(az)
        # keep the footprint fully ahead of the vehicle and clear of others
        if z - half_diag < 0.5:
            continue
        if all(math.hypot(x - px, z - pz) >= 2.5 for px, pz in placed):
            placed.append((x, z))
            break
    else:
        placed.append((x, z))
    yaw = rng.uniform(-math.pi, math.pi)
    box = Box3D(x, 0.0, z, length, height, width, yaw)
    return Annotation(class_name, box)


def _perturb(rng: random.Random, spec: SyntheticSpec, ann: Annotation) -> Detection:
    box = ann.box
    r = math.hypot(box.center_x, box.center_z)
    ux, uz = box.center_x / r, box.center_z / r
    lateral = rng.gauss(0.0, spec.lateral_noise)
    x = box.center_x + spec.depth_bias * ux + lateral * uz
    z = box.center_z + spec.depth_bias * uz - lateral * ux
    dims = [max(0.05, d * (1.0 + rng.gauss(0.0, spec.size_noise)))
            for d in (box.length, box.height, box.width)]
    yaw = wrap_angle(box.yaw + rng.gauss(0.0, spec.yaw_noise))
    score = rng.uniform(0.5, 1.0)
    pred_box = Box3D(x, box.center_y, z, dims[0], dims[1], dims[2], yaw)
    return Detection(ann.class_name, pred_box, score)


def generate_synthetic(spec: SyntheticSpec) -> List[FrameRecord]:
    """Deterministic synthetic dataset for tests and demos."""
    rng = random.Random(spec.seed)
    frames: List[FrameRecord] = []
    for index in range(spec.frames):
        placed: List[Tuple[float, float]] = []
        n_objects = rng.randint(spec.objects_min, spec.objects_max)
        gts = [_sample_ground_truth(rng, spec, placed) for _ in range(n_objects)]
        preds: List[Detection] = []
        for ann in gts:
            if rng.random() < spec.miss_rate:
                continue
            preds.append(_perturb(rng, spec, ann))
        for _ in range(n_objects):
            if rng.random() < spec.fp_rate:
                ghost = _sample_ground_truth(rng, spec, placed)
                preds.append(Detection(ghost.class_name, ghost.box,
                                       rng.uniform(0.05, 0.6)))
        frames.append(FrameRecord(f"frame-{index:05d}", gts, preds))
    return frames
