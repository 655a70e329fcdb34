"""Dataset, config and report serialization, plus the synthetic generator.

Dataset files are UTF-8 line-delimited JSON, one frame per line::

    {"frame_id": str,
     "ground_truths": [{"class": str, "center": [x, y, z],
                        "size": [l, h, w], "yaw": rad,
                        "velocity"?: [vx, vz], "attribute"?: str}, ...],
     "predictions":   [same fields plus "score": float]}

``load_dataset`` reads them into a ``Dataset``: arrays of the boxes,
class codes, scores, frame offsets, velocities and attributes, built line by
line by a ``DatasetBuilder`` without building an object. A line's JSON shape
is checked in Python as its values are appended (``add_plain_frame``):
lists of the right length, a number that is not a bool where one goes, a
non-empty class, a string attribute, a finite velocity. The value rules of
``Box3D`` and ``Detection`` (finite numbers, positive sizes, a score in
[0, 1], then ``wrap_angle`` on a yaw outside (-pi, pi]) run as one array
check per block of lines. A line that fails either check is parsed again
object by object (``_parse_frame``), which raises the error with its type,
message, field path and line number. Before the loader raises at a line it
checks the lines before it, so the first faulty line names the error. Bytes
that are not UTF-8 are a ParseError at their line. ``merge_datasets`` joins
two datasets by gathering their columns.

Lines end at LF alone: JSON takes CR as whitespace, so a CRLF line loads
and a bare CR does not split a line. A line of JSON whitespace alone is
blank. Each line is decoded by ``orjson``, several times faster than
``json`` (``_decode_line``). orjson takes a subset of what json takes, with
the same values, except that it gives an integer beyond 64 bits as its
nearest float, equal to ``float`` of it. A line it refuses (NaN, infinity,
a number beyond the float range, a lone surrogate escape, malformed JSON)
goes to ``json`` (``_decode``), which gives its value or the ParseError the
loader has always raised; so does a line with more ``[`` and ``{`` than
orjson can nest safely. The checks take every number as a float, and a line
that fails one is decoded again by json before ``_parse_frame`` reads it,
so each error names json's values. orjson has no depth limit where json
has Python's recursion limit, so a line nested deeper than json decodes, in
a key the loader does not read, loads unless it goes to json.

Configs, synthetic specs and reports are single JSON documents, each checked
against the type hints of its dataclasses (``ProtocolConfig`` with
``LossConfig``, ``SyntheticSpec``, ``MetricsReport``) by one codec. A
mistyped value, an unknown key or a missing report field is a SchemaError at
its field path, e.g. ``per_class.car.[0,10).tp`` or ``range_buckets[0][1]``.
They keep ``json``: their codec tells an ``int`` from a ``float``, which
orjson does not keep beyond 64 bits, and each is one small document, so
decoding is not where their time goes. Every number must be finite, so a
report carrying NaN or infinity is rejected; so are ``"overall": {}`` and
``"overall": null`` (``overall`` is always a whole summary, never null), and
two AP keys naming one threshold (``"1"`` and ``"1.0"``). A report's tables must be keyed by exactly the
classes, bucket labels, AP thresholds and TP measures it lists.
Floats are written in Python's shortest round-trip form (up to 17
significant digits), so load(save(x)) is lossless and re-saving is
byte-identical. Undefined metrics serialize as null, never as 0.

A report is written over its file in place, not after truncating it: a
re-run of ``usc eval --out`` into the same path then keeps the file's blocks
instead of freeing them, which on a filesystem mounted with online
``discard`` costs tens of milliseconds. The text is built whole before the
file is opened, and its first byte is written last, so a failed format
leaves the old report and an interrupted write leaves one that does not
load (see ``write_report``). Datasets (``save_dataset``) are streamed to a
truncated file, since their text runs to many MB.
"""

from __future__ import annotations

import functools
import json
import math
import os
import random
import stat
from dataclasses import dataclass, fields, is_dataclass
from typing import (Dict, List, Optional, Sequence, Tuple, Union, get_args,
                    get_origin, get_type_hints)

import numpy as np
import orjson

from .dataset import (Annotation, Dataset, DatasetBuilder, Detection,
                      FrameRecord, as_dataset)
from .errors import ParseError, SchemaError, UscError
from .evaluation import MetricsReport, ProtocolConfig, ap_label, bucket_label
from .geometry import Box3D
from .loss import LossConfig

# --- dataset parsing ---------------------------------------------------------


def _decode(text: str, line: Optional[int] = None):
    """Decode one JSON document; ParseError, at ``line`` if given and else at
    the decoder's line, on malformed JSON, an integer with more digits than
    ``int`` converts (``sys.get_int_max_str_digits``), or nesting too deep
    to decode."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(str(exc), exc.lineno if line is None else line) from exc
    except ValueError:
        raise ParseError("integer literal has too many digits to decode",
                         line) from None
    except RecursionError:
        raise ParseError("JSON nested too deeply to decode", line) from None


#: The most ``[`` and ``{`` a dataset line may hold for ``orjson`` to decode
#: it, and so the deepest it can nest there. orjson 3.8 has no depth limit:
#: it decodes by recursing on the C stack, which some 4,096 levels of objects
#: fill in a thread with a 512 KiB stack. A line with more goes to ``json``.
#: A line of at most this many characters cannot hold more, so only a longer
#: line is scanned for them.
_ORJSON_MAX_BRACKETS = 4096


def _decode_line(line: str, lineno: int):
    """Decode one dataset line: by ``orjson`` if it holds at most
    ``_ORJSON_MAX_BRACKETS`` of ``[`` and ``{``, and by ``_decode`` if it
    holds more or if orjson refuses it."""
    if (len(line) <= _ORJSON_MAX_BRACKETS
            or line.count("[") + line.count("{") <= _ORJSON_MAX_BRACKETS):
        try:
            return orjson.loads(line)
        except orjson.JSONDecodeError:
            pass
    return _decode(line, lineno)


def _check_utf8(text: str, line: int) -> None:
    """ParseError at the line of ``text``'s first byte that is not UTF-8;
    ``text`` was read with ``errors="surrogateescape"`` and starts at
    ``line``."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise ParseError("invalid UTF-8",
                         line + text.count("\n", 0, exc.start)) from None


def _require(obj: dict, key: str, path: str):
    if key not in obj:
        raise SchemaError(f"missing required field '{key}'", path)
    return obj[key]


def _number(value, path: str) -> float:
    """A JSON number as a finite float; SchemaError for any other type, for
    an integer beyond the float range and for NaN or infinity."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"expected a number, got {type(value).__name__}", path)
    try:
        number = float(value)
    except OverflowError:
        raise SchemaError("integer beyond the float range", path) from None
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


def _check_values(builder: DatasetBuilder, pending: List[Tuple[int, str]]) -> None:
    """Check the values of the objects added to ``builder`` since the last
    check (``DatasetBuilder.check``); ``pending`` holds the (line number,
    text) of each frame added since then. The first line with an object that
    breaks a rule is parsed again by ``_parse_frame``, which raises its first
    error."""
    frame = builder.check()
    if frame is not None:
        lineno, text = pending[frame - len(builder.frame_ids) + len(pending)]
        _parse_frame(_decode(text, lineno), f"line {lineno}")


#: Objects that ``load_dataset`` appends between two value checks: the
#: pending frames' line texts are kept until their check.
_CHECK_BLOCK = 2048


def load_dataset(path) -> Dataset:
    """Load a line-delimited dataset as a ``Dataset``; lines end at LF, and
    lines of JSON whitespace alone are ignored.

    Each line is decoded by ``_decode_line``: by orjson, or by json when
    orjson refuses it or it could nest too deeply for orjson. A line that
    fails the shape or value check is decoded again by json for
    ``_parse_frame``, so the object-by-object parser sees json's values,
    never orjson's float for an integer beyond 64 bits.

    Raises ParseError (with the 1-based line number) on invalid UTF-8 and
    malformed JSON, and SchemaError (with the offending field path) on
    structural problems: the errors, and their order, of loading each line
    as ``FrameRecord`` values by ``_parse_frame``. The value checks of a
    block of lines run at once (``_check_values``), and before an error of a
    later line is raised, so the first faulty line names the error.
    """
    builder = DatasetBuilder()
    seen = set()
    pending: List[Tuple[int, str]] = []
    with open(path, "r", encoding="utf-8", errors="surrogateescape",
              newline="\n") as handle:
        try:
            for lineno, line in enumerate(handle, start=1):
                if not line.isascii():
                    _check_utf8(line, lineno)
                if not line.strip(" \t\r\n"):
                    continue
                obj = _decode_line(line, lineno)
                if not builder.add_plain_frame(obj):
                    # the object-by-object parser reads json's values
                    builder.add_frame(_parse_frame(_decode(line, lineno),
                                                   f"line {lineno}"))
                pending.append((lineno, line))
                frame_id = builder.frame_ids[-1]
                if frame_id in seen:
                    raise SchemaError(f"duplicate frame_id '{frame_id}'",
                                      f"line {lineno}.frame_id")
                seen.add(frame_id)
                if builder.unchecked >= _CHECK_BLOCK:
                    _check_values(builder, pending)
                    pending = []
        except UscError:
            # the lines before this one are checked first: their error comes first
            _check_values(builder, pending)
            raise
    _check_values(builder, pending)
    return builder.build()


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


def merge_datasets(gt_frames, pred_frames) -> Dataset:
    """Join ground-truth and prediction datasets on frame_id: the ground
    truths of the first and the predictions of the second, gathered as
    columns (any other sequence of frames is taken as its ``as_dataset``).

    Frames present in only one input keep an empty other side; ordering
    follows the ground-truth file, with prediction-only frames appended.
    """
    gts, preds = as_dataset(gt_frames), as_dataset(pred_frames)
    pred_of = {frame_id: i for i, frame_id in enumerate(preds.frame_ids)}
    joined = [pred_of.pop(frame_id, -1) for frame_id in gts.frame_ids]
    only_preds = [i for i, frame_id in enumerate(preds.frame_ids) if frame_id in pred_of]
    codes = {name: code for code, name in enumerate(gts.class_names)}
    remap = np.array([codes.setdefault(name, len(codes)) for name in preds.class_names],
                     dtype=np.int64)
    return Dataset(gts.frame_ids + tuple(preds.frame_ids[i] for i in only_preds),
                   tuple(codes),
                   gts.ground_truths.take([*range(len(gts)), *[-1] * len(only_preds)]),
                   preds.predictions.take(joined + only_preds, remap))


# --- typed JSON codec --------------------------------------------------------


def _load_json(path):
    """The one JSON document of a file; ParseError, at its line, on bytes
    that are not UTF-8 and on anything ``_decode`` rejects."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as handle:
        text = handle.read()
    _check_utf8(text, 1)
    return _decode(text)


def _join(path: str, key) -> str:
    return f"{path}.{key}" if path else str(key)


@functools.lru_cache(maxsize=None)
def _hints(cls) -> Dict[str, object]:
    """Field name -> resolved type hint of a dataclass, resolved once per
    class; the dict is shared, so callers do not mutate it."""
    hints = get_type_hints(cls)
    return {f.name: hints[f.name] for f in fields(cls)}


def _to_json(value):
    """``value`` as JSON-native data: a dataclass becomes an object keyed by
    its field names, a dict an object with each non-string key written by
    ``repr``, a list or tuple an array."""
    if is_dataclass(value):
        return {f.name: _to_json(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, dict):
        return {key if isinstance(key, str) else repr(key): _to_json(item)
                for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_to_json(item) for item in value]
    return value


def _typed(hint, value, path: str):
    """Parsed JSON ``value`` checked against the type ``hint`` and converted
    to it; SchemaError at ``path`` on any mismatch.

    Floats must be finite, ints are not bools, strings are non-empty, dict
    keys are converted by the key type and must stay distinct (``"1"`` and
    ``"1.0"`` name one AP threshold), and every field of a dataclass is
    required.
    """
    origin, args = get_origin(hint), get_args(hint)
    if origin is Union:
        inner, = (arg for arg in args if arg is not type(None))
        return None if value is None else _typed(inner, value, path)
    if hint is float:
        return _number(value, path)
    if hint is bool:
        if not isinstance(value, bool):
            raise SchemaError("expected a boolean", path)
        return value
    if hint is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise SchemaError(f"expected an integer, got {type(value).__name__}", path)
        return value
    if hint is str:
        if not isinstance(value, str) or not value:
            raise SchemaError("expected a non-empty string", path)
        return value
    if origin in (list, tuple):
        fixed = origin is tuple and args[-1] is not Ellipsis
        if not isinstance(value, list) or (fixed and len(value) != len(args)):
            raise SchemaError(f"expected a list of {len(args)} items" if fixed
                              else "expected a list", path)
        items = [_typed(args[i] if fixed else args[0], item, f"{path}[{i}]")
                 for i, item in enumerate(value)]
        return items if origin is list else tuple(items)
    if origin is dict:
        if not isinstance(value, dict):
            raise SchemaError("expected a JSON object", path)
        key_hint, value_hint = args
        out = {}
        for key, item in value.items():
            at = _join(path, key)
            if key_hint is float:
                try:
                    key = float(key)
                except ValueError:
                    raise SchemaError("expected a number as key", at) from None
            key = _typed(key_hint, key, at)
            if key in out:
                raise SchemaError("duplicate key", at)
            out[key] = _typed(value_hint, item, at)
        return out
    if is_dataclass(hint):
        kwargs = _typed_keys(_hints(hint), value, path)
        missing = [name for name in _hints(hint) if name not in kwargs]
        if missing:
            raise SchemaError(f"missing required field '{missing[0]}'", path)
        return hint(**kwargs)
    raise TypeError(f"no JSON form for {hint!r}")


def _typed_keys(hints: Dict[str, object], obj, path: str = "") -> dict:
    """The keys of the JSON object ``obj``, each typed by its entry in
    ``hints`` (JSON name -> type hint); SchemaError for any other key."""
    if not isinstance(obj, dict):
        raise SchemaError("expected a JSON object", path)
    unknown = sorted(set(obj) - set(hints))
    if unknown:
        raise SchemaError(f"unknown keys {unknown}", path)
    return {key: _typed(hints[key], value, _join(path, key))
            for key, value in obj.items()}


# --- configuration -----------------------------------------------------------


def config_from_dict(obj: dict) -> Tuple[ProtocolConfig, LossConfig]:
    """Build configs from a parsed JSON object, filling defaults. Its keys
    are the fields of ProtocolConfig and LossConfig, with ``lambda`` naming
    ``blend_lambda``."""
    loss_names = {"lambda" if name == "blend_lambda" else name: name
                  for name in _hints(LossConfig)}
    hints = dict(_hints(ProtocolConfig))
    hints.update((key, _hints(LossConfig)[name]) for key, name in loss_names.items())
    values = _typed_keys(hints, obj)
    protocol = {key: v for key, v in values.items() if key not in loss_names}
    loss = {loss_names[key]: v for key, v in values.items() if key in loss_names}
    try:
        return ProtocolConfig(**protocol), LossConfig(**loss)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


def load_config(path) -> Tuple[ProtocolConfig, LossConfig]:
    """Load a config file; missing fields fall back to protocol defaults."""
    return config_from_dict(_load_json(path))


# --- reports -----------------------------------------------------------------


def report_to_dict(report: MetricsReport) -> dict:
    """The JSON form of a report: objects with string keys, lists, numbers,
    strings and nulls only."""
    return _to_json(report)


def report_from_dict(obj: dict) -> MetricsReport:
    """Rebuild a report from its JSON form; SchemaError names a missing,
    mistyped or inconsistent field."""
    report = _typed(MetricsReport, obj, "")
    labels = [bucket_label(near, far) for near, far in report.range_buckets]
    # field path -> (table, the keys it must have, each once)
    tables = {"per_class": (report.per_class, report.classes),
              "per_bucket": (report.per_bucket, labels)}
    # field path -> slice or summary, each with a tp_errors table
    measured = {f"per_bucket.{label}": s for label, s in report.per_bucket.items()}
    measured["overall"] = report.overall
    for class_name, buckets in report.per_class.items():
        tables[f"per_class.{class_name}"] = (buckets, labels)
        for label, metrics in buckets.items():
            path = f"per_class.{class_name}.{label}"
            tables[f"{path}.ap"] = (metrics.ap, report.ap_distance_thresholds)
            measured[path] = metrics
    tables.update((f"{path}.tp_errors", (s.tp_errors, report.tp_measures))
                  for path, s in measured.items())
    for path, (table, expected) in tables.items():
        if set(table) != set(expected) or len(table) != len(expected):
            raise SchemaError(f"keys {sorted(table, key=str)} do not match "
                              f"{list(expected)}", path)
    return report


def _fmt(value: Optional[float]) -> str:
    return f"{value:.3f}" if value is not None else "  -  "


def _aligned(rows: List[List[str]], left: int) -> List[str]:
    """Rows of cells as lines of columns two spaces apart, the first ``left``
    columns left-aligned and the rest right-aligned."""
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    return ["  ".join(cell.ljust(w) if i < left else cell.rjust(w)
                      for i, (cell, w) in enumerate(zip(row, widths)))
            for row in rows]


def format_report_table(report: MetricsReport) -> str:
    """Aligned human-readable summary of a report."""
    labels = [bucket_label(near, far) for near, far in report.range_buckets]
    rows = [["bucket", "class"]
            + [ap_label(d) for d in report.ap_distance_thresholds]
            + list(report.tp_measures) + ["AUSC", "TP", "FP", "FN"]]
    for label in labels:
        for class_name in report.classes:
            m = report.per_class[class_name][label]
            rows.append([label, class_name]
                        + [_fmt(m.ap[d]) for d in report.ap_distance_thresholds]
                        + [_fmt(m.tp_errors[t]) for t in report.tp_measures]
                        + [_fmt(m.ausc), str(m.tp), str(m.fp), str(m.fn)])
    summaries = [(label, report.per_bucket[label]) for label in labels]
    summary_rows = [["bucket", "mAP", "NDS", "mAUSC", "USC-NDS", "TP", "FP", "FN"]]
    summary_rows += [[name, _fmt(s.mean_ap), _fmt(s.nds), _fmt(s.mausc),
                      _fmt(s.usc_nds), str(s.tp), str(s.fp), str(s.fn)]
                     for name, s in [*summaries, ("overall", report.overall)]]
    return "\n".join(_aligned(rows, 2) + [""] + _aligned(summary_rows, 1)) + "\n"


def _overwrite(path, text: str) -> None:
    """Write ``text`` as UTF-8 over the file at ``path``, in place.

    The file is opened without ``O_TRUNC``, so it keeps its inode (hard
    links, a symlink's target and permissions stay) and no block is freed
    when the new text is as long as the old; a new file is created with mode
    0o666 under the umask, as ``open(path, "w")`` does. A regular file gets
    the text with a NUL for its first byte, is truncated to the text's
    length, and only then gets its first byte, so a write interrupted
    before that last byte leaves a file that no JSON decoder accepts, never
    the new head followed by the old tail. Any other target, such as
    ``/dev/null`` or a pipe, cannot be truncated or written at an offset and
    gets the text as it is, with no truncation.
    """
    data = text.encode("utf-8")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        regular = stat.S_ISREG(os.fstat(fd).st_mode)
        view = memoryview(b"\0" + data[1:] if regular else data)
        while view:
            view = view[os.write(fd, view):]
        if regular:
            os.ftruncate(fd, len(data))
            os.pwrite(fd, data[:1], 0)
    finally:
        os.close(fd)


def write_report(report: MetricsReport, path, fmt: str = "json") -> str:
    """Write a report as stable-key-ordered JSON or as an aligned table, and
    return the text written.

    The whole text is built before the file is opened, so a report that
    fails to format leaves the old file as it was. It is then written over
    the old file in place (``_overwrite``) rather than after truncating it:
    on a filesystem that discards freed blocks online, freeing a file's
    blocks costs tens of milliseconds, far more than writing a report. A
    write interrupted before it completes leaves a file that ``load_report``
    rejects with ParseError. Nothing is flushed to the disk, so that
    holds for a process that is killed, not for the host losing power.
    """
    if fmt == "json":
        text = json.dumps(report_to_dict(report), indent=2, sort_keys=True) + "\n"
    elif fmt == "table":
        text = format_report_table(report)
    else:
        raise ValueError(f"unknown report format {fmt!r}")
    _overwrite(path, text)
    return text


def load_report(path) -> MetricsReport:
    return report_from_dict(_load_json(path))


def load_outcomes(path) -> Dict[str, float]:
    """Load a ``usc corr`` outcomes file: report file name -> outcome rate."""
    return _typed(Dict[str, float], _load_json(path), "")


# --- synthetic scenarios -----------------------------------------------------

#: Base (length, height, width) per synthetic class, meters.
_CLASS_SIZES = {
    "car": (4.5, 1.7, 1.9),
    "pedestrian": (0.6, 1.75, 0.6),
    "truck": (7.0, 3.0, 2.5),
    "bicycle": (1.8, 1.4, 0.6),
}
_DEFAULT_SIZE = (2.0, 1.5, 1.5)

#: Largest magnitude of a SyntheticSpec perturbation (``depth_bias`` and the
#: lateral, size and yaw noise scales): far beyond any detector's error, yet
#: small enough that no perturbed box or angle leaves the float range.
MAX_PERTURBATION = 1e6


@dataclass(frozen=True)
class SyntheticSpec:
    """Scenario generator parameters.

    Ground truths are placed fully ahead of the vehicle inside
    [range_min, range_max) meters and within +/- max_azimuth radians of the
    heading. Predictions perturb their ground truth: depth_bias shifts the
    center radially (positive = away from the vehicle), lateral_noise jitters
    it sideways, size_noise scales dimensions relatively, yaw_noise turns
    the heading. miss_rate drops predictions; fp_rate spawns spurious ones.
    max_azimuth is in [0, pi], range_max is finite, and depth_bias and the
    noise scales are at most MAX_PERTURBATION in magnitude.
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
        if not all(isinstance(name, str) and name for name in self.classes):
            raise ValueError("classes must be non-empty strings")
        for name in ("miss_rate", "fp_rate"):
            rate = getattr(self, name)
            if not (0.0 <= rate <= 1.0):
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        if not (-MAX_PERTURBATION <= self.depth_bias <= MAX_PERTURBATION):
            raise ValueError(f"depth_bias must be in [-{MAX_PERTURBATION:g}, "
                             f"{MAX_PERTURBATION:g}], got {self.depth_bias}")
        for name in ("lateral_noise", "size_noise", "yaw_noise"):
            scale = getattr(self, name)
            if not (0.0 <= scale <= MAX_PERTURBATION):
                raise ValueError(f"{name} must be in [0, {MAX_PERTURBATION:g}], "
                                 f"got {scale}")
        if not (0.0 < self.range_min < self.range_max):
            raise ValueError("need 0 < range_min < range_max")
        if not math.isfinite(self.range_max):
            raise ValueError(f"range_max must be finite, got {self.range_max}")
        if not (0.0 <= self.max_azimuth <= math.pi):
            raise ValueError(f"max_azimuth must be in [0, pi], got {self.max_azimuth}")
        object.__setattr__(self, "classes", tuple(self.classes))


def spec_kwargs_from_dict(obj) -> dict:
    """Check a parsed SyntheticSpec JSON document and return its fields as
    keyword arguments for SyntheticSpec."""
    return _typed_keys(_hints(SyntheticSpec), obj)


def load_spec(path) -> dict:
    """Load a SyntheticSpec JSON file as keyword arguments for SyntheticSpec."""
    return spec_kwargs_from_dict(_load_json(path))


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
    yaw = box.yaw + rng.gauss(0.0, spec.yaw_noise)
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
