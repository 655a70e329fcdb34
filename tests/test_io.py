import json
import math
import os
import random
import subprocess
import sys

import orjson
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from usc import (Annotation, Box3D, Dataset, Detection, FrameRecord,
                 ProtocolConfig, SyntheticSpec, as_dataset, evaluate,
                 generate_synthetic, load_config,
                 load_dataset, load_report, merge_datasets, report_from_dict,
                 report_to_dict, save_dataset, write_report,
                 format_report_table)
from usc import io
from usc.errors import ParseError, SchemaError, UscError
from usc.dataset import DatasetBuilder
from usc.io import MAX_PERTURBATION, config_from_dict, spec_kwargs_from_dict

from oracles import reference_load_dataset, reference_merge_datasets
from strategies import (CONFIG_KEYS, FRAME, REPORT, SPEC_KEYS, boxes, finite,
                        json_values, node_paths, reals, replaced)


def sample_frames():
    gt = Annotation("car", Box3D(0.5, 0.0, 9.0, 4.2, 1.6, 1.9, 0.31),
                    velocity=(1.25, -0.5), attribute="moving")
    pred = Detection("car", Box3D(0.52, 0.0, 9.1, 4.1, 1.6, 1.8, 0.30), 0.87)
    other = Annotation("pedestrian", Box3D(-2.0, 0.1, 14.0, 0.6, 1.8, 0.6, -1.2))
    return [FrameRecord("f-001", [gt], [pred]),
            FrameRecord("f-002", [other], [])]


#: objects built from every number type the value types accept, with and
#: without a velocity and an attribute
CLASS_NAMES = st.text(min_size=1, max_size=4)
VELOCITIES = st.none() | st.tuples(reals(-30.0, 30.0), reals(-30.0, 30.0))
ATTRIBUTES = st.none() | st.text(max_size=4)
ANNOTATIONS = st.builds(Annotation, CLASS_NAMES, boxes(number=reals),
                        VELOCITIES, ATTRIBUTES)
DETECTIONS = st.builds(Detection, CLASS_NAMES, boxes(number=reals),
                       reals(0.0, 1.0), VELOCITIES, ATTRIBUTES)
TYPED_FRAMES = st.lists(
    st.tuples(st.lists(ANNOTATIONS, max_size=3), st.lists(DETECTIONS, max_size=3)),
    max_size=3).map(lambda sides: [FrameRecord(f"f-{i}", gts, preds)
                                   for i, (gts, preds) in enumerate(sides)])


class TestDatasetRoundTrip:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert load_dataset(path) == []

    def test_lossless_round_trip(self, tmp_path):
        frames = sample_frames()
        path = tmp_path / "d.jsonl"
        save_dataset(frames, path)
        assert load_dataset(path) == frames

    def test_resave_is_byte_identical(self, tmp_path):
        first = tmp_path / "a.jsonl"
        second = tmp_path / "b.jsonl"
        save_dataset(sample_frames(), first)
        save_dataset(load_dataset(first), second)
        assert first.read_bytes() == second.read_bytes()

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(frames=TYPED_FRAMES)
    def test_every_value_the_types_accept_round_trips(self, tmp_path, frames):
        path = tmp_path / "d.jsonl"
        save_dataset(frames, path)
        assert repr(load_dataset(path)) == repr(frames)

    def test_synthetic_round_trip(self, tmp_path):
        frames = generate_synthetic(SyntheticSpec(seed=3, frames=15,
                                                  depth_bias=0.2,
                                                  lateral_noise=0.1,
                                                  miss_rate=0.2, fp_rate=0.2))
        path = tmp_path / "synth.jsonl"
        save_dataset(frames, path)
        assert load_dataset(path) == frames


class TestDatasetValidation:
    def test_malformed_json_cites_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        save_dataset(sample_frames(), path)
        lines = path.read_text().splitlines()
        lines.insert(1, "{not json")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as err:
            load_dataset(path)
        assert err.value.line == 2
        assert "line 2" in str(err.value)

    def test_invalid_utf8_cites_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        save_dataset(generate_synthetic(SyntheticSpec(seed=2, frames=60)), path)
        lines = path.read_bytes().splitlines(keepends=True)
        lines[40] = lines[40].replace(b'"car"', b'"c\xffr"', 1)
        assert b"\xff" in lines[40]
        path.write_bytes(b"".join(lines))
        with pytest.raises(ParseError) as err:
            load_dataset(path)
        assert err.value.line == 41
        assert str(err.value) == "line 41: invalid UTF-8"

    def test_integer_too_long_to_decode_cites_line(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text(json.dumps(FRAME) + "\n" + json.dumps(
            replaced(FRAME, ("frame_id",), "f-2")).replace("9.1", "9" * 5000))
        with pytest.raises(ParseError) as err:
            load_dataset(path)
        assert str(err.value) == "line 2: integer literal has too many digits to decode"
        config = tmp_path / "c.json"
        config.write_text('{"smooth_l1_beta": ' + "1" * 5000 + "}")
        with pytest.raises(ParseError, match="^integer literal has too many"):
            load_config(config)

    def test_non_ascii_text_and_crlf_load(self, tmp_path):
        frames = [FrameRecord("f-\u00e9", [Annotation(
            "v\u00e9lo", Box3D(0, 0, 9, 1, 1, 1, 0), attribute="\u00fc\U0001f697")], [])]
        path = tmp_path / "d.jsonl"
        path.write_bytes(json.dumps({
            "frame_id": "f-\u00e9", "ground_truths": [{
                "class": "v\u00e9lo", "center": [0, 0, 9], "size": [1, 1, 1],
                "yaw": 0, "attribute": "\u00fc\U0001f697"}]},
            ensure_ascii=False).encode("utf-8") + b"\r\n\r\n")
        assert load_dataset(path) == frames

    def test_bare_cr_between_tokens_loads(self, tmp_path):
        # JSON takes a CR as whitespace, so it does not end a line
        plain, path = tmp_path / "plain.jsonl", tmp_path / "d.jsonl"
        plain.write_text(json.dumps(FRAME) + "\n")
        path.write_bytes(plain.read_bytes().replace(b', "predictions"',
                                                    b',\r"predictions"'))
        assert b"\r" in path.read_bytes()
        assert load_dataset(path) == reference_load_dataset(path) == load_dataset(plain)

    def test_cr_line_endings_are_one_line(self, tmp_path):
        path = tmp_path / "d.jsonl"
        line = json.dumps(FRAME)
        path.write_text(line + "\r" + line.replace("f-1", "f-2") + "\r", newline="")
        for load in (load_dataset, reference_load_dataset):
            with pytest.raises(ParseError, match="^line 1: Extra data"):
                load(path)

    @pytest.mark.parametrize("blank", ["\x0c", "\x1e", "\xa0", "\x0b"])
    def test_line_of_other_whitespace_is_not_blank(self, tmp_path, blank):
        path = tmp_path / "d.jsonl"
        path.write_text(json.dumps(FRAME) + "\n \t\r\n" + blank + "\n", encoding="utf-8")
        for load in (load_dataset, reference_load_dataset):
            with pytest.raises(ParseError) as err:
                load(path)
            assert err.value.line == 3

    def test_missing_yaw_names_the_field(self, tmp_path):
        record = {"frame_id": "f0", "ground_truths": [
            {"class": "car", "center": [0, 0, 9], "size": [1, 1, 1]}],
            "predictions": []}
        path = tmp_path / "d.jsonl"
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(SchemaError) as err:
            load_dataset(path)
        assert "yaw" in str(err.value)
        assert "ground_truths[0]" in str(err.value)

    def test_integer_beyond_float_range_names_the_field(self, tmp_path):
        record = {"frame_id": "f0", "ground_truths": [
            {"class": "car", "center": [0, 0, 10 ** 400], "size": [1, 1, 1],
             "yaw": 0}], "predictions": []}
        path = tmp_path / "d.jsonl"
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(SchemaError) as err:
            load_dataset(path)
        assert "ground_truths[0].center[2]" in str(err.value)

    def test_missing_frame_id(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text(json.dumps({"ground_truths": [], "predictions": []}) + "\n")
        with pytest.raises(SchemaError) as err:
            load_dataset(path)
        assert "frame_id" in str(err.value)

    def test_duplicate_frame_id(self, tmp_path):
        path = tmp_path / "d.jsonl"
        record = {"frame_id": "f0", "ground_truths": [], "predictions": []}
        path.write_text(json.dumps(record) + "\n" + json.dumps(record) + "\n")
        with pytest.raises(SchemaError) as err:
            load_dataset(path)
        assert "duplicate" in str(err.value)

    def test_score_out_of_range(self, tmp_path):
        record = {"frame_id": "f0", "ground_truths": [], "predictions": [
            {"class": "car", "center": [0, 0, 9], "size": [1, 1, 1],
             "yaw": 0.0, "score": 1.5}]}
        path = tmp_path / "d.jsonl"
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(SchemaError) as err:
            load_dataset(path)
        assert "score" in str(err.value)

    def test_nonpositive_dimension(self, tmp_path):
        record = {"frame_id": "f0", "ground_truths": [
            {"class": "car", "center": [0, 0, 9], "size": [0, 1, 1],
             "yaw": 0.0}], "predictions": []}
        path = tmp_path / "d.jsonl"
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(SchemaError):
            load_dataset(path)

    def test_missing_sides_default_to_empty(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text(json.dumps({"frame_id": "f0"}) + "\n")
        frames = load_dataset(path)
        assert frames[0].ground_truths == []
        assert frames[0].predictions == []

    @pytest.mark.parametrize("field", ["class", "center", "size", "yaw", "score"])
    def test_each_required_field_absence_named(self, tmp_path, field):
        record = {"frame_id": "f0", "ground_truths": [], "predictions": [
            {"class": "car", "center": [0, 0, 9], "size": [1, 1, 1],
             "yaw": 0.0, "score": 0.5}]}
        del record["predictions"][0][field]
        path = tmp_path / "d.jsonl"
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(SchemaError) as err:
            load_dataset(path)
        assert field in str(err.value)


def _leaf(document, path):
    for key in path:
        document = document[key]
    return document


#: paths to the number leaves of FRAME
NUMBER_PATHS = [path for path in node_paths(FRAME)
                if type(_leaf(FRAME, path)) in (int, float)]
#: a valid line with two objects per side, so that a node replaced in the
#: second object follows one the shape check accepted
TWO_OBJECT_FRAME = dict(
    FRAME,
    ground_truths=FRAME["ground_truths"] + [
        {"class": "pedestrian", "center": [-2, 0.1, 14], "size": [0.6, 1.8, 0.6],
         "yaw": -1.2}],
    predictions=FRAME["predictions"] + [
        {"class": "pedestrian", "center": [-2.1, 0.1, 14.2],
         "size": [0.6, 1.7, 0.6], "yaw": -1.1, "velocity": [0.5, 0],
         "attribute": "walking", "score": 0.4}])
#: paths into the second object of each side, and to it
SECOND_OBJECT_PATHS = [path for path in node_paths(TWO_OBJECT_FRAME)
                       if path[1:2] == (1,)]
#: (object, whether it is a prediction, path to one of its nodes) for every
#: node of every object of TWO_OBJECT_FRAME, whose first objects are FRAME's
OBJECT_NODES = [(obj, side == "predictions", path)
                for side in ("ground_truths", "predictions")
                for obj in TWO_OBJECT_FRAME[side] for path in node_paths(obj)]
#: replacements for one number leaf that a loader must treat exactly: among
#: them every kind of value that orjson converts (an integer beyond 64 bits)
#: or refuses (NaN, infinity, a number beyond the float range, a lone
#: surrogate), so that the decoder's fallback to json is compared too
NUMBER_EDGES = (st.integers() | st.sampled_from(
    [True, False, -0.0, 0, float("nan"), float("inf"), -float("inf"),
     10 ** 400, -10 ** 400, 1e308, -1e308, 2 ** 64, -(2 ** 63) - 1,
     10 ** 308, "\ud800"]))
#: JSON texts at the edges of what orjson decodes as json does
DECODER_EDGE_TEXTS = (
    "NaN", "Infinity", "-Infinity", "1e400", "-1e400", "1e-400", "-0", "-0.0",
    '"\\ud800"', '"\\udc00\\ud800"', '"\\ud83d\\ude97"', str(2 ** 63 - 1),
    str(2 ** 63), str(2 ** 64 - 1), str(2 ** 64), str(-(2 ** 63)),
    str(-(2 ** 63) - 1), str(2 ** 53 + 1), str(10 ** 308), str(-10 ** 308),
    "1" * 309, str(2 ** 1023 + 2 ** 970), str(2 ** 1024 - 2 ** 970 - 1),
    str(2 ** 1024 - 2 ** 970),
    "1.7976931348623157e308", "1.7976931348623159e308", "5e-324", "2.4e-324",
    '{"a": 1, "a": 2}', "\ufeff{}", "[1,]", "[1] \x0c", " [1]\r\n", '"\x01"')


def _outcome(load, path):
    """repr of what ``load`` returns, or the type and text of the UscError
    it raises; repr tells an int from a float, which == would not."""
    try:
        return repr(load(path))
    except UscError as exc:
        return type(exc), str(exc)


class TestLoaderAgainstReference:
    """load_dataset gives the same records, or the same error with the same
    text, as the field-by-field reference loader in tests/oracles.py. Each
    file has a valid first line, so line numbers and duplicate frame ids
    are compared too."""

    def check(self, tmp_path, document):
        data = tmp_path / "d.jsonl"
        data.write_text(json.dumps(dict(FRAME, frame_id="f-0")) + "\n\n"
                        + json.dumps(document) + "\n", encoding="utf-8")
        assert _outcome(load_dataset, data) == _outcome(reference_load_dataset, data)

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(path=st.sampled_from(list(node_paths(FRAME))), value=json_values())
    def test_one_node_replaced(self, tmp_path, path, value):
        self.check(tmp_path, replaced(FRAME, path, value))

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(path=st.sampled_from(NUMBER_PATHS), value=NUMBER_EDGES)
    def test_one_number_replaced(self, tmp_path, path, value):
        self.check(tmp_path, replaced(FRAME, path, value))

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(path=st.sampled_from(SECOND_OBJECT_PATHS),
           value=json_values() | NUMBER_EDGES)
    def test_node_of_second_object_replaced(self, tmp_path, path, value):
        self.check(tmp_path, replaced(TWO_OBJECT_FRAME, path, value))

    @pytest.mark.parametrize("side", ["ground_truths", "predictions"])
    def test_only_the_faulty_line_is_parsed_field_by_field(
            self, tmp_path, monkeypatch, side):
        first, second = TWO_OBJECT_FRAME[side]
        middle = dict(first, size=[4.2, 1.6, 0])
        document = dict(TWO_OBJECT_FRAME, **{side: [first, middle, second]})
        self.check(tmp_path, document)
        parse_object, paths = io._parse_object, []

        def counted(obj, path, with_score):
            paths.append(path)
            return parse_object(obj, path, with_score)

        monkeypatch.setattr(io, "_parse_object", counted)
        with pytest.raises(SchemaError, match="box dimensions must be positive"):
            load_dataset(tmp_path / "d.jsonl")
        # the valid first line is never parsed; line 3 is, up to its fault
        assert paths[-1] == f"line 3.{side}[1]"
        assert all(path.startswith("line 3.") for path in paths)


def _deep_line(depth: int, **changes) -> str:
    """FRAME as one line whose key "extra", which the loader does not read,
    holds a list nested ``depth`` levels deep. json.dumps would recurse, so
    the list is written by hand."""
    line = json.dumps(dict(FRAME, extra=None, **changes))
    return line.replace('"extra": null', '"extra": ' + "[" * depth + "]" * depth)


class TestDecoderSplit:
    """Dataset lines are decoded by orjson, and by json for what orjson
    refuses or could not nest safely; the object-by-object parser always
    reads json's values."""

    @pytest.mark.parametrize("text", DECODER_EDGE_TEXTS)
    def test_orjson_refuses_or_agrees_with_json(self, text):
        try:
            value = orjson.loads(text)
        except orjson.JSONDecodeError:
            return
        expected = json.loads(text)
        if type(expected) is int and not -2 ** 63 <= expected < 2 ** 64:
            expected = float(expected)
        assert repr(value) == repr(expected)

    def test_nesting_json_refuses_loads_where_the_loader_does_not_read(self, tmp_path):
        plain, path = tmp_path / "plain.jsonl", tmp_path / "d.jsonl"
        plain.write_text(json.dumps(FRAME) + "\n")
        path.write_text(_deep_line(3000) + "\n")
        with pytest.raises(RecursionError):
            json.loads(path.read_text())
        assert load_dataset(path) == load_dataset(plain)

    def test_faulty_line_is_parsed_from_json_values(self, tmp_path):
        # the shape check refuses the frame id, and json cannot decode the line
        path = tmp_path / "d.jsonl"
        path.write_text(json.dumps(FRAME) + "\n" + _deep_line(3000, frame_id=7) + "\n")
        with pytest.raises(ParseError) as err:
            load_dataset(path)
        assert str(err.value) == "line 2: JSON nested too deeply to decode"

    @pytest.mark.parametrize("length, to_orjson", [
        (io._ORJSON_MAX_BRACKETS, True), (io._ORJSON_MAX_BRACKETS + 1, False)])
    def test_brackets_counted_only_past_the_bound_in_length(
            self, tmp_path, monkeypatch, length, to_orjson):
        # a last line of brackets alone, with no LF: at the bound in length,
        # orjson is given it unscanned; one bracket longer, the scan sends it
        # to json
        calls = []

        def refuse(line):
            calls.append(len(line))
            raise orjson.JSONDecodeError("refused", line, 0)

        path = tmp_path / "d.jsonl"
        path.write_text("[" * length)
        monkeypatch.setattr(orjson, "loads", refuse)
        with pytest.raises(ParseError, match="^line 1: "):
            load_dataset(path)
        assert calls == ([length] if to_orjson else [])

    def test_line_too_deep_for_orjson_goes_to_json(self, tmp_path):
        # orjson would overflow the C stack on it, so this runs in a child
        # process: a crash fails the test rather than the run
        path = tmp_path / "d.jsonl"
        path.write_text(json.dumps(FRAME) + "\n" + "[{\"a\":" * 100_000 + "1"
                        + "}]" * 100_000 + "\n")
        script = """
import sys, usc
try:
    usc.load_dataset(sys.argv[1])
except usc.errors.ParseError as exc:
    print(exc)
"""
        src = os.path.dirname(os.path.dirname(io.__file__))
        result = subprocess.run(
            [sys.executable, "-c", script, str(path)], capture_output=True, text=True,
            timeout=60, env={**os.environ, "PYTHONPATH": src})
        assert (result.returncode, result.stdout) == (
            0, "line 2: JSON nested too deeply to decode\n")


class TestValidDataTakesTheFastPath:
    """Valid objects never reach the field-by-field parser; a shape check
    that stopped taking them would still load them, only slower."""

    def refuse_slow_path(self, monkeypatch):
        def refuse(obj, path, with_score):
            raise AssertionError(f"{path} took the field-by-field parser")
        monkeypatch.setattr("usc.io._parse_object", refuse)

    def test_saved_synthetic_dataset(self, tmp_path, monkeypatch):
        frames = generate_synthetic(SyntheticSpec(seed=5, frames=12,
                                                  lateral_noise=0.2,
                                                  fp_rate=0.3))
        for index, frame in enumerate(frames[::2]):
            frame.ground_truths[0] = frame.ground_truths[0]._replace(
                velocity=(index, -0.5), attribute="moving")
            if frame.predictions:
                frame.predictions[0] = frame.predictions[0]._replace(
                    velocity=(0.25, 1e-3))
        path = tmp_path / "d.jsonl"
        save_dataset(frames, path)
        expected = load_dataset(path)
        assert expected == frames
        self.refuse_slow_path(monkeypatch)
        assert load_dataset(path) == expected

    def test_integer_coordinates_without_velocity(self, tmp_path, monkeypatch):
        record = {"frame_id": "f0", "ground_truths": [
            {"class": "car", "center": [0, 0, 9], "size": [4, 2, 2], "yaw": 0}],
            "predictions": [{"class": "car", "center": [1, 0, 9],
                             "size": [4, 2, 2], "yaw": 1, "score": 1}]}
        path = tmp_path / "d.jsonl"
        path.write_text(json.dumps(record) + "\n")
        expected = load_dataset(path)
        self.refuse_slow_path(monkeypatch)
        loaded = load_dataset(path)
        assert loaded == expected and repr(loaded) == repr(expected)

    @pytest.mark.parametrize("side", ["ground_truths", "predictions"])
    def test_center_whose_sum_overflows_loads(self, tmp_path, monkeypatch, side):
        path = tmp_path / "d.jsonl"
        path.write_text(json.dumps(
            replaced(FRAME, (side, 0, "center"), [1e308, 1e308, 0])) + "\n")
        expected = reference_load_dataset(path)
        self.refuse_slow_path(monkeypatch)
        loaded = load_dataset(path)
        assert repr(loaded) == repr(expected)
        assert getattr(loaded[0], side)[0].box[:3] == (1e308, 1e308, 0.0)


#: FRAME without the optional fields of its ground truth, so that the loader
#: takes it into its columns without the object-by-object parser
PLAIN_FRAME = dict(FRAME, ground_truths=[
    {key: value for key, value in FRAME["ground_truths"][0].items()
     if key not in ("velocity", "attribute")}])
#: one value of a line that only the value check rejects, as (path, value)
VALUE_FAULTS = [
    (("ground_truths", 0, "size", 1), 0.0),
    (("ground_truths", 0, "size", 2), -1.5),
    (("predictions", 0, "size", 0), -float("inf")),
    (("predictions", 0, "score"), 1.5),
    (("predictions", 0, "score"), -1e-300),
    (("predictions", 0, "center", 0), float("nan")),
    (("ground_truths", 0, "yaw"), float("inf")),
]
#: a line with a fault that the loader finds before any value check
LINE_FAULTS = {
    "decode": "{not json",
    "duplicate-frame-id": json.dumps(dict(PLAIN_FRAME, frame_id="f-0")),
    "predictions-not-a-list": json.dumps(dict(PLAIN_FRAME, frame_id="f-8",
                                              predictions={})),
    "bool-for-a-number": json.dumps(replaced(
        dict(PLAIN_FRAME, frame_id="f-8"), ("ground_truths", 0, "center", 1), True)),
    "int-beyond-float-range": json.dumps(replaced(
        dict(PLAIN_FRAME, frame_id="f-8"), ("predictions", 0, "yaw"), 10 ** 400)),
    "object-with-a-velocity": json.dumps(replaced(
        dict(FRAME, frame_id="f-8"), ("ground_truths", 0, "size", 0), 0)),
}


def assert_same_columns(data, other):
    """Two Datasets hold the same frame ids, class names and columns, bit for
    bit."""
    assert (data.frame_ids, data.class_names) == (other.frame_ids, other.class_names)
    for side in ("ground_truths", "predictions"):
        for mine, theirs in zip(getattr(data, side), getattr(other, side)):
            if mine is None or theirs is None:
                assert mine is theirs is None
            else:
                assert (mine.dtype, mine.shape) == (theirs.dtype, theirs.shape)
                assert (mine.tolist() == theirs.tolist() if mine.dtype == object
                        else mine.tobytes() == theirs.tobytes())


def assert_columns_hold_the_records(data):
    """The arrays of a loaded Dataset hold, bit for bit, the values of the
    records it gives, which the value types' constructors check again."""
    assert_same_columns(data, as_dataset(list(data)))


def fault_id(fault):
    """A (path, value) fault's dotted path and value, for a test id."""
    path, value = fault
    return ".".join(map(str, path)) + f"={value!r:.8}"


def plain_line(index, fault=None):
    """PLAIN_FRAME as line text, with frame id ``f-<index>`` and the fault
    (path, value), if given, in it."""
    frame = dict(PLAIN_FRAME, frame_id=f"f-{index}")
    return json.dumps(replaced(frame, *fault) if fault else frame)


class TestErrorOrder:
    """The loader checks the values of many lines at once, and before it
    raises at a line it checks the lines before it: every error, its text,
    path and line, is the reference loader's, which reads line by line."""

    @staticmethod
    def assert_as_reference(path, lines, line=None):
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        outcome = _outcome(load_dataset, path)
        assert outcome == _outcome(reference_load_dataset, path)
        if line is not None:
            assert outcome[1].startswith(f"line {line}")
        else:
            assert_columns_hold_the_records(load_dataset(path))

    @pytest.mark.parametrize("fault", VALUE_FAULTS, ids=fault_id)
    @pytest.mark.parametrize("later", LINE_FAULTS)
    def test_value_fault_comes_before_a_later_line_fault(self, tmp_path, fault, later):
        lines = [plain_line(0), plain_line(1), plain_line(2, fault), plain_line(3),
                 LINE_FAULTS[later]]
        self.assert_as_reference(tmp_path / "d.jsonl", lines, 3)

    @pytest.mark.parametrize("later", LINE_FAULTS)
    def test_line_fault_after_valid_lines(self, tmp_path, later):
        lines = [plain_line(0), plain_line(1), LINE_FAULTS[later], plain_line(3)]
        self.assert_as_reference(tmp_path / "d.jsonl", lines, 3)

    @pytest.mark.parametrize("first, second", [
        # each pair in the order the reference meets them
        ((("ground_truths", 0, "size", 1), 0.0), (("predictions", 0, "score"), 2.0)),
        ((("predictions", 0, "size", 1), 0.0), (("predictions", 0, "score"), 2.0)),
        ((("predictions", 0, "center", 2), float("inf")),
         (("predictions", 0, "center", 0), True)),
        ((("ground_truths", 0, "yaw"), float("nan")), (("predictions", 0, "class"), "")),
        ((("ground_truths", 0, "center", 1), True), (("predictions", 0, "score"), 2.0)),
    ])
    def test_two_faults_on_one_line(self, tmp_path, first, second):
        for faults in ((first, second), (second, first)):
            frame = dict(PLAIN_FRAME, frame_id="f-1")
            for fault in faults:
                frame = replaced(frame, *fault)
            self.assert_as_reference(tmp_path / "d.jsonl",
                                     [plain_line(0), json.dumps(frame)], 2)

    @pytest.mark.parametrize("fault", [
        (("ground_truths", 0, "center", 0), 10 ** 400),
        (("predictions", 0, "size", 2), -10 ** 400),
        (("predictions", 0, "score"), 10 ** 400),
        (("ground_truths", 0, "center", 2), True),
        (("predictions", 0, "yaw"), False),
        (("predictions", 0, "score"), True),
        (("ground_truths", 0, "velocity"), [10 ** 400, 0]),
        (("predictions", 0, "velocity"), [float("nan"), 0.0]),
        (("predictions", 0, "velocity"), [0.5, float("inf")]),
        (("ground_truths", 0, "velocity"), [True, 0.0]),
        (("ground_truths", 0, "velocity"), [1.0]),
        (("predictions", 0, "attribute"), 3),
    ], ids=fault_id)
    def test_number_fault_inside_a_valid_file(self, tmp_path, fault):
        lines = [plain_line(i, fault if i == 2 else None) for i in range(5)]
        self.assert_as_reference(tmp_path / "d.jsonl", lines, 3)

    @pytest.mark.parametrize("yaw", [-math.pi, math.pi, math.nextafter(math.pi, 4),
                                     3.5, -7.0, 1e300, 7])
    def test_yaw_outside_its_range_is_wrapped(self, tmp_path, yaw):
        lines = [plain_line(i, ((side, 0, "yaw"), yaw))
                 for i, side in enumerate(("ground_truths", "predictions"))]
        self.assert_as_reference(tmp_path / "d.jsonl", lines)
        box = load_dataset(tmp_path / "d.jsonl")[0].ground_truths[0].box
        assert box == Box3D(0.5, 0.0, 9.0, 4.2, 1.6, 1.9, yaw)

    @pytest.mark.parametrize("score", [0, -0.0, 0.0, 1, 1.0, 5e-324])
    def test_score_at_its_bounds_loads(self, tmp_path, score):
        lines = [plain_line(0, (("predictions", 0, "score"), score))]
        self.assert_as_reference(tmp_path / "d.jsonl", lines)

    @pytest.mark.parametrize("at", [10, 700, 1399])
    def test_faults_in_a_later_block(self, tmp_path, at):
        # 1,400 lines of three objects: the values of every 2,048 objects
        # are checked at once, so lines 683 and 1,366 start new blocks
        lines = [plain_line(i) for i in range(1400)]
        lines[at] = plain_line(at, (("predictions", 0, "score"), 7.0))
        path = tmp_path / "d.jsonl"
        self.assert_as_reference(path, lines, at + 1)
        self.assert_as_reference(path, lines + ["{not json"], at + 1)
        lines[at] = plain_line(at)
        self.assert_as_reference(path, lines + ["{not json"], 1401)
        self.assert_as_reference(path, lines)


class TestPlainLinesTakeTheColumns:
    """A valid line is loaded into the columns without the object-by-object
    parser, its values at the edge of every rule included: a check that
    rejected a valid value would still load it, only slower."""

    @pytest.mark.parametrize("edge", [
        (("predictions", 0, "score"), 0), (("predictions", 0, "score"), -0.0),
        (("predictions", 0, "score"), 1), (("predictions", 0, "score"), 1.0),
        (("predictions", 0, "score"), 5e-324),
        (("ground_truths", 0, "size", 0), 5e-324), (("predictions", 0, "size"), [1, 2, 3]),
        (("ground_truths", 0, "yaw"), -math.pi), (("predictions", 0, "yaw"), math.pi),
        (("ground_truths", 0, "yaw"), 7), (("predictions", 0, "yaw"), -1e300),
        (("ground_truths", 0, "center"), [2 ** 70, -(2 ** 70), 1e308]),
        (("ground_truths", 0, "velocity"), [1, -1e308]),
        (("predictions", 0, "velocity"), [0.0, 2 ** 70]),
        (("predictions", 0, "attribute"), ""), (("ground_truths", 0, "attribute"), "x"),
        (("predictions", 0, "velocity"), None), (("ground_truths", 0, "attribute"), None),
    ], ids=fault_id)
    def test_edge_values_do_not_reach_the_parser(self, tmp_path, monkeypatch, edge):
        path = tmp_path / "d.jsonl"
        path.write_text(plain_line(0) + "\n" + plain_line(1, edge) + "\n")
        expected = reference_load_dataset(path)

        def refuse(obj, path):
            raise AssertionError(f"{path} took the object-by-object parser")

        monkeypatch.setattr(io, "_parse_frame", refuse)
        loaded = load_dataset(path)
        assert repr(loaded) == repr(expected)
        assert_columns_hold_the_records(loaded)


@pytest.mark.parametrize("document", [FRAME, TWO_OBJECT_FRAME, PLAIN_FRAME],
                         ids=["frame", "two-objects", "plain"])
def test_parsed_records_give_the_loaded_columns(tmp_path, document):
    # a valid line that the shape check refused would be built by the
    # object-by-object parser and appended as records: the same columns
    path = tmp_path / "d.jsonl"
    path.write_text(json.dumps(document) + "\n")
    builder = DatasetBuilder()
    builder.add_frame(io._parse_frame(document, "line 1"))
    parsed, loaded = builder.build(), load_dataset(path)
    assert parsed == loaded == reference_load_dataset(path)
    assert_same_columns(parsed, loaded)


def test_builder_refuses_to_build_values_that_break_a_rule():
    # a JSON line's shape is checked as it is added, its values only later
    builder = DatasetBuilder()
    assert builder.add_plain_frame(replaced(PLAIN_FRAME, ("predictions", 0, "score"), 2.0))
    with pytest.raises(ValueError, match="breaks the value rules"):
        builder.build()


class TestMergeDatasets:
    def test_joins_on_frame_id(self):
        gt_frames = [FrameRecord("a", [Annotation("car", Box3D(0, 0, 9, 1, 1, 1, 0))], []),
                     FrameRecord("b", [], [])]
        pred_frames = [FrameRecord("b", [], [Detection("car", Box3D(0, 0, 9, 1, 1, 1, 0), 0.5)]),
                       FrameRecord("c", [], [Detection("car", Box3D(1, 0, 9, 1, 1, 1, 0), 0.4)])]
        merged = merge_datasets(gt_frames, pred_frames)
        assert [f.frame_id for f in merged] == ["a", "b", "c"]
        assert len(merged[0].ground_truths) == 1 and merged[0].predictions == []
        assert len(merged[1].predictions) == 1
        assert merged[2].ground_truths == []

    def test_gathered_columns_equal_the_list_merge(self, tmp_path):
        # each file holds both sides, and its other side is dropped; half the
        # predictions' frames are missing from the ground-truth file, which
        # holds frames of its own, and the classes differ between the files
        def frames(seed, classes):
            return generate_synthetic(SyntheticSpec(
                seed=seed, frames=30, classes=classes, lateral_noise=0.2,
                miss_rate=0.2, fp_rate=0.3))

        gt_frames = frames(1, ("car", "truck"))[::2]
        pred_frames = frames(2, ("bicycle", "car"))
        for index, frame in enumerate(pred_frames):
            if index % 3 == 0 and frame.predictions:
                frame.predictions[0] = frame.predictions[0]._replace(
                    velocity=(0.5, index), attribute="moving")
        gt_path, pred_path = tmp_path / "gt.jsonl", tmp_path / "pred.jsonl"
        save_dataset(gt_frames, gt_path)
        save_dataset(pred_frames, pred_path)
        expected = reference_merge_datasets(gt_frames, pred_frames)
        assert any(not f.ground_truths and f.predictions for f in expected)
        merged = merge_datasets(load_dataset(gt_path), load_dataset(pred_path))
        assert isinstance(merged, Dataset)
        assert merged == expected and repr(merged) == repr(expected)
        assert merge_datasets(gt_frames, pred_frames) == expected
        assert merge_datasets([], pred_frames) == reference_merge_datasets([], pred_frames)
        assert merge_datasets(gt_frames, []) == reference_merge_datasets(gt_frames, [])


def synthetic_dataset():
    """A saved and loaded synthetic dataset with velocities and attributes on
    some objects, and the frames it was saved from."""
    frames = generate_synthetic(SyntheticSpec(seed=6, frames=40, lateral_noise=0.2,
                                              miss_rate=0.1, fp_rate=0.3))
    for index, frame in enumerate(frames[::3]):
        frame.ground_truths[0] = frame.ground_truths[0]._replace(
            velocity=(index, -0.5), attribute="parked")
    return frames


class TestDatasetContract:
    """A Dataset is an immutable sequence of FrameRecord values that equals
    the list of them and evaluates as that list does."""

    @pytest.fixture
    def loaded(self, tmp_path):
        frames = synthetic_dataset()
        save_dataset(frames, tmp_path / "d.jsonl")
        return load_dataset(tmp_path / "d.jsonl"), frames

    def test_equality_and_repr_are_the_lists(self, loaded):
        data, frames = loaded
        assert isinstance(data, Dataset)
        assert data == frames and frames == data and data == data
        assert repr(data) == repr(frames)
        assert data != frames[:-1] and data != frames[::-1]
        assert data != tuple(frames) and data != "frames"

    def test_length_negative_index_and_slice(self, loaded):
        data, frames = loaded
        assert len(data) == len(frames) == 40
        assert data[-1] == frames[-1] and data[-40] == frames[0]
        assert data[5:9] == frames[5:9] and data[::-7] == frames[::-7]
        assert data[40:] == []
        for index in (40, -41):
            with pytest.raises(IndexError):
                data[index]
        assert list(data) == frames and data.index(frames[3]) == 3

    def test_no_append_and_no_item_assignment(self, loaded):
        data, frames = loaded
        assert not hasattr(data, "append") and not hasattr(data, "__setitem__")
        with pytest.raises(TypeError):
            data[0] = frames[0]
        with pytest.raises(TypeError):
            del data[0]
        with pytest.raises(ValueError, match="read-only"):
            data.predictions.boxes[0, 0] = 1.0
        # a record is built anew at each index, so changing it changes nothing
        data[0].ground_truths.clear()
        assert data == frames

    def test_evaluate_gives_the_bytes_of_the_list(self, loaded, tmp_path):
        data, frames = loaded
        config = ProtocolConfig(tp_measures=("ATE", "ASE", "AOE", "AVE", "AAE"))
        for frames_, name in ((frames[::3], "subset"), (frames, "all")):
            texts = []
            for value in (as_dataset(frames_), list(frames_)):
                try:
                    report = evaluate(value, config)
                except UscError as exc:
                    texts.append(repr(exc))
                else:
                    texts.append(write_report(report, tmp_path / f"{name}.json"))
            assert texts[0] == texts[1]
        assert write_report(evaluate(data), tmp_path / "a.json") == \
            write_report(evaluate(list(data)), tmp_path / "b.json")

    def test_frame_order_does_not_matter(self, loaded):
        # criterion 10 on the columns: the frames permuted by gathering rows
        data, _ = loaded
        order = list(range(len(data)))
        random.Random(7).shuffle(order)
        shuffled = Dataset(tuple(data.frame_ids[i] for i in order), data.class_names,
                           data.ground_truths.take(order), data.predictions.take(order))
        assert shuffled == [data[i] for i in order]
        assert evaluate(shuffled) == evaluate(data)


class TestConfig:
    def test_empty_object_gives_defaults(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{}")
        protocol, loss = load_config(path)
        assert protocol == ProtocolConfig()
        assert loss.blend_lambda == 0.8
        assert loss.smooth_l1_beta == 1.0

    def test_lambda_out_of_range(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"lambda": 1.3}))
        with pytest.raises(SchemaError):
            load_config(path)

    def test_custom_buckets_override(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({
            "range_buckets": [[0, 25], [25, 50]],
            "match_thresholds": [2, 4],
        }))
        protocol, _ = load_config(path)
        assert protocol.range_buckets == ((0.0, 25.0), (25.0, 50.0))
        assert protocol.match_thresholds == (2.0, 4.0)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"rang_buckets": []}))
        with pytest.raises(SchemaError) as err:
            load_config(path)
        assert "rang_buckets" in str(err.value)

    def test_mismatched_thresholds_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"match_thresholds": [1.0]}))
        with pytest.raises(SchemaError):
            load_config(path)

    def test_number_for_a_flag_rejected(self):
        with pytest.raises(SchemaError,
                           match="^skip_missing_classes: expected a boolean$"):
            config_from_dict({"skip_missing_classes": 1})


def test_type_without_json_form_is_a_type_error():
    with pytest.raises(TypeError, match="^no JSON form for <class 'set'>$"):
        io._typed(set, [], "")


def case_ids(cases):
    """Each (path, value) case's dotted path, with ``=<value as JSON>`` added
    where an earlier case has the same path."""
    ids = []
    for path, value in cases:
        name = ".".join(map(str, path))
        ids.append(f"{name}={json.dumps(value)}" if name in ids else name)
    return ids


#: (path into the report's JSON form, mistyped value)
MISTYPED_FIELDS = [
    (("frames",), "3"),
    (("per_class", "car", "[0,10)", "tp"), "x"),
    (("per_class", "car", "[0,10)", "fp"), True),
    (("per_class", "car", "[0,10)", "fn"), 1.5),
    (("per_class", "car", "[0,10)", "usc_excluded"), None),
    (("per_class", "car", "[0,10)", "ausc"), "x"),
    (("per_class", "car", "[0,10)", "ap", "1.0"), "x"),
    (("per_class", "car", "[0,10)", "tp_errors", "ATE"), [0.1]),
    (("per_bucket", "[10,20)", "nds"), False),
    (("overall", "mean_ap"), "x"),
    (("overall", "mausc"), 10 ** 400),
    (("ap_distance_thresholds", 0), "1.0"),
    (("range_buckets", 1, 1), "20"),
    (("range_buckets", 0), [0.0]),
    (("classes", 0), 7),
    (("tp_measures", 0), None),
    (("per_bucket", "[0,10)", "mausc"), float("nan")),
    (("overall",), {}),
    (("overall",), None),
    (("per_class", "car", "[0,10)", "ap", "1"), 0.5),
]


#: (report list, edit of it, field path named) that leaves the report's
#: tables keyed by something other than its lists
INCONSISTENT_LISTS = [
    ("classes", lambda classes: classes + ["bus"], "per_class"),
    ("range_buckets", lambda buckets: [[0, 5]], "per_bucket"),
    ("ap_distance_thresholds", lambda ds: ds + [3.0], "per_class.car.[0,10).ap"),
    ("tp_measures", lambda ms: ms + ["AVE"], "per_bucket.[0,10).tp_errors"),
]


class TestReports:
    def report(self):
        frames = generate_synthetic(SyntheticSpec(seed=8, frames=25,
                                                  depth_bias=0.3,
                                                  miss_rate=0.1, fp_rate=0.1))
        return evaluate(frames, ProtocolConfig())

    def test_json_round_trip(self, tmp_path):
        report = self.report()
        path = tmp_path / "r.json"
        write_report(report, path, "json")
        assert load_report(path) == report

    def test_dict_round_trip(self):
        report = self.report()
        assert report_from_dict(report_to_dict(report)) == report

    def test_json_is_stable_key_ordered(self, tmp_path):
        report = self.report()
        path = tmp_path / "r.json"
        write_report(report, path, "json")
        obj = json.loads(path.read_text())
        assert list(obj.keys()) == sorted(obj.keys())

    def test_undefined_metrics_serialize_as_null(self, tmp_path):
        report = evaluate([], ProtocolConfig())
        path = tmp_path / "empty.json"
        write_report(report, path, "json")
        obj = json.loads(path.read_text())
        assert obj["overall"]["mausc"] is None
        text = path.read_text()
        assert '"mausc": null' in text

    def test_perfect_report_table_shows_ones(self, tmp_path):
        frames = generate_synthetic(SyntheticSpec(seed=4, frames=30))
        report = evaluate(frames, ProtocolConfig())
        table = format_report_table(report)
        assert "1.000" in table
        assert "0.9" not in table
        path = tmp_path / "r.txt"
        write_report(report, path, "table")
        assert path.read_text() == table

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_report(self.report(), tmp_path / "r.bin", "yaml")

    @pytest.mark.parametrize("path, value", MISTYPED_FIELDS,
                             ids=case_ids(MISTYPED_FIELDS))
    def test_mistyped_field_named(self, path, value):
        obj = replaced(report_to_dict(self.report()), path, value)
        with pytest.raises(SchemaError) as err:
            report_from_dict(obj)
        named = "".join(f"[{k}]" if isinstance(k, int) else f".{k}"
                        for k in path).lstrip(".")
        assert named in str(err.value)

    @pytest.mark.parametrize("key, edit, named", INCONSISTENT_LISTS,
                             ids=[key for key, _, _ in INCONSISTENT_LISTS])
    def test_tables_disagreeing_with_lists_named(self, key, edit, named):
        obj = report_to_dict(self.report())
        obj[key] = edit(obj[key])
        with pytest.raises(SchemaError) as err:
            report_from_dict(obj)
        assert named in str(err.value)

    def test_dict_is_json_native(self):
        obj = report_to_dict(self.report())
        assert obj == json.loads(json.dumps(obj))

    def test_deeply_nested_report_is_parse_error(self, tmp_path):
        path = tmp_path / "r.json"
        path.write_text("[" * 100_000)
        with pytest.raises(ParseError):
            load_report(path)


def written_before(report, fmt, path):
    """The bytes a report's file held when it was written by truncating
    the file first: ``json.dump`` then a newline, or the table."""
    with open(path, "w", encoding="utf-8") as handle:
        if fmt == "json":
            json.dump(report_to_dict(report), handle, indent=2, sort_keys=True)
            handle.write("\n")
        else:
            handle.write(format_report_table(report))
    return path.read_bytes()


class TestReportWrite:
    """``write_report`` writes over the old file in place: the same bytes as
    a truncating write, the same inode, and never a half-written report
    that loads."""

    @pytest.fixture(scope="class")
    def reports(self):
        """A report with many classes and buckets, and one with none
        matched: the second's JSON is the shorter."""
        frames = generate_synthetic(SyntheticSpec(seed=8, frames=25,
                                                  depth_bias=0.3,
                                                  miss_rate=0.1, fp_rate=0.1))
        return evaluate(frames, ProtocolConfig()), evaluate([], ProtocolConfig())

    @pytest.mark.parametrize("fmt", ["json", "table"])
    @pytest.mark.parametrize("first, second", [(0, 1), (1, 0), (0, 0)],
                             ids=["shrink", "grow", "same"])
    def test_overwrite_holds_exactly_the_new_bytes(self, tmp_path, reports,
                                                   fmt, first, second):
        path = tmp_path / "r.out"
        write_report(reports[first], path, fmt)
        text = write_report(reports[second], path, fmt)
        expected = written_before(reports[second], fmt, tmp_path / "ref.out")
        assert path.read_bytes() == expected
        assert text.encode("utf-8") == expected

    def test_inode_links_and_symlinks_kept(self, tmp_path, reports):
        path, link, alias = tmp_path / "r.json", tmp_path / "hard", tmp_path / "sym"
        write_report(reports[0], path, "json")
        os.link(path, link)
        alias.symlink_to(path)
        os.chmod(path, 0o640)
        inode = os.stat(path).st_ino
        write_report(reports[1], alias, "json")
        assert os.stat(path).st_ino == inode
        assert os.stat(path).st_mode & 0o777 == 0o640
        assert load_report(link) == reports[1]
        assert load_report(alias) == reports[1]

    def test_fresh_file_mode_follows_the_umask(self, tmp_path, reports):
        previous = os.umask(0o027)
        try:
            write_report(reports[1], tmp_path / "new.json", "json")
            with open(tmp_path / "plain.json", "w"):
                pass
        finally:
            os.umask(previous)
        assert (os.stat(tmp_path / "new.json").st_mode
                == os.stat(tmp_path / "plain.json").st_mode)

    @pytest.mark.parametrize("fmt", ["json", "table"])
    def test_non_regular_target_gets_a_plain_write(self, tmp_path, reports, fmt):
        expected = written_before(reports[0], fmt, tmp_path / "ref.out")
        assert write_report(reports[0], os.devnull, fmt).encode("utf-8") == expected

    def test_short_writes_are_continued(self, tmp_path, reports, monkeypatch):
        real_write = os.write
        monkeypatch.setattr(os, "write", lambda fd, data: real_write(fd, data[:7]))
        path = tmp_path / "r.json"
        write_report(reports[0], path, "json")
        assert load_report(path) == reports[0]
        assert write_report(reports[1], os.devnull, "json")

    @pytest.mark.parametrize("step", ["ftruncate", "pwrite"])
    @pytest.mark.parametrize("first, second", [(0, 1), (1, 0), (0, 0)],
                             ids=["shrink", "grow", "same"])
    def test_interrupted_write_does_not_load(self, tmp_path, reports,
                                             monkeypatch, step, first, second):
        path = tmp_path / "r.json"
        write_report(reports[first], path, "json")

        def interrupted(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(os, step, interrupted)
        with pytest.raises(KeyboardInterrupt):
            write_report(reports[second], path, "json")
        monkeypatch.undo()
        with pytest.raises(ParseError):
            load_report(path)

    def test_failed_format_leaves_the_old_report(self, tmp_path, reports,
                                                 monkeypatch):
        path = tmp_path / "r.json"
        write_report(reports[0], path, "json")
        old = path.read_bytes()

        def unformattable(report):
            raise ValueError("cannot format")

        monkeypatch.setattr(io, "report_to_dict", unformattable)
        with pytest.raises(ValueError):
            write_report(reports[1], path, "json")
        assert path.read_bytes() == old

    def test_empty_text_empties_the_file(self, tmp_path, reports):
        path = tmp_path / "r.json"
        write_report(reports[0], path, "json")
        io._overwrite(path, "")
        assert path.read_bytes() == b""

    @pytest.mark.parametrize("target, error", [
        ("missing/r.json", FileNotFoundError), (".", IsADirectoryError)])
    def test_unopenable_target_raises(self, tmp_path, reports, target, error):
        with pytest.raises(error):
            write_report(reports[1], tmp_path / target, "json")


class TestInputBoundaryFuzz:
    """Whatever the parsed JSON, the decoders raise only UscError, and a
    report that loads can be rendered."""

    @pytest.mark.parametrize("decode, keys", [
        (config_from_dict, CONFIG_KEYS),
        (spec_kwargs_from_dict, SPEC_KEYS),
        (report_from_dict, list(REPORT)),
    ], ids=["config", "spec", "report"])
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_arbitrary_json(self, decode, keys, data):
        obj = data.draw(json_values() | st.dictionaries(
            st.sampled_from(keys), json_values(), max_size=3))
        try:
            decode(obj)
        except UscError:
            pass

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from(list(node_paths(REPORT))), json_values())
    def test_report_with_one_node_replaced(self, path, value):
        try:
            report = report_from_dict(replaced(REPORT, path, value))
        except UscError:
            return
        format_report_table(report)

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(path=st.sampled_from(list(node_paths(FRAME))), value=json_values())
    def test_dataset_line_with_one_node_replaced(self, tmp_path, path, value):
        data = tmp_path / "d.jsonl"
        data.write_text(json.dumps(replaced(FRAME, path, value)) + "\n",
                        encoding="utf-8")
        try:
            load_dataset(data)
        except UscError:
            pass


@st.composite
def spec_kwargs(draw):
    """SyntheticSpec fields from the whole range it accepts, with 1 or 2
    frames of 1 to 3 objects."""
    objects_min = draw(st.integers(1, 3))
    range_min = draw(st.floats(0.0, sys.float_info.max, exclude_min=True,
                               exclude_max=True))
    return dict(
        seed=draw(st.integers()), frames=draw(st.integers(1, 2)),
        objects_min=objects_min, objects_max=draw(st.integers(objects_min, 3)),
        classes=draw(st.lists(st.text(min_size=1, max_size=3), min_size=1,
                              max_size=3)),
        depth_bias=draw(finite(-MAX_PERTURBATION, MAX_PERTURBATION)),
        lateral_noise=draw(finite(0.0, MAX_PERTURBATION)),
        size_noise=draw(finite(0.0, MAX_PERTURBATION)),
        yaw_noise=draw(finite(0.0, MAX_PERTURBATION)),
        miss_rate=draw(finite(0.0, 1.0)), fp_rate=draw(finite(0.0, 1.0)),
        range_min=range_min,
        range_max=draw(st.floats(range_min, sys.float_info.max,
                                 exclude_min=True)),
        max_azimuth=draw(finite(0.0, math.pi)))


class TestSyntheticGenerator:
    def test_zero_noise_predictions_equal_ground_truths(self):
        frames = generate_synthetic(SyntheticSpec(seed=1, frames=10))
        assert frames
        for frame in frames:
            assert len(frame.predictions) == len(frame.ground_truths)
            for pred, gt in zip(frame.predictions, frame.ground_truths):
                assert pred.box == gt.box
                assert pred.class_name == gt.class_name

    def test_zero_noise_evaluates_to_ones(self):
        frames = generate_synthetic(SyntheticSpec(seed=1, frames=10))
        report = evaluate(frames, ProtocolConfig())
        assert report.overall.usc_nds == 1.0

    def test_same_seed_is_byte_identical(self, tmp_path):
        spec = SyntheticSpec(seed=42, frames=20, depth_bias=0.1,
                             lateral_noise=0.05, miss_rate=0.1, fp_rate=0.1)
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_dataset(generate_synthetic(spec), a)
        save_dataset(generate_synthetic(spec), b)
        assert a.read_bytes() == b.read_bytes()

    def test_different_seeds_differ(self):
        a = generate_synthetic(SyntheticSpec(seed=1, frames=10))
        b = generate_synthetic(SyntheticSpec(seed=2, frames=10))
        assert a != b

    def test_zero_frames(self):
        assert generate_synthetic(SyntheticSpec(seed=1, frames=0)) == []

    def test_ground_truths_frontal_and_in_range(self):
        frames = generate_synthetic(SyntheticSpec(seed=13, frames=50,
                                                  objects_min=2, objects_max=5))
        from usc import project_bev
        for frame in frames:
            for gt in frame.ground_truths:
                r = math.hypot(gt.box.center_x, gt.box.center_z)
                assert 0.0 < r < 20.0
                assert min(v.z for v in project_bev(gt.box).vertices) > 0.0

    def test_miss_rate_drops_predictions(self):
        frames = generate_synthetic(SyntheticSpec(seed=7, frames=60,
                                                  miss_rate=0.5))
        n_gt = sum(len(f.ground_truths) for f in frames)
        n_pred = sum(len(f.predictions) for f in frames)
        assert 0.3 * n_gt < n_pred < 0.7 * n_gt

    def test_fp_rate_adds_spurious_detections(self):
        frames = generate_synthetic(SyntheticSpec(seed=7, frames=60, fp_rate=0.5))
        n_gt = sum(len(f.ground_truths) for f in frames)
        n_pred = sum(len(f.predictions) for f in frames)
        assert n_pred > n_gt

    @pytest.mark.parametrize("field, value", [
        ("max_azimuth", 1e308), ("max_azimuth", -5.0), ("max_azimuth", 3.2),
        ("yaw_noise", 1e308), ("lateral_noise", 1e308), ("size_noise", 1e308),
        ("lateral_noise", MAX_PERTURBATION * 1.5), ("depth_bias", 1e308),
        ("depth_bias", -1e308), ("classes", ("car", "")),
        ("range_max", math.inf),
    ])
    def test_spec_the_generator_cannot_run_names_its_field(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            SyntheticSpec(**{field: value})

    @settings(max_examples=200, deadline=None)
    @given(kwargs=spec_kwargs(),
           free=st.sampled_from(["depth_bias", "lateral_noise", "size_noise",
                                 "yaw_noise", "range_min", "range_max",
                                 "max_azimuth"]),
           value=st.none() | st.floats()
           | st.sampled_from([-sys.float_info.max, sys.float_info.max,
                              -math.inf, math.inf, math.nan]))
    @example(kwargs={"frames": 1}, free="range_max", value=math.inf)
    def test_every_accepted_spec_generates(self, kwargs, free, value):
        """Fields are drawn over the whole accepted range, extremes included,
        except that one of them may take any float, infinities and NaN
        included; a draw that SyntheticSpec rejects is skipped."""
        if value is not None:
            kwargs[free] = value
        try:
            spec = SyntheticSpec(**kwargs)
        except ValueError:
            return
        generate_synthetic(spec)

    def test_invalid_rates_rejected(self):
        with pytest.raises(ValueError):
            SyntheticSpec(miss_rate=1.5)
        with pytest.raises(ValueError):
            SyntheticSpec(fp_rate=-0.1)
        with pytest.raises(ValueError):
            SyntheticSpec(frames=-1)
        with pytest.raises(ValueError):
            SyntheticSpec(objects_min=5, objects_max=2)
        with pytest.raises(ValueError, match="^at least one class is required$"):
            SyntheticSpec(classes=())
