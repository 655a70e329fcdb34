import contextlib
import gc
import importlib
import io
import json
import math
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from usc import (Annotation, Box3D, Detection, FrameRecord, LossConfig,
                 MatchedPair, ProtocolConfig, SyntheticSpec, evaluate,
                 generate_synthetic,
                 iogt_loss, load_config, load_dataset, load_report,
                 matched_pairs, safety_loss, save_dataset, smooth_l1,
                 write_report)
from usc.cli import main

from strategies import (CONFIG_KEYS, FRAME, REPORT, SPEC_KEYS, json_values,
                        node_paths, replaced, thin_pairs)

#: the checkout's root, where ``pyproject.toml`` and ``src`` are
ROOT = pathlib.Path(__file__).resolve().parents[1]


def make_dataset(path, seed=11, frames=25, **spec_kwargs):
    dataset = generate_synthetic(SyntheticSpec(seed=seed, frames=frames,
                                               **spec_kwargs))
    save_dataset(dataset, path)
    return dataset


def assert_one_error_line(captured):
    """Nothing on stdout, and the last stderr line is its one ``error:``
    line."""
    lines = captured.err.splitlines()
    assert captured.out == ""
    assert [line for line in lines if line.startswith("error: ")] == lines[-1:]


CAR = {"class": "car", "center": [0.0, 0.0, 8.0], "size": [4.0, 1.5, 1.8],
       "yaw": 0.0}


def write_frames(path, frames):
    """A dataset of one car ground truth and one car prediction per frame,
    each frame given as (ground-truth fields, prediction fields) added to
    ``CAR``."""
    path.write_text("".join(json.dumps({
        "frame_id": f"f{i}", "ground_truths": [{**CAR, **gt}],
        "predictions": [{**CAR, "score": 0.9, **pred}]}) + "\n"
        for i, (gt, pred) in enumerate(frames)))


class TestEval:
    def test_perfect_dataset(self, tmp_path, capsys):
        data = tmp_path / "d.jsonl"
        out = tmp_path / "r.json"
        make_dataset(data)
        code = main(["eval", "--data", str(data), "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 0
        assert "1.000" in captured.out
        report = load_report(out)
        assert report.overall.usc_nds == 1.0

    def test_table_output_format(self, tmp_path, capsys):
        data = tmp_path / "d.jsonl"
        out = tmp_path / "r.txt"
        make_dataset(data)
        out.write_text("x" * 100_000)
        code = main(["eval", "--data", str(data), "--out", str(out),
                     "--format", "table"])
        assert code == 0
        assert "mAUSC" in out.read_text()
        assert capsys.readouterr().out == out.read_text()

    @pytest.mark.parametrize("fmt", ["json", "table"])
    @pytest.mark.parametrize("target", ["missing/r.json", "."])
    def test_unwritable_out_prints_nothing(self, tmp_path, capsys, fmt, target):
        data = tmp_path / "d.jsonl"
        make_dataset(data)
        code = main(["eval", "--data", str(data), "--out",
                     str(tmp_path / target), "--format", fmt])
        assert code == 2
        assert_one_error_line(capsys.readouterr())

    def test_malformed_line_cited(self, tmp_path, capsys):
        data = tmp_path / "d.jsonl"
        make_dataset(data)
        lines = data.read_text().splitlines()
        lines.insert(16, "{broken")
        data.write_text("\n".join(lines) + "\n")
        code = main(["eval", "--data", str(data)])
        captured = capsys.readouterr()
        assert code == 1
        assert "line 17" in captured.err

    def test_invalid_utf8_line_cited(self, tmp_path, capsys):
        data = tmp_path / "d.jsonl"
        make_dataset(data, frames=60)
        lines = data.read_bytes().splitlines(keepends=True)
        lines[49] = lines[49].replace(b'"frame-', b'"\xffframe-', 1)
        data.write_bytes(b"".join(lines))
        code = main(["eval", "--data", str(data)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.splitlines()[-1] == "error: line 50: invalid UTF-8"

    def test_missing_config_warns_and_defaults(self, tmp_path, capsys):
        data = tmp_path / "d.jsonl"
        make_dataset(data)
        code = main(["eval", "--data", str(data),
                     "--config", str(tmp_path / "nope.json")])
        captured = capsys.readouterr()
        assert code == 0
        assert "defaults" in captured.err

    def test_missing_data_is_io_error(self, tmp_path, capsys):
        code = main(["eval", "--data", str(tmp_path / "nope.jsonl")])
        assert code == 2

    def test_split_gt_pred_inputs(self, tmp_path, capsys):
        combined = make_dataset(tmp_path / "c.jsonl")
        gt_path, pred_path = tmp_path / "gt.jsonl", tmp_path / "pred.jsonl"
        from usc import FrameRecord
        save_dataset([FrameRecord(f.frame_id, f.ground_truths, [])
                      for f in combined], gt_path)
        save_dataset([FrameRecord(f.frame_id, [], f.predictions)
                      for f in combined], pred_path)
        code = main(["eval", "--gt", str(gt_path), "--pred", str(pred_path)])
        captured = capsys.readouterr()
        assert code == 0
        assert "1.000" in captured.out

    def test_data_and_gt_are_exclusive(self, tmp_path, capsys):
        code = main(["eval", "--data", "x", "--gt", "y", "--pred", "z"])
        assert code == 1

    def test_non_list_range_buckets_is_schema_error(self, tmp_path, capsys):
        data = tmp_path / "d.jsonl"
        make_dataset(data, frames=3)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"range_buckets": 5}))
        code = main(["eval", "--data", str(data), "--config", str(config)])
        assert code == 1
        assert "range_buckets" in capsys.readouterr().err

    def test_huge_integer_in_config_is_schema_error(self, tmp_path, capsys):
        data = tmp_path / "d.jsonl"
        make_dataset(data, frames=3)
        config = tmp_path / "config.json"
        config.write_text('{"smooth_l1_beta": 1' + "0" * 400 + "}")
        code = main(["eval", "--data", str(data), "--config", str(config)])
        assert code == 1
        assert "smooth_l1_beta" in capsys.readouterr().err

    def test_focal_key_is_unknown(self, tmp_path, capsys):
        # PV rectangles live on the normalized image plane; a focal length
        # would change no measure, so the config takes none
        data = tmp_path / "d.jsonl"
        make_dataset(data, frames=3)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"focal": 1266.4}))
        code = main(["eval", "--data", str(data), "--config", str(config)])
        assert code == 1
        assert capsys.readouterr().err == "error: unknown keys ['focal']\n"

    def test_ap_thresholds_with_one_label_is_schema_error(self, tmp_path, capsys):
        data = tmp_path / "d.jsonl"
        make_dataset(data, frames=3)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"ap_distance_thresholds": [1.0, 1.0000001]}))
        code = main(["eval", "--data", str(data), "--config", str(config),
                     "--format", "table"])
        assert code == 1
        assert capsys.readouterr().err == \
            "error: AP distance thresholds must have distinct labels\n"

    def test_repeated_tp_measure_is_schema_error(self, tmp_path, capsys):
        # equal once upper-cased; a report listing ATE twice would not load
        data = tmp_path / "d.jsonl"
        make_dataset(data, frames=3)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"tp_measures": ["ATE", "ate"]}))
        code = main(["eval", "--data", str(data), "--config", str(config)])
        assert code == 1
        assert capsys.readouterr().err == "error: TP measures must be distinct\n"

    def test_deeply_nested_config_is_parse_error(self, tmp_path, capsys):
        data = tmp_path / "d.jsonl"
        make_dataset(data, frames=3)
        config = tmp_path / "config.json"
        config.write_text("[" * 100_000)
        code = main(["eval", "--data", str(data), "--config", str(config)])
        assert code == 1
        assert "nested" in capsys.readouterr().err

    @pytest.mark.parametrize("frames", [
        # one pair whose velocity error is infinite
        [({"velocity": [1e308, 0]}, {"velocity": [-1e308, 0]})],
        # two finite velocity errors whose sum overflows
        [({"velocity": [0, 0]}, {"velocity": [1e308, 0]})] * 2,
    ], ids=["infinite", "overflowing-sum"])
    def test_mean_velocity_error_beyond_float_range(self, tmp_path, capsys,
                                                    frames):
        data, config = tmp_path / "d.jsonl", tmp_path / "c.json"
        out = tmp_path / "r.json"
        write_frames(data, frames)
        config.write_text(json.dumps({"tp_measures": ["ATE", "AVE"]}))
        code = main(["eval", "--data", str(data), "--config", str(config),
                     "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 1
        assert_one_error_line(captured)
        assert captured.err == "error: the AVE mean is not a finite number\n"
        assert not out.exists()

    def test_line_break_in_an_error_is_escaped(self, tmp_path, capsys):
        frame = json.dumps({"frame_id": "a\nerror: b\u2028c"})
        data = tmp_path / "d.jsonl"
        data.write_text(f"{frame}\n{frame}\n")
        assert main(["eval", "--data", str(data)]) == 1
        captured = capsys.readouterr()
        assert_one_error_line(captured)
        assert captured.err.splitlines()[-1] == (
            "error: line 2.frame_id: duplicate frame_id 'a\\nerror: b\\u2028c'")

    def test_deeply_nested_data_line_is_parse_error(self, tmp_path, capsys):
        data = tmp_path / "d.jsonl"
        make_dataset(data, frames=3)
        with open(data, "a", encoding="utf-8") as handle:
            handle.write("[" * 100_000 + "\n")
        code = main(["eval", "--data", str(data)])
        assert code == 1
        assert "line 4" in capsys.readouterr().err

    def test_pair_whose_projection_is_not_finite_names_its_frame(self, tmp_path,
                                                                 capsys):
        # every corner is finite, but u = x / z overflows at z = 0.005; a
        # valid pair of the same class and bucket comes first in the slice
        huge = {"center": [0.0, 0.0, 1.0], "size": [1.7e308, 1.5, 1.99]}
        data = tmp_path / "d.jsonl"
        write_frames(data, [({"center": [0.0, 0.0, 5.0]}, {"center": [0.1, 0.0, 5.0]}),
                            (huge, huge)])
        assert main(["eval", "--data", str(data)]) == 1
        captured = capsys.readouterr()
        assert_one_error_line(captured)
        assert captured.err.splitlines()[-1].startswith(
            "error: class 'car' in frame 'f1': rectangle bounds must be finite, got ")
        assert main(["loss", "--data", str(data)]) == 0


class TestLoss:
    def test_perfect_dataset_zero_means(self, tmp_path, capsys):
        data = tmp_path / "d.jsonl"
        make_dataset(data)
        code = main(["loss", "--data", str(data)])
        captured = capsys.readouterr()
        assert code == 0
        assert "lambda=0.8" in captured.out
        for line in captured.out.splitlines()[2:]:
            for column in line.split()[1:]:
                assert float(column) == 0.0

    def test_lambda_from_config(self, tmp_path, capsys):
        data = tmp_path / "d.jsonl"
        config = tmp_path / "c.json"
        make_dataset(data)
        config.write_text(json.dumps({"lambda": 0.5}))
        code = main(["loss", "--data", str(data), "--config", str(config)])
        captured = capsys.readouterr()
        assert code == 0
        assert "lambda=0.5" in captured.out

    def test_no_matches_is_validation_error(self, tmp_path, capsys):
        data = tmp_path / "d.jsonl"
        make_dataset(data, miss_rate=1.0)
        code = main(["loss", "--data", str(data)])
        captured = capsys.readouterr()
        assert code == 1
        assert "no matched pairs" in captured.err

    def test_failing_pair_prints_no_partial_table(self, tmp_path, capsys):
        # the last frame's ground truth has no volume: its height vanishes
        # against center_y
        data = tmp_path / "d.jsonl"
        make_dataset(data)
        lines = data.read_text().splitlines()
        frame = json.loads(lines[-1])
        frame["ground_truths"][-1]["center"][1] = 1e17
        lines[-1] = json.dumps(frame)
        data.write_text("\n".join(lines) + "\n")
        code = main(["loss", "--data", str(data)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        line = captured.err.splitlines()[-1]
        gt = frame["ground_truths"][-1]
        x, _, z = map(float, gt["center"])
        assert line.startswith(
            f"error: class 'car' in frame {frame['frame_id']!r}: ground-truth "
            f"volume is 0.0 at ({x!r}, 1e+17, {z!r}) (footprint area ")
        assert line.endswith(
            f", vertical extent 0.0 from height {float(gt['size'][1])!r})")

    @staticmethod
    def assert_zero_volume_error(data, capsys, gt, detail):
        """``usc loss`` ends with the zero-volume error of a car pair whose
        prediction is its ground truth, given as fields added to a box, and
        ``usc eval`` scores it."""
        box = {"center": [0.0, 0.0, 10.0], "size": [4.0, 1.5, 1.8], "yaw": 0.0, **gt}
        data.write_text(json.dumps({
            "frame_id": "f0", "ground_truths": [{"class": "car", **box}],
            "predictions": [{"class": "car", **box, "score": 0.9}]}) + "\n")
        code = main(["loss", "--data", str(data)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.count("\n") == 2  # the config warning, then the error
        assert captured.err.splitlines()[-1] == (
            f"error: class 'car' in frame 'f0': ground-truth volume is 0.0 {detail}")
        assert main(["eval", "--data", str(data)]) == 0

    def test_zero_volume_ground_truth_is_validation_error(self, tmp_path, capsys):
        # the height vanishes against center_y: (1e17 + 0.75) - (1e17 - 0.75)
        self.assert_zero_volume_error(
            tmp_path / "d.jsonl", capsys, {"center": [0.0, 1e17, 10.0]},
            "at (0.0, 1e+17, 10.0) (footprint area 7.200000000000003, vertical "
            "extent 0.0 from height 1.5)")

    def test_zero_area_ground_truth_is_validation_error(self, tmp_path, capsys):
        # the footprint area rounds to 0, not the height: 5 +- 5e-18 == 5.0
        self.assert_zero_volume_error(
            tmp_path / "d.jsonl", capsys,
            {"center": [5.0, 0.0, 8.0], "size": [1e-17, 1.5, 1.8]},
            "at (5.0, 0.0, 8.0) (footprint area 0.0, vertical extent 1.5 from "
            "height 1.5)")

    def test_first_failing_class_in_sorted_order_reports(self, tmp_path, capsys):
        # the truck frame comes first in the file, but classes are walked in
        # sorted order, so the car's error is the one printed
        truck = {"class": "truck", "center": [0.0, 1e17, 10.0],
                 "size": [7.0, 3.0, 2.5], "yaw": 0.0}
        car = {"class": "car", "center": [2.0, 0.0, 12.0],
               "size": [1e-17, 1, 1], "yaw": 0.0}
        data = tmp_path / "d.jsonl"
        data.write_text("".join(json.dumps({
            "frame_id": f"f{i}", "ground_truths": [box],
            "predictions": [{**box, "score": 0.9}]}) + "\n"
            for i, box in enumerate((truck, car))))
        code = main(["loss", "--data", str(data)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == (
            "error: class 'car' in frame 'f1': ground-truth volume is 0.0 at "
            "(2.0, 0.0, 12.0) "
            "(footprint area 0.0, vertical extent 1.0 from height 1.0)")

    def test_loss_mean_beyond_float_range(self, tmp_path, capsys):
        data = tmp_path / "d.jsonl"
        write_frames(data, [({}, {"size": [1e308, 1e308, 1e308]})])
        code = main(["loss", "--data", str(data)])
        captured = capsys.readouterr()
        assert code == 1
        assert_one_error_line(captured)
        assert captured.err.splitlines()[-1] == (
            "error: the loss means of class 'car' are not all finite numbers")

    def test_loss_sum_beyond_float_range(self, tmp_path, capsys):
        # two finite smooth_l1 values of 1e308 (center_y residuals the BEV
        # match ignores) whose exact sum overflows
        data = tmp_path / "d.jsonl"
        write_frames(data, [({}, {"center": [0.0, 1e308, 8.0]})] * 2)
        code = main(["loss", "--data", str(data)])
        captured = capsys.readouterr()
        assert code == 1
        assert_one_error_line(captured)
        assert captured.err.splitlines()[-1] == (
            "error: the loss means of class 'car' are not all finite numbers")

    def test_means_do_not_depend_on_frame_order(self, tmp_path, capsys):
        # smooth_l1 of 1e16 (a center_y residual the BEV match ignores) and
        # three of 0.75: summed in walk order, 1e16 absorbs each 0.75 when
        # it comes first; the exact sum 1e16 + 2.25 rounds to 1e16 + 2
        def frame(frame_id, pairs):
            return json.dumps({
                "frame_id": frame_id,
                "ground_truths": [{**CAR, "center": g} for g, _ in pairs],
                "predictions": [{**CAR, "center": p, "score": 0.9}
                                for _, p in pairs]}) + "\n"

        a = frame("a", [([0.0, 0.0, 8.0], [0.0, 1e16, 8.0])])
        b = frame("b", [([x, 0.0, 8.0], [x, 1.25, 8.0]) for x in (-5.0, 0.0, 5.0)])
        outputs = []
        for name, text in (("ab", a + b), ("ba", b + a)):
            data = tmp_path / f"{name}.jsonl"
            data.write_text(text)
            assert main(["loss", "--data", str(data)]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert outputs[0].splitlines()[2].split()[:2] == [
            "car", "2500000000000000.500000"]

    def test_thin_prediction_above_its_ground_truth_is_not_projected(
            self, tmp_path, capsys):
        gt = {"class": "car", "center": [0.0, 0.0, 10.0],
              "size": [4.0, 1.5, 1.8], "yaw": 0.0}
        pred = {"class": "car", "center": [0.0, 5.0, 10.0],
                "size": [1e-10, 1, 1], "yaw": 0.0, "score": 0.9}
        data = tmp_path / "d.jsonl"
        data.write_text(json.dumps({"frame_id": "f0", "ground_truths": [gt],
                                    "predictions": [pred]}) + "\n")
        code = main(["loss", "--data", str(data)])
        captured = capsys.readouterr()
        assert code == 0
        name, _, enclosure, _ = captured.out.splitlines()[2].split()
        assert (name, enclosure) == ("car", "1.000000")

    @pytest.mark.parametrize("config", [None, {
        "lambda": 0.3, "smooth_l1_beta": 0.5, "yaw_wrapping": False}])
    def test_rows_equal_the_scalar_loss_functions(self, tmp_path, capsys, config):
        data = tmp_path / "d.jsonl"
        make_dataset(data, seed=4, frames=40, depth_bias=0.2, lateral_noise=0.3,
                     size_noise=0.1, yaw_noise=0.3, miss_rate=0.1, fp_rate=0.2)
        argv = ["loss", "--data", str(data)]
        protocol, loss_config = ProtocolConfig(), LossConfig()
        if config is not None:
            path = tmp_path / "c.json"
            path.write_text(json.dumps(config))
            argv += ["--config", str(path)]
            protocol, loss_config = load_config(path)
        pairs, _, _ = matched_pairs(load_dataset(data), protocol)
        assert {b for _, b in pairs} == {0, 1}
        by_class = {}
        for (class_name, _), class_pairs in pairs.items():
            by_class.setdefault(class_name, []).extend(class_pairs)
        assert len(by_class) >= 2
        rows = []
        for class_name in sorted(by_class):
            l1 = enclosure = blended = 0.0
            for pair in by_class[class_name]:
                p, g = pair.detection.box, pair.annotation.box
                l1 += smooth_l1(p, g, loss_config.smooth_l1_beta,
                                loss_config.yaw_wrapping)
                enclosure += iogt_loss(p, g)
                blended += safety_loss(p, g, loss_config)
            n = len(by_class[class_name])
            rows.append(f"{class_name:<16}{l1 / n:>12.6f}{enclosure / n:>12.6f}"
                        f"{blended / n:>13.6f}")
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == (f"lambda={loss_config.blend_lambda:g} "
                            f"beta={loss_config.smooth_l1_beta:g}")
        assert lines[2:] == rows


class TestNoObjectsOnTheCommandPath:
    """``usc eval`` and ``usc loss`` read a dataset into columns and score
    them as arrays: they never build a FrameRecord, an Annotation, a
    Detection or a MatchedPair."""

    @pytest.mark.parametrize("argv", [
        ["eval", "--data", "{data}", "--out", "{out}"],
        ["eval", "--format", "table", "--data", "{data}", "--out", "{out}"],
        ["eval", "--gt", "{gt}", "--pred", "{pred}", "--out", "{out}"],
        ["loss", "--data", "{data}", "--config", "{config}"],
        ["loss", "--gt", "{gt}", "--pred", "{pred}"],
    ], ids=["eval", "eval-table", "eval-gt-pred", "loss", "loss-gt-pred"])
    def test_no_record_is_built(self, tmp_path, capsys, monkeypatch, argv):
        paths = {name: tmp_path / name for name in ("data", "out", "gt", "pred", "config")}
        frames = make_dataset(paths["data"], seed=3, frames=60, lateral_noise=0.3,
                              miss_rate=0.1, fp_rate=0.3, classes=("car", "truck", "bus"))
        save_dataset([FrameRecord(f.frame_id, f.ground_truths, []) for f in frames[5:]],
                     paths["gt"])
        save_dataset([FrameRecord(f.frame_id, [], f.predictions) for f in frames],
                     paths["pred"])
        paths["config"].write_text('{"lambda": 0.6}')
        argv = [arg.format(**paths) for arg in argv]
        assert main(argv) == 0
        expected = capsys.readouterr().out

        def refuse(*args, **kwargs):
            raise AssertionError("a record was built")

        for value_type in (Annotation, Detection, MatchedPair):
            monkeypatch.setattr(value_type, "__new__", refuse)
        monkeypatch.setattr(FrameRecord, "__init__", refuse)
        with pytest.raises(AssertionError, match="^a record was built$"):
            Annotation("car", Box3D(0, 0, 9, 1, 1, 1, 0))
        assert main(argv) == 0
        assert capsys.readouterr().out == expected


class TestThinBoxes:
    """A box side far below EPS_GEOM, which ``load_dataset`` accepts, is
    scored like any other: neither command ends on it."""

    @pytest.mark.parametrize("frames", [
        [({"center": [5.0, 0.0, 8.0]},
          {"center": [5.0, 0.0, 8.0], "size": [4.0, 1.5, 1e-13]})],
        [({"center": [5.0, 0.0, 8.0], "size": [4.0, 1.5, 1e-13]},
          {"center": [5.0, 0.0, 8.0]})],
    ], ids=["prediction", "ground-truth"])
    def test_sliver_pair_scores(self, tmp_path, capsys, frames):
        data, out = tmp_path / "d.jsonl", tmp_path / "r.json"
        write_frames(data, frames)
        assert main(["eval", "--data", str(data), "--out", str(out)]) == 0
        overall = load_report(out).overall
        assert (overall.tp, overall.usc_excluded) == (1, 0)
        assert 0.0 < overall.mausc < 1.0
        capsys.readouterr()
        assert main(["loss", "--data", str(data)]) == 0
        rows = capsys.readouterr().out.splitlines()[2:]
        assert [row.split()[0] for row in rows] == ["car"]
        assert all(math.isfinite(float(v)) for v in rows[0].split()[1:])

    @settings(max_examples=40, deadline=None)
    @given(st.lists(thin_pairs(), min_size=1, max_size=8), st.integers(1, 3))
    def test_eval_exits_0(self, pairs, frame_count):
        # every coordinate lies within 25 m of the vehicle, so every
        # projection is finite
        frames = []
        for i in range(frame_count):
            mine = pairs[i::frame_count]
            frames.append(FrameRecord(f"f{i}", [Annotation("car", g) for _, g in mine],
                                      [Detection("car", p, 0.5) for p, _ in mine]))
        with tempfile.TemporaryDirectory() as tmp:
            data = pathlib.Path(tmp) / "d.jsonl"
            save_dataset(frames, data)
            assert load_dataset(data) == frames
            err = io.StringIO()
            with contextlib.redirect_stderr(err), \
                    contextlib.redirect_stdout(io.StringIO()):
                code = main(["eval", "--data", str(data)])
        assert code == 0, err.getvalue()


class TestSynth:
    def test_same_seed_identical_files(self, tmp_path, capsys):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for path in (a, b):
            code = main(["synth", "--seed", "42", "--frames", "12",
                         "--depth-bias", "0.2", "--out", str(path)])
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_zero_frames(self, tmp_path, capsys):
        out = tmp_path / "empty.jsonl"
        code = main(["synth", "--seed", "1", "--frames", "0", "--out", str(out)])
        assert code == 0
        assert out.read_text() == ""

    def test_invalid_rate(self, tmp_path, capsys):
        code = main(["synth", "--seed", "1", "--frames", "5",
                     "--miss-rate", "1.5", "--out", str(tmp_path / "x.jsonl")])
        assert code == 1

    def test_spec_file_with_flag_override(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"seed": 7, "frames": 3,
                                         "depth_bias": 0.4}))
        out = tmp_path / "d.jsonl"
        code = main(["synth", "--spec", str(spec_path), "--frames", "5",
                     "--out", str(out)])
        assert code == 0
        assert len(out.read_text().splitlines()) == 5

    def test_classes_flag_is_split_on_commas(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"classes": ["truck"]}))
        out = tmp_path / "d.jsonl"
        code = main(["synth", "--spec", str(spec_path), "--seed", "3",
                     "--frames", "20", "--classes", "car,bus", "--out", str(out)])
        assert code == 0
        names = {obj.class_name for frame in load_dataset(out)
                 for obj in frame.ground_truths + frame.predictions}
        assert names == {"car", "bus"}

    @pytest.mark.parametrize("document, named", [
        ({"nope": 1}, "nope"),
        ([1, 2], "JSON object"),
        ({"frames": "5"}, "frames"),
        ({"seed": 1.5}, "seed"),
        ({"depth_bias": None}, "depth_bias"),
        ({"classes": "car"}, "classes"),
        ({"classes": ["car", ""]}, "classes[1]"),
    ])
    def test_malformed_spec_is_schema_error(self, tmp_path, capsys,
                                            document, named):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(document))
        code = main(["synth", "--spec", str(spec_path),
                     "--out", str(tmp_path / "d.jsonl")])
        assert code == 1
        assert named in capsys.readouterr().err
        assert not (tmp_path / "d.jsonl").exists()

    @pytest.mark.parametrize("flags, document, named", [
        (["--classes", "car,,bus"], {"classes": ["car", "", "bus"]}, "classes[1]"),
        (["--depth-bias", "nan"], {"depth_bias": math.nan}, "depth_bias"),
        (["--lateral-noise", "inf"], {"lateral_noise": math.inf}, "lateral_noise"),
    ])
    def test_flag_gives_the_error_of_its_spec_key(self, tmp_path, capsys,
                                                  flags, document, named):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(document))
        errors = []
        for source in (flags, ["--spec", str(spec_path)]):
            code = main(["synth", "--frames", "0", *source,
                         "--out", str(tmp_path / "d.jsonl")])
            assert code == 1
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        assert errors[0].startswith(f"error: {named}: ")
        assert not (tmp_path / "d.jsonl").exists()

    @pytest.mark.parametrize("document, named", [
        ({"max_azimuth": 1e308, "frames": 3}, "max_azimuth"),
        ({"max_azimuth": -5}, "max_azimuth"),
        ({"yaw_noise": 1e308, "frames": 3}, "yaw_noise"),
    ])
    def test_spec_the_generator_cannot_run_names_its_field(
            self, tmp_path, capsys, document, named):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(document))
        code = main(["synth", "--spec", str(spec_path),
                     "--out", str(tmp_path / "d.jsonl")])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {named} must be")
        assert not (tmp_path / "d.jsonl").exists()

    def test_deeply_nested_spec_is_parse_error(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text("[" * 100_000)
        code = main(["synth", "--spec", str(spec_path),
                     "--out", str(tmp_path / "d.jsonl")])
        assert code == 1
        assert "nested" in capsys.readouterr().err
        assert not (tmp_path / "d.jsonl").exists()


def with_invalid_byte(document, token):
    """``document`` as indented JSON with a 0xff byte inside the string
    ``token``, and the 1-based line of that byte."""
    text = json.dumps(document, indent=1).encode()
    at = text.index(json.dumps(token).encode()) + 1
    return text[:at] + b"\xff" + text[at:], text.count(b"\n", 0, at) + 1


@pytest.mark.parametrize("flag, document, token", [
    ("--config", {"tp_measures": ["ATE", "ASE"]}, "ASE"),
    ("--spec", {"frames": 1, "classes": ["car", "bus"]}, "bus"),
    ("--outcomes", {"a.json": 0.25, "r.json": 0.5}, "r.json"),
    ("--reports", REPORT, "car"),
])
def test_invalid_utf8_in_json_document_cites_line(tmp_path, capsys, flag,
                                                  document, token):
    data = tmp_path / "d.jsonl"
    make_dataset(data, frames=3)
    report = tmp_path / "r.json"
    report.write_text(json.dumps(REPORT))
    outcomes = tmp_path / "o.json"
    outcomes.write_text(json.dumps({"r.json": 0.5, "bad.json": 0.25}))
    argv = {"--config": ["eval", "--data", str(data)],
            "--spec": ["synth", "--out", str(tmp_path / "out.jsonl")],
            "--outcomes": ["corr", "--reports", str(report), str(report)],
            "--reports": ["corr", "--outcomes", str(outcomes)]}[flag]
    content, line = with_invalid_byte(document, token)
    assert line > 1
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    code = main(argv + [flag, str(bad)])
    assert code == 1
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"error: line {line}: invalid UTF-8")


def build_detector_family(tmp_path, biases, miss_rates):
    paths = []
    for index, (bias, miss) in enumerate(zip(biases, miss_rates)):
        frames = generate_synthetic(SyntheticSpec(
            seed=1000, frames=40, depth_bias=bias, miss_rate=miss))
        report = evaluate(frames, ProtocolConfig())
        path = tmp_path / f"report-{index}.json"
        write_report(report, path, "json")
        paths.append(path)
    return paths


class TestCorr:
    def test_outcomes_linear_in_mausc(self, tmp_path, capsys):
        paths = build_detector_family(
            tmp_path, biases=(0.1, 0.3, 0.5, 0.7, 0.85),
            miss_rates=(0.0, 0.05, 0.1, 0.15, 0.2))
        outcomes = {}
        for path in paths:
            report = load_report(path)
            outcomes[path.name] = 2.0 * report.overall.mausc - 0.5
        outcomes_path = tmp_path / "outcomes.json"
        outcomes_path.write_text(json.dumps(outcomes))
        code = main(["corr", "--reports", *[str(p) for p in paths],
                     "--outcomes", str(outcomes_path)])
        captured = capsys.readouterr()
        assert code == 0
        lines = {line.split()[0]: line.split()[1]
                 for line in captured.out.splitlines()[1:]}
        assert abs(float(lines["mAUSC"]) - 1.0) <= 1e-6
        for metric in ("mAP", "NDS", "USC-NDS"):
            value = float(lines[metric])
            assert 0.0 <= value <= 1.0

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_outcome_scale_leaves_r_unchanged(self, tmp_path, capsys, scale):
        paths = build_detector_family(
            tmp_path, biases=(0.15, 0.45, 0.75), miss_rates=(0.02, 0.0, 0.01))
        printed = []
        for factor in (1.0, scale):
            outcomes = tmp_path / "o.json"
            outcomes.write_text(json.dumps(
                {p.name: (index + 1) * factor for index, p in enumerate(paths)}))
            code = main(["corr", "--reports", *[str(p) for p in paths],
                         "--outcomes", str(outcomes)])
            assert code == 0
            printed.append(capsys.readouterr().out)
        assert printed[0] == printed[1]
        assert "undefined" not in printed[0]

    def test_identical_reports_zero_variance(self, tmp_path, capsys):
        frames = generate_synthetic(SyntheticSpec(seed=2, frames=20))
        report = evaluate(frames, ProtocolConfig())
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_report(report, a, "json")
        write_report(report, b, "json")
        outcomes = tmp_path / "o.json"
        outcomes.write_text(json.dumps({"a.json": 0.1, "b.json": 0.5}))
        code = main(["corr", "--reports", str(a), str(b),
                     "--outcomes", str(outcomes)])
        captured = capsys.readouterr()
        assert code == 1
        assert "variance" in captured.err

    def write_two_reports(self, tmp_path, edit_b):
        """a.json and b.json from one synthetic report, b's ``overall``
        changed by ``edit_b``, and outcomes 0.1 and 0.5 for them."""
        report = evaluate(generate_synthetic(SyntheticSpec(seed=2, frames=20)),
                          ProtocolConfig())
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_report(report, a, "json")
        document = json.loads(a.read_text())
        edit_b(document["overall"])
        b.write_text(json.dumps(document))
        outcomes = tmp_path / "o.json"
        outcomes.write_text(json.dumps({"a.json": 0.1, "b.json": 0.5}))
        return a, b, outcomes

    def test_undefined_overall_metric(self, tmp_path, capsys):
        a, b, outcomes = self.write_two_reports(
            tmp_path, lambda overall: overall.update(mausc=None))
        code = main(["corr", "--reports", str(a), str(b),
                     "--outcomes", str(outcomes)])
        captured = capsys.readouterr()
        assert code == 1
        assert_one_error_line(captured)
        assert captured.err.splitlines()[-1] == (
            f"error: report {b} has undefined overall metrics")

    def test_one_report(self, tmp_path, capsys):
        a, _, outcomes = self.write_two_reports(tmp_path, lambda overall: None)
        code = main(["corr", "--reports", str(a), "--outcomes", str(outcomes)])
        captured = capsys.readouterr()
        assert code == 1
        assert_one_error_line(captured)
        assert captured.err.splitlines()[-1] == "error: need at least two reports"

    def test_zero_variance_metric_reads_undefined(self, tmp_path, capsys):
        # only mAUSC differs between the two reports
        a, b, outcomes = self.write_two_reports(
            tmp_path, lambda overall: overall.update(mausc=overall["mausc"] / 2))
        code = main(["corr", "--reports", str(a), str(b),
                     "--outcomes", str(outcomes)])
        assert code == 0
        assert capsys.readouterr().out.splitlines() == [
            "metric           |r|", "mAP        undefined", "NDS        undefined",
            "mAUSC       1.000000", "USC-NDS    undefined"]

    def test_missing_outcome_entry(self, tmp_path, capsys):
        frames = generate_synthetic(SyntheticSpec(seed=2, frames=20))
        report = evaluate(frames, ProtocolConfig())
        a = tmp_path / "a.json"
        write_report(report, a, "json")
        outcomes = tmp_path / "o.json"
        outcomes.write_text(json.dumps({"other.json": 0.1}))
        code = main(["corr", "--reports", str(a), "--outcomes", str(outcomes)])
        assert code == 1

    @pytest.mark.parametrize("section, field, named", [
        ("per_class", "tp", ".tp"),
        ("overall", "mean_ap", "overall.mean_ap"),
        ("per_class", "ap", ".ap.x"),
    ])
    def test_mistyped_report_field_is_schema_error(self, tmp_path, capsys,
                                                   section, field, named):
        frames = generate_synthetic(SyntheticSpec(seed=2, frames=20))
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_report(evaluate(frames, ProtocolConfig()), a, "json")
        document = json.loads(a.read_text())
        target = (document["overall"] if section == "overall"
                  else document["per_class"]["car"]["[0,10)"])
        if field == "ap":
            target["ap"] = {"x": 0.5}
        else:
            target[field] = "x"
        b.write_text(json.dumps(document))
        outcomes = tmp_path / "o.json"
        outcomes.write_text(json.dumps({"a.json": 0.1, "b.json": 0.5}))
        code = main(["corr", "--reports", str(a), str(b),
                     "--outcomes", str(outcomes)])
        assert code == 1
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("text, named", [
        ("[" * 100_000, "nested"),
        (json.dumps({"a.json": [1], "b.json": 0.5}), "a.json"),
        (json.dumps({"a.json": "0.5", "b.json": 0.5}), "a.json"),
        (json.dumps([0.1, 0.5]), "JSON object"),
    ], ids=["nested", "list-rate", "string-rate", "not-an-object"])
    def test_malformed_outcomes_is_validation_error(self, tmp_path, capsys,
                                                    text, named):
        report = evaluate(generate_synthetic(SyntheticSpec(seed=2, frames=5)),
                          ProtocolConfig())
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_report(report, a, "json")
        write_report(report, b, "json")
        outcomes = tmp_path / "o.json"
        outcomes.write_text(text)
        code = main(["corr", "--reports", str(a), str(b),
                     "--outcomes", str(outcomes)])
        assert code == 1
        assert named in capsys.readouterr().err

    def test_bias_family_mausc_beats_bias_insensitive_map(self, tmp_path, capsys):
        # biases stay below the matching threshold so mAP only reacts to the
        # small miss jitter, while mAUSC tracks the bias directly
        paths = build_detector_family(
            tmp_path, biases=(0.15, 0.45, 0.75),
            miss_rates=(0.02, 0.0, 0.01))
        outcomes = {p.name: 0.1 + 0.8 * load_report(p).overall.mausc
                    for p in paths}
        outcomes_path = tmp_path / "outcomes.json"
        outcomes_path.write_text(json.dumps(outcomes))
        code = main(["corr", "--reports", *[str(p) for p in paths],
                     "--outcomes", str(outcomes_path)])
        captured = capsys.readouterr()
        assert code == 0
        lines = {line.split()[0]: line.split()[1]
                 for line in captured.out.splitlines()[1:]}
        assert float(lines["mAUSC"]) >= float(lines["mAP"])


#: the input files of a fuzz example
INPUT_FILES = ("a.jsonl", "b.jsonl", "a.json", "b.json", "config.json",
               "spec.json", "outcomes.json")


def path(*names):
    """A path under the example's directory: mostly one of ``names``, else
    any input file, the directory itself or a missing file."""
    return (st.sampled_from(names)
            | st.sampled_from(INPUT_FILES + ("", "missing/x.json"))
            ).map(pathlib.PurePath)


DATA = path("a.jsonl", "b.jsonl")
#: the data flags a command line of ``eval`` or ``loss`` gives: mostly a
#: valid choice, else any subset
DATA_FLAGS = (st.sampled_from((("--data",), ("--gt", "--pred")))
              | st.sets(st.sampled_from(("--data", "--gt", "--pred"))))
TEXT = st.text(max_size=4)
NUMBER = st.integers(-2, 4).map(str) | st.floats().map(repr)
#: the flags of each subcommand, and what a flag's value is drawn from
FLAGS = {
    "eval": {"--data": DATA, "--gt": DATA, "--pred": DATA,
             "--config": path("config.json"), "--out": path("out.json"),
             "--format": st.sampled_from(("json", "table")) | TEXT},
    "loss": {"--data": DATA, "--gt": DATA, "--pred": DATA,
             "--config": path("config.json")},
    "synth": {"--spec": path("spec.json"), "--seed": NUMBER,
              "--frames": NUMBER, "--objects-min": NUMBER,
              "--objects-max": NUMBER, "--classes": TEXT,
              "--depth-bias": NUMBER, "--lateral-noise": NUMBER,
              "--size-noise": NUMBER, "--yaw-noise": NUMBER,
              "--miss-rate": NUMBER, "--fp-rate": NUMBER,
              "--out": path("out.jsonl")},
    "corr": {"--reports": st.lists(path("a.json", "b.json"), min_size=1,
                                   max_size=3),
             "--outcomes": path("outcomes.json")},
}
#: the largest value a drawn spec or flag may give these keys; a valid spec
#: such as {"frames": 10**9} would run for hours
SIZE_LIMITS = {"frames": 3, "objects_min": 4, "objects_max": 4}


def clamped_key(key, value):
    """A spec value, an integer above the limit of its key lowered to it."""
    limit = SIZE_LIMITS.get(key)
    if limit is not None and type(value) is int and value > limit:
        return limit
    return value


def clamped_flag(flag, text):
    """A flag's text, an integer above the limit of its key lowered to it."""
    limit = SIZE_LIMITS.get(flag[2:].replace("-", "_"))
    try:
        return str(limit) if limit is not None and int(text) > limit else text
    except ValueError:
        return text


def one_node_replaced(document):
    return st.builds(replaced, st.just(document),
                     st.sampled_from(list(node_paths(document))), json_values())


def keyed_json(keys):
    return json_values() | st.dictionaries(st.sampled_from(keys), json_values(),
                                           max_size=3)


DATASETS = st.just(FRAME) | one_node_replaced(FRAME)
REPORTS = st.just(REPORT) | one_node_replaced(REPORT)
CONFIGS = keyed_json(CONFIG_KEYS)
SPECS = keyed_json(SPEC_KEYS).map(lambda spec: (
    {key: clamped_key(key, value) for key, value in spec.items()}
    if isinstance(spec, dict) else spec))
OUTCOMES = keyed_json(["a.json", "b.json"]) | st.dictionaries(
    st.sampled_from(["a.json", "b.json"]), st.floats(0, 1), max_size=2)


@st.composite
def input_files(draw):
    """File name -> text: one-line datasets and reports, each valid or with
    one node replaced, and arbitrary configs, specs and outcomes."""
    documents = (("a.jsonl", DATASETS), ("b.jsonl", DATASETS),
                 ("a.json", REPORTS), ("b.json", REPORTS),
                 ("config.json", CONFIGS), ("spec.json", SPECS),
                 ("outcomes.json", OUTCOMES))
    return {name: json.dumps(draw(strategy)) for name, strategy in documents}


@st.composite
def argvs(draw, command, directory):
    """A command line of a random subset of ``command``'s own flags, in a
    random order."""
    data_flags = draw(DATA_FLAGS) if "--data" in FLAGS[command] else ()
    argv = [command]
    for flag in draw(st.permutations(list(FLAGS[command]))):
        if (flag in data_flags if flag in ("--data", "--gt", "--pred")
                else draw(st.booleans())):
            value = draw(FLAGS[command][flag])
            texts = [str(directory / text) if isinstance(text, pathlib.PurePath)
                     else clamped_flag(flag, text)
                     for text in (value if isinstance(value, list) else [value])]
            argv += [flag, *texts]
    return argv


class TestCommandLineFuzz:
    """Whatever the flags and file contents, ``main`` returns 0, 1 or 2, or
    argparse exits with 2; no other exception escapes. A failure (1 or 2)
    ends stderr with its one ``error:`` line; a success prints none."""

    @pytest.mark.parametrize("command", sorted(FLAGS))
    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_exit_code(self, command, data):
        with tempfile.TemporaryDirectory() as tmp:
            directory = pathlib.Path(tmp)
            for name, text in data.draw(input_files()).items():
                (directory / name).write_text(text, encoding="utf-8")
            argv = data.draw(argvs(command, directory))
            err = io.StringIO()
            try:
                with contextlib.redirect_stderr(err):
                    code = main(argv)
            except SystemExit as exc:
                assert exc.code == 2
            else:
                assert code in (0, 1, 2)
                lines = err.getvalue().splitlines()
                errors = [line for line in lines if line.startswith("error: ")]
                assert errors == (lines[-1:] if code else [])


@pytest.fixture
def collector():
    """The collector's state before the test, restored after it."""
    enabled = gc.isenabled()
    yield enabled
    (gc.enable if enabled else gc.disable)()


#: a car pair that straddles the camera plane, so USC excludes it
BEHIND_CAMERA = FrameRecord(
    "behind", [Annotation("car", Box3D(5.0, 0.0, 0.5, 4.2, 1.6, 1.9, 0.0))],
    [Detection("car", Box3D(5.2, 0.0, 0.6, 4.0, 1.6, 1.9, 0.05), 0.9)])


def varied_dataset(path, frames):
    """A synthetic dataset of ``frames`` frames plus ``BEHIND_CAMERA``, with a
    velocity and an attribute on every other object, so the constructors'
    general rule and USC's exclusion both run."""
    dataset = generate_synthetic(SyntheticSpec(seed=11, frames=frames))
    for frame in dataset:
        for objects in (frame.ground_truths, frame.predictions):
            objects[::2] = [o._replace(velocity=(1.5, -0.25), attribute="moving")
                            for o in objects[::2]]
    save_dataset(dataset + [BEHIND_CAMERA], path)


class TestCollectorPause:
    """Commands run with the cyclic collector paused, and ``main`` gives the
    caller back the collector as it found it."""

    @pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
    @pytest.mark.parametrize("argv, code", [
        (["eval", "--data", "{data}"], 0), (["loss", "--data", "{data}"], 0),
        (["eval", "--data", "{data}", "--config", "{config}"], 1),
        (["eval", "--data", "{missing}"], 2)],
        ids=["eval", "loss", "schema-error", "missing-file"])
    def test_state_is_restored(self, tmp_path, capsys, collector, enabled,
                               argv, code):
        paths = {"data": tmp_path / "d.jsonl", "config": tmp_path / "c.json",
                 "missing": tmp_path / "missing.jsonl"}
        varied_dataset(paths["data"], 3)
        paths["config"].write_text(json.dumps({"range_buckets": "near"}))
        (gc.enable if enabled else gc.disable)()
        assert main([arg.format(**paths) for arg in argv]) == code
        assert gc.isenabled() is enabled

    @pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
    def test_state_is_restored_after_an_uncaught_exception(
            self, tmp_path, monkeypatch, collector, enabled):
        data = tmp_path / "d.jsonl"
        varied_dataset(data, 1)

        def fail(frames, protocol):
            assert not gc.isenabled()
            raise RuntimeError("evaluate failed")
        monkeypatch.setattr("usc.cli.evaluate", fail)
        (gc.enable if enabled else gc.disable)()
        with pytest.raises(RuntimeError, match="^evaluate failed$"):
            main(["eval", "--data", str(data)])
        assert gc.isenabled() is enabled

    @pytest.mark.parametrize("command", ["eval", "loss"])
    def test_cyclic_garbage_does_not_grow_with_the_data(
            self, tmp_path, capsys, collector, command):
        small, large = tmp_path / "small.jsonl", tmp_path / "large.jsonl"
        varied_dataset(small, 1)
        varied_dataset(large, 100)
        gc.disable()
        counts = []
        for data in (small, small, large, small, large):
            assert main([command, "--data", str(data)]) == 0
            counts.append(gc.collect())
        # the first run also frees what warming up left behind
        assert counts[1] == counts[2] == counts[3] == counts[4]


class TestEntryPoint:
    def test_console_script_installed(self):
        exe = shutil.which("usc")
        if exe is None:
            pytest.skip("console script not on PATH")
        result = subprocess.run([exe, "--help"], capture_output=True, text=True)
        assert result.returncode == 0
        assert "eval" in result.stdout

    def test_script_names_cli_main(self):
        tomllib = pytest.importorskip("tomllib")
        with open(ROOT / "pyproject.toml", "rb") as handle:
            target = tomllib.load(handle)["project"]["scripts"]["usc"]
        module, _, name = target.partition(":")
        assert (module, name) == ("usc.cli", "main")
        assert getattr(importlib.import_module(module), name) is main

    def test_module_runs_from_source(self):
        path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                             os.environ.get("PYTHONPATH")]))
        result = subprocess.run([sys.executable, "-m", "usc.cli", "--help"],
                                capture_output=True, text=True, timeout=60,
                                env={**os.environ, "PYTHONPATH": path})
        assert result.returncode == 0
        assert "eval" in result.stdout
