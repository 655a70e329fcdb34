import json
import math
import shutil
import subprocess

import pytest

from usc import (ProtocolConfig, SyntheticSpec, evaluate, generate_synthetic,
                 load_dataset, load_report, save_dataset, write_report)
from usc.cli import main


def make_dataset(path, seed=11, frames=25, **spec_kwargs):
    dataset = generate_synthetic(SyntheticSpec(seed=seed, frames=frames,
                                               **spec_kwargs))
    save_dataset(dataset, path)
    return dataset


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
        code = main(["eval", "--data", str(data), "--out", str(out),
                     "--format", "table"])
        assert code == 0
        assert "mAUSC" in out.read_text()

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
        config.write_text('{"focal": 1' + "0" * 400 + "}")
        code = main(["eval", "--data", str(data), "--config", str(config)])
        assert code == 1
        assert "focal" in capsys.readouterr().err

    def test_deeply_nested_config_is_parse_error(self, tmp_path, capsys):
        data = tmp_path / "d.jsonl"
        make_dataset(data, frames=3)
        config = tmp_path / "config.json"
        config.write_text("[" * 100_000)
        code = main(["eval", "--data", str(data), "--config", str(config)])
        assert code == 1
        assert "nested" in capsys.readouterr().err

    def test_deeply_nested_data_line_is_parse_error(self, tmp_path, capsys):
        data = tmp_path / "d.jsonl"
        make_dataset(data, frames=3)
        with open(data, "a", encoding="utf-8") as handle:
            handle.write("[" * 100_000 + "\n")
        code = main(["eval", "--data", str(data)])
        assert code == 1
        assert "line 4" in capsys.readouterr().err


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
        data = tmp_path / "d.jsonl"
        make_dataset(data)
        lines = data.read_text().splitlines()
        frame = json.loads(lines[-1])
        frame["ground_truths"][-1]["size"] = [1e-10, 1, 1]
        lines[-1] = json.dumps(frame)
        data.write_text("\n".join(lines) + "\n")
        code = main(["loss", "--data", str(data)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "error: repeated polygon vertices at index 0" in captured.err


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

    def test_deeply_nested_spec_is_parse_error(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text("[" * 100_000)
        code = main(["synth", "--spec", str(spec_path),
                     "--out", str(tmp_path / "d.jsonl")])
        assert code == 1
        assert "nested" in capsys.readouterr().err
        assert not (tmp_path / "d.jsonl").exists()


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


class TestEntryPoint:
    def test_console_script_installed(self):
        exe = shutil.which("usc")
        if exe is None:
            pytest.skip("console script not on PATH")
        result = subprocess.run([exe, "--help"], capture_output=True, text=True)
        assert result.returncode == 0
        assert "eval" in result.stdout
