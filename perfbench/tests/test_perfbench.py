"""Tests of the benchmark itself: inputs, output checks and tracing.

Run from the root of the repository with ``python3 -m pytest perfbench/tests``.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

import checks
import run
import tracing
import worker
import workloads
from usc import cli, io as uio

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

SMALL_NEAR = dataclasses.replace(workloads.NEAR_SCENE, frames=40)


@pytest.fixture
def near_inputs(tmp_path):
    workload = dataclasses.replace(workloads.WORKLOADS["eval_near"],
                                   scene=SMALL_NEAR)
    return workloads.prepare(workload, 3, str(tmp_path / "cache"))


def test_generator_reproduces_the_roadmap_workload():
    frames = workloads.generate(workloads.NEAR_SCENE, 1)
    summary = workloads.summarize(frames, workloads.DEFAULT_BUCKETS)
    assert (summary["frames"], summary["ground_truths"],
            summary["predictions"]) == (2000, 10181, 11279)


@pytest.mark.parametrize("name", ["eval_near", "eval_crowded"])
def test_generator_writes_what_the_program_generator_writes(tmp_path, name):
    scene = dataclasses.replace(workloads.WORKLOADS[name].scene, frames=15)
    expected = tmp_path / "program.jsonl"
    uio.save_dataset(uio.generate_synthetic(
        uio.SyntheticSpec(seed=5, **dataclasses.asdict(scene))), expected)
    ours = "".join(json.dumps(f) + "\n" for f in workloads.generate(scene, 5))
    assert ours == expected.read_text()


def test_inputs_are_cached_by_scene_and_seed(tmp_path):
    workload = dataclasses.replace(workloads.WORKLOADS["eval_near"],
                                   scene=SMALL_NEAR)
    first = workloads.prepare(workload, 3, str(tmp_path))
    again = workloads.prepare(workload, 3, str(tmp_path))
    other = workloads.prepare(workload, 4, str(tmp_path))
    assert not first.cached and again.cached and not other.cached
    assert again.data == first.data != other.data
    assert again.summary == first.summary


def _eval(inputs, tmp_path):
    report = tmp_path / "report.json"
    assert cli.main(["eval", "--data", inputs.data, "--out", str(report)]) == 0
    return report


def test_eval_check_passes_then_counts_a_corrupted_report(near_inputs, tmp_path,
                                                          capsys):
    report = _eval(near_inputs, tmp_path)
    assert checks.check_eval(str(report), near_inputs.summary) == []
    good = json.loads(report.read_text())

    def corrupted(edit):
        doc = json.loads(json.dumps(good))
        edit(doc)
        report.write_text(json.dumps(doc))
        return checks.check_eval(str(report), near_inputs.summary)

    car = good["per_class"]["car"]
    label = next(iter(car))
    assert corrupted(lambda d: d["per_class"]["car"][label].update(
        tp=car[label]["tp"] + 1))
    assert corrupted(lambda d: d["per_bucket"][label].update(fn=0))
    assert corrupted(lambda d: d["per_class"]["car"][label].update(ausc=1.5))
    assert corrupted(lambda d: d.update(extra="not part of a report"))
    assert corrupted(lambda d: d["per_class"].pop("car"))
    report.write_text("{not json")
    assert checks.check_eval(str(report), near_inputs.summary)


def test_worker_records_a_corrupted_report_as_a_failure(near_inputs, tmp_path,
                                                       monkeypatch):
    summary = tmp_path / "summary.json"
    summary.write_text(json.dumps(near_inputs.summary))

    def run_worker():
        job = {"argv": ["eval", "--data", near_inputs.data,
                        "--out", str(tmp_path / "r.json")],
               "command": "eval", "summary": str(summary),
               "result": str(tmp_path / "result.json"), "trace": None}
        (tmp_path / "job.json").write_text(json.dumps(job))
        worker.main(str(tmp_path / "job.json"))
        return json.loads((tmp_path / "result.json").read_text())

    assert run_worker()["problems"] == []
    write_report = uio.write_report

    def corrupting(report, path, fmt="json"):
        write_report(report, path, fmt)
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
        next(iter(doc["per_bucket"].values()))["fn"] += 1
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)

    monkeypatch.setattr(uio, "write_report", corrupting)
    assert run_worker()["problems"]


def test_loss_check_passes_then_counts_a_corrupted_output(near_inputs, capsys):
    assert cli.main(["loss", "--data", near_inputs.data]) == 0
    out = capsys.readouterr().out
    assert checks.check_loss(out, near_inputs.summary) == []
    lines = out.splitlines()
    name, l1, enclosure, blended = lines[2].split()
    for bad in (f"{name} nan {enclosure} {blended}",
                f"{name} {l1} 1.5 {blended}",
                f"{name} {l1} {enclosure}"):
        assert checks.check_loss("\n".join(lines[:2] + [bad]), near_inputs.summary)
    assert checks.check_loss("", near_inputs.summary)


def _snapshot():
    return {(name, attr): getattr(module, attr)
            for name, module in sys.modules.items()
            if module is not None and (name == "usc" or name.startswith("usc."))
            for attr in dir(module)}


def test_untraced_run_sees_the_original_functions(near_inputs, tmp_path):
    argv = ["eval", "--data", near_inputs.data, "--out", str(tmp_path / "r.json")]
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    before = _snapshot()

    entered = set()

    def profile(frame, event, _arg):
        if event == "call":
            entered.add(frame.f_code.co_filename)

    sys.setprofile(profile)
    try:
        code, _, _, _, error = worker.execute(cli, argv)
    finally:
        sys.setprofile(None)
    assert (code, error) == (0, None)
    assert os.path.abspath(tracing.__file__) not in entered
    after = _snapshot()
    assert before.keys() == after.keys()
    assert all(after[key] is value for key, value in before.items())


def test_traced_run_records_every_layer_then_restores(near_inputs, tmp_path):
    before = _snapshot()
    out = tmp_path / "r.json"
    tracer = tracing.Tracer()
    code, _, _, _, error = worker.execute(
        cli, ["eval", "--data", near_inputs.data, "--out", str(out)], tracer)
    assert (code, error) == (0, None)
    after = _snapshot()
    assert all(after[key] is value for key, value in before.items())

    path = tmp_path / "trace.json"
    tracer.write(str(path))
    trace = tracing.read(str(path))
    totals = tracing.layer_totals(trace)
    report = uio.load_report(out)
    assert totals["cli.cmd_eval"]["calls"] == 1
    assert totals["constraints.usc_score"]["calls"] == report.overall.tp
    assert totals["constraints.representative_points"]["calls"] == 4 * report.overall.tp
    assert totals["geometry.iogt3d"]["calls"] == 0
    assert trace["counts"]["evaluation.bev_center_distance"] > 0
    root = totals["cli.cmd_eval"]
    assert root["total_s"] == pytest.approx(
        sum(t["self_s"] for t in totals.values()), rel=1e-9)


def _traced_load_bytes(inputs, tmp_path):
    tracer = tracing.Tracer()
    code, _, _, _, error = worker.execute(
        cli, ["eval", "--data", inputs.data, "--out", str(tmp_path / "r.json")],
        tracer)
    assert (code, error) == (0, None)
    path = tmp_path / "trace.json"
    tracer.write(str(path))
    trace = tracing.read(str(path))
    return (tracing.layer_totals(trace)["io.load_dataset"]["calls"],
            trace["bytes_read"]["io.load_dataset"])


def test_loader_bytes_are_measured_not_assumed(near_inputs, tmp_path,
                                               monkeypatch):
    size = os.path.getsize(near_inputs.data)
    assert _traced_load_bytes(near_inputs, tmp_path) == (1, size)
    load_dataset = uio.load_dataset

    def reads_twice(path):
        load_dataset(path)
        return load_dataset(path)

    monkeypatch.setattr(uio, "load_dataset", reads_twice)
    assert _traced_load_bytes(near_inputs, tmp_path) == (1, 2 * size)


def test_exclusions_are_counted_by_exception_class():
    from usc import constraints
    from usc.errors import BehindCamera
    from usc.geometry import Box3D

    ahead = Box3D(0.0, 0.0, 10.0, 4.5, 1.7, 1.9, 0.0)
    behind = Box3D(0.0, 0.0, 0.5, 4.5, 1.7, 1.9, 0.0)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        constraints.usc_score(ahead, ahead)
        for _ in range(2):
            with pytest.raises(BehindCamera):
                constraints.usc_score(behind, ahead)
    finally:
        tracer.uninstall()
    assert tracer.raised[("constraints.usc_score", "BehindCamera")] == 2
    assert not any(layer == "constraints.usc_score" and exc != "BehindCamera"
                   for layer, exc in tracer.raised)


def test_self_time_subtracts_child_spans():
    trace = {"layers": ["a", "b"], "layer": [0, 1, 1, 0],
             "start": [0.0, 1.0, 3.0, 10.0], "end": [5.0, 2.0, 4.5, 11.0],
             "parent": [-1, 0, 0, -1]}
    totals = tracing.layer_totals(trace)
    assert totals["a"] == {"calls": 2, "total_s": 6.0, "self_s": 3.5}
    assert totals["b"] == {"calls": 2, "total_s": 2.5, "self_s": 2.5}


def test_benchmark_json_names_every_metric_run_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "eval_near", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
