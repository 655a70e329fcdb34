"""Golden output bytes: the SHA-256 of the JSON report and of the table that
``evaluate``, ``write_report`` and ``format_report_table`` produce on four
fixed synthetic datasets and one hand-built one, and of the ``usc loss``
output on two of the synthetic ones.

A change to the evaluation code that must not change any number (a
refactor, or a faster kernel for the same arithmetic) keeps these digests.
A change that is meant to alter the report updates them, after checking the
new report by hand. Regenerate the digests with::

    PYTHONPATH=src:tests python tests/test_golden.py
"""

import contextlib
import dataclasses
import hashlib
import io
import itertools
import json
import random

import pytest

from usc import (Annotation, Box3D, Detection, FrameRecord, ProtocolConfig,
                 SyntheticSpec, evaluate, format_report_table,
                 generate_synthetic, save_dataset, usc_batch, write_report)
from usc import evaluation, geometry
from usc import io as usc_io
from usc.cli import main
from usc.constraints import EXCLUSION_REASONS
from usc.errors import BehindCamera, DegenerateGroundTruth


def _ann(class_name, *box):
    return Annotation(class_name, Box3D(*box))


def _det(class_name, score, *box):
    return Detection(class_name, Box3D(*box), score)


#: Matched pairs excluded from USC in both default buckets: in [0,10) a car
#: beside the vehicle that straddles the camera plane (BehindCamera), in
#: [10,20) a car whose height of 1e-20 m leaves no PV area
#: (DegenerateGroundTruth). The synthetic generator never excludes a pair.
EXCLUDED_FRAMES = [
    FrameRecord("f0",
                [_ann("car", 5.0, 0.0, 0.5, 4.2, 1.6, 1.9, 0.0),
                 _ann("car", 0.5, 0.1, 7.0, 4.0, 1.5, 1.8, 0.2),
                 _ann("pedestrian", -1.5, 0.0, 6.0, 0.6, 1.8, 0.6, 0.0)],
                [_det("car", 0.9, 5.2, 0.0, 0.6, 4.0, 1.6, 1.9, 0.05),
                 _det("car", 0.8, 0.6, 0.1, 7.4, 4.3, 1.6, 1.9, 0.25),
                 _det("pedestrian", 0.7, -1.4, 0.0, 6.3, 0.7, 1.8, 0.7, 0.1),
                 _det("car", 0.3, -4.0, 0.0, 9.0, 4.0, 1.5, 1.8, 0.0)]),
    FrameRecord("f1",
                [_ann("car", 1.0, 0.0, 15.0, 4.2, 1e-20, 1.9, 0.1),
                 _ann("car", -3.0, 0.0, 13.0, 4.0, 1.5, 1.8, -0.3),
                 _ann("pedestrian", 2.0, 0.0, 16.0, 0.6, 1.7, 0.6, 0.0)],
                [_det("car", 0.85, 1.3, 0.0, 15.6, 4.2, 1.5, 1.9, 0.1),
                 _det("car", 0.6, -3.2, 0.0, 12.5, 4.1, 1.5, 1.8, -0.25),
                 _det("pedestrian", 0.5, 2.1, 0.0, 16.4, 0.6, 1.7, 0.6, 0.0)]),
]

#: name -> (dataset spec or hand-built frames, protocol config)
CASES = {
    # the dataset of acceptance criterion 10
    "criterion_10": (
        SyntheticSpec(seed=314, frames=40, depth_bias=0.25, lateral_noise=0.08,
                      size_noise=0.04, yaw_noise=0.04, miss_rate=0.1,
                      fp_rate=0.15),
        ProtocolConfig()),
    # the near-field scene of the benchmark's eval_near workload, fewer frames
    "near": (
        SyntheticSpec(seed=1, frames=300, objects_min=2, objects_max=8,
                      depth_bias=0.2, lateral_noise=0.1, size_noise=0.05,
                      yaw_noise=0.05, miss_rate=0.1, fp_rate=0.2),
        ProtocolConfig()),
    # dense scenes over four range buckets, as in the eval_crowded workload
    "crowded": (
        SyntheticSpec(seed=2, frames=8, objects_min=100, objects_max=100,
                      classes=("car", "pedestrian"), lateral_noise=0.3,
                      miss_rate=0.75, fp_rate=1.0, range_min=4.0,
                      range_max=58.0, max_azimuth=0.7),
        ProtocolConfig(range_buckets=((0, 10), (10, 20), (20, 40), (40, 60)),
                       match_thresholds=(1, 2, 2, 4),
                       ap_distance_thresholds=(0.5, 1, 2, 4))),
    # a class with no in-range ground truth in one bucket, scored rather
    # than skipped
    "absent_class": (
        SyntheticSpec(seed=3, frames=12, objects_min=1, objects_max=3,
                      classes=("car", "pedestrian", "truck", "bicycle"),
                      depth_bias=0.2, lateral_noise=0.1, size_noise=0.05,
                      yaw_noise=0.05, miss_rate=0.2, fp_rate=0.3),
        ProtocolConfig(skip_missing_classes=False)),
    "excluded": (EXCLUDED_FRAMES, ProtocolConfig()),
}

#: name -> (SHA-256 of the JSON report, SHA-256 of the table)
GOLDEN_SHA256 = {
    "absent_class": (
        "413dc961b57e4abcb41142c5847a90bdbed97d40384bd77602e125684a270c35",
        "ede04acd75757a7b6ca07420eebd9d70b2c82d78e4fdf8282e2b1cc28ed255d5"),
    "criterion_10": (
        "7642f76e4fbc5710e619d447b373ac9bb5377b96cdce4ce4ea0bcf4edcfa574f",
        "cd5d2dbc9ab390afe1c2d23ccea0385b2799a551dd39dc5c35da2f7b8f2ed86a"),
    "crowded": (
        "9c9967baff12ac3584501c575d13c4d881823b3079bca3ce5cb656a9357d1b46",
        "bbfe20753f0dc6a4a44940db8a50ccd9f4d1d9c9da547de20388d5d06c2caf56"),
    "excluded": (
        "9d33af93ba94d4d31bc7d8781700caf8341c7f88f6244f94d903a2b4210e7828",
        "9597d4f468c72ae04528a6e6309715de109957cafba84765794d750b6a66e6f9"),
    "near": (
        "9044ccbe4ad1ac3559b8180052989a5baaf2fdf5626b3afa2e5057b562c2cfb6",
        "99474518a059dfd8a92544043ed5a7b1472c0e73a7e2571057e139838a486e00"),
}

#: name -> (dataset case, loss keys of the config file)
LOSS_CASES = {
    "near": ("near", {}),
    "crowded": ("crowded", {}),
    "near_tuned": ("near", {"lambda": 0.3, "smooth_l1_beta": 0.5,
                            "yaw_wrapping": False}),
}

#: name -> SHA-256 of the ``usc loss`` standard output
LOSS_SHA256 = {
    "crowded":
        "4e4f31dc8cc439c1ac31a47db833e651d9839a4512e76cc164a13adf05098304",
    "near":
        "ad218cf780a883236981d4af3760672b5acb6f858bec8c82c68173b5a2830d3a",
    "near_tuned":
        "236906316558ec22c165564cbd1acb512298cfcd1fa7d739e492bd4e18bbd27e",
}


def case_frames(name):
    source, _ = CASES[name]
    if isinstance(source, SyntheticSpec):
        return generate_synthetic(source)
    return source


def digests(name, tmp_dir):
    """SHA-256 of the written JSON report and of its table."""
    path = tmp_dir / f"{name}.json"
    report = evaluate(case_frames(name), CASES[name][1])
    write_report(report, path, "json")
    return (hashlib.sha256(path.read_bytes()).hexdigest(),
            hashlib.sha256(format_report_table(report).encode()).hexdigest())


def loss_digest(name, tmp_dir):
    """SHA-256 of what ``usc loss`` prints for a loss case."""
    case, loss_keys = LOSS_CASES[name]
    protocol = CASES[case][1]
    data, config = tmp_dir / f"{name}.jsonl", tmp_dir / f"{name}.config.json"
    save_dataset(case_frames(case), data)
    config.write_text(json.dumps({**dataclasses.asdict(protocol), **loss_keys}))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["loss", "--data", str(data), "--config", str(config)]) == 0
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_bytes_match_golden_digest(name, tmp_path):
    assert digests(name, tmp_path) == GOLDEN_SHA256[name]


@pytest.mark.parametrize("name", sorted(LOSS_CASES))
def test_loss_output_matches_golden_digest(name, tmp_path):
    assert loss_digest(name, tmp_path) == LOSS_SHA256[name]


def test_excluded_case_excludes_a_pair_in_every_bucket():
    _, reasons = usc_batch([f.predictions[0].box for f in EXCLUDED_FRAMES],
                           [f.ground_truths[0].box for f in EXCLUDED_FRAMES])
    assert [EXCLUSION_REASONS[code - 1] for code in reasons] == [
        BehindCamera, DegenerateGroundTruth]
    report = evaluate(*CASES["excluded"])
    for bucket in report.per_bucket:
        assert report.per_class["car"][bucket].usc_excluded == 1


def moving_frames():
    """A near-field synthetic scene whose every object has a velocity and
    an attribute, so that its report has all five TP measures."""
    rng = random.Random(17)

    def moving(obj):
        return obj._replace(velocity=(rng.uniform(-6, 6), rng.uniform(-6, 6)),
                            attribute=rng.choice(("moving", "parked", "stopped")))

    frames = generate_synthetic(SyntheticSpec(
        seed=17, frames=30, objects_min=2, objects_max=8, depth_bias=0.2,
        lateral_noise=0.1, size_noise=0.05, yaw_noise=0.05, miss_rate=0.1,
        fp_rate=0.2))
    return [FrameRecord(f.frame_id, list(map(moving, f.ground_truths)),
                        list(map(moving, f.predictions))) for f in frames]


#: Every combination of the tuning constants' test values: the kernels'
#: BATCH_CAP, the walk's _CHUNK_CAP and the loader's _CHECK_BLOCK, each at
#: 1, at its default and, for BATCH_CAP, at 7.
TUNINGS = list(itertools.product((1, 7, geometry.BATCH_CAP),
                                 (1, evaluation._CHUNK_CAP),
                                 (1, usc_io._CHECK_BLOCK)))


def command_outputs(argv_tail, tmp_dir):
    """The written report and the exit status, standard output and
    standard error of ``usc eval``, and those of ``usc loss``, with
    ``argv_tail`` for the data and config arguments."""
    report = tmp_dir / "report.json"
    outputs = []
    for argv in (["eval", *argv_tail, "--out", str(report)], ["loss", *argv_tail]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            outputs.append((main(argv), out.getvalue(), err.getvalue()))
    return report.read_bytes(), outputs


@pytest.mark.parametrize("case", ["moving", "excluded"])
def test_tuning_constants_change_no_byte(case, tmp_path, monkeypatch):
    # chunks of 1 and 7 pairs cut every kernel's slices, and the walk's
    # chunks of one frame each split the candidate tables and the hypot
    # calls; the outputs are those of the defaults, byte for byte
    data = tmp_path / "data.jsonl"
    argv_tail = ["--data", str(data)]
    if case == "moving":
        save_dataset(moving_frames(), data)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"tp_measures": list(evaluation.TP_MEASURES)}))
        argv_tail += ["--config", str(config)]
    else:
        save_dataset(EXCLUDED_FRAMES, data)
    expected = command_outputs(argv_tail, tmp_path)
    assert [status for status, _, _ in expected[1]] == [0, 0]
    if case == "moving":
        assert b'"AVE": ' in expected[0] and b'"AAE": ' in expected[0]
    for batch_cap, chunk_cap, check_block in TUNINGS:
        with monkeypatch.context() as patch:
            patch.setattr(geometry, "BATCH_CAP", batch_cap)
            patch.setattr(evaluation, "_CHUNK_CAP", chunk_cap)
            patch.setattr(usc_io, "_CHECK_BLOCK", check_block)
            assert command_outputs(argv_tail, tmp_path) == expected, (
                batch_cap, chunk_cap, check_block)


def test_absent_class_case_scores_a_slice_without_ground_truth():
    spec, config = CASES["absent_class"]
    report = evaluate(generate_synthetic(spec), config)
    assert not config.skip_missing_classes
    assert any(m.tp + m.fn == 0 for buckets in report.per_class.values()
               for m in buckets.values())


if __name__ == "__main__":
    import pathlib
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for case in sorted(CASES):
            report, table = digests(case, pathlib.Path(tmp))
            print(f'    "{case}": (\n        "{report}",\n        "{table}"),')
        for case in sorted(LOSS_CASES):
            print(f'    "{case}":\n        "{loss_digest(case, pathlib.Path(tmp))}",')
