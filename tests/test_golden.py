"""Golden report bytes: the SHA-256 of the JSON report that ``evaluate`` and
``write_report`` produce on three fixed synthetic datasets.

A change to the evaluation code that must not change any number (a
refactor, or a faster kernel for the same arithmetic) keeps these digests.
A change that is meant to alter the report updates them, after checking the
new report by hand. Regenerate the digests with::

    PYTHONPATH=src:tests python tests/test_golden.py
"""

import hashlib

import pytest

from usc import (ProtocolConfig, SyntheticSpec, evaluate, generate_synthetic,
                 write_report)

#: name -> (dataset spec, protocol config)
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
}

GOLDEN_SHA256 = {
    "criterion_10": "7642f76e4fbc5710e619d447b373ac9bb5377b96cdce4ce4ea0bcf4edcfa574f",
    "near": "9044ccbe4ad1ac3559b8180052989a5baaf2fdf5626b3afa2e5057b562c2cfb6",
    "crowded": "9c9967baff12ac3584501c575d13c4d881823b3079bca3ce5cb656a9357d1b46",
}


def report_digest(name, tmp_dir) -> str:
    spec, config = CASES[name]
    path = tmp_dir / f"{name}.json"
    write_report(evaluate(generate_synthetic(spec), config), path, "json")
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_bytes_match_golden_digest(name, tmp_path):
    assert report_digest(name, tmp_path) == GOLDEN_SHA256[name]


if __name__ == "__main__":
    import pathlib
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for case in sorted(CASES):
            print(f'    "{case}": "{report_digest(case, pathlib.Path(tmp))}",')
