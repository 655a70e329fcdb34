"""Workload definitions and the seeded dataset generator of the benchmark.

The generator is the benchmark's own copy of the synthetic-scenario
algorithm of ``usc.io.generate_synthetic`` (same random stream, same output
bytes as ``usc.io.save_dataset`` at the commit that defined the benchmark).
It is kept here, frozen, so that a change to the program's generator or
writer cannot silently change what the benchmark measures: the program under
test only ever sees the dataset file and the config file.

Generated inputs are cached under ``.perfbench_cache/`` in the checkout,
keyed by scene, seed and range buckets, so generation never runs inside a
timed region and is paid once per checkout.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import time
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Tuple

#: Bumped whenever the generator below changes its output.
GENERATOR_VERSION = 1

_CLASS_SIZES = {
    "car": (4.5, 1.7, 1.9),
    "pedestrian": (0.6, 1.75, 0.6),
    "truck": (7.0, 3.0, 2.5),
    "bicycle": (1.8, 1.4, 0.6),
}
_DEFAULT_SIZE = (2.0, 1.5, 1.5)
_TAU = 2.0 * math.pi

#: Range buckets of the program's default protocol.
DEFAULT_BUCKETS = ((0.0, 10.0), (10.0, 20.0))


@dataclass(frozen=True)
class Scene:
    """Scene shape; the fields mirror ``usc.io.SyntheticSpec`` minus the seed."""

    frames: int
    objects_min: int
    objects_max: int
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


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "eval" or "loss"
    scene: Scene
    why: str
    #: Protocol config handed to the program; None runs the defaults.
    config: Optional[dict] = None

    @property
    def buckets(self) -> Tuple[Tuple[float, float], ...]:
        if self.config is None:
            return DEFAULT_BUCKETS
        return tuple(tuple(b) for b in self.config["range_buckets"])


NEAR_SCENE = Scene(frames=2000, objects_min=2, objects_max=8, depth_bias=0.2,
                   lateral_noise=0.1, size_noise=0.05, yaw_noise=0.05,
                   miss_rate=0.1, fp_rate=0.2)

CROWDED_BUCKETS = ((0.0, 10.0), (10.0, 20.0), (20.0, 40.0), (40.0, 60.0))
# A fixed object count per frame: with 80-120 the matcher's quadratic work
# varied by about 3.5% between seeds, which would read as run-to-run noise.
CROWDED_SCENE = Scene(frames=40, objects_min=100, objects_max=100,
                      classes=("car", "pedestrian"), lateral_noise=0.3,
                      miss_rate=0.75, fp_rate=1.0, range_min=4.0,
                      range_max=58.0, max_azimuth=0.7)

WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        "eval_near", "eval", NEAR_SCENE,
        "default near-field protocol; USC scoring and its projections dominate"),
    Workload(
        "eval_crowded", "eval", CROWDED_SCENE,
        "dense scenes, four buckets and four AP thresholds; greedy matching dominates",
        config={"range_buckets": [list(b) for b in CROWDED_BUCKETS],
                "match_thresholds": [1, 2, 2, 4],
                "ap_distance_thresholds": [0.5, 1, 2, 4]}),
    Workload(
        "loss_near", "loss", NEAR_SCENE,
        "eval_near data through usc loss; 3D IoGT clipping, no AP and no USC"),
)}


# --- generator ---------------------------------------------------------------


def _wrap_angle(angle: float) -> float:
    if -math.pi < angle <= math.pi:
        return angle
    wrapped = math.remainder(angle, _TAU)
    if wrapped <= -math.pi:
        wrapped += _TAU
    return wrapped


def _object(class_name, x, y, z, length, height, width, yaw, score=None):
    obj = {"class": class_name, "center": [x, y, z],
           "size": [length, height, width], "yaw": _wrap_angle(yaw)}
    if score is not None:
        obj["score"] = score
    return obj


def _sample_ground_truth(rng: random.Random, scene: Scene,
                         placed: List[Tuple[float, float]]) -> dict:
    class_name = rng.choice(list(scene.classes))
    base = _CLASS_SIZES.get(class_name, _DEFAULT_SIZE)
    length, height, width = (d * rng.uniform(0.9, 1.1) for d in base)
    half_diag = math.hypot(length, width) / 2.0
    for _ in range(200):
        rng_range = rng.uniform(scene.range_min, scene.range_max)
        az = rng.uniform(-scene.max_azimuth, scene.max_azimuth)
        x = rng_range * math.sin(az)
        z = rng_range * math.cos(az)
        if z - half_diag < 0.5:
            continue
        if all(math.hypot(x - px, z - pz) >= 2.5 for px, pz in placed):
            placed.append((x, z))
            break
    else:
        placed.append((x, z))
    yaw = rng.uniform(-math.pi, math.pi)
    return _object(class_name, x, 0.0, z, length, height, width, yaw)


def _perturb(rng: random.Random, scene: Scene, gt: dict) -> dict:
    cx, cy, cz = gt["center"]
    r = math.hypot(cx, cz)
    ux, uz = cx / r, cz / r
    lateral = rng.gauss(0.0, scene.lateral_noise)
    x = cx + scene.depth_bias * ux + lateral * uz
    z = cz + scene.depth_bias * uz - lateral * ux
    dims = [max(0.05, d * (1.0 + rng.gauss(0.0, scene.size_noise)))
            for d in gt["size"]]
    yaw = _wrap_angle(gt["yaw"] + rng.gauss(0.0, scene.yaw_noise))
    score = rng.uniform(0.5, 1.0)
    return _object(gt["class"], x, cy, z, dims[0], dims[1], dims[2], yaw, score)


def generate(scene: Scene, seed: int) -> List[dict]:
    """Frames as dataset records, deterministic in (scene, seed)."""
    rng = random.Random(seed)
    frames = []
    for index in range(scene.frames):
        placed: List[Tuple[float, float]] = []
        n_objects = rng.randint(scene.objects_min, scene.objects_max)
        gts = [_sample_ground_truth(rng, scene, placed) for _ in range(n_objects)]
        preds = []
        for gt in gts:
            if rng.random() < scene.miss_rate:
                continue
            preds.append(_perturb(rng, scene, gt))
        for _ in range(n_objects):
            if rng.random() < scene.fp_rate:
                ghost = _sample_ground_truth(rng, scene, placed)
                ghost["score"] = rng.uniform(0.05, 0.6)
                preds.append(ghost)
        frames.append({"frame_id": f"frame-{index:05d}",
                       "ground_truths": gts, "predictions": preds})
    return frames


def bucket_label(bucket: Tuple[float, float]) -> str:
    """Report key of a range bucket, as the protocol formats it."""
    return f"[{bucket[0]:g},{bucket[1]:g})"


def summarize(frames: List[dict], buckets) -> dict:
    """Input counts plus the in-range ground-truth count per class and bucket.

    Computed from the generated records alone, so the output check does not
    trust the program for what the right totals are.
    """
    in_range: Dict[str, Dict[str, int]] = {}
    for frame in frames:
        for gt in frame["ground_truths"]:
            x, _, z = gt["center"]
            distance = math.hypot(x, z)
            for bucket in buckets:
                if bucket[0] <= distance < bucket[1]:
                    per_class = in_range.setdefault(gt["class"], {})
                    label = bucket_label(bucket)
                    per_class[label] = per_class.get(label, 0) + 1
                    break
    return {
        "frames": len(frames),
        "ground_truths": sum(len(f["ground_truths"]) for f in frames),
        "predictions": sum(len(f["predictions"]) for f in frames),
        "in_range": {c: {bucket_label(b): in_range[c].get(bucket_label(b), 0)
                         for b in buckets}
                     for c in sorted(in_range)},
    }


@dataclass
class Inputs:
    """Files and facts the benchmark hands to one workload's runs."""

    data: str
    config: Optional[str]
    summary: dict
    summary_path: str
    #: Seconds spent generating; 0.0 when the inputs came from the cache.
    generate_s: float
    cached: bool


def prepare(workload: Workload, seed: int, cache_dir: str) -> Inputs:
    """Generate (or reuse) the dataset, summary and config of a workload."""
    os.makedirs(cache_dir, exist_ok=True)
    key = json.dumps({"v": GENERATOR_VERSION, "scene": asdict(workload.scene),
                      "seed": seed, "buckets": workload.buckets}, sort_keys=True)
    digest = hashlib.sha256(key.encode()).hexdigest()[:16]
    data = os.path.join(cache_dir, f"{digest}.jsonl")
    summary_path = os.path.join(cache_dir, f"{digest}.summary.json")
    cached = os.path.exists(data) and os.path.exists(summary_path)
    generate_s = 0.0
    if cached:
        with open(summary_path, "r", encoding="utf-8") as handle:
            summary = json.load(handle)
    else:
        start = time.perf_counter()
        frames = generate(workload.scene, seed)
        summary = summarize(frames, workload.buckets)
        _write_atomic(data, "".join(json.dumps(f) + "\n" for f in frames))
        _write_atomic(summary_path, json.dumps(summary))
        generate_s = time.perf_counter() - start
    config = None
    if workload.config is not None:
        config = os.path.join(cache_dir, f"{workload.name}.config.json")
        _write_atomic(config, json.dumps(workload.config))
    return Inputs(data, config, summary, summary_path, generate_s, cached)


def _write_atomic(path: str, text: str) -> None:
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(text)
    os.replace(tmp, path)
