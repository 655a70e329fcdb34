"""Benchmark of the ``usc`` offline evaluator.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads in ``workloads.py``, or ``all`` to run every
workload both untraced and traced. The seed fixes the generated dataset.
Load model: a closed loop with one client, one command at a time. Every
execution is a fresh interpreter (``worker.py``) that imports the package
from ``src/``, runs one ``usc`` command on the generated files and checks
its output. Executions repeat until S seconds have passed, after one
warm-up execution.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced executions and reports the per-layer metrics from the
spans of the traced ones. Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
CACHE_DIR = os.path.join(ROOT, ".perfbench_cache")

#: A single execution that takes longer than this has hung.
WORKER_TIMEOUT_S = 60
#: Fewest timed executions of each kind in a run, however short the run.
MIN_EXECUTIONS = 3

#: Seconds the calibration task of ``worker.py`` takes on an uncontended
#: vCPU of the host the benchmark was defined on (Intel Xeon, 2 vCPUs).
#: Every reported time is a measured time multiplied by this over the
#: calibration time measured around the same command, so it reads as the
#: time at that reference speed whatever else loads the host meanwhile.
REFERENCE_CALIBRATION_S = 0.11

#: Exceptions for which the protocol excludes a pair from USC.
EXCLUSION_REASONS = ("BehindCamera", "DegenerateGroundTruth", "BehindVehicle",
                     "OriginInside", "GroundTruthAtOrigin")
#: Layers whose inclusive time per call is reported.
PER_CALL_LAYERS = ("constraints.usc_score", "geometry.iogt3d")

END_TO_END = {"frames_per_s": "frames/s", "setup_s": "s", "peak_rss_mb": "MB"}


def _per_layer_units() -> dict:
    units = {}
    for layer in tracing.LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
        if layer in PER_CALL_LAYERS:
            units[f"{layer}.us_per_call"] = "us"
    for layer in tracing.COUNTED_LAYERS:
        units[f"{layer}.calls"] = "count"
    for reason in EXCLUSION_REASONS:
        units[f"constraints.usc_score.excluded.{reason}"] = "count"
    units["io.load_dataset.bytes"] = "bytes"
    units["trace.overhead"] = "ratio"
    units["trace.traced_wall_s"] = "s"
    units["trace.untraced_wall_s"] = "s"
    return units


PER_LAYER = _per_layer_units()


class Run:
    """The executions of one workload in one benchmark run."""

    def __init__(self, workload: workloads.Workload, inputs: workloads.Inputs,
                 rundir: str):
        self.workload = workload
        self.inputs = inputs
        self.rundir = rundir
        self.executions: list = []
        self.argv = [workload.command, "--data", inputs.data]
        if workload.command == "eval":
            self.argv += ["--out", os.path.join(rundir, "report.json")]
        if inputs.config:
            self.argv += ["--config", inputs.config]

    def execute(self, traced: bool) -> dict:
        """Run one command in a fresh worker process and keep its result."""
        n = len(self.executions)
        base = os.path.join(self.rundir, f"exec-{n}")
        job = {"argv": self.argv, "command": self.workload.command,
               "summary": self.inputs.summary_path,
               "result": base + ".result.json",
               "trace": base + ".trace.json" if traced else None}
        with open(base + ".job.json", "w", encoding="utf-8") as handle:
            json.dump(job, handle)
        try:
            proc = subprocess.run([sys.executable, WORKER, base + ".job.json"],
                                  capture_output=True, text=True,
                                  timeout=WORKER_TIMEOUT_S)
            if proc.returncode == 0:
                with open(job["result"], "r", encoding="utf-8") as handle:
                    result = json.load(handle)
            else:
                result = {"problems": [f"worker exited {proc.returncode}: "
                                       f"{proc.stderr.strip()[-500:]}"]}
        except subprocess.TimeoutExpired:
            result = {"problems": [f"worker ran over {WORKER_TIMEOUT_S} s"]}
        if "calibration_s" in result:
            before, after = result["calibration_s"]
            scale = REFERENCE_CALIBRATION_S / statistics.fmean((before, after))
            result["wall_ref_s"] = result["wall_s"] * scale
            # The import runs just before the first calibration. Part of it is
            # file and loader work that the host's slow phases slow less than
            # the calibration task: over 53 runs whose calibration took 1.1 to
            # 2.3 times its reference, the import time grew as the square root
            # of the calibration time. Scaling by that root left the run
            # medians 3.6% apart; full scaling left them 23% apart.
            result["import_ref_s"] = result["import_s"] * math.sqrt(
                REFERENCE_CALIBRATION_S / before)
            if traced and os.path.exists(job["trace"]):
                trace = tracing.read(job["trace"])
                result["layers"] = tracing.layer_totals(trace, scale)
                result["counts"] = trace["counts"]
                result["raised"] = trace["raised"]
                result["bytes_read"] = trace["bytes_read"]
        self.executions.append(result)
        return result

    def repeat(self, seconds: float, kinds) -> dict:
        """One warm-up, then rounds of ``kinds`` executions for ``seconds``."""
        self.execute(traced=False)
        timed = {traced: [] for traced in kinds}
        deadline = time.monotonic() + seconds
        rounds = 0
        while rounds < MIN_EXECUTIONS or time.monotonic() < deadline:
            for traced in kinds:
                timed[traced].append(self.execute(traced))
            rounds += 1
        return timed

    def check_repeatable(self) -> None:
        """Every execution of one seed must print and write the same bytes."""
        reference = self.executions[0].get("digest")
        for result in self.executions[1:]:
            if not result["problems"] and result.get("digest") != reference:
                result["problems"].append("output differs from the first execution")

    @property
    def failed(self) -> int:
        return sum(1 for r in self.executions if r["problems"])


def _spread(values) -> str:
    if len(values) < 2:
        return f"median {values[0]:.4g} (n=1)"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"median {q2:.4g}  p25 {q1:.4g}  p75 {q3:.4g}  (n={len(values)})"


def end_to_end(run: Run, seconds: float, lines: list) -> dict:
    timed = [r for r in run.repeat(seconds, (False,))[False] if "wall_ref_s" in r]
    if not timed:
        raise RuntimeError("no execution completed")
    frames = run.inputs.summary["frames"]
    walls = [r["wall_ref_s"] for r in timed]
    imports = [r["import_ref_s"] for r in timed]
    lines.append(f"command s, as measured: {_spread([r['wall_s'] for r in timed])}")
    lines.append(f"command s, at reference speed: {_spread(walls)}")
    lines.append(f"import s, at reference speed: {_spread(imports)}")
    lines.append("calibration s: "
                 f"{_spread([statistics.fmean(r['calibration_s']) for r in timed])}")
    return {
        "frames_per_s": statistics.median([frames / w for w in walls]),
        "setup_s": statistics.median(imports),
        "peak_rss_mb": statistics.median(r["peak_rss_kb"] for r in timed) / 1024.0,
    }


def per_layer(run: Run, seconds: float, lines: list) -> dict:
    timed = run.repeat(seconds, (False, True))
    untraced = [r["wall_ref_s"] for r in timed[False] if "wall_ref_s" in r]
    traced = [r for r in timed[True] if "layers" in r]
    if not untraced or not traced:
        raise RuntimeError("no traced or untraced execution completed")
    totals = [r["layers"] for r in traced]

    def work(result):
        # every count that must repeat exactly for one seed
        return ({n: t["calls"] for n, t in result["layers"].items()},
                result["counts"], result["raised"], result["bytes_read"])

    reference = work(traced[0])
    for result in traced[1:]:
        if work(result) != reference:
            result["problems"].append("traced call counts differ between executions")
    calls, counts, raised_rows, bytes_read = reference
    raised = {(layer, exc): n for layer, exc, n in raised_rows}

    metrics = {}
    for layer in tracing.LAYERS:
        metrics[f"{layer}.calls"] = calls[layer]
        metrics[f"{layer}.self_s"] = statistics.median(t[layer]["self_s"]
                                                       for t in totals)
        if layer in PER_CALL_LAYERS:
            total = statistics.median([t[layer]["total_s"] for t in totals])
            metrics[f"{layer}.us_per_call"] = (
                total / calls[layer] * 1e6 if calls[layer] else 0.0)
    for layer in tracing.COUNTED_LAYERS:
        metrics[f"{layer}.calls"] = counts.get(layer, 0)
    for reason in EXCLUSION_REASONS:
        metrics[f"constraints.usc_score.excluded.{reason}"] = raised.get(
            ("constraints.usc_score", reason), 0)
    metrics["io.load_dataset.bytes"] = bytes_read.get("io.load_dataset", 0)
    # each round runs an untraced then a traced execution; comparing the two
    # of a round cancels host slowdowns that outlast a round
    ratios = [t["wall_ref_s"] / u["wall_ref_s"]
              for u, t in zip(timed[False], timed[True])
              if "wall_ref_s" in u and "wall_ref_s" in t]
    metrics["trace.overhead"] = statistics.median(ratios)
    metrics["trace.traced_wall_s"] = statistics.median(r["wall_ref_s"] for r in traced)
    metrics["trace.untraced_wall_s"] = statistics.median(untraced)

    # A diagnostic, not a check: a program that scores pairs without one
    # usc_score call each, or masks exclusions instead of raising them, is
    # still correct. Its output is checked by the report checks.
    report = traced[0].get("report")
    if report is not None:
        excluded = sum(metrics[f"constraints.usc_score.excluded.{reason}"]
                       for reason in EXCLUSION_REASONS)
        lines.append(f"usc_score calls {calls['constraints.usc_score']}, "
                     f"exclusions raised {excluded}; report matched pairs "
                     f"{report['tp']}, usc_excluded {report['usc_excluded']}")
    lines.append("traced command s, at reference speed: "
                 f"{_spread([r['wall_ref_s'] for r in traced])}")
    lines.append(f"untraced command s, at reference speed: {_spread(untraced)}")
    return metrics


def environment(run: Run) -> str:
    first = next((r for r in run.executions if "python" in r), {})
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return (f"env: python {first.get('python', '?')}, numpy "
            f"{first.get('numpy', '?')}, nproc {len(os.sched_getaffinity(0))}, "
            f"cpu {cpu}")


def run_workload(name: str, seed: int, seconds: float, trace: int):
    """Measure one workload; returns (lines, metrics with units, run)."""
    workload = workloads.WORKLOADS[name]
    inputs = workloads.prepare(workload, seed, CACHE_DIR)
    rundir = tempfile.mkdtemp(prefix="run-", dir=CACHE_DIR)
    lines = [f"== workload {name}  seed {seed}  seconds {seconds:g}  trace {trace}"]
    try:
        run = Run(workload, inputs, rundir)
        if trace:
            values = per_layer(run, seconds, lines)
            units = PER_LAYER
        else:
            values = end_to_end(run, seconds, lines)
            units = END_TO_END
        run.check_repeatable()
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    s = inputs.summary
    pairs = next((r["report"]["tp"] for r in run.executions if r.get("report")),
                 None)
    lines.append(f"inputs: frames {s['frames']}, ground truths {s['ground_truths']}, "
                 f"predictions {s['predictions']}, matched pairs "
                 f"{pairs if pairs is not None else 'n/a'}, dataset "
                 f"{os.path.getsize(inputs.data)} bytes")
    lines.append("bench set-up: " + (
        "inputs taken from the cache" if inputs.cached
        else f"inputs generated in {inputs.generate_s:.3f} s"))
    lines.append(environment(run))
    lines.append(f"executions: {len(run.executions)} (incl. 1 warm-up), failed "
                 f"{run.failed}, error_rate {run.failed / len(run.executions):.4g}")
    for result in run.executions:
        for problem in result["problems"]:
            lines.append(f"FAILED: {problem}")
    metrics = {n: {"value": values[n], "unit": units[n]} for n in units}
    for n, m in metrics.items():
        lines.append(f"{n:<48} {m['value']:>16.6g} {m['unit']}")
    return lines, metrics, run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "usc", "cli.py")):
        print(f"error: no program source at {os.path.join(ROOT, 'src', 'usc')}",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        plan = [(name, trace) for name in workloads.WORKLOADS for trace in (0, 1)]
    else:
        plan = [(args.workload, args.trace)]
    metrics, attempted, failed = {}, 0, 0
    try:
        for name, trace in plan:
            lines, run_metrics, run = run_workload(name, args.seed, args.seconds,
                                                   trace)
            print("\n".join(lines), flush=True)
            prefix = f"{name}." if args.workload == "all" else ""
            metrics.update({prefix + n: m for n, m in run_metrics.items()})
            attempted += len(run.executions)
            failed += run.failed
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
