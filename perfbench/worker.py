"""Run one ``usc`` command once, in this fresh interpreter, and report on it.

Usage: python3 perfbench/worker.py JOB.json

JOB.json holds ``argv`` (the ``usc`` command line), ``command`` ("eval" or
"loss"), ``summary`` (the input summary the output check compares against),
``trace`` (a path for the span file, or null for an untraced execution) and
``result`` (where this script writes its JSON result). The package is
imported from ``src/`` of the checkout this script sits in.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Repetitions of the calibration task on each side of the command.
CALIBRATION_REPS = 20


def import_program():
    """Import the command-line module from the checkout; return it and the
    seconds the import took in this interpreter."""
    start = time.perf_counter()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import usc.cli
    import_s = time.perf_counter() - start
    expected = os.path.join(ROOT, "src", "usc", "")
    if not os.path.abspath(usc.cli.__file__).startswith(expected):
        raise ImportError(f"usc imported from {usc.cli.__file__}, not {expected}")
    return usc.cli, import_s


def calibrate() -> float:
    """Seconds for a fixed reference task: the benchmark's own generator on a
    small scene plus a JSON round trip, repeated.

    It is pure Python with the allocation and float work the program does, so
    a host that runs this process slower at the moment slows both alike; the
    benchmark divides the program's times by it.
    """
    import json
    import workloads

    scene = workloads.Scene(frames=40, objects_min=2, objects_max=8,
                            depth_bias=0.2, lateral_noise=0.1, miss_rate=0.1,
                            fp_rate=0.2)
    workloads.generate(scene, 0)  # first run pays for cold code paths
    start = time.perf_counter()
    for _ in range(CALIBRATION_REPS):
        json.loads(json.dumps(workloads.generate(scene, 0)))
    return time.perf_counter() - start


def execute(cli, argv, tracer=None):
    """Run ``usc <argv>`` once; returns (exit code, stdout, wall s, cpu s, error).

    With a tracer, its wrappers are installed for exactly this command and
    removed afterwards.
    """
    import contextlib
    import io

    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    if tracer is not None:
        tracer.install()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a traceback is a failed execution, not a crash
        error = f"{type(exc).__name__}: {exc}"
    finally:
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        if tracer is not None:
            tracer.uninstall()
    if error is None and code != 0:
        error = f"exit code {code}: {err.getvalue().strip()[-300:]}"
    return code, out.getvalue(), wall, cpu, error


def main(job_path):
    cli, import_s = import_program()
    calibration_before = calibrate()
    import hashlib
    import json
    import resource

    with open(job_path, "r", encoding="utf-8") as handle:
        job = json.load(handle)
    tracer = None
    if job["trace"]:
        import tracing
        tracer = tracing.Tracer()
    code, stdout, wall, cpu, error = execute(cli, job["argv"], tracer)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    calibration_after = calibrate()
    if tracer is not None:
        tracer.write(job["trace"])

    import checks
    import numpy
    from usc.io import load_report

    with open(job["summary"], "r", encoding="utf-8") as handle:
        summary = json.load(handle)
    problems = [error] if error else []
    digest = hashlib.sha256(stdout.encode())
    report = None
    if not problems and job["command"] == "eval":
        report_path = job["argv"][job["argv"].index("--out") + 1]
        problems += checks.check_eval(report_path, summary)
        if not problems:
            with open(report_path, "rb") as handle:
                digest.update(handle.read())
            overall = load_report(report_path).overall
            report = {"tp": overall.tp, "usc_excluded": overall.usc_excluded}
    elif not problems:
        problems += checks.check_loss(stdout, summary)
    result = {
        "import_s": import_s, "wall_s": wall, "cpu_s": cpu,
        "calibration_s": [calibration_before, calibration_after],
        "peak_rss_kb": peak_kb, "problems": problems,
        "digest": digest.hexdigest(), "report": report,
        "python": sys.version.split()[0], "numpy": numpy.__version__,
    }
    with open(job["result"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main(sys.argv[1])
