"""Command-line entry point.

Subcommands: ``eval`` (run the protocol and write a report), ``loss``
(per-class loss means over matched pairs), ``synth`` (generate a synthetic
dataset), ``corr`` (correlate report metrics against outcome rates).

``eval`` and ``loss`` read the same inputs: ``--data`` (a combined
dataset), or ``--gt`` together with ``--pred``, and a ``--config``. A
missing ``--config`` prints a warning and falls back to the defaults.

A failing command raises (UscError or ValueError for invalid input,
OSError for I/O) before it prints its output or writes a file; ``main`` is
the one place that prints the ``error:`` line to stderr and picks the exit
code, 1 (validation error) or 2 (I/O error); 0 is success. Line breaks in
the message are escaped, so the ``error:`` line is one line. Malformed flags
are argparse's usage errors, which also exit 2.

A command runs with the cyclic garbage collector paused. What it builds
(the dataset's arrays, the report) holds no reference cycles, so
reference counting frees it all; left running, the collector would walk every
decoded object again and again and free nothing, at a cost that grows with the
dataset. ``main`` restores the collector's previous state when the command
returns or raises, so a caller that runs commands in its own process keeps
the collector as it had it.
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import sys
from dataclasses import fields
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import io as uio
from .dataset import Dataset
from .errors import UscError, ZeroVariance
from .evaluation import (ProtocolConfig, evaluate, matched_indices, pair_error,
                         pearson)
from .loss import LossConfig, safety_loss_batch

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2

#: each character ``str.splitlines`` breaks at -> its escape, so that an error
#: naming an input string (a key, a frame id) stays on its one line
_ESCAPED_BREAKS = {ord(c): repr(c)[1:-1]
                   for c in "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"}

#: (printed name, overall field) of each metric ``corr`` correlates
CORR_METRICS = (("mAP", "mean_ap"), ("NDS", "nds"), ("mAUSC", "mausc"),
                ("USC-NDS", "usc_nds"))


def _add_data_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--data", help="combined dataset (JSONL)")
    parser.add_argument("--gt", help="ground-truth dataset (JSONL)")
    parser.add_argument("--pred", help="prediction dataset (JSONL)")
    parser.add_argument("--config", help="protocol config (JSON)")


def _inputs(args) -> Tuple[ProtocolConfig, LossConfig, Dataset]:
    """The protocol config, loss config and dataset that ``eval`` and
    ``loss`` read from their data arguments."""
    if args.data and (args.gt or args.pred):
        raise UscError("--data excludes --gt/--pred")
    if not args.data and not (args.gt and args.pred):
        raise UscError("need --data or both --gt and --pred")
    protocol, loss_config = ProtocolConfig(), LossConfig()
    if args.config is None:
        print("warning: no config given, using protocol defaults", file=sys.stderr)
    else:
        try:
            protocol, loss_config = uio.load_config(args.config)
        except FileNotFoundError:
            print(f"warning: config {args.config} not found, using protocol "
                  "defaults", file=sys.stderr)
    if args.data:
        frames = uio.load_dataset(args.data)
    else:
        frames = uio.merge_datasets(uio.load_dataset(args.gt),
                                    uio.load_dataset(args.pred))
    return protocol, loss_config, frames


def cmd_eval(args) -> int:
    protocol, _, frames = _inputs(args)
    report = evaluate(frames, protocol)
    # written first, so a failed write prints nothing; a table is formatted
    # once, for the file and for stdout
    written = uio.write_report(report, args.out, args.format) if args.out else None
    table = written if args.format == "table" else None
    print(table or uio.format_report_table(report), end="")
    return EXIT_OK


def cmd_loss(args) -> int:
    protocol, loss_config, data = _inputs(args)
    pairs_by_class: Dict[str, list] = {}
    pairs, _, _ = matched_indices(data, protocol)
    for (class_name, _bucket), class_pairs in sorted(pairs.items()):
        pairs_by_class.setdefault(class_name, []).append(class_pairs)
    if not pairs_by_class:
        raise UscError("no matched pairs")
    rows = []
    for class_name in sorted(pairs_by_class):
        class_pairs = pairs_by_class[class_name]
        dets = np.concatenate([p.detections for p in class_pairs])
        anns = np.concatenate([p.annotations for p in class_pairs])
        preds, gts = data.predictions.boxes[dets], data.ground_truths.boxes[anns]
        try:
            columns = safety_loss_batch(preds, gts, loss_config)
        except ValueError as exc:
            raise pair_error(exc, lambda p, g: safety_loss_batch(p, g, loss_config),
                             data, dets, preds, gts, class_name) from exc
        try:
            # exact sums, so the means do not depend on the order of the frames
            means = [math.fsum(column.tolist()) / len(dets) for column in columns]
        except OverflowError:
            means = [math.inf]
        if not all(map(math.isfinite, means)):
            raise ValueError(f"the loss means of class {class_name!r} are not "
                             "all finite numbers")
        rows.append(f"{class_name:<16}{means[0]:>12.6f}{means[1]:>12.6f}"
                    f"{means[2]:>13.6f}")
    print(f"lambda={loss_config.blend_lambda:g} "
          f"beta={loss_config.smooth_l1_beta:g}")
    print(f"{'class':<16}{'smooth_l1':>12}{'iogt_loss':>12}{'safety_loss':>13}")
    print("\n".join(rows))
    return EXIT_OK


def cmd_synth(args) -> int:
    spec_kwargs = uio.load_spec(args.spec) if args.spec else {}
    names = {f.name for f in fields(uio.SyntheticSpec)}
    flags = {key: value for key, value in vars(args).items()
             if key in names and value is not None}
    spec_kwargs.update(uio.spec_kwargs_from_dict(flags))
    spec = uio.SyntheticSpec(**spec_kwargs)
    frames = uio.generate_synthetic(spec)
    uio.save_dataset(frames, args.out)
    print(f"wrote {len(frames)} frames to {args.out}")
    return EXIT_OK


def cmd_corr(args) -> int:
    outcomes_map = uio.load_outcomes(args.outcomes)
    series: Dict[str, List[float]] = {name: [] for name, _ in CORR_METRICS}
    outcomes: List[float] = []
    for path in args.reports:
        report = uio.load_report(path)
        key = path if path in outcomes_map else os.path.basename(path)
        if key not in outcomes_map:
            raise UscError(f"no outcome for report {path}")
        values = [getattr(report.overall, field) for _, field in CORR_METRICS]
        if None in values:
            raise UscError(f"report {path} has undefined overall metrics")
        for (name, _), value in zip(CORR_METRICS, values):
            series[name].append(value)
        outcomes.append(outcomes_map[key])
    if len(outcomes) < 2:
        raise UscError("need at least two reports")
    results: Dict[str, Optional[float]] = {}
    for name, values in series.items():
        try:
            results[name] = abs(pearson(values, outcomes))
        except ZeroVariance:
            results[name] = None
    if all(value is None for value in results.values()):
        raise UscError("zero variance in every metric series")
    print(f"{'metric':<10}{'|r|':>10}")
    for name, value in results.items():
        print(f"{name:<10}{value:>10.6f}" if value is not None
              else f"{name:<10}{'undefined':>10}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="usc",
        description="Safety-oriented spatial-constraint metrics for 3D "
                    "object detection.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate a dataset and write a report")
    _add_data_arguments(p_eval)
    p_eval.add_argument("--out", help="report output path")
    p_eval.add_argument("--format", choices=("json", "table"), default="json")
    p_eval.set_defaults(func=cmd_eval)

    p_loss = sub.add_parser("loss", help="per-class loss means over matched pairs")
    _add_data_arguments(p_loss)
    p_loss.set_defaults(func=cmd_loss)

    p_synth = sub.add_parser("synth", help="generate a synthetic dataset")
    p_synth.add_argument("--spec", help="SyntheticSpec JSON file")
    p_synth.add_argument("--seed", type=int)
    p_synth.add_argument("--frames", type=int)
    p_synth.add_argument("--objects-min", type=int)
    p_synth.add_argument("--objects-max", type=int)
    p_synth.add_argument("--classes", type=lambda text: text.split(","),
                         help="comma-separated class names")
    p_synth.add_argument("--depth-bias", type=float)
    p_synth.add_argument("--lateral-noise", type=float)
    p_synth.add_argument("--size-noise", type=float)
    p_synth.add_argument("--yaw-noise", type=float)
    p_synth.add_argument("--miss-rate", type=float)
    p_synth.add_argument("--fp-rate", type=float)
    p_synth.add_argument("--out", required=True)
    p_synth.set_defaults(func=cmd_synth)

    p_corr = sub.add_parser("corr", help="correlate report metrics with outcomes")
    p_corr.add_argument("--reports", nargs="+", required=True)
    p_corr.add_argument("--outcomes", required=True,
                        help="JSON mapping report file names to outcome rates")
    p_corr.set_defaults(func=cmd_corr)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    collecting = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except (UscError, ValueError, OSError) as exc:
        print(f"error: {str(exc).translate(_ESCAPED_BREAKS)}", file=sys.stderr)
        return EXIT_IO if isinstance(exc, OSError) else EXIT_VALIDATION
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
