"""Output checks run after every command execution, outside the timed part.

Each check returns a list of problems; an empty list means the output
passed. Totals that can be known without the program (ground truths per
class and range bucket) come from the benchmark's own input summary.
"""

from __future__ import annotations

import json
import math
from typing import List

from usc.errors import UscError
from usc.io import load_report, report_to_dict


def _in_unit_interval(value) -> bool:
    return isinstance(value, (int, float)) and 0.0 <= value <= 1.0


def check_eval(report_path: str, summary: dict) -> List[str]:
    """The report round-trips, its counts add up and every AUSC is sane."""
    try:
        with open(report_path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
        report = load_report(report_path)
    except (OSError, ValueError, UscError) as exc:
        return [f"report does not load: {exc}"]
    problems = []
    if report_to_dict(report) != raw:
        problems.append("report does not round-trip through load_report")
    expected = summary["in_range"]
    if sorted(report.classes) != sorted(expected):
        problems.append(f"classes {report.classes} != {sorted(expected)}")
        return problems
    try:
        for label in next(iter(expected.values()), {}):
            bucket_total = 0
            for class_name, counts in expected.items():
                m = report.per_class[class_name][label]
                bucket_total += counts[label]
                if m.tp + m.fn != counts[label]:
                    problems.append(f"{class_name} {label}: tp + fn = "
                                    f"{m.tp + m.fn}, expected {counts[label]}")
                if m.ausc is not None and not _in_unit_interval(m.ausc):
                    problems.append(f"{class_name} {label}: AUSC {m.ausc}")
            s = report.per_bucket[label]
            if s.tp + s.fn != bucket_total:
                problems.append(f"bucket {label}: tp + fn = {s.tp + s.fn}, "
                                f"expected {bucket_total}")
            if s.mausc is not None and not _in_unit_interval(s.mausc):
                problems.append(f"bucket {label}: mAUSC {s.mausc}")
        overall = report.overall
        if overall is None:
            problems.append("report has no overall summary")
        elif overall.mausc is not None and not _in_unit_interval(overall.mausc):
            problems.append(f"overall mAUSC {overall.mausc}")
    except (KeyError, TypeError, AttributeError) as exc:
        problems.append(f"report is missing a bucket or class: {exc!r}")
    return problems


def check_loss(stdout: str, summary: dict) -> List[str]:
    """Every printed loss is finite and every IoGT loss lies in [0, 1]."""
    lines = stdout.splitlines()
    if len(lines) < 3 or not lines[0].startswith("lambda="):
        return [f"unexpected loss output: {stdout[:200]!r}"]
    if lines[1].split() != ["class", "smooth_l1", "iogt_loss", "safety_loss"]:
        return [f"unexpected loss header: {lines[1]!r}"]
    problems = []
    for line in lines[2:]:
        fields = line.split()
        try:
            class_name = fields[0]
            l1, enclosure, blended = (float(v) for v in fields[1:])
        except (IndexError, ValueError):
            problems.append(f"unparsable loss row: {line!r}")
            continue
        if class_name not in summary["in_range"]:
            problems.append(f"loss row for unknown class {class_name!r}")
        if not all(math.isfinite(v) for v in (l1, enclosure, blended)):
            problems.append(f"{class_name}: non-finite loss in {line!r}")
        elif not 0.0 <= enclosure <= 1.0:
            problems.append(f"{class_name}: iogt_loss {enclosure} outside [0, 1]")
    return problems
