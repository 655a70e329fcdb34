"""A catalogue of mutants of ``src/usc`` and a runner that shows which tests
kill them.

A mutant replaces one exact text of a module, which occurs there once, by
another. The runner copies ``src``, ``tests`` and ``pyproject.toml`` to a
temporary directory for each mutant, applies the mutant to the copy and
runs the mutant's tests there with ``pytest -x -q`` (Hypothesis seed 0).
It prints one row per mutant:

- killed: the tests fail (the row names the first failing test);
- survived: they pass, and the mutant is not marked equivalent;
- equivalent: they pass, and the catalogue says why no test can tell the
  mutant from the program;
- error: pytest did not run the tests (exit code other than 0 or 1).

Run from the repository root (pytest does not collect this file):

    python3 tests/mutants.py [name ...]

With no names it runs every mutant. It exits 1 when a mutant survived or
an error occurred, and 0 otherwise. ``tests/test_mutants.py`` checks, in
the tier-1 suite, that each old text occurs exactly once, so a change that
moves the mutated code updates the catalogue with it.
"""

import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple, Tuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "usc"


class Mutant(NamedTuple):
    name: str
    path: str  # relative to src/usc
    old: str
    new: str
    tests: Tuple[str, ...]  # pytest arguments, relative to the repository root
    equivalent: str = ""  # why no test can kill it; empty when one should


EVALUATION = ("tests/test_evaluation.py",)
USC_BATCH = ("tests/test_constraints.py::TestUscBatch",)
IOGT3D_BATCH = ("tests/test_geometry.py::TestIogt3dBatch",)
OVERLAP = ("tests/test_geometry.py::TestOverlapAgainstReference",
           "tests/test_geometry.py::TestIou3d")
LOADER = ("tests/test_io.py",)
LOSS_BATCH = ("tests/test_loss.py::TestSafetyLossBatch",)
HYPOT = ("tests/test_geometry.py::TestHypot",)

CATALOGUE = (
    # the candidate table's x window: each bound keeps an x equal to it
    Mutant("window-low-bound-side", "evaluation.py",
           "np.searchsorted(xs, px - slack))",
           'np.searchsorted(xs, px - slack, side="right"))', EVALUATION),
    Mutant("window-high-bound-side", "evaluation.py",
           'np.searchsorted(xs, px + slack, side="right")',
           "np.searchsorted(xs, px + slack)", EVALUATION),
    Mutant("window-stop-key-side", "evaluation.py",
           'px + slack, side="right"))',
           'px + slack, side="right"), side="right")', EVALUATION),
    Mutant("window-without-slack", "evaluation.py",
           "slack = reach * (1 + 1e-9)", "slack = reach", EVALUATION),
    Mutant("reach-exclusive", "evaluation.py",
           "within = dist <= reach", "within = dist < reach", EVALUATION),
    # the order of a detection's entries: nearest, then lower index
    Mutant("lexsort-keys-swapped", "evaluation.py",
           "np.lexsort((ann, dist, det))", "np.lexsort((dist, ann, det))",
           EVALUATION),
    # the protocol limit is inclusive
    Mutant("eligibility-exclusive", "evaluation.py",
           "eligible = dist <= np.array(", "eligible = dist < np.array(",
           EVALUATION),
    # equal scores go in input order
    Mutant("score-ties-reversed", "evaluation.py",
           "order = np.lexsort((-score, p_group))",
           "order = np.lexsort((-np.arange(n_dets), -score, p_group))",
           EVALUATION),
    # a group is matched again at t when an entry's eligibility differs
    Mutant("rematch-only-new-entries", "evaluation.py",
           "p_group[det[at_t != eligible]]", "p_group[det[at_t > eligible]]",
           EVALUATION),
    Mutant("rematch-only-lost-entries", "evaluation.py",
           "p_group[det[at_t != eligible]]", "p_group[det[at_t < eligible]]",
           EVALUATION),
    # the walk's working memory is bounded by the chunk cap
    Mutant("chunk-cap-above-any-dataset", "evaluation.py",
           "_CHUNK_CAP = 2048", "_CHUNK_CAP = 10**9",
           ("tests/test_evaluation.py::test_walk_working_memory_is_bounded",)),
    # an object whose np.hypot distance lies near a bucket edge is bucketed
    # by math.hypot, which bucket_index is given
    Mutant("bucket-near-edge-unchecked", "evaluation.py",
           "    if near.any():\n", "    if False:\n", EVALUATION),
    # the greedy rounds: a detection's first live entry is its match when no
    # detection ahead of it has a live entry for that annotation, and the
    # loop finishes the rest once a round matches fewer than half
    Mutant("greedy-accept-by-rank-at-most", "evaluation.py",
           "first & (least[anns] == ranks)", "first & (least[anns] <= ranks)",
           EVALUATION),
    Mutant("greedy-first-live-entry-untested", "evaluation.py",
           "first & (least[anns] == ranks)", "(least[anns] == ranks)", EVALUATION),
    Mutant("greedy-loop-tail-skipped", "evaluation.py",
           """            won_ranks, won_entries = _greedy_loop(ranks, anns, kept)
            match[order[won_ranks]] = won_entries
""", "", EVALUATION),
    Mutant("greedy-switch-rule-inverted", "evaluation.py",
           "if 2 * len(won) < pending:", "if 2 * len(won) >= pending:", EVALUATION),
    # each slice's AUSC takes its own run of the one USC pass
    Mutant("usc-pass-slice-bounds-shifted", "evaluation.py",
           "_mean_usc(usc[start:end], reason[start:end])",
           "_mean_usc(usc[start + 1:end + 1], reason[start + 1:end + 1])",
           EVALUATION),
    # a yaw residual of exactly -pi wraps to pi, whose absolute value is the same
    Mutant("aoe-wrap-below-minus-pi", "evaluation.py",
           "(diff <= -math.pi)", "(diff < -math.pi)", EVALUATION,
           equivalent="abs(-pi) == abs(wrap_angle(-pi)) == pi"),
    # the USC kernel's exclusions: behind the camera overrides a degenerate
    # ground truth, as usc_score checks it first
    Mutant("usc-exclusion-order-swapped", "constraints.py",
           """    reason[g_area <= EPS_GEOM * EPS_GEOM] = 1 + EXCLUSION_REASONS.index(
        DegenerateGroundTruth)
    reason[behind[:n] | behind[n:]] = 1 + EXCLUSION_REASONS.index(BehindCamera)
""",
           """    reason[behind[:n] | behind[n:]] = 1 + EXCLUSION_REASONS.index(BehindCamera)
    reason[g_area <= EPS_GEOM * EPS_GEOM] = 1 + EXCLUSION_REASONS.index(
        DegenerateGroundTruth)
""", USC_BATCH),
    # a ground-truth PV area of exactly EPS_GEOM ** 2 is degenerate
    Mutant("usc-degenerate-area-exclusive", "constraints.py",
           "reason[g_area <= EPS_GEOM * EPS_GEOM]",
           "reason[g_area < EPS_GEOM * EPS_GEOM]", USC_BATCH),
    # the USC kernel's routing: a PV bound or a footprint coordinate that is
    # not finite goes to usc_score, which raises on it
    Mutant("usc-routing-without-pv-bounds", "constraints.py",
           "np.vstack([u_lo, u_hi, v_lo, v_hi, fx, fz])", "np.vstack([fx, fz])",
           USC_BATCH),
    Mutant("usc-routing-without-footprints", "constraints.py",
           "np.vstack([u_lo, u_hi, v_lo, v_hi, fx, fz])",
           "np.vstack([u_lo, u_hi, v_lo, v_hi])", USC_BATCH),
    # the USC kernel's vertex picks: a box whose extreme x / z is within the
    # margin of the runner-up, the margin included, or with a NaN x / z,
    # ranks by atan2
    Mutant("usc-margin-exclusive", "constraints.py",
           "(u_hi - u_hi2 > margin) & (u_lo2 - u_lo > margin)",
           "(u_hi - u_hi2 >= margin) & (u_lo2 - u_lo >= margin)", USC_BATCH),
    Mutant("usc-margin-nan-fast", "constraints.py",
           "~((u_hi - u_hi2 > margin) & (u_lo2 - u_lo > margin))",
           "(u_hi - u_hi2 <= margin) | (u_lo2 - u_lo <= margin)", USC_BATCH),
    Mutant("usc-margin-zero", "constraints.py",
           "margin = 2.0 ** -40 *", "margin = 0.0 *", USC_BATCH),
    Mutant("usc-picks-swapped", "constraints.py",
           "for e in (u_hi, u_lo))", "for e in (u_lo, u_hi))", USC_BATCH),
    # the sorting network gives the four x / z of a box in order
    Mutant("usc-sort-network-comparator-swapped", "constraints.py",
           "u_lo2, u_hi2 = np.minimum(mid_lo, mid_hi), np.maximum(mid_lo, mid_hi)",
           "u_hi2, u_lo2 = np.minimum(mid_lo, mid_hi), np.maximum(mid_lo, mid_hi)",
           USC_BATCH),
    Mutant("usc-closest-first-vertex", "constraints.py",
           "np.vstack([norm.min(axis=0), ", "np.vstack([norm[0], ", USC_BATCH),
    # the IoGT kernel's errors: a ground-truth footprint that is not finite,
    # a ground-truth volume of 0.0, and a prediction footprint that is not
    # finite, the last only where the vertical intervals overlap
    Mutant("iogt3d-routing-without-volume", "geometry.py",
           "failing = ~g_finite | (volume == 0.0) | ",
           "failing = ~g_finite | ", IOGT3D_BATCH),
    Mutant("iogt3d-routing-without-finite", "geometry.py",
           "failing = ~g_finite | (volume == 0.0) | ",
           "failing = (volume == 0.0) | ", IOGT3D_BATCH),
    Mutant("iogt3d-pred-footprint-checked-without-overlap", "geometry.py",
           "((vertical > 0.0) & ~p_finite)", "~p_finite", IOGT3D_BATCH),
    # a clip that rounding makes emit more than 8 vertices keeps them all
    Mutant("clip-rows-never-widens", "geometry.py",
           "if count.max(initial=0) > len(x):", "if False:", IOGT3D_BATCH),
    # slot 0's previous vertex is its pair's last live slot, not the last slot
    Mutant("clip-prev-vertex-of-slot-0-from-last-slot", "geometry.py",
           "prev = np.where(k > 0, at - n, last.take(j))",
           "prev = np.where(k > 0, at - n, (len(x) - 1) * n + j)", IOGT3D_BATCH),
    # a slot emits its crossing point before its vertex
    Mutant("clip-crossing-after-vertex", "geometry.py",
           """        slot = (end.take(at) - 1 - keep.take(at)) * n + j
        flat_x[slot], flat_z[slot] = px + t * (qx - px), pz + t * (qz - pz)
        slot = (end.take(kept) - 1) * n + kept % n
""", """        slot = (end.take(at) - 1) * n + j
        flat_x[slot], flat_z[slot] = px + t * (qx - px), pz + t * (qz - pz)
        slot = (end.take(kept) - 1 - cross.take(kept)) * n + kept % n
""", IOGT3D_BATCH),
    # the running count of emitted values starts at the first slot
    Mutant("clip-running-count-off-by-one-row", "geometry.py",
           "for row in range(1, len(end)):", "for row in range(2, len(end)):",
           IOGT3D_BATCH),
    # hypot repeats math.hypot's steps: the correction and both fraction sums
    Mutant("hypot-correction-dropped", "geometry.py",
           "        h += total  # the differential correction\n", "", HYPOT),
    Mutant("hypot-fraction-sum-dropped", "geometry.py",
           "        frac1 += lo\n", "", HYPOT),
    # the footprint helper's first y row is the bottom, its second the top
    Mutant("footprint-bottom-top-swapped", "geometry.py",
           "_SIDE_Y = np.array([[-1.0], [1.0]])",
           "_SIDE_Y = np.array([[1.0], [-1.0]])",
           ("tests/test_geometry.py::TestBoxCorners",) + IOGT3D_BATCH),
    # IoU clips the footprint with the smaller vertex tuple, so that it does
    # not depend on the argument order
    Mutant("iou3d-subject-by-argument-order", "geometry.py",
           "subject = 0 if footprints[0] <= footprints[1] else 1",
           "subject = 0", OVERLAP),
    # the loader's value rules, checked at once: a size of 0 is rejected, a
    # score of 0 or 1 accepted, and a yaw of exactly -pi stored as pi
    Mutant("loader-size-nonnegative", "dataset.py",
           "(boxes[:, 3:6] > 0.0)", "(boxes[:, 3:6] >= 0.0)", LOADER),
    Mutant("loader-score-above-zero", "dataset.py",
           "(scores >= 0.0)", "(scores > 0.0)", LOADER),
    Mutant("loader-score-below-one", "dataset.py",
           "(scores <= 1.0)", "(scores < 1.0)", LOADER),
    Mutant("loader-yaw-wrap-below-minus-pi", "dataset.py",
           "(yaw <= -math.pi)", "(yaw < -math.pi)", LOADER),
    # a velocity is checked in the loader's shape pass, each component finite
    Mutant("loader-velocity-finite-vx-only", "dataset.py",
           "math.isfinite(vx) and math.isfinite(vz)", "math.isfinite(vx)", LOADER),
    # before the loader raises at a line, it checks the values of the lines
    # before it, so that the first faulty line names the error
    Mutant("loader-raises-before-checking-earlier-lines", "io.py",
           """            _check_values(builder, pending)
            raise""", """            raise""", LOADER),
    # a dataset line that orjson refuses is decoded by json, which takes NaN
    # and infinity, before any error is raised
    Mutant("loader-orjson-fallback-dropped", "io.py",
           """        except orjson.JSONDecodeError:
            pass
""", """        except orjson.JSONDecodeError as exc:
            raise ParseError(str(exc), lineno) from exc
""", LOADER),
    # a line that fails the shape check is parsed from json's values: orjson
    # decodes nesting that json refuses
    Mutant("loader-slow-path-reuses-orjson-value", "io.py",
           "_parse_frame(_decode(line, lineno),", "_parse_frame(obj,", LOADER),
    # orjson is never given a line that could nest deep enough to overflow
    # the C stack
    Mutant("loader-orjson-depth-unguarded", "io.py",
           """if (len(line) <= _ORJSON_MAX_BRACKETS
            or line.count("[") + line.count("{") <= _ORJSON_MAX_BRACKETS):""",
           "if True:", LOADER),
    # only a line longer than the bound can hold more brackets than it
    Mutant("loader-orjson-length-bound-off-by-one", "io.py",
           "len(line) <= _ORJSON_MAX_BRACKETS",
           "len(line) <= _ORJSON_MAX_BRACKETS + 1", LOADER),
    # lines end at LF alone, and only JSON whitespace makes a line blank
    Mutant("loader-universal-newlines", "io.py",
           'errors="surrogateescape",\n              newline="\\n")',
           'errors="surrogateescape")', LOADER),
    Mutant("loader-blank-line-any-whitespace", "io.py",
           'if not line.strip(" \\t\\r\\n"):', "if not line.strip():", LOADER),
    # the loss pass's yaw wrap and sum
    Mutant("loss-wrap-below-minus-pi", "loss.py",
           "(yaw <= -math.pi)", "(yaw < -math.pi)", LOSS_BATCH,
           equivalent="the Huber term takes abs(-pi) == abs(wrap_angle(-pi))"),
    Mutant("loss-wrap-at-pi", "loss.py",
           "(yaw > math.pi)", "(yaw >= math.pi)", LOSS_BATCH,
           equivalent="wrap_angle(math.pi) is math.pi"),
    Mutant("loss-sum-from-minus-zero", "loss.py",
           "accuracy = np.zeros(len(p_boxes))",
           "accuracy = np.full(len(p_boxes), -0.0)", LOSS_BATCH,
           equivalent="no Huber term is -0.0, and -0.0 + 0.0 is 0.0"),
)


def run(mutant: Mutant) -> Tuple[str, str]:
    """The mutant's outcome, and the first failing test or pytest's last line."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis")
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, copy / name, ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", copy)
        path = copy / "src" / "usc" / mutant.path
        text = path.read_text(encoding="utf-8")
        if text.count(mutant.old) != 1:
            return "error", f"old text occurs {text.count(mutant.old)} times"
        path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             "--hypothesis-seed=0", *mutant.tests],
            cwd=copy, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    last = lines[-1] if lines else done.stderr.strip()[-200:]
    if done.returncode == 1:
        # the short summary names the failing test
        failed = [line.split()[1] for line in lines if line.startswith("FAILED ")]
        return "killed", failed[0] if failed else last
    if done.returncode == 0:
        return ("equivalent" if mutant.equivalent else "survived"), last
    return "error", last


def main(names) -> int:
    chosen = [m for m in CATALOGUE if not names or m.name in names]
    unknown = set(names) - {m.name for m in CATALOGUE}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    failed = False
    for mutant in chosen:
        outcome, last = run(mutant)
        failed |= outcome in ("survived", "error")
        print(f"{mutant.name:<30} {outcome:<11} {last}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
