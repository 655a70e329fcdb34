"""Independent oracles the tests check the library against.

Each oracle deliberately recomputes its quantity through a different route
than the implementation under test: volumes by Monte Carlo sampling,
segment predicates by orientation tests, matching by exhaustive assignment
enumeration, average precision by a hand-rolled staircase walk, and view
coverage by ray casting. The greedy matcher is also kept here in its
original per-pair form, as the reference for ``matched_pairs``, the
library's one matcher entry point, and its shared candidate table; that
table in its all-pairs form, as the reference for the library's windowed
one; the greedy match over that table in its one-detection-at-a-time loop,
as the reference for the library's array rounds; the overlap measures in their original scalar form, a
Sutherland-Hodgman clip of polygon vertex lists that projects a box afresh
for every factor, as the reference, bit for bit and error for error, for
the library's array kernel; the dataset loader in its field-by-field form,
as the reference for the library's shape check and columnar loader; the
join of two datasets on frame_id in its list form, as the reference for the
library's gather of columns; the value types' rule for their numbers
written as plain checks, as the reference for their constructors; and the
bucket lookup, average precision and true-positive error means in their
original per-bucket, per-label and per-pair loops, as the references, bit
for bit, for the library's bisected edges and arrays. The whole report is
rebuilt from the documented definitions by ``reference_evaluate``.
"""

import itertools
import json
import math
from fractions import Fraction
from typing import Dict, List, NamedTuple, Optional, Sequence

import numpy as np

from usc import (EPS_GEOM, Annotation, Box3D, BucketSummary,
                 ClassBucketMetrics, Detection, FrameRecord, MatchedPair,
                 MetricsReport, bev_center_distance, box_corners,
                 project_bev, usc_score)
from usc.errors import (BehindCamera, DegenerateGroundTruth,
                        MissingAnnotationField, ParseError, SchemaError)
from usc.geometry import wrap_angle


# --- Monte Carlo volume oracle ------------------------------------------------


def points_in_box(points: np.ndarray, box: Box3D) -> np.ndarray:
    """Boolean membership of an (N, 3) point array in an upright box."""
    dx = points[:, 0] - box.center_x
    dy = points[:, 1] - box.center_y
    dz = points[:, 2] - box.center_z
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    local_x = dx * c - dz * s
    local_z = dx * s + dz * c
    return ((np.abs(local_x) <= box.length / 2)
            & (np.abs(dy) <= box.height / 2)
            & (np.abs(local_z) <= box.width / 2))


class MonteCarloOracle:
    """Reusable uniform-sampling volume oracle.

    One base sample block is drawn up front and rescaled to each pair's
    joint bounding box; float32 buffers keep the per-pair cost low enough
    to run a thousand pairs at a million samples each. Membership jitter
    from the reduced precision is orders of magnitude below the sampling
    noise.
    """

    def __init__(self, samples: int = 1_000_000, seed: int = 20240815):
        rng = np.random.default_rng(seed)
        self.base = tuple(rng.random(samples, dtype=np.float32) for _ in range(3))
        self.coords = tuple(np.empty(samples, np.float32) for _ in range(3))
        self.work = tuple(np.empty(samples, np.float32) for _ in range(4))
        self.masks = tuple(np.empty(samples, bool) for _ in range(3))

    def _membership(self, box: Box3D, out: np.ndarray) -> np.ndarray:
        x, y, z = self.coords
        t1, t2, t3, t4 = self.work
        c = np.float32(math.cos(box.yaw))
        s = np.float32(math.sin(box.yaw))
        np.subtract(x, np.float32(box.center_x), out=t1)   # dx
        np.subtract(z, np.float32(box.center_z), out=t2)   # dz
        np.multiply(t1, c, out=t3)
        np.multiply(t2, s, out=t4)
        t3 -= t4                                           # local x
        np.abs(t3, out=t3)
        np.less_equal(t3, np.float32(box.length / 2), out=out)
        np.multiply(t1, s, out=t1)
        np.multiply(t2, c, out=t2)
        t1 += t2                                           # local z
        np.abs(t1, out=t1)
        out &= t1 <= np.float32(box.width / 2)
        np.subtract(y, np.float32(box.center_y), out=t2)
        np.abs(t2, out=t2)
        out &= t2 <= np.float32(box.height / 2)
        return out

    def overlap(self, p: Box3D, g: Box3D):
        """Monte Carlo (IoU, IoGT) estimates for one box pair."""
        corners = np.array(box_corners(p) + box_corners(g))
        lo = corners.min(axis=0)
        hi = corners.max(axis=0)
        for axis in range(3):
            coord = self.coords[axis]
            np.multiply(self.base[axis], np.float32(hi[axis] - lo[axis]), out=coord)
            coord += np.float32(lo[axis])
        in_p = self._membership(p, self.masks[0])
        in_g = self._membership(g, self.masks[1])
        n_p = int(np.count_nonzero(in_p))
        n_g = int(np.count_nonzero(in_g))
        np.logical_and(in_p, in_g, out=self.masks[2])
        n_pg = int(np.count_nonzero(self.masks[2]))
        union = n_p + n_g - n_pg
        iou = n_pg / union if union else 0.0
        iogt = n_pg / n_g if n_g else 0.0
        return iou, iogt


def mc_overlap(p: Box3D, g: Box3D, base_samples: np.ndarray):
    """One-shot Monte Carlo IoU / IoGT estimate (float64 reference path).

    base_samples is an (N, 3) array of uniforms in [0, 1); reusing one
    array across pairs keeps each estimate unbiased while avoiding RNG cost.
    """
    corners = np.array(box_corners(p) + box_corners(g))
    lo = corners.min(axis=0)
    hi = corners.max(axis=0)
    pts = lo + base_samples * (hi - lo)
    in_p = points_in_box(pts, p)
    in_g = points_in_box(pts, g)
    n_p = int(np.count_nonzero(in_p))
    n_g = int(np.count_nonzero(in_g))
    n_pg = int(np.count_nonzero(in_p & in_g))
    union = n_p + n_g - n_pg
    iou = n_pg / union if union else 0.0
    iogt = n_pg / n_g if n_g else 0.0
    return iou, iogt


# --- multi-projection overlap reference ---------------------------------------


def shoelace_area(vertices: Sequence) -> float:
    """Unsigned polygon area by the shoelace formula."""
    n = len(vertices)
    acc = 0.0
    for i in range(n):
        ax, az = vertices[i][0], vertices[i][1]
        bx, bz = vertices[(i + 1) % n][0], vertices[(i + 1) % n][1]
        acc += ax * bz - bx * az
    return abs(acc) / 2.0


def _clip_convex(subject: Sequence, clip: Sequence) -> list:
    """Sutherland-Hodgman clip of a convex subject by a convex CCW clip polygon."""
    output = list(subject)
    n = len(clip)
    for i in range(n):
        if not output:
            return []
        ax, az = clip[i][0], clip[i][1]
        bx, bz = clip[(i + 1) % n][0], clip[(i + 1) % n][1]
        ex, ez = bx - ax, bz - az
        slack = -EPS_GEOM * max(abs(ex), abs(ez))

        def inside(p):
            # non-strict half-plane test; a slack of EPS_GEOM / sqrt(2) to
            # EPS_GEOM metres keeps shared boundaries in
            return ex * (p[1] - az) - ez * (p[0] - ax) >= slack

        def cross_point(p, q):
            den = ex * (q[1] - p[1]) - ez * (q[0] - p[0])
            num = ez * (p[0] - ax) - ex * (p[1] - az)
            t = num / den if den != 0.0 else 0.5
            t = min(1.0, max(0.0, t))
            return (p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1]))

        current = output
        output = []
        prev = current[-1]
        prev_in = inside(prev)
        for point in current:
            point_in = inside(point)
            if point_in:
                if not prev_in:
                    output.append(cross_point(prev, point))
                output.append(point)
            elif prev_in:
                output.append(cross_point(prev, point))
            prev, prev_in = point, point_in
    return output


def convex_intersection_area(p: Sequence, q: Sequence) -> float:
    """Area of the intersection of two convex polygons, given as sequences
    of (x, z) vertices, q counter-clockwise; 0 if disjoint."""
    clipped = _clip_convex(p, q)
    if len(clipped) < 3:
        return 0.0
    return shoelace_area(clipped)


def _vertical_interval(box: Box3D) -> tuple:
    half = box.height / 2.0
    return box.center_y - half, box.center_y + half


def box_volume_reference(box: Box3D) -> float:
    """Footprint area times vertical extent."""
    lo, hi = _vertical_interval(box)
    return shoelace_area(project_bev(box).vertices) * (hi - lo)


def _overlap_parts(p: Box3D, g: Box3D, subject_first: bool) -> float:
    p_lo, p_hi = _vertical_interval(p)
    g_lo, g_hi = _vertical_interval(g)
    vertical = min(p_hi, g_hi) - max(p_lo, g_lo)
    if vertical <= 0.0:
        return 0.0
    first, second = (p, g) if subject_first else (g, p)
    area = convex_intersection_area(project_bev(first).vertices,
                                    project_bev(second).vertices)
    return area * vertical


def intersection_volume_reference(p: Box3D, g: Box3D) -> float:
    """Overlap volume, clipping the footprint with the smaller vertex tuple."""
    fp_p, fp_g = project_bev(p), project_bev(g)
    return _overlap_parts(p, g, subject_first=fp_p.vertices <= fp_g.vertices)


def iou3d_reference(p: Box3D, g: Box3D) -> float:
    """Overlap volume over the union volume; a union of 0.0 raises the
    library's ValueError, not a ZeroDivisionError."""
    inter = intersection_volume_reference(p, g)
    union = box_volume_reference(p) + box_volume_reference(g) - inter
    if union == 0.0:
        raise ValueError("union volume of the two boxes is 0.0")
    return min(1.0, inter / union)


def iogt3d_reference(p: Box3D, g: Box3D) -> float:
    """Overlap volume over Vol(g), the ground-truth footprint clipped. A
    ground-truth volume of 0.0, from a footprint area or a vertical extent
    that rounds to 0, raises the library's ValueError before the prediction
    is projected."""
    volume = box_volume_reference(g)
    if volume == 0.0:
        lo, hi = _vertical_interval(g)
        area = shoelace_area(project_bev(g).vertices)
        raise ValueError(f"ground-truth volume is 0.0 at {g[:3]!r} (footprint "
                         f"area {area!r}, vertical extent {hi - lo!r} from "
                         f"height {g.height!r})")
    return min(1.0, _overlap_parts(p, g, subject_first=False) / volume)


# --- segment intersection oracle ----------------------------------------------


def _orient(a, b, c) -> int:
    cross = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    if cross > 0:
        return 1
    if cross < 0:
        return -1
    return 0


def _within_closed(a, q, b) -> bool:
    return (min(a[0], b[0]) <= q[0] <= max(a[0], b[0])
            and min(a[1], b[1]) <= q[1] <= max(a[1], b[1]))


def segment_pair_oracle(s1, s2, eps: float = 1e-9) -> bool:
    """Orientation-test reimplementation of the pair predicate.

    Segments sharing a point count as intersecting unless the only shared
    point is a coincident endpoint of both; collinear overlap counts when
    its length exceeds eps.
    """
    a, b = (s1.a.x, s1.a.z), (s1.b.x, s1.b.z)
    c, d = (s2.a.x, s2.a.z), (s2.b.x, s2.b.z)
    o1, o2 = _orient(a, b, c), _orient(a, b, d)
    o3, o4 = _orient(c, d, a), _orient(c, d, b)

    if o1 == 0 and o2 == 0 and o3 == 0 and o4 == 0:
        ux, uz = b[0] - a[0], b[1] - a[1]
        norm = math.hypot(ux, uz)
        tc = ((c[0] - a[0]) * ux + (c[1] - a[1]) * uz) / norm
        td = ((d[0] - a[0]) * ux + (d[1] - a[1]) * uz) / norm
        lo = max(0.0, min(tc, td))
        hi = min(norm, max(tc, td))
        return hi - lo > eps

    def near(u, v):
        return math.hypot(u[0] - v[0], u[1] - v[1]) <= eps

    if near(a, c) or near(a, d) or near(b, c) or near(b, d):
        # two non-collinear segments sharing an endpoint meet only there
        return False
    if o1 != o2 and o3 != o4 and o1 != 0 and o2 != 0 and o3 != 0 and o4 != 0:
        return True
    if o1 == 0 and _within_closed(a, c, b):
        return True
    if o2 == 0 and _within_closed(a, d, b):
        return True
    if o3 == 0 and _within_closed(c, a, d):
        return True
    if o4 == 0 and _within_closed(c, b, d):
        return True
    return False


def segments_intersect_oracle(segments) -> bool:
    segments = list(segments)
    for s1, s2 in itertools.combinations(segments, 2):
        if segment_pair_oracle(s1, s2):
            return True
    return False


# --- exhaustive matching oracle -------------------------------------------------


def optimal_assignment(distances, threshold: float):
    """Best one-to-one assignment: max pair count, then min total distance.

    distances is an (n_det, n_ann) nested list; returns (count, total).
    Exponential search, intended for frames of at most ~6 objects.
    """
    n_det = len(distances)
    n_ann = len(distances[0]) if n_det else 0
    best = (0, 0.0)

    def recurse(det_index, used, count, total):
        nonlocal best
        if det_index == n_det:
            if count > best[0] or (count == best[0] and total < best[1]):
                best = (count, total)
            return
        recurse(det_index + 1, used, count, total)
        for j in range(n_ann):
            if not used[j] and distances[det_index][j] <= threshold:
                used[j] = True
                recurse(det_index + 1, used, count + 1, total + distances[det_index][j])
                used[j] = False

    recurse(0, [False] * n_ann, 0, 0.0)
    return best


# --- reference greedy matcher ---------------------------------------------------


class GreedyMatch(NamedTuple):
    """One-to-one assignment of detections to annotations plus the residue."""

    pairs: List[MatchedPair]
    false_positives: List[Detection]
    false_negatives: List[Annotation]


def greedy_match(dets, anns, threshold_of) -> GreedyMatch:
    """Greedy score-descending matching; threshold_of(ann) bounds each pair.

    The library's original matcher, kept as the reference for the shared
    candidate table: every detection scans every untaken annotation.
    """
    order = sorted(range(len(dets)), key=lambda i: -dets[i].score)
    taken = [False] * len(anns)
    pairs = []
    matched_det = [False] * len(dets)
    for i in order:
        best_j, best_d = -1, math.inf
        for j, ann in enumerate(anns):
            if taken[j]:
                continue
            d = bev_center_distance(dets[i].box, ann.box)
            if d <= threshold_of(ann) and d < best_d:
                best_j, best_d = j, d
        if best_j >= 0:
            taken[best_j] = True
            matched_det[i] = True
            pairs.append(MatchedPair(dets[i], anns[best_j], best_d))
    fps = [d for i, d in enumerate(dets) if not matched_det[i]]
    fns = [a for j, a in enumerate(anns) if not taken[j]]
    return GreedyMatch(pairs, fps, fns)


def reference_candidates(dets, anns, reach):
    """The candidate table with a distance for every (detection, annotation)
    pair: per detection, (distance, annotation index) for each annotation
    within reach, nearest first, lower index on ties."""
    boxes = [ann.box for ann in anns]
    return [sorted([(d, j) for j, box in enumerate(boxes)
                    if (d := bev_center_distance(det.box, box)) <= reach])
            for det in dets]


def reference_greedy(order, det, ann, eligible, n_dets: int) -> np.ndarray:
    """Each detection in ``order`` takes its first eligible entry of the
    candidate table (``det``, ``ann``, sorted by detection) whose annotation
    is untaken; per detection the index of its entry, or -1. The library's
    loop of the walk's first array form, one detection at a time."""
    kept = np.flatnonzero(eligible)
    bounds = np.searchsorted(det[kept], np.arange(n_dets + 1))
    order = order[bounds[order] < bounds[order + 1]].tolist()
    bounds, anns, kept = bounds.tolist(), ann[kept].tolist(), kept.tolist()
    taken = set()
    match = [-1] * n_dets
    for i in order:
        for k in range(bounds[i], bounds[i + 1]):
            if anns[k] not in taken:
                taken.add(anns[k])
                match[i] = kept[k]
                break
    return np.array(match, dtype=np.int64)


def reference_bucket_index(config, distance: float) -> Optional[int]:
    """The index of the first bucket [near, far) of ``config`` holding
    ``distance``, None if there is none: the library's original bucket
    lookup, one comparison per bucket."""
    for i, (near, far) in enumerate(config.range_buckets):
        if near <= distance < far:
            return i
    return None


def reference_walk(frames, config, threshold_of):
    """Per (class, bucket): pairs, false positives and false negatives of
    greedy_match run frame by frame and class by class, every bucket looked
    up afresh from the object's own center range (the original protocol
    loop). Annotations outside all buckets are dropped, as are unmatched
    detections outside all buckets."""
    def bucket_of(box):
        return reference_bucket_index(config, math.hypot(box.center_x, box.center_z))

    pairs, fps, fns = {}, {}, {}
    for frame in frames:
        anns_in_range = [a for a in frame.ground_truths
                         if bucket_of(a.box) is not None]
        classes = {a.class_name for a in anns_in_range}
        classes |= {d.class_name for d in frame.predictions}
        for class_name in sorted(classes):
            dets = [d for d in frame.predictions if d.class_name == class_name]
            anns = [a for a in anns_in_range if a.class_name == class_name]
            matched = greedy_match(dets, anns, threshold_of)
            for pair in matched.pairs:
                key = (class_name, bucket_of(pair.annotation.box))
                pairs.setdefault(key, []).append(pair)
            for det in matched.false_positives:
                if bucket_of(det.box) is not None:
                    fps.setdefault((class_name, bucket_of(det.box)), []).append(det)
            for ann in matched.false_negatives:
                fns.setdefault((class_name, bucket_of(ann.box)), []).append(ann)
    return pairs, fps, fns


# --- average precision staircase oracle -----------------------------------------


def ap_oracle(scored_matches, num_ground_truths: int):
    """Hand-rolled clipped-curve AP following the documented convention
    (descending score, false positives first on ties)."""
    if num_ground_truths == 0:
        return None
    if not scored_matches:
        return 0.0
    ordered = sorted(scored_matches, key=lambda m: (-m[0], m[1]))
    samples = []
    tp = 0
    for rank, (_, is_tp) in enumerate(ordered, start=1):
        tp += 1 if is_tp else 0
        rec, prec = tp / num_ground_truths, tp / rank
        if samples and samples[-1][0] == rec:
            samples[-1] = (rec, prec)
        else:
            samples.append((rec, prec))

    def precision_at(r):
        if r <= samples[0][0]:
            return samples[0][1]
        if r > samples[-1][0]:
            return 0.0
        for (r0, p0), (r1, p1) in zip(samples, samples[1:]):
            if r0 <= r <= r1:
                if r == r1:
                    return p1
                return p0 + (p1 - p0) * (r - r0) / (r1 - r0)
        return 0.0

    total = 0.0
    for i in range(11, 101):
        total += max(0.0, precision_at(i / 100.0) - 0.1)
    return total / 90.0 / 0.9


def reference_average_precision(scored_matches, num_ground_truths: int):
    """Clipped-curve average precision in the library's original form: one
    (recall, precision) sample per label in a sorted Python loop, then the
    library's interpolation and sum. Precision is zero at grid point i / 100
    when that exceeds the largest recall, though the grid float may exceed it
    by an ulp where the two are equal."""
    if num_ground_truths == 0:
        return None
    if not scored_matches:
        return 0.0
    # score ties resolve pessimistically (false positives first) so the
    # result does not depend on dataset ordering
    ordered = sorted(scored_matches, key=lambda m: (-m[0], m[1]))
    recalls: List[float] = []
    precisions: List[float] = []
    tp = 0
    for rank, (_, is_tp) in enumerate(ordered, start=1):
        tp += 1 if is_tp else 0
        rec = tp / num_ground_truths
        prec = tp / rank
        if recalls and recalls[-1] == rec:
            precisions[-1] = prec  # keep the last sample at this recall
        else:
            recalls.append(rec)
            precisions.append(prec)
    grid = np.linspace(0.0, 1.0, 101)
    interp = np.interp(grid, recalls, precisions,
                       left=precisions[0], right=precisions[-1])
    for i in range(101):
        if i / 100 > tp / num_ground_truths:
            interp[i] = 0.0
    clipped = np.maximum(0.0, interp[11:] - 0.1)
    return math.fsum(clipped) / len(clipped) / (1.0 - 0.1)


def _scale_error(p: Box3D, g: Box3D) -> float:
    ratio = 1.0
    for pd, gd in ((p.length, g.length), (p.height, g.height), (p.width, g.width)):
        ratio *= min(pd, gd) / max(pd, gd)
    return 1.0 - ratio


def reference_tp_error_means(pairs: Sequence[MatchedPair],
                             measures: Sequence[str] = ("ATE", "ASE", "AOE")
                             ) -> Dict[str, float]:
    """Mean true-positive errors in the library's original per-pair form:
    each measure's values in a Python loop over the pairs, then the
    library's ``math.fsum`` mean and its errors."""
    if not pairs:
        raise ValueError("tp_error_means needs at least one matched pair")
    means: Dict[str, float] = {}
    for measure in measures:
        measure = measure.upper()
        if measure == "ATE":
            values = [pair.center_distance for pair in pairs]
        elif measure == "ASE":
            values = [_scale_error(pair.detection.box, pair.annotation.box)
                      for pair in pairs]
        elif measure == "AOE":
            values = [abs(wrap_angle(pair.detection.box.yaw - pair.annotation.box.yaw))
                      for pair in pairs]
        elif measure == "AVE":
            if any(pair.detection.velocity is None or pair.annotation.velocity is None
                   for pair in pairs):
                raise MissingAnnotationField("AVE requested but velocity missing")
            values = [math.hypot(pair.detection.velocity[0] - pair.annotation.velocity[0],
                                 pair.detection.velocity[1] - pair.annotation.velocity[1])
                      for pair in pairs]
        elif measure == "AAE":
            if any(pair.detection.attribute is None or pair.annotation.attribute is None
                   for pair in pairs):
                raise MissingAnnotationField("AAE requested but attribute missing")
            values = [0.0 if pair.detection.attribute == pair.annotation.attribute else 1.0
                      for pair in pairs]
        else:
            raise ValueError(f"unknown TP measure {measure!r}")
        try:
            means[measure] = math.fsum(values) / len(values)
        except OverflowError:
            means[measure] = math.inf
        if not math.isfinite(means[measure]):
            raise ValueError(f"the {measure} mean is not a finite number")
    return means


# --- reference evaluator ---------------------------------------------------------


def _mean(values):
    return sum(values) / len(values) if values else None


def _tp_error(measure, pair):
    """One matched pair's true-positive error: ATE the BEV center distance,
    ASE one minus the product of the length, height and width min/max
    ratios, AOE the yaw difference wrapped to [0, pi], AVE the norm of the
    velocity difference, AAE 1 on an attribute mismatch and 0 otherwise."""
    p, g = pair.detection, pair.annotation
    if measure == "ATE":
        return pair.center_distance
    if measure == "ASE":
        ratio = 1.0
        for a, b in ((p.box.length, g.box.length), (p.box.height, g.box.height),
                     (p.box.width, g.box.width)):
            ratio *= min(a, b) / max(a, b)
        return 1.0 - ratio
    if measure == "AOE":
        return abs(math.remainder(p.box.yaw - g.box.yaw, 2.0 * math.pi))
    if measure == "AVE":
        return math.hypot(p.velocity[0] - g.velocity[0], p.velocity[1] - g.velocity[1])
    return 0.0 if p.attribute == g.attribute else 1.0


def _reference_summary(slices, config):
    """One bucket's summary by the documented rules: the counts cover every
    class; the metrics average over the classes with in-range ground truth,
    or over all when classes are not skipped; an absent class scores worst
    case (AP 0, errors 1, AUSC 0); a present class whose every pair was
    excluded from USC stays out of mAUSC."""
    aps, ausc = [], []
    errors = {name: [] for name in config.tp_measures}
    for m in slices:
        present = m.tp + m.fn > 0
        if not present and config.skip_missing_classes:
            continue
        for value in m.ap.values():
            aps.append(value if present else 0.0)
        for name in config.tp_measures:
            errors[name].append(m.tp_errors[name] if present else 1.0)
        if not present:
            ausc.append(0.0)
        elif m.ausc is not None:
            ausc.append(m.ausc)
    mean_ap, mausc = _mean(aps), _mean(ausc)
    tp_errors = {name: _mean(values) for name, values in errors.items()}
    nds = usc_nds = None
    if mean_ap is not None:
        k = len(config.tp_measures)
        nds = (k * mean_ap + sum(1.0 - min(1.0, e) for e in tp_errors.values())) / (2 * k)
        if mausc is not None:
            usc_nds = (nds + mausc) / 2.0
    return BucketSummary(mean_ap=mean_ap, nds=nds, mausc=mausc, usc_nds=usc_nds,
                         tp_errors=tp_errors,
                         tp=sum(m.tp for m in slices), fp=sum(m.fp for m in slices),
                         fn=sum(m.fn for m in slices),
                         usc_excluded=sum(m.usc_excluded for m in slices))


def reference_evaluate(frames, config):
    """The report rebuilt from its documented definitions with plain loops:
    ``reference_walk`` for the protocol's pairs and, at each AP distance
    threshold, for the (score, is TP) labels; ``ap_oracle`` for AP;
    ``usc_score`` on every pair, a BehindCamera or DegenerateGroundTruth
    pair excluded from AUSC and counted; the bucket rules of
    ``_reference_summary``; and the overall metrics as the means of the
    buckets' defined ones. The classes are those with an in-range ground
    truth or prediction. A class with nothing matched in a bucket scores
    worst case there (errors 1, AUSC 0) if it has ground truth in it, and
    None otherwise. AVE and AAE need velocities and attributes on every
    object."""
    frames = list(frames)

    def bucket_of(box):
        return reference_bucket_index(config, math.hypot(box.center_x, box.center_z))

    pairs, fps, fns = reference_walk(
        frames, config, lambda ann: config.match_thresholds[bucket_of(ann.box)])
    labels = {}
    for t in config.ap_distance_thresholds:
        t_pairs, t_fps, _ = reference_walk(frames, config, lambda _ann: t)
        for key, matched in t_pairs.items():
            labels.setdefault((t, key), []).extend(
                (pair.detection.score, True) for pair in matched)
        for key, dets in t_fps.items():
            labels.setdefault((t, key), []).extend((det.score, False) for det in dets)
    classes = sorted({obj.class_name for frame in frames
                      for obj in [*frame.ground_truths, *frame.predictions]
                      if bucket_of(obj.box) is not None})
    per_class = {class_name: {} for class_name in classes}
    per_bucket = {}
    for b, (near, far) in enumerate(config.range_buckets):
        label = f"[{near:g},{far:g})"
        slices = []
        for class_name in classes:
            key = (class_name, b)
            matched = pairs.get(key, [])
            n_gt = len(matched) + len(fns.get(key, []))
            scores = []
            for pair in matched:
                try:
                    scores.append(usc_score(pair.detection.box, pair.annotation.box).usc)
                except (BehindCamera, DegenerateGroundTruth):
                    pass
            if matched:
                errors = {name: _mean([_tp_error(name, pair) for pair in matched])
                          for name in config.tp_measures}
                ausc = _mean(scores)
            else:
                errors = {name: 1.0 if n_gt else None for name in config.tp_measures}
                ausc = 0.0 if n_gt else None
            metrics = ClassBucketMetrics(
                ap={t: ap_oracle(labels.get((t, key), []), n_gt)
                    for t in config.ap_distance_thresholds},
                tp_errors=errors, ausc=ausc, tp=len(matched),
                fp=len(fps.get(key, [])), fn=n_gt - len(matched),
                usc_excluded=len(matched) - len(scores))
            per_class[class_name][label] = metrics
            slices.append(metrics)
        per_bucket[label] = _reference_summary(slices, config)

    summaries = list(per_bucket.values())

    def overall(values):
        return _mean([v for v in values if v is not None])

    summary = BucketSummary(
        mean_ap=overall(s.mean_ap for s in summaries),
        nds=overall(s.nds for s in summaries),
        mausc=overall(s.mausc for s in summaries),
        usc_nds=overall(s.usc_nds for s in summaries),
        tp_errors={name: overall(s.tp_errors[name] for s in summaries)
                   for name in config.tp_measures},
        tp=sum(s.tp for s in summaries), fp=sum(s.fp for s in summaries),
        fn=sum(s.fn for s in summaries),
        usc_excluded=sum(s.usc_excluded for s in summaries))
    return MetricsReport(
        range_buckets=list(config.range_buckets), classes=classes,
        ap_distance_thresholds=list(config.ap_distance_thresholds),
        tp_measures=list(config.tp_measures), frames=len(frames),
        per_class=per_class, per_bucket=per_bucket, overall=summary)


# --- ray-coverage oracle ---------------------------------------------------------


def ray_hits_box(direction, box: Box3D) -> bool:
    """Slab test: does the ray from the origin along direction touch the box?"""
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    ox = -box.center_x
    oy = -box.center_y
    oz = -box.center_z
    # origin and direction in the box frame
    o = (ox * c - oz * s, oy, ox * s + oz * c)
    d = (direction[0] * c - direction[2] * s, direction[1],
         direction[0] * s + direction[2] * c)
    half = (box.length / 2, box.height / 2, box.width / 2)
    t_lo, t_hi = 0.0, math.inf
    for axis in range(3):
        if abs(d[axis]) < 1e-12:
            if abs(o[axis]) > half[axis]:
                return False
            continue
        t1 = (-half[axis] - o[axis]) / d[axis]
        t2 = (half[axis] - o[axis]) / d[axis]
        t_lo = max(t_lo, min(t1, t2))
        t_hi = min(t_hi, max(t1, t2))
    return t_lo <= t_hi


def view_coverage_fraction(p: Box3D, g: Box3D, rng: np.ndarray) -> float:
    """Fraction of rays hitting g (sampled through its interior) that also hit p.

    rng is an (N, 3) array of uniforms in [0, 1) mapped to g's local volume.
    """
    c, s = math.cos(g.yaw), math.sin(g.yaw)
    local = (rng - 0.5) * np.array([g.length, g.height, g.width])
    world_x = g.center_x + local[:, 0] * c + local[:, 2] * s
    world_y = g.center_y + local[:, 1]
    world_z = g.center_z - local[:, 0] * s + local[:, 2] * c
    hits = 0
    for x, y, z in zip(world_x, world_y, world_z):
        if ray_hits_box((x, y, z), p):
            hits += 1
    return hits / len(world_x)



def _convex_hull(points):
    """Counter-clockwise convex hull of 2D points (monotone chain)."""
    points = sorted(set(points))

    def turn(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower, upper = [], []
    for point in points:
        while len(lower) >= 2 and turn(lower[-2], lower[-1], point) <= 0:
            lower.pop()
        lower.append(point)
    for point in reversed(points):
        while len(upper) >= 2 and turn(upper[-2], upper[-1], point) <= 0:
            upper.pop()
        upper.append(point)
    return lower[:-1] + upper[:-1]


def silhouette_iogt(p: Box3D, g: Box3D) -> float:
    """IoGT of the silhouettes the vehicle sees, not of their bounding
    rectangles: the convex hulls of the eight corners projected to
    ``(x/z, y/z)``. Both boxes must lie ahead of the camera."""
    hull_p, hull_g = (_convex_hull([(c.x / c.z, c.y / c.z) for c in box_corners(box)])
                      for box in (p, g))
    return convex_intersection_area(hull_g, hull_p) / shoelace_area(hull_g)


def hull_contains(points, queries) -> bool:
    """Whether every query point lies in the convex hull of ``points``,
    boundary included, decided exactly: each float becomes a Fraction, so
    every orientation test is exact. A hull of fewer than three vertices
    contains nothing."""
    hull = _convex_hull([(Fraction(u), Fraction(v)) for u, v in points])
    if len(hull) < 3:
        return False
    edges = list(zip(hull, hull[1:] + hull[:1]))
    for u, v in queries:
        q = (Fraction(u), Fraction(v))
        if any(_orient(a, b, q) < 0 for a, b in edges):
            return False
    return True

# --- value type rules -----------------------------------------------------------


def _reference_floats(values):
    """``values`` as floats, or None unless each is a finite real number."""
    try:
        if all(math.isfinite(v) for v in values):
            return tuple(float(v) for v in values)
    except (OverflowError, TypeError):
        pass
    return None


def reference_box_values(values):
    """The seven values ``Box3D(*values)`` stores, by its rule written as plain
    checks: each a finite real number, stored as a float, then positive
    dimensions, then the yaw wrapped into (-pi, pi]. Raises the ValueError
    ``Box3D`` raises."""
    values = tuple(values)
    floats = _reference_floats(values)
    if floats is None:
        raise ValueError(f"box parameters must be finite, got {values}")
    length, height, width, yaw = floats[3:]
    if length <= 0 or height <= 0 or width <= 0:
        raise ValueError(f"box dimensions must be positive, got l={length}, "
                         f"h={height}, w={width}")
    return floats[:6] + (wrap_angle(yaw),)


def reference_annotation_values(class_name, box, velocity, attribute):
    """The values ``Annotation(class_name, box, velocity, attribute)`` stores,
    by its rule written as plain checks in its order: the class label, the
    velocity, then the attribute. Raises the ValueError ``Annotation``
    raises."""
    if not isinstance(class_name, str) or not class_name:
        raise ValueError("class_name must be a non-empty string")
    if velocity is not None:
        floats = _reference_floats(velocity)
        if floats is None or len(floats) != 2:
            raise ValueError(f"velocity must be two finite numbers, got {velocity!r}")
        velocity = floats
    if attribute is not None and not isinstance(attribute, str):
        raise ValueError(f"attribute must be a string, got {attribute!r}")
    return (class_name, box, velocity, attribute)


def reference_detection_values(class_name, box, score, velocity, attribute):
    """The values ``Detection(class_name, box, score, velocity, attribute)``
    stores: the annotation rule, then a score in [0, 1] stored as a float.
    Raises the ValueError ``Detection`` raises."""
    class_name, box, velocity, attribute = reference_annotation_values(
        class_name, box, velocity, attribute)
    floats = _reference_floats((score,))
    if floats is None or not 0.0 <= floats[0] <= 1.0:
        raise ValueError(f"score must be in [0, 1], got {score}")
    return (class_name, box, floats[0], velocity, attribute)


# --- reference dataset loader ---------------------------------------------------


def _ref_require(obj, key, path):
    if key not in obj:
        raise SchemaError(f"missing required field '{key}'", path)
    return obj[key]


def _ref_number(value, path):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"expected a number, got {type(value).__name__}", path)
    try:
        number = float(value)
    except OverflowError:
        raise SchemaError("integer beyond the float range", path) from None
    if not math.isfinite(number):
        raise SchemaError(f"expected a finite number, got {number}", path)
    return number


def _ref_vector(value, length, path):
    if not isinstance(value, list) or len(value) != length:
        raise SchemaError(f"expected a list of {length} numbers", path)
    return tuple(_ref_number(v, f"{path}[{i}]") for i, v in enumerate(value))


def _ref_box(obj, path):
    center = _ref_vector(_ref_require(obj, "center", path), 3, f"{path}.center")
    size = _ref_vector(_ref_require(obj, "size", path), 3, f"{path}.size")
    yaw = _ref_number(_ref_require(obj, "yaw", f"{path}.yaw"), f"{path}.yaw")
    try:
        return Box3D(center[0], center[1], center[2],
                     size[0], size[1], size[2], yaw)
    except ValueError as exc:
        raise SchemaError(str(exc), path) from exc


def _ref_object(obj, path, with_score):
    if not isinstance(obj, dict):
        raise SchemaError("expected an object", path)
    class_name = _ref_require(obj, "class", path)
    if not isinstance(class_name, str) or not class_name:
        raise SchemaError("'class' must be a non-empty string", f"{path}.class")
    box = _ref_box(obj, path)
    velocity = None
    if obj.get("velocity") is not None:
        velocity = _ref_vector(obj["velocity"], 2, f"{path}.velocity")
    attribute = obj.get("attribute")
    if attribute is not None and not isinstance(attribute, str):
        raise SchemaError("'attribute' must be a string", f"{path}.attribute")
    if with_score:
        score = _ref_number(_ref_require(obj, "score", path), f"{path}.score")
        if not (0.0 <= score <= 1.0):
            raise SchemaError(f"score must be in [0, 1], got {score}", f"{path}.score")
        return Detection(class_name, box, score, velocity, attribute)
    return Annotation(class_name, box, velocity, attribute)


def _ref_frame(obj, path):
    if not isinstance(obj, dict):
        raise SchemaError("expected a JSON object", path)
    frame_id = _ref_require(obj, "frame_id", path)
    if not isinstance(frame_id, str) or not frame_id:
        raise SchemaError("'frame_id' must be a non-empty string", f"{path}.frame_id")
    gts_raw = obj.get("ground_truths", [])
    preds_raw = obj.get("predictions", [])
    if not isinstance(gts_raw, list):
        raise SchemaError("'ground_truths' must be a list", f"{path}.ground_truths")
    if not isinstance(preds_raw, list):
        raise SchemaError("'predictions' must be a list", f"{path}.predictions")
    gts = [_ref_object(g, f"{path}.ground_truths[{i}]", with_score=False)
           for i, g in enumerate(gts_raw)]
    preds = [_ref_object(p, f"{path}.predictions[{i}]", with_score=True)
             for i, p in enumerate(preds_raw)]
    return FrameRecord(frame_id, gts, preds)


def reference_load_dataset(path):
    """The dataset loader in its original form, which checks every number
    field by field, building its field path as it goes: the reference for
    the library's shape check and array value check. Reads strict UTF-8,
    splits lines at LF alone and skips a line of JSON whitespace alone."""
    frames = []
    seen = set()
    with open(path, "r", encoding="utf-8", newline="\n") as handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.strip(" \t\r\n"):
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(str(exc), lineno) from exc
            except RecursionError:
                raise ParseError("JSON nested too deeply to decode", lineno) from None
            frame = _ref_frame(obj, f"line {lineno}")
            if frame.frame_id in seen:
                raise SchemaError(f"duplicate frame_id '{frame.frame_id}'",
                                  f"line {lineno}.frame_id")
            seen.add(frame.frame_id)
            frames.append(frame)
    return frames


def reference_merge_datasets(gt_frames, pred_frames):
    """The join of ground-truth and prediction frames on frame_id in its
    original list form, the reference for ``merge_datasets``' gather of
    columns: the ground-truth file's order, each frame with the predictions
    of its namesake, then the prediction-only frames in their order."""
    preds_by_id = {f.frame_id: f for f in pred_frames}
    merged = []
    for frame in gt_frames:
        other = preds_by_id.pop(frame.frame_id, None)
        merged.append(FrameRecord(frame.frame_id, list(frame.ground_truths),
                                  list(other.predictions) if other else []))
    for frame in pred_frames:
        if frame.frame_id in preds_by_id:
            merged.append(FrameRecord(frame.frame_id, [], list(frame.predictions)))
    return merged
