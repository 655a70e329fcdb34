"""Dataset-level evaluation protocol.

Pipeline: one walk over frames and their classes, the one way into the
matcher (``matched_pairs`` exposes it). Per (frame, class), one candidate
table of BEV center distances serves the protocol match (each annotation
limited by its bucket's threshold) and one match per AP distance threshold;
it computes distances only inside an x/z window of the largest threshold
around each detection. In each match, detections by descending
score take the nearest untaken annotation within the limit. The protocol
match is also the AP match at threshold t where the two cannot differ:
when every annotation of the (frame, class) has limit t, or when no
candidate lies beyond t or beyond the smallest limit. Objects are
grouped into range buckets by the ground-truth center distance; matched
detections inherit their annotation's bucket, unmatched detections fall
into the bucket of their own center distance. One class loop per bucket
then gives each class with an in-range object, ground truth or prediction,
its slice: AP per distance threshold, AUSC (the mean USC score) and then the
mean true-positive errors of its pairs, and TP/FP/FN, TP + FN being its
in-range ground truths; the first faulty slice in bucket, then class order
names the error. The bucket's mAP, NDS, mAUSC, USC-NDS and counts come from
its slices, the overall ones from the buckets'.

Protocol defaults follow a near-field safety focus: objects within 20 m
split into [0, 10) and [10, 20) buckets, with the matching threshold
tightened to 1 m in the near bucket (2 m beyond), and classes absent from a
bucket skipped rather than scored as worst-case.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import chain
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .constraints import usc_batch
from .errors import MissingAnnotationField, ZeroVariance
from .geometry import Box3D, box_rows, finite_floats, map_math, wrap_angle

#: Recognized true-positive error measures, in canonical report order.
TP_MEASURES = ("ATE", "ASE", "AOE", "AVE", "AAE")

#: Number of interpolation points on the recall grid.
_AP_GRID = 101

#: Recall/precision floor below which the PR curve is clipped.
_AP_FLOOR = 0.1

#: The recall grid precision is interpolated onto.
_RECALL_GRID = np.linspace(0.0, 1.0, _AP_GRID)

#: The index i of each recall grid point, which stands for i / 100.
_GRID_STEPS = np.arange(_AP_GRID)


def _checked_velocity(class_name, velocity, attribute):
    """The velocity of an ``Annotation`` or ``Detection`` as two floats, or
    None; ValueError unless the class label is a non-empty string, the velocity
    None or two finite real numbers, and the attribute None or a string."""
    if not isinstance(class_name, str) or not class_name:
        raise ValueError("class_name must be a non-empty string")
    if velocity is not None:
        values = finite_floats(velocity)
        if values is None or len(values) != 2:
            raise ValueError(f"velocity must be two finite numbers, got {velocity!r}")
        velocity = values
    if attribute is not None and not isinstance(attribute, str):
        raise ValueError(f"attribute must be a string, got {attribute!r}")
    return velocity


class _AnnotationFields(NamedTuple):
    class_name: str
    box: Box3D
    velocity: Optional[Tuple[float, float]] = None
    attribute: Optional[str] = None


class Annotation(_AnnotationFields):
    """Ground-truth object: class label plus box, with optional velocity
    (vx, vz in m/s) and attribute label.

    A validated tuple, like ``Box3D``: a non-empty string class label, a
    velocity of two finite real numbers stored as floats, a string attribute.
    """

    __slots__ = ()

    def __new__(cls, class_name, box, velocity=None, attribute=None):
        # a string label with neither velocity nor attribute passes the rule
        if (velocity is None and attribute is None and type(class_name) is str
                and class_name):
            return tuple.__new__(cls, (class_name, box, None, None))
        velocity = _checked_velocity(class_name, velocity, attribute)
        return tuple.__new__(cls, (class_name, box, velocity, attribute))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class _DetectionFields(NamedTuple):
    class_name: str
    box: Box3D
    score: float
    velocity: Optional[Tuple[float, float]] = None
    attribute: Optional[str] = None


class Detection(_DetectionFields):
    """Predicted object with a confidence score in [0, 1].

    A validated tuple, like ``Annotation``, whose score is stored as a float.
    """

    __slots__ = ()

    def __new__(cls, class_name, box, score, velocity=None, attribute=None):
        # and so, with a float score in [0, 1], does a detection
        if (velocity is None and attribute is None and type(class_name) is str
                and class_name and type(score) is float and 0.0 <= score <= 1.0):
            return tuple.__new__(cls, (class_name, box, score, None, None))
        velocity = _checked_velocity(class_name, velocity, attribute)
        value = finite_floats((score,))
        if value is None or not 0.0 <= value[0] <= 1.0:
            raise ValueError(f"score must be in [0, 1], got {score}")
        return tuple.__new__(cls, (class_name, box, value[0], velocity, attribute))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class MatchedPair(NamedTuple):
    detection: Detection
    annotation: Annotation
    center_distance: float


@dataclass(frozen=True)
class ProtocolConfig:
    """Evaluation protocol parameters; defaults implement the near-field
    safety adaptation (20 m cut-off, per-bucket thresholds, skip missing
    classes). Every number must be finite."""

    range_buckets: Tuple[Tuple[float, float], ...] = ((0.0, 10.0), (10.0, 20.0))
    match_thresholds: Tuple[float, ...] = (1.0, 2.0)
    ap_distance_thresholds: Tuple[float, ...] = (1.0, 2.0)
    tp_measures: Tuple[str, ...] = ("ATE", "ASE", "AOE")
    skip_missing_classes: bool = True

    def __post_init__(self):
        buckets = tuple((float(a), float(b)) for a, b in self.range_buckets)
        if not buckets:
            raise ValueError("at least one range bucket is required")
        for near, far in buckets:
            if not (0.0 <= near < far < math.inf):
                raise ValueError(f"invalid bucket [{near}, {far})")
        for (_, far), (near, _) in zip(buckets, buckets[1:]):
            if near < far:
                raise ValueError("range buckets must be disjoint and ordered")
        if len({bucket_label(near, far) for near, far in buckets}) != len(buckets):
            raise ValueError("range buckets must have distinct labels")
        thresholds = tuple(float(t) for t in self.match_thresholds)
        if len(thresholds) != len(buckets):
            raise ValueError("need one match threshold per bucket")
        if any(not 0.0 < t < math.inf for t in thresholds):
            raise ValueError("match thresholds must be positive and finite")
        ap_thresholds = tuple(float(t) for t in self.ap_distance_thresholds)
        if not ap_thresholds or any(not 0.0 < t < math.inf for t in ap_thresholds):
            raise ValueError("AP distance thresholds must be positive and finite")
        if len({ap_label(t) for t in ap_thresholds}) != len(ap_thresholds):
            raise ValueError("AP distance thresholds must have distinct labels")
        measures = tuple(str(m).upper() for m in self.tp_measures)
        unknown = set(measures) - set(TP_MEASURES)
        if unknown:
            raise ValueError(f"unknown TP measures: {sorted(unknown)}")
        if not measures:
            raise ValueError("at least one TP measure is required")
        if len(set(measures)) != len(measures):
            raise ValueError("TP measures must be distinct")
        object.__setattr__(self, "range_buckets", buckets)
        object.__setattr__(self, "match_thresholds", thresholds)
        object.__setattr__(self, "ap_distance_thresholds", ap_thresholds)
        object.__setattr__(self, "tp_measures", measures)
        object.__setattr__(self, "_edges", tuple(chain.from_iterable(buckets)))

    def bucket_index(self, distance: float) -> Optional[int]:
        """The index of the bucket [near, far) holding ``distance``; None in
        a gap, beyond the last bucket and for NaN. ``bisect_right`` over the
        edges ``near0, far0, near1, ...`` lands after ``near_i`` and before
        ``far_i`` exactly when ``near_i <= distance < far_i``: at the odd
        position ``2i + 1``. A NaN compares below no edge and lands last."""
        i = bisect_right(self._edges, distance)
        return i >> 1 if i & 1 else None


def bucket_label(near: float, far: float) -> str:
    """The report's key for the range bucket [near, far), e.g. ``[0,10)``."""
    return f"[{near:g},{far:g})"


def ap_label(distance: float) -> str:
    """The report table's column heading for an AP distance threshold, e.g.
    ``AP@1m``."""
    return f"AP@{distance:g}m"


@dataclass
class ClassBucketMetrics:
    """Per-class, per-bucket slice of the report."""

    ap: Dict[float, Optional[float]]
    tp_errors: Dict[str, Optional[float]]
    ausc: Optional[float]
    tp: int
    fp: int
    fn: int
    usc_excluded: int


@dataclass
class BucketSummary:
    """Consolidated metrics for one range bucket (or the overall average)."""

    mean_ap: Optional[float]
    nds: Optional[float]
    mausc: Optional[float]
    usc_nds: Optional[float]
    tp_errors: Dict[str, Optional[float]]
    tp: int
    fp: int
    fn: int
    usc_excluded: int


@dataclass
class MetricsReport:
    range_buckets: List[Tuple[float, float]]
    classes: List[str]
    ap_distance_thresholds: List[float]
    tp_measures: List[str]
    frames: int
    per_class: Dict[str, Dict[str, ClassBucketMetrics]]
    per_bucket: Dict[str, BucketSummary]
    overall: BucketSummary


def bev_center_distance(p: Box3D, g: Box3D) -> float:
    """Ground-plane distance between two box centers (height ignored)."""
    return math.hypot(p.center_x - g.center_x, p.center_z - g.center_z)


def _candidates(dets: Sequence[Detection], anns: Sequence[Annotation], reach: float):
    """Per detection, (distance, annotation index) for each annotation within
    reach, nearest first, lower index on ties.

    Distances are computed only inside a window, ``slack = reach * (1 +
    1e-9)``: annotations with ``px - slack <= x <= px + slack`` (bounds
    rounded; the x-sorted list bisected) and ``abs(pz - z) <= slack``. No
    pair within reach lies outside: ``math.hypot`` rounds faithfully and
    max(|dx|, |dz|) is a float, so a computed distance is at least both
    computed offsets; ``fl(px - x) <= reach`` means ``px - x <= reach * (1 +
    2**-53)`` (a subnormal difference is exact), below slack, so by monotone
    rounding ``fl(px - slack) <= x``, and likewise above.
    """
    slack = reach * (1 + 1e-9)
    keyed = sorted([(ann.box.center_x, j, ann.box) for j, ann in enumerate(anns)])
    table = []
    for det in dets:
        p = det.box
        high, pz = p.center_x + slack, p.center_z
        row = []
        # a 1-tuple sorts before every entry with the same x
        for x, j, box in keyed[bisect_left(keyed, (p.center_x - slack,)):]:
            if x > high:
                break
            if abs(pz - box.center_z) <= slack and (d := bev_center_distance(p, box)) <= reach:
                row.append((d, j))
        table.append(sorted(row))
    return table


def _greedy(order: Sequence[int], table, limits: Sequence[float]):
    """Each detection index in ``order`` takes the first untaken entry (d, j)
    of its table row with ``d <= limits[j]``. Returns per detection its
    (annotation index, distance) or None, and the annotations' taken flags."""
    taken = [False] * len(limits)
    match = [None] * len(table)
    for i in order:
        for d, j in table[i]:
            if d <= limits[j] and not taken[j]:
                taken[j] = True
                match[i] = (j, d)
                break
    return match, taken


def average_precision(scored_matches: Sequence[Tuple[float, bool]],
                      num_ground_truths: int) -> Optional[float]:
    """Clipped-curve average precision.

    The exact formula: detections sort by descending score (false positives
    first on equal scores); cumulative counts give one (recall, precision) sample per
    detection, keeping only the last sample at any repeated recall value.
    Precision is linearly interpolated onto a 101-point recall grid
    (constant at the first sample below the smallest recall, zero above the
    largest), and AP is the mean of ``max(0, precision - 0.1)`` over the 90
    grid points with recall above 0.1, divided by 0.9.

    Returns None when there are no ground truths (undefined rather than
    zero) and 0.0 when there are ground truths but no detections.
    """
    if num_ground_truths == 0:
        return None
    if not scored_matches:
        return 0.0
    scores, hits = np.fromiter(chain.from_iterable(scored_matches), np.float64,
                               2 * len(scored_matches)).reshape(-1, 2).T
    # score ties resolve pessimistically (false positives first) so the
    # result does not depend on dataset ordering
    tp = np.cumsum(hits[np.lexsort((hits, -scores))], dtype=np.int64)
    # the last sample of each run of equal recalls, that is of equal tp
    last = np.append(tp[1:] != tp[:-1], True)
    counts = tp[last]
    recalls = counts / num_ground_truths
    precisions = counts / (np.flatnonzero(last) + 1)
    interp = np.interp(_RECALL_GRID, recalls, precisions,
                       left=precisions[0], right=precisions[-1])
    # zero above the largest recall, decided exactly: grid point i stands for
    # i / 100, which some grid floats exceed by an ulp (0.7000000000000001)
    interp[_GRID_STEPS * num_ground_truths > (_AP_GRID - 1) * counts[-1]] = 0.0
    clipped = np.maximum(0.0, interp[int(_AP_FLOOR * 100) + 1:] - _AP_FLOOR)
    return math.fsum(clipped) / len(clipped) / (1.0 - _AP_FLOOR)


def tp_error_means(pairs: Sequence[MatchedPair],
                   measures: Sequence[str] = ("ATE", "ASE", "AOE")) -> Dict[str, float]:
    """Mean true-positive errors over matched pairs.

    ATE: mean BEV center distance. ASE: one minus the product of
    per-dimension min/max ratios. AOE: mean absolute yaw difference wrapped
    to [0, pi]. AVE: mean velocity vector error; AAE: attribute mismatch
    rate; both require the optional fields on every pair. A mean that is not
    a finite number (or a sum that overflows) is a ValueError.

    ASE and AOE come from the pairs' boxes as float64 arrays, built once per
    call: the ratios multiply in length, height, width order, and only a yaw
    difference outside (-pi, pi] goes through ``wrap_angle``.
    """
    if not pairs:
        raise ValueError("tp_error_means needs at least one matched pair")
    means: Dict[str, float] = {}
    boxes = None
    for measure in measures:
        measure = measure.upper()
        if measure == "ATE":
            values = [pair.center_distance for pair in pairs]
        elif measure in ("ASE", "AOE"):
            if boxes is None:
                boxes = (box_rows([pair.detection.box for pair in pairs]),
                         box_rows([pair.annotation.box for pair in pairs]))
            p, g = boxes
            if measure == "ASE":
                ratio = np.minimum(p[3:6], g[3:6]) / np.maximum(p[3:6], g[3:6])
                values = (1.0 - ratio[0] * ratio[1] * ratio[2]).tolist()
            else:
                diff = p[6] - g[6]
                wrap = (diff <= -math.pi) | (diff > math.pi)
                if wrap.any():
                    diff[wrap] = map_math(wrap_angle, diff[wrap])
                values = np.abs(diff).tolist()
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


def nds(mean_ap: float, tp_means: Mapping[str, float]) -> float:
    """Detection score blending mAP with the configured error measures.

    With k measures: ``(k * mAP + sum(1 - min(1, err))) / (2k)``; the
    five-measure case is the standard full formula.
    """
    k = len(tp_means)
    if not (1 <= k <= 5):
        raise ValueError(f"need between 1 and 5 TP measures, got {k}")
    penalty = sum(1.0 - min(1.0, err) for err in tp_means.values())
    return (k * mean_ap + penalty) / (2.0 * k)


def usc_nds(nds_value: float, mausc: float) -> float:
    """Arithmetic mean of the detection score and the mean average USC."""
    return (nds_value + mausc) / 2.0


def aggregate_usc(pairs: Sequence[MatchedPair]) -> Tuple[Optional[float], int]:
    """The average USC score (``usc_batch``) of one (class, bucket) slice's
    matched pairs, and how many pairs were excluded from it.

    Pairs whose constraint evaluation is undefined (a box corner behind the
    camera plane, or a ground truth with no PV area) are excluded and
    counted rather than scored zero; a slice with no scoreable pair gets a
    None AUSC. The report's mAUSC is built from these in ``_bucket_summary``.
    ``evaluate`` calls it per non-empty slice, just before ``tp_error_means``.
    """
    usc, reason = usc_batch([pair.detection.box for pair in pairs],
                            [pair.annotation.box for pair in pairs])
    scores = usc[reason == 0].tolist()
    return (math.fsum(scores) / len(scores) if scores else None,
            len(pairs) - len(scores))


def _deviations(values: Sequence[float]) -> List[float]:
    """Deviations from the mean of ``values`` times the power of two that
    brings their largest magnitude into [0.5, 1). The scaling is exact unless
    a product is subnormal; after it no sum or deviation overflows, and the
    largest deviation, at least 2**-55 in magnitude, has a square far from
    underflow. The mean is kept within [min, max], so only a constant series
    deviates by exactly 0: it raises ZeroVariance."""
    shift = -math.frexp(max(map(abs, values)))[1]
    scaled = [math.ldexp(v, shift) for v in values]
    mean = min(max(sum(scaled) / len(scaled), min(scaled)), max(scaled))
    deviations = [v - mean for v in scaled]
    if not any(deviations):
        raise ZeroVariance("a series has zero variance")
    return deviations


def pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Sample Pearson correlation coefficient. Each series is scaled by a
    power of two before its deviations are taken (``_deviations``), so
    scaling a series changes r by rounding only, and by a power of two not
    at all.

    Raises ZeroVariance when either series is constant (or shorter than 2).
    """
    if len(xs) != len(ys):
        raise ValueError("series lengths differ")
    if len(xs) < 2:
        raise ZeroVariance("need at least two samples")
    dx, dy = _deviations(xs), _deviations(ys)
    cov = sum(a * b for a, b in zip(dx, dy))
    return cov / math.sqrt(sum(d * d for d in dx) * sum(d * d for d in dy))


# --- full protocol -----------------------------------------------------------


def _bucketed(order, match, ann_keys, det_keys):
    """(key, detection index, match or None): matches in score order under the
    annotation's (class, bucket), then unmatched detections in input order
    under their own, if they have one."""
    return ([(ann_keys[m[0]], i, m) for i in order if (m := match[i]) is not None]
            + [(k, i, None) for i, k in enumerate(det_keys) if k and match[i] is None])


def _same_match(table, limits: Sequence[float], t: float) -> bool:
    """Whether ``_greedy`` over ``table`` gives one match under ``limits`` and
    under limit t for every annotation. It does when every entry (d, j) has
    ``d <= limits[j]`` exactly when ``d <= t``: when every limit is t, or when
    the farthest entry is within both t and the smallest limit."""
    if limits.count(t) == len(limits):
        return True
    farthest = max([row[-1][0] for row in table if row], default=-math.inf)
    return farthest <= t and farthest <= min(limits)


def _walk(frames, config: ProtocolConfig, ap_thresholds: Tuple[float, ...]):
    """The frame -> class walk: per (frame, class), one candidate table serves
    the protocol match and a match per AP threshold. Returns, per (class,
    bucket), the protocol pairs, false positives and false negatives, and the
    (score, is TP) labels per AP threshold. Every in-range annotation ends up
    in a pair or as a false negative.

    The protocol match and its ``_bucketed`` list serve as the AP match at
    threshold t when every annotation of the group has limit t, or when the
    group's farthest candidate is within both t and the smallest limit (see
    ``_same_match``); otherwise the group is matched again at t. Each object
    is keyed from its box's x and z, read once."""
    pairs, fps, fns = {}, {}, {}
    labeled = {t: {} for t in ap_thresholds}
    reach = max(config.match_thresholds + ap_thresholds)
    bucket_index, hypot = config.bucket_index, math.hypot
    for frame in frames:
        groups: Dict[str, Tuple[list, list, list, list]] = {}
        for ann in frame.ground_truths:
            x, _, z, _, _, _, _ = ann.box
            bucket = bucket_index(hypot(x, z))
            if bucket is not None:
                group = groups.setdefault(ann.class_name, ([], [], [], []))
                group[0].append(ann)
                group[1].append((ann.class_name, bucket))
        for det in frame.predictions:
            x, _, z, _, _, _, _ = det.box
            bucket = bucket_index(hypot(x, z))
            group = groups.setdefault(det.class_name, ([], [], [], []))
            group[2].append(det)
            group[3].append(None if bucket is None else (det.class_name, bucket))
        for class_name in sorted(groups):
            anns, ann_keys, dets, det_keys = groups[class_name]
            order = sorted(range(len(dets)), key=lambda i: -dets[i].score)
            table = _candidates(dets, anns, reach)
            limits = [config.match_thresholds[b] for _, b in ann_keys]
            match, taken = _greedy(order, table, limits)
            bucketed = _bucketed(order, match, ann_keys, det_keys)
            for key, i, m in bucketed:
                if m is None:
                    fps.setdefault(key, []).append(dets[i])
                else:
                    pairs.setdefault(key, []).append(MatchedPair(dets[i], anns[m[0]], m[1]))
            for ann, key, matched in zip(anns, ann_keys, taken):
                if not matched:
                    fns.setdefault(key, []).append(ann)
            for t in ap_thresholds:
                t_bucketed = bucketed
                if not _same_match(table, limits, t):
                    match, _ = _greedy(order, table, [t] * len(anns))
                    t_bucketed = _bucketed(order, match, ann_keys, det_keys)
                for key, i, m in t_bucketed:
                    labeled[t].setdefault(key, []).append((dets[i].score, m is not None))
    return pairs, fps, fns, labeled


def matched_pairs(frames, config: ProtocolConfig):
    """Match every frame, each annotation at its own bucket's threshold;
    annotations outside all buckets are dropped. Returns per (class, bucket):
    matched pairs, false positives, false negatives.

    The one public entry point to the matcher. To match at a single
    threshold, give the config one bucket that covers every object and that
    threshold."""
    return _walk(frames, config, ())[:3]


def _mean_or_none(values: Sequence[Optional[float]]) -> Optional[float]:
    present = [v for v in values if v is not None]
    return math.fsum(present) / len(present) if present else None


def _counts(parts) -> Dict[str, int]:
    """The tp, fp, fn and usc_excluded counts summed over slices or summaries."""
    return {name: sum(getattr(part, name) for part in parts)
            for name in ("tp", "fp", "fn", "usc_excluded")}


def _bucket_summary(slices: Sequence[ClassBucketMetrics],
                    config: ProtocolConfig) -> BucketSummary:
    """One bucket's summary from its slices, one per class of the report.
    The counts cover every slice, including the false positives of a class
    with no ground truth in the bucket; the metrics average over the classes
    with ground truth in the bucket, or over all when classes are not
    skipped. An absent class scores worst case (AP 0, errors 1, AUSC 0); a
    present class whose every pair was excluded from USC stays out of
    mAUSC."""
    counted = [m for m in slices
               if m.tp + m.fn > 0 or not config.skip_missing_classes]
    mean_ap = _mean_or_none([0.0 if v is None else v
                             for m in counted for v in m.ap.values()])
    errors = {t: _mean_or_none([1.0 if m.tp_errors[t] is None else m.tp_errors[t]
                                for m in counted])
              for t in config.tp_measures}
    mausc = _mean_or_none([m.ausc if m.tp + m.fn > 0 else 0.0 for m in counted])
    nds_value = None
    if mean_ap is not None and None not in errors.values():
        nds_value = nds(mean_ap, errors)
    blended = None
    if nds_value is not None and mausc is not None:
        blended = usc_nds(nds_value, mausc)
    return BucketSummary(mean_ap=mean_ap, nds=nds_value, mausc=mausc,
                         usc_nds=blended, tp_errors=errors, **_counts(slices))


def evaluate(frames, config: ProtocolConfig = ProtocolConfig()) -> MetricsReport:
    """Run the full range-bucketed protocol over a dataset.

    ``frames`` is a sequence of FrameRecord values (see the io module).
    The report lists every class with an in-range ground truth or
    prediction, so a class seen only in predictions shows its false
    positives. Undefined metrics stay None; they are never silently zeroed.
    """
    frames = list(frames)
    pairs, fps, fns, labeled = _walk(frames, config, config.ap_distance_thresholds)
    classes = sorted({class_name for class_name, _ in [*pairs, *fps, *fns]})
    per_class = {class_name: {} for class_name in classes}
    per_bucket = {}
    for b, (near, far) in enumerate(config.range_buckets):
        label = bucket_label(near, far)
        slices = []
        for class_name in classes:
            key = (class_name, b)
            class_pairs = pairs.get(key, [])
            n_fn = len(fns.get(key, []))
            n_gt = len(class_pairs) + n_fn
            if class_pairs:
                ausc, excluded = aggregate_usc(class_pairs)
                errors = tp_error_means(class_pairs, config.tp_measures)
            else:
                # worst case for a present class with nothing matched;
                # undefined for a class absent from the bucket
                errors = {m: 1.0 if n_gt else None for m in config.tp_measures}
                ausc, excluded = 0.0 if n_gt else None, 0
            metrics = ClassBucketMetrics(
                ap={d: average_precision(labeled[d].get(key, []), n_gt)
                    for d in config.ap_distance_thresholds},
                tp_errors=errors, ausc=ausc, tp=len(class_pairs),
                fp=len(fps.get(key, [])), fn=n_fn, usc_excluded=excluded)
            per_class[class_name][label] = metrics
            slices.append(metrics)
        per_bucket[label] = _bucket_summary(slices, config)

    summaries = list(per_bucket.values())
    overall = BucketSummary(
        mean_ap=_mean_or_none([s.mean_ap for s in summaries]),
        nds=_mean_or_none([s.nds for s in summaries]),
        mausc=_mean_or_none([s.mausc for s in summaries]),
        usc_nds=_mean_or_none([s.usc_nds for s in summaries]),
        tp_errors={m: _mean_or_none([s.tp_errors[m] for s in summaries])
                   for m in config.tp_measures},
        **_counts(summaries))
    return MetricsReport(
        range_buckets=list(config.range_buckets), classes=classes,
        ap_distance_thresholds=list(config.ap_distance_thresholds),
        tp_measures=list(config.tp_measures), frames=len(frames),
        per_class=per_class, per_bucket=per_bucket, overall=overall)
