"""Dataset-level evaluation protocol.

Pipeline: one walk, the one way into the matcher (``matched_pairs`` exposes
it), over chunks of whole frames, each matched in array passes. A chunk's
candidate table of BEV center distances, built at once for all its (frame,
class) groups, serves the protocol match (each annotation limited by its
bucket's threshold) and one match per AP distance threshold; distances are
computed only inside an x/z window of the largest threshold around each
detection. In each match, detections by descending score take the nearest
untaken annotation within the limit. At AP threshold t only the groups with
a candidate within t but not within its limit, or the reverse, are matched
again; in every other group the protocol match is the AP match. The AP
labels stay per-detection arrays until ``evaluate`` splits them by (class,
bucket). Objects are grouped into range buckets by the ground-truth center
distance; matched detections inherit their annotation's bucket, unmatched
detections fall into the bucket of their own center distance. One class
loop per bucket then gives each class with an in-range object, ground truth
or prediction, its slice: AP per distance threshold, AUSC (the mean USC
score) and then the mean true-positive errors of its pairs, and TP/FP/FN,
TP + FN being its in-range ground truths; the first faulty slice in bucket,
then class order names the error. The bucket's mAP, NDS, mAUSC, USC-NDS and
counts come from its slices, the overall ones from the buckets'.

Protocol defaults follow a near-field safety focus: objects within 20 m
split into [0, 10) and [10, 20) buckets, with the matching threshold
tightened to 1 m in the near bucket (2 m beyond), and classes absent from a
bucket skipped rather than scored as worst-case.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import chain, compress
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple, Union

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


def average_precision(scored_matches: Union[Sequence[Tuple[float, bool]], np.ndarray],
                      num_ground_truths: int) -> Optional[float]:
    """Clipped-curve average precision of (score, is TP) labels: a sequence
    of tuples, or the (n, 2) float64 array of them, a TP as 1.0.

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
    if not len(scored_matches):
        return 0.0
    if not isinstance(scored_matches, np.ndarray):
        scored_matches = np.fromiter(chain.from_iterable(scored_matches), np.float64,
                                     2 * len(scored_matches)).reshape(-1, 2)
    scores, hits = scored_matches.T
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


#: Most objects, ground truths plus predictions, that ``_walk`` puts in one
#: chunk of whole frames; a frame with more is a chunk of its own. A chunk's
#: arrays are the walk's working memory, so the cap bounds it: with no cap,
#: the benchmark's peak RSS rose by 3.3% on eval_near and 4.2% on loss_near.
#: A cap of 256 cost about 6% of eval_near frames/s in per-chunk overhead.
_CHUNK_CAP = 2048


def _chunks(frames):
    """The frames in runs of whole frames, in order, each run with at most
    _CHUNK_CAP objects unless one frame alone has more."""
    chunk, size = [], 0
    for frame in frames:
        count = len(frame.ground_truths) + len(frame.predictions)
        if chunk and size + count > _CHUNK_CAP:
            yield chunk
            chunk, size = [], 0
        chunk.append(frame)
        size += count
    if chunk:
        yield chunk


def _flatten(objects, frame_counts, rank, edges):
    """Per object of a chunk: the x and z of its box, its group (frame index
    times the number of classes, plus the rank of its class) and its bucket
    index, -1 outside every bucket. ``searchsorted`` over the edges ``near0,
    far0, near1, ...`` is the bisection of ``ProtocolConfig.bucket_index``."""
    rows = box_rows([o.box for o in objects])
    x, z = rows[0], rows[2]
    frame = np.repeat(np.arange(len(frame_counts)), frame_counts)
    classes = np.fromiter([rank[o.class_name] for o in objects], np.int64, len(objects))
    i = np.searchsorted(edges, map_math(math.hypot, x, z), side="right")
    return x, z, frame * len(rank) + classes, np.where(i & 1, i >> 1, -1)


def _candidate_table(px, pz, p_group, gx, gz, g_group, reach: float):
    """The candidate table of detections at (px, pz) and annotations at (gx,
    gz): an entry (detection, annotation, distance) for each pair in one group
    whose BEV center distance is within reach, as three arrays sorted by
    detection, then distance, then annotation index. A distance is the float
    ``bev_center_distance`` gives: the same differences and ``math.hypot``.

    Distances are computed only inside a window, ``slack = reach * (1 +
    1e-9)``: the annotations of the detection's group with ``px - slack <= x
    <= px + slack`` (bounds rounded) and ``abs(pz - z) <= slack``. The x window
    is a run of exact integer keys, group * stride + the rank of x among the
    annotations' x, found by one search per bound. No pair within reach lies
    outside: ``math.hypot`` rounds faithfully and max(|dx|, |dz|) is a float,
    so a computed distance is at least both computed offsets; ``fl(px - x) <=
    reach`` means ``px - x <= reach * (1 + 2**-53)`` (a subnormal difference
    is exact), below slack, so by monotone rounding ``fl(px - slack) <= x``,
    and likewise above.
    """
    slack = reach * (1 + 1e-9)
    xs = np.sort(gx)
    stride = len(xs) + 1
    keys = g_group * stride + np.searchsorted(xs, gx)
    by_key = np.argsort(keys, kind="stable")
    keys, base = keys[by_key], p_group * stride
    start = np.searchsorted(keys, base + np.searchsorted(xs, px - slack))
    stop = np.searchsorted(keys, base + np.searchsorted(xs, px + slack, side="right"))
    counts = stop - start
    det = np.repeat(np.arange(len(px)), counts)
    ann = by_key[np.repeat(start - np.cumsum(counts) + counts, counts)
                 + np.arange(len(det))]
    near = np.abs(pz[det] - gz[ann]) <= slack
    det, ann = det[near], ann[near]
    dist = map_math(math.hypot, px[det] - gx[ann], pz[det] - gz[ann])
    within = dist <= reach
    det, ann, dist = det[within], ann[within], dist[within]
    order = np.lexsort((ann, dist, det))
    return det[order], ann[order], dist[order]


def _greedy(order, det, ann, eligible, n_dets: int) -> np.ndarray:
    """Each detection in ``order`` takes its first eligible entry of the
    candidate table (``det``, ``ann``) whose annotation is untaken. Returns
    per detection the index of its entry, or -1."""
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


def _collect(lists, keys, codes, objects):
    """Append each object to the list of ``lists`` under ``keys[code]``."""
    for code, obj in zip(codes.tolist(), objects):
        lists.setdefault(keys[code], []).append(obj)


def _match_chunk(chunk, config: ProtocolConfig, ap_thresholds, reach: float,
                 out, codes):
    """Match one chunk of whole frames (see ``_walk``). Appends its pairs,
    false positives and false negatives to the dicts ``out`` and returns its
    detections' AP labels; ``codes``, class name -> class code, gains the
    chunk's new classes."""
    pairs, fps, fns = out
    anns = [a for frame in chunk for a in frame.ground_truths]
    dets = [d for frame in chunk for d in frame.predictions]
    names = sorted({o.class_name for o in chain(anns, dets)})
    rank = dict(zip(names, range(len(names))))
    edges = np.array(config._edges)
    gx, gz, g_group, g_bucket = _flatten(
        anns, [len(frame.ground_truths) for frame in chunk], rank, edges)
    inside = g_bucket >= 0
    anns = list(compress(anns, inside.tolist()))
    gx, gz, g_group, g_bucket = gx[inside], gz[inside], g_group[inside], g_bucket[inside]
    px, pz, p_group, p_bucket = _flatten(
        dets, [len(frame.predictions) for frame in chunk], rank, edges)
    score = np.array([d.score for d in dets], dtype=np.float64)

    det, ann, dist = _candidate_table(px, pz, p_group, gx, gz, g_group, reach)
    order = np.lexsort((-score, p_group))
    eligible = dist <= np.array(config.match_thresholds)[g_bucket[ann]]
    match = _greedy(order, det, ann, eligible, len(dets))

    # a (class, bucket) key's code: class rank * number of buckets + bucket
    n_buckets = len(config.range_buckets)
    key_of = [(name, b) for name in names for b in range(n_buckets)]
    p_key = p_group % len(names) * n_buckets
    hit = match >= 0
    won = order[hit[order]]
    entry = match[won]
    _collect(pairs, key_of, p_key[won] + g_bucket[ann[entry]],
             map(MatchedPair, [dets[i] for i in won.tolist()],
                 [anns[j] for j in ann[entry].tolist()], dist[entry].tolist()))
    by_group = np.argsort(p_group, kind="stable")
    fp = by_group[~hit[by_group] & (p_bucket[by_group] >= 0)]
    _collect(fps, key_of, p_key[fp] + p_bucket[fp], [dets[i] for i in fp.tolist()])
    missed = np.ones(len(anns), dtype=bool)
    missed[ann[entry]] = False
    by_group = np.argsort(g_group, kind="stable")
    fn = by_group[missed[by_group]]
    _collect(fns, key_of, g_group[fn] % len(names) * n_buckets + g_bucket[fn],
             [anns[j] for j in fn.tolist()])

    code = np.array([codes.setdefault(name, len(codes)) for name in names], dtype=np.int64)
    p_code = code[p_group % len(names)] * n_buckets
    keys = np.empty((len(ap_thresholds), len(dets)), dtype=np.int64)
    hits = np.empty(keys.shape, dtype=bool)
    for row, t in enumerate(ap_thresholds):
        at_t = dist <= t
        redo = np.isin(p_group, p_group[det[at_t != eligible]])
        t_match = np.where(redo, _greedy(order, det, ann, at_t & redo[det], len(dets)), match)
        hits[row] = t_hit = t_match >= 0
        bucket = p_bucket.copy()
        bucket[t_hit] = g_bucket[ann[t_match[t_hit]]]
        keys[row] = np.where(bucket >= 0, p_code + bucket, -1)
    return score, keys, hits


def _walk(frames, config: ProtocolConfig, ap_thresholds: Tuple[float, ...]):
    """The match walk. Returns, per (class, bucket), the protocol pairs, false
    positives and false negatives, each list in frame, then class, then
    detection score or input order; and the AP labels: the class names by
    code, each detection's score, and per AP threshold each detection's key
    (class code * number of buckets + bucket, -1 for no label) and whether it
    is a TP. Every in-range annotation ends up in a pair or as a false
    negative.

    A group, the objects of one class in one frame, never spans frames, so the
    walk takes whole frames in chunks (``_chunks``) and matches each chunk in
    array passes (``_match_chunk``): one candidate table
    (``_candidate_table``), then one greedy loop (``_greedy``) over the
    detections with a candidate, by group, then descending score, then input
    order, each annotation limited by its bucket's threshold. At AP threshold
    t only the groups with an entry whose ``d <= t`` and ``d <= limit``
    disagree are matched again, at t; in every other group each entry is
    eligible under both or neither, so the greedy match is the same."""
    out = {}, {}, {}
    codes: Dict[str, int] = {}
    reach = max(config.match_thresholds + ap_thresholds)
    rows = len(ap_thresholds)
    labels = [(np.empty(0), np.empty((rows, 0), dtype=np.int64),
               np.empty((rows, 0), dtype=bool))]
    with np.errstate(all="ignore"):
        for chunk in _chunks(frames):
            labels.append(_match_chunk(chunk, config, ap_thresholds, reach, out, codes))
    scores, keys, hits = (np.concatenate(parts, axis=-1) for parts in zip(*labels))
    return (*out, (list(codes), scores, keys, hits))


def matched_pairs(frames, config: ProtocolConfig):
    """Match every frame, each annotation at its own bucket's threshold;
    annotations outside all buckets are dropped. Returns per (class, bucket):
    matched pairs, false positives, false negatives, each list in frame order
    and, within a frame, in descending score (pairs) or input order.

    The one public entry point to the matcher, whose walk (``_walk``) takes
    chunks of whole frames in array passes. To match at a single threshold,
    give the config one bucket that covers every object and that
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
    pairs, fps, fns, (names, scores, keys, hits) = _walk(
        frames, config, config.ap_distance_thresholds)
    n_buckets = len(config.range_buckets)
    labeled = {}
    for t, t_keys, t_hits in zip(config.ap_distance_thresholds, keys, hits):
        order = np.argsort(t_keys, kind="stable")
        codes, starts = np.unique(t_keys[order], return_index=True)
        parts = np.split(np.column_stack((scores, t_hits))[order], starts[1:])
        labeled[t] = {(names[code // n_buckets], code % n_buckets): part
                      for code, part in zip(codes.tolist(), parts) if code >= 0}
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
                ap={d: average_precision(labeled[d].get(key, ()), n_gt)
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
