"""Dataset-level evaluation protocol.

Pipeline: one walk, the one way into the matcher (``matched_indices``
exposes it), over the columns of a ``Dataset`` in chunks of whole frames,
each matched in array passes. A chunk's candidate table of BEV center
distances, built at once for all its (frame, class) groups from the x and z
columns, serves the protocol match (each annotation limited by its bucket's
threshold) and one match per AP distance threshold; distances are computed
only inside an x/z window of the largest threshold around each detection.
In each match, detections by descending score take the nearest untaken
annotation within the limit, decided in array rounds (``_greedy``). At AP
threshold t only the groups with a candidate within t but not within its
limit, or the reverse, are matched again; in every other group the protocol
match is the AP match. Objects are grouped into range buckets by the
ground-truth center distance; matched detections inherit their annotation's
bucket, unmatched detections fall into the bucket of their own center
distance. The walk's pairs, false positives and false negatives are row
indices per (class, bucket), and its AP labels per-detection arrays. One
USC kernel pass then scores every pair of the report, slice after slice in
bucket, then class order (``_usc_slices``). One class loop per bucket gives
each class with an in-range object, ground truth or prediction, its slice:
AP per distance threshold, AUSC (the mean USC score of its run of that
pass), the mean true-positive errors of its pairs from the box arrays
sliced by the pairs' rows (``PairColumns``), and TP/FP/FN, TP + FN being
its in-range ground truths. The first faulty slice in bucket, then class
order names the error: when the USC pass raises, the loop scores each
slice's USC by itself (``aggregate_usc``) just before its TP errors. The
bucket's mAP, NDS, mAUSC, USC-NDS and counts come from its slices, the
overall ones from the buckets'. ``matched_pairs`` gives the walk's result
as ``MatchedPair`` values of the given frames' objects.

Protocol defaults follow a near-field safety focus: objects within 20 m
split into [0, 10) and [10, 20) buckets, with the matching threshold
tightened to 1 m in the near bucket (2 m beyond), and classes absent from a
bucket skipped rather than scored as worst-case.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import chain
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from .constraints import usc_batch
from .dataset import (Annotation, Dataset, Detection, FrameRecord, Objects,
                      as_dataset)
from .errors import MissingAnnotationField, ZeroVariance
from .geometry import Box3D, first_failing_pair, hypot, map_math, wrap_angle

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


class MatchedPair(NamedTuple):
    detection: Detection
    annotation: Annotation
    center_distance: float


class PairIndex(NamedTuple):
    """Matched pairs as rows of a ``Dataset``: each pair's prediction row,
    ground-truth row and BEV center distance."""

    detections: np.ndarray
    annotations: np.ndarray
    distances: np.ndarray


class PairColumns(NamedTuple):
    """Matched pairs as columns, one row per pair: the two (n, 7) box
    arrays, the center distances, and the velocities and attributes of each
    side as ``Objects`` holds them (NaN or None for none, and None when no
    object of the side has one)."""

    pred_boxes: np.ndarray
    gt_boxes: np.ndarray
    distances: np.ndarray
    pred_velocities: Optional[np.ndarray]
    gt_velocities: Optional[np.ndarray]
    pred_attributes: Optional[np.ndarray]
    gt_attributes: Optional[np.ndarray]


def pair_columns(pairs: Union[Sequence[MatchedPair], PairColumns]) -> PairColumns:
    """Matched pairs as ``PairColumns``: those as they are, a sequence of
    ``MatchedPair`` values by their values, as one frame of a ``Dataset``."""
    if isinstance(pairs, PairColumns):
        return pairs
    data = as_dataset([FrameRecord("pairs", [pair.annotation for pair in pairs],
                                   [pair.detection for pair in pairs])])
    rows = np.arange(len(pairs))
    return _pair_rows(data, PairIndex(rows, rows, np.array(
        [pair.center_distance for pair in pairs], dtype=np.float64)))


def _pair_rows(data: Dataset, pairs: PairIndex) -> PairColumns:
    """The columns of the pairs at these rows of ``data``."""
    def rows(column, index):
        return None if column is None else column[index]

    p, g = data.predictions, data.ground_truths
    det, ann = pairs.detections, pairs.annotations
    return PairColumns(p.boxes[det], g.boxes[ann], pairs.distances,
                       rows(p.velocities, det), rows(g.velocities, ann),
                       rows(p.attributes, det), rows(g.attributes, ann))


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


def tp_error_means(pairs: Union[Sequence[MatchedPair], PairColumns],
                   measures: Sequence[str] = ("ATE", "ASE", "AOE")) -> Dict[str, float]:
    """Mean true-positive errors over matched pairs, given as ``MatchedPair``
    values or as ``PairColumns``.

    ATE: mean BEV center distance. ASE: one minus the product of
    per-dimension min/max ratios. AOE: mean absolute yaw difference wrapped
    to [0, pi]. AVE: mean velocity vector error; AAE: attribute mismatch
    rate; both require the optional fields on every pair. A mean that is not
    a finite number (or a sum that overflows) is a ValueError.

    The errors come from the pairs' float64 columns: the ratios multiply in
    length, height, width order, only a yaw difference outside (-pi, pi]
    goes through ``wrap_angle``, and a velocity error is ``math.hypot`` of
    the differences.
    """
    pairs = pair_columns(pairs)
    if not len(pairs.distances):
        raise ValueError("tp_error_means needs at least one matched pair")
    means: Dict[str, float] = {}
    p, g = pairs.pred_boxes.T, pairs.gt_boxes.T
    for measure in measures:
        measure = measure.upper()
        with np.errstate(all="ignore"):
            if measure == "ATE":
                values = pairs.distances.tolist()
            elif measure == "ASE":
                ratio = np.minimum(p[3:6], g[3:6]) / np.maximum(p[3:6], g[3:6])
                values = (1.0 - ratio[0] * ratio[1] * ratio[2]).tolist()
            elif measure == "AOE":
                diff = p[6] - g[6]
                wrap = (diff <= -math.pi) | (diff > math.pi)
                if wrap.any():
                    diff[wrap] = map_math(wrap_angle, diff[wrap])
                values = np.abs(diff).tolist()
            elif measure == "AVE":
                pv, gv = pairs.pred_velocities, pairs.gt_velocities
                if pv is None or gv is None or np.isnan(pv).any() or np.isnan(gv).any():
                    raise MissingAnnotationField("AVE requested but velocity missing")
                values = hypot(pv[:, 0] - gv[:, 0], pv[:, 1] - gv[:, 1]).tolist()
            elif measure == "AAE":
                pa, ga = pairs.pred_attributes, pairs.gt_attributes
                if pa is None or ga is None or None in pa.tolist() or None in ga.tolist():
                    raise MissingAnnotationField("AAE requested but attribute missing")
                values = [0.0 if a == b else 1.0 for a, b in zip(pa.tolist(), ga.tolist())]
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


def aggregate_usc(pairs: Union[Sequence[MatchedPair], PairColumns]
                  ) -> Tuple[Optional[float], int]:
    """The average USC score (``usc_batch``) of one (class, bucket) slice's
    matched pairs, given as ``MatchedPair`` values or as ``PairColumns``,
    and how many pairs were excluded from it.

    Pairs whose constraint evaluation is undefined (a box corner behind the
    camera plane, or a ground truth with no PV area) are excluded and
    counted rather than scored zero; a slice with no scoreable pair gets a
    None AUSC. The report's mAUSC is built from these in ``_bucket_summary``.
    ``evaluate`` takes the same figures for every slice from one kernel pass
    (``_usc_slices``); it calls this per non-empty slice, just before
    ``tp_error_means``, only when that pass raises.
    """
    pairs = pair_columns(pairs)
    return _mean_usc(*usc_batch(pairs.pred_boxes, pairs.gt_boxes))


def _mean_usc(usc: np.ndarray, reason: np.ndarray) -> Tuple[Optional[float], int]:
    """The mean of the scored USC values (``math.fsum`` over their count),
    None when none is scored, and the count of the excluded ones."""
    scores = usc[reason == 0].tolist()
    return (math.fsum(scores) / len(scores) if scores else None,
            len(usc) - len(scores))


def _usc_slices(data: Dataset, slices: Sequence[PairIndex]) -> list:
    """``aggregate_usc`` of each of these slices of pairs, in order, from one
    ``usc_batch`` pass over all their rows of ``data``; an empty list when
    that pass raises ValueError, so that the caller can find the first
    faulty slice by itself."""
    if not slices:
        return []
    ends = np.cumsum([len(pairs.detections) for pairs in slices]).tolist()
    try:
        usc, reason = usc_batch(
            data.predictions.boxes, data.ground_truths.boxes,
            (np.concatenate([pairs.detections for pairs in slices]),
             np.concatenate([pairs.annotations for pairs in slices])))
    except ValueError:
        return []
    return [_mean_usc(usc[start:end], reason[start:end])
            for start, end in zip([0, *ends], ends)]


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


def _chunks(data: Dataset):
    """The frames of ``data`` in runs of whole frames, in order, each run,
    (first frame, end frame), with at most _CHUNK_CAP objects unless one
    frame alone has more."""
    counts = np.diff(data.ground_truths.offsets) + np.diff(data.predictions.offsets)
    first, size = 0, 0
    for frame, count in enumerate(counts.tolist()):
        if frame > first and size + count > _CHUNK_CAP:
            yield first, frame
            first, size = frame, 0
        size += count
    if len(counts) > first:
        yield first, len(counts)


def _flatten(objects: Objects, first: int, end: int, n_classes: int, edges):
    """Per object of frames ``first`` to ``end``: the x and z of its box, its
    group (frame index in the run times the number of classes, plus its
    class code) and its bucket index, -1 outside every bucket.
    ``searchsorted`` over the edges ``near0, far0, near1, ...`` is the
    bisection of ``ProtocolConfig.bucket_index``.

    The bucket is that of ``math.hypot(x, z)``, as ``bucket_index`` is
    given it, found from ``np.hypot``, which differs from it in the last bit
    on some inputs. Each is within 1 ulp of the exact distance, so the two
    are within 2 ulps of each other, and a margin of a relative 2**-48 is at
    least 16 ulps: where no edge lies within the margin of ``np.hypot``'s
    distance, both fall between the same edges. Only the objects with an
    edge that near, or with a distance that is not finite, are bucketed by
    ``math.hypot``. Below the least normal float (2**-1022), where the ulp
    stops shrinking, the margin is that of the least normal.
    """
    offsets = objects.offsets[first:end + 1]
    rows = slice(offsets[0], offsets[-1])
    x, z = objects.boxes[rows, 0], objects.boxes[rows, 2]
    frame = np.repeat(np.arange(end - first), np.diff(offsets))
    dist = np.hypot(x, z)
    margin = np.maximum(dist, 2.0 ** -1022) * 2.0 ** -48
    i = np.searchsorted(edges, dist, side="right")
    near = ((np.searchsorted(edges, dist - margin, side="right")
             != np.searchsorted(edges, dist + margin, side="right")) | ~np.isfinite(dist))
    if near.any():
        i[near] = np.searchsorted(edges, hypot(x[near], z[near]), side="right")
    return x, z, frame * n_classes + objects.classes[rows], np.where(i & 1, i >> 1, -1)


def _candidate_table(px, pz, p_group, gx, gz, g_group, reach: float):
    """The candidate table of detections at (px, pz) and annotations at (gx,
    gz): an entry (detection, annotation, distance) for each pair in one group
    whose BEV center distance is within reach, as three arrays sorted by
    detection, then distance, then annotation index. A distance is the float
    ``bev_center_distance`` gives: the same differences and ``math.hypot``,
    here in arrays (``hypot``).

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
    dist = hypot(px[det] - gx[ann], pz[det] - gz[ann])
    within = dist <= reach
    det, ann, dist = det[within], ann[within], dist[within]
    order = np.lexsort((ann, dist, det))
    return det[order], ann[order], dist[order]


def _greedy(order, det, ann, eligible, n_dets: int) -> np.ndarray:
    """Each detection in ``order`` takes its first eligible entry of the
    candidate table (``det``, ``ann``) whose annotation is untaken. Returns
    per detection the index of its entry, or -1.

    The match runs in array rounds over the live entries: the eligible
    entries of the detections still pending whose annotation is untaken,
    listed by the detection's rank in ``order``, then in table order. In a
    round, a detection's first live entry is its match when no detection
    ahead of it has a live entry for that annotation. Each detection ahead
    then takes another annotation or none, so at its turn the detection
    finds that annotation free and every earlier entry of its own taken,
    just as the one-at-a-time loop does. The first pending detection always
    wins. Then every entry that names a taken annotation or a matched
    detection drops out, and with its last entry a detection stops pending,
    unmatched. When a round matches fewer than half of the pending
    detections, as when many detections want the same annotations,
    ``_greedy_loop`` finishes the rest one at a time."""
    kept = np.flatnonzero(eligible)
    match = np.full(n_dets, -1, dtype=np.int64)
    if not len(kept):
        return match
    rank = np.empty(n_dets, dtype=np.int64)
    rank[order] = np.arange(n_dets)
    ranks = rank[det[kept]]
    by_rank = np.argsort(ranks, kind="stable")
    ranks, anns, kept = ranks[by_rank], ann[kept[by_rank]], kept[by_rank]
    least = np.empty(anns.max() + 1, dtype=np.int64)
    while len(ranks):
        first = np.empty(len(ranks), dtype=bool)
        first[0] = True
        np.not_equal(ranks[1:], ranks[:-1], out=first[1:])
        # the least rank with a live entry for each annotation
        least.fill(n_dets)
        np.minimum.at(least, anns, ranks)
        won = np.flatnonzero(first & (least[anns] == ranks))
        match[order[ranks[won]]] = kept[won]
        pending = np.count_nonzero(first)
        if len(won) == pending:
            break
        taken = np.zeros(len(least), dtype=bool)
        taken[anns[won]] = True
        done = np.zeros(n_dets, dtype=bool)
        done[ranks[won]] = True
        live = ~(taken[anns] | done[ranks])
        ranks, anns, kept = ranks[live], anns[live], kept[live]
        if 2 * len(won) < pending:
            won_ranks, won_entries = _greedy_loop(ranks, anns, kept)
            match[order[won_ranks]] = won_entries
            break
    return match


def _greedy_loop(ranks, anns, entries):
    """The greedy match one detection at a time over live entries, given
    as ``_greedy`` holds them: the detection's rank in its order, the
    annotation and the entry's index in the candidate table, by rank and
    then table order. Each detection takes its first entry whose annotation
    is free. Returns the ranks and entries of the matches, as lists."""
    taken, won_ranks, won_entries = set(), [], []
    done = -1
    for rank, a, entry in zip(ranks.tolist(), anns.tolist(), entries.tolist()):
        if rank != done and a not in taken:
            taken.add(a)
            won_ranks.append(rank)
            won_entries.append(entry)
            done = rank
    return np.array(won_ranks, dtype=np.int64), np.array(won_entries, dtype=np.int64)


def _match_chunk(data: Dataset, first: int, end: int, config: ProtocolConfig,
                 ap_thresholds, reach: float) -> tuple:
    """Match frames ``first`` to ``end`` of ``data`` (see ``_walk``). Returns
    its pairs as (key, prediction row, ground-truth row, distance) arrays, its
    false positives as (key, prediction row), its false negatives as (key,
    ground-truth row), and its detections' AP labels. A key is the class code
    times the number of buckets plus the bucket."""
    gts, preds = data.ground_truths, data.predictions
    n_classes, n_buckets = len(data.class_names), len(config.range_buckets)
    edges = np.array(config._edges)
    gx, gz, g_group, g_bucket = _flatten(gts, first, end, n_classes, edges)
    inside = g_bucket >= 0
    g_row = gts.offsets[first] + np.flatnonzero(inside)
    gx, gz, g_group, g_bucket = gx[inside], gz[inside], g_group[inside], g_bucket[inside]
    px, pz, p_group, p_bucket = _flatten(preds, first, end, n_classes, edges)
    p_first, n_dets = preds.offsets[first], len(px)
    score = preds.scores[p_first:p_first + n_dets]

    det, ann, dist = _candidate_table(px, pz, p_group, gx, gz, g_group, reach)
    order = np.lexsort((-score, p_group))
    eligible = dist <= np.array(config.match_thresholds)[g_bucket[ann]]
    match = _greedy(order, det, ann, eligible, n_dets)

    p_code = p_group % n_classes * n_buckets
    hit = match >= 0
    won = order[hit[order]]
    entry = match[won]
    pairs = (p_code[won] + g_bucket[ann[entry]], p_first + won, g_row[ann[entry]],
             dist[entry])
    by_group = np.argsort(p_group, kind="stable")
    fp = by_group[~hit[by_group] & (p_bucket[by_group] >= 0)]
    missed = np.ones(len(gx), dtype=bool)
    missed[ann[entry]] = False
    by_group = np.argsort(g_group, kind="stable")
    fn = by_group[missed[by_group]]

    keys = np.empty((len(ap_thresholds), n_dets), dtype=np.int64)
    hits = np.empty(keys.shape, dtype=bool)
    for row, t in enumerate(ap_thresholds):
        at_t = dist <= t
        redo = np.isin(p_group, p_group[det[at_t != eligible]])
        t_match = np.where(redo, _greedy(order, det, ann, at_t & redo[det], n_dets), match)
        hits[row] = t_hit = t_match >= 0
        bucket = p_bucket.copy()
        bucket[t_hit] = g_bucket[ann[t_match[t_hit]]]
        keys[row] = np.where(bucket >= 0, p_code + bucket, -1)
    return (*pairs, p_code[fp] + p_bucket[fp], p_first + fp,
            g_group[fn] % n_classes * n_buckets + g_bucket[fn], g_row[fn],
            score, keys, hits)


def _by_key(keys, names, n_buckets: int, *arrays) -> dict:
    """The entries with a key of at least 0, keyed by (class name, bucket),
    each as the tuple of its parts of ``arrays`` in their order."""
    keep = np.flatnonzero(keys >= 0)
    order = keep[np.argsort(keys[keep], kind="stable")]
    codes, starts = np.unique(keys[order], return_index=True)
    parts = zip(*(np.split(array[order], starts[1:]) for array in arrays))
    return {(names[code // n_buckets], code % n_buckets): part
            for code, part in zip(codes.tolist(), parts)}


def _walk(data: Dataset, config: ProtocolConfig, ap_thresholds: Tuple[float, ...]):
    """The match walk. Returns, per (class, bucket), the protocol pairs as a
    ``PairIndex``, and the rows of the false positives and of the false
    negatives, each in frame, then detection score or input order; and the AP
    labels: each detection's score, and per AP threshold each detection's key
    (class code * number of buckets + bucket, -1 for no label) and whether it
    is a TP. Every in-range annotation ends up in a pair or as a false
    negative.

    A group, the objects of one class in one frame, never spans frames, so the
    walk takes whole frames in chunks (``_chunks``) and matches each chunk in
    array passes (``_match_chunk``): one candidate table
    (``_candidate_table``), then one greedy match (``_greedy``, in array
    rounds) of the detections with a candidate, by group, then descending
    score, then input order, each annotation limited by its bucket's
    threshold. At AP threshold t only the groups with an entry whose ``d <=
    t`` and ``d <= limit`` disagree are matched again, at t; in every other
    group each entry is eligible under both or neither, so the greedy match
    is the same."""
    reach = max(config.match_thresholds + ap_thresholds)
    rows = len(ap_thresholds)
    empty = np.empty(0, dtype=np.int64)
    parts = [(empty, empty, empty, np.empty(0), empty, empty, empty, empty, np.empty(0),
              np.empty((rows, 0), dtype=np.int64), np.empty((rows, 0), dtype=bool))]
    with np.errstate(all="ignore"):
        for first, end in _chunks(data):
            parts.append(_match_chunk(data, first, end, config, ap_thresholds, reach))
    (pair_keys, det, ann, dist, fp_keys, fp, fn_keys, fn,
     scores, keys, hits) = (np.concatenate(arrays, axis=-1) for arrays in zip(*parts))
    del parts
    names, n_buckets = data.class_names, len(config.range_buckets)
    pairs = {key: PairIndex(*part)
             for key, part in _by_key(pair_keys, names, n_buckets, det, ann, dist).items()}
    fps = {key: rows for key, (rows,) in _by_key(fp_keys, names, n_buckets, fp).items()}
    fns = {key: rows for key, (rows,) in _by_key(fn_keys, names, n_buckets, fn).items()}
    return pairs, fps, fns, (scores, keys, hits)


def matched_indices(frames, config: ProtocolConfig):
    """``matched_pairs`` as rows of ``as_dataset(frames)``: per (class,
    bucket) the pairs as a ``PairIndex``, and the prediction rows of the false
    positives and the ground-truth rows of the false negatives, as arrays."""
    return _walk(as_dataset(frames), config, ())[:3]


def matched_pairs(frames, config: ProtocolConfig):
    """Match every frame, each annotation at its own bucket's threshold;
    annotations outside all buckets are dropped. Returns per (class, bucket):
    matched pairs, false positives, false negatives, each list in frame order
    and, within a frame, in descending score (pairs) or input order. The
    objects are those of ``frames``.

    Built on ``matched_indices``, the one public entry point to the
    matcher, whose walk (``_walk``) takes chunks of whole frames in array
    passes. To match at a single threshold, give the config one bucket that
    covers every object and that threshold."""
    if not isinstance(frames, Dataset):
        frames = list(frames)
    pairs, fps, fns = matched_indices(frames, config)
    anns = [a for frame in frames for a in frame.ground_truths]
    dets = [d for frame in frames for d in frame.predictions]
    return ({key: list(map(MatchedPair, map(dets.__getitem__, p.detections.tolist()),
                           map(anns.__getitem__, p.annotations.tolist()),
                           p.distances.tolist()))
             for key, p in pairs.items()},
            {key: list(map(dets.__getitem__, rows.tolist())) for key, rows in fps.items()},
            {key: list(map(anns.__getitem__, rows.tolist())) for key, rows in fns.items()})


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


def pair_error(exc: ValueError, kernel, data: Dataset, detections: np.ndarray,
               preds: np.ndarray, gts: np.ndarray, class_name: str) -> ValueError:
    """The ValueError ``exc`` that a batch kernel raised on the box pairs
    ``preds`` and ``gts`` of one class, whose predictions are the rows
    ``detections`` of ``data``, as a ValueError that starts with the class
    and the frame of the first pair on which the kernel raises."""
    row = detections[first_failing_pair(kernel, preds, gts)]
    frame_id = data.frame_ids[data.predictions.frame_of(row)]
    return ValueError(f"class {class_name!r} in frame {frame_id!r}: {exc}")


def evaluate(frames, config: ProtocolConfig = ProtocolConfig()) -> MetricsReport:
    """Run the full range-bucketed protocol over a dataset.

    ``frames`` is a ``Dataset``; any other iterable of ``FrameRecord``
    values is taken as its ``as_dataset``. The report lists every class with
    an in-range ground truth or prediction, so a class seen only in
    predictions shows its false positives. Undefined metrics stay None; they
    are never silently zeroed. A pair on which the USC kernel raises
    ValueError raises it again, naming the pair's frame and class.
    """
    data = as_dataset(frames)
    pairs, fps, fns, (scores, keys, hits) = _walk(
        data, config, config.ap_distance_thresholds)
    n_buckets = len(config.range_buckets)
    labeled = {t: {key: part for key, (part,) in _by_key(
        t_keys, data.class_names, n_buckets, np.column_stack((scores, t_hits))).items()}
        for t, t_keys, t_hits in zip(config.ap_distance_thresholds, keys, hits)}
    classes = sorted({class_name for class_name, _ in [*pairs, *fps, *fns]})
    scored = [(class_name, b) for b in range(n_buckets) for class_name in classes
              if (class_name, b) in pairs]
    usc_of = dict(zip(scored, _usc_slices(data, [pairs[key] for key in scored])))
    per_class = {class_name: {} for class_name in classes}
    per_bucket = {}
    for b, (near, far) in enumerate(config.range_buckets):
        label = bucket_label(near, far)
        slices = []
        for class_name in classes:
            key = (class_name, b)
            n_tp = len(pairs[key].detections) if key in pairs else 0
            n_fn = len(fns.get(key, ()))
            n_gt = n_tp + n_fn
            if n_tp:
                columns = _pair_rows(data, pairs[key])
                if key in usc_of:
                    ausc, excluded = usc_of[key]
                else:
                    try:
                        ausc, excluded = aggregate_usc(columns)
                    except ValueError as exc:
                        raise pair_error(exc, usc_batch, data, pairs[key].detections,
                                         columns.pred_boxes, columns.gt_boxes,
                                         class_name) from exc
                errors = tp_error_means(columns, config.tp_measures)
            else:
                # worst case for a present class with nothing matched;
                # undefined for a class absent from the bucket
                errors = {m: 1.0 if n_gt else None for m in config.tp_measures}
                ausc, excluded = 0.0 if n_gt else None, 0
            metrics = ClassBucketMetrics(
                ap={d: average_precision(labeled[d].get(key, ()), n_gt)
                    for d in config.ap_distance_thresholds},
                tp_errors=errors, ausc=ausc, tp=n_tp,
                fp=len(fps.get(key, ())), fn=n_fn, usc_excluded=excluded)
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
        tp_measures=list(config.tp_measures), frames=len(data),
        per_class=per_class, per_bucket=per_bucket, overall=overall)
