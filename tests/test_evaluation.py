import math
import random
import tracemalloc
from dataclasses import fields, is_dataclass
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import (ap_oracle, optimal_assignment, reference_average_precision,
                     reference_bucket_index, reference_candidates,
                     reference_evaluate, reference_tp_error_means,
                     reference_walk)
from strategies import finite
from usc import (Annotation, Box3D, Detection, MatchedPair, ProtocolConfig,
                 aggregate_usc, average_precision, bev_center_distance,
                 evaluate, generate_synthetic, matched_pairs,
                 nds, pearson, tp_error_means, usc_nds, usc_score,
                 SyntheticSpec, FrameRecord, as_dataset)
from usc import evaluation
from usc.errors import MissingAnnotationField, UscError, ZeroVariance
from usc.evaluation import ap_label, bucket_label


def box(x=0.0, z=10.0, l=1.0, h=1.0, w=1.0, yaw=0.0, y=0.0):
    return Box3D(x, y, z, l, h, w, yaw)


def ann(x=0.0, z=10.0, cls="car", **kw):
    return Annotation(cls, box(x, z, **kw))


def det(x=0.0, z=10.0, score=0.9, cls="car", **kw):
    return Detection(cls, box(x, z, **kw), score)


class TestBevCenterDistance:
    def test_identical_centers(self):
        assert bev_center_distance(box(), box()) == 0.0

    def test_three_four_five(self):
        assert bev_center_distance(box(0, 10), box(3, 14)) == pytest.approx(5.0, abs=1e-12)

    def test_height_ignored(self):
        assert bev_center_distance(box(y=0.0), box(y=2.5)) == 0.0


def match_one_bucket(dets, anns, threshold, class_name="car"):
    """``matched_pairs`` on one frame under one bucket that covers every
    object, matched at ``threshold``: the pairs, false positives and false
    negatives of ``class_name``."""
    config = ProtocolConfig(range_buckets=((0.0, 100.0),),
                            match_thresholds=(threshold,))
    pairs, fps, fns = matched_pairs([FrameRecord("f", anns, dets)], config)
    key = (class_name, 0)
    return pairs.get(key, []), fps.get(key, []), fns.get(key, [])


class TestMatchedPairsOneBucket:
    def test_single_match(self):
        pairs, fps, fns = match_one_bucket([det(0.5, 10)], [ann(0, 10)], 1.0)
        assert len(pairs) == 1
        assert pairs[0].center_distance == pytest.approx(0.5)
        assert not fps and not fns

    def test_higher_score_wins_contested_annotation(self):
        close_weak = det(0.2, 10, score=0.5)
        far_strong = det(0.6, 10, score=0.9)
        pairs, fps, _ = match_one_bucket([close_weak, far_strong], [ann(0, 10)], 1.0)
        assert len(pairs) == 1
        assert pairs[0].detection is far_strong
        assert fps == [close_weak]

    def test_beyond_threshold(self):
        pairs, fps, fns = match_one_bucket([det(1.5, 10)], [ann(0, 10)], 1.0)
        assert not pairs
        assert len(fps) == 1
        assert len(fns) == 1

    def test_one_to_one(self):
        dets = [det(0.1, 10, score=0.9), det(0.2, 10, score=0.8)]
        anns = [ann(0, 10), ann(0.3, 10)]
        pairs, _, _ = match_one_bucket(dets, anns, 1.0)
        assert len(pairs) == 2
        assert len({id(p.annotation) for p in pairs}) == 2

    def test_filters_other_classes(self):
        truck = det(cls="truck")
        pairs, fps, fns = match_one_bucket([truck], [ann(cls="car")], 1.0)
        assert not pairs and not fps
        assert len(fns) == 1
        _, truck_fps, _ = match_one_bucket([truck], [ann(cls="car")], 1.0, "truck")
        assert truck_fps == [truck]

    @given(st.integers(0, 10_000))
    @settings(max_examples=200, deadline=None)
    def test_against_exhaustive_assignment(self, seed):
        rng = random.Random(seed)
        n_det, n_ann = rng.randint(0, 5), rng.randint(0, 5)
        dets = [det(rng.uniform(-3, 3), rng.uniform(8, 12), score=rng.random())
                for _ in range(n_det)]
        anns = [ann(rng.uniform(-3, 3), rng.uniform(8, 12)) for _ in range(n_ann)]
        threshold = rng.uniform(0.5, 3.0)
        pairs, fps, fns = match_one_bucket(dets, anns, threshold)
        assert all(p.center_distance <= threshold for p in pairs)
        assert len(pairs) + len(fps) == n_det
        assert len(pairs) + len(fns) == n_ann
        distances = [[bev_center_distance(d.box, a.box) for a in anns] for d in dets]
        best_count, best_total = optimal_assignment(distances, threshold)
        greedy_total = sum(p.center_distance for p in pairs)
        assert len(pairs) <= best_count
        # greedy bound: every matched distance is below the threshold
        assert greedy_total <= best_total + threshold * len(pairs) + 1e-9


#: A frame with every tie and boundary the greedy matcher must break the
#: way the reference does, under the default protocol (buckets [0,10) and
#: [10,20), match thresholds 1 and 2, AP thresholds 1 and 2).
EDGE_FRAME = FrameRecord(
    "edge",
    [ann(-0.5, 5.0), ann(0.5, 5.0),       # equidistant from det(0, 5)
     ann(0.0, 9.999), ann(0.0, 10.0),     # either side of the bucket edge
     ann(0.0, 15.0, cls="truck")],        # never detected
    [det(0.0, 5.0, score=0.9),
     det(1.5, 5.0, score=0.9),            # equal score; 1.0 m, the limit
     det(0.0, 8.5, score=0.7),            # 1.499 m over a 1 m limit, 1.5 m under 2 m
     det(1.5, 19.5, score=0.6),           # no candidate
     det(0.0, 12.0, score=0.8, cls="bus")])  # class only in predictions

#: (frame, class) groups on each side of the rule by which the protocol
#: match serves as the AP match at threshold t (no candidate within t but
#: beyond its limit, or the reverse; ``evaluation._match_chunk``), under the
#: default protocol: a candidate exactly at t = 1 m from an
#: annotation with limit 2 m (the protocol match serves), one a single ulp
#: beyond t (matched again), and a group with candidates 1.5 m from an
#: annotation beyond 10 m (limit 2 m) and from one below (limit 1 m), each
#: between its limit and one AP threshold (matched again at both).
REUSE_FRAMES = [
    FrameRecord("at-t", [ann(0.0, 15.0)], [det(1.0, 15.0)]),
    FrameRecord("ulp-beyond-t", [ann(0.0, 15.0)],
                [det(math.nextafter(1.0, math.inf), 15.0)]),
    FrameRecord("between-t-and-limit", [ann(0.0, 15.0), ann(0.0, 5.0)],
                [det(1.5, 15.0), det(1.5, 5.0, score=0.8)]),
]

GRID_X = (-1.0, -0.5, 0.0, 0.5, 1.0, 1.5)
GRID_Z = (4.0, 4.5, 5.0, 9.0, 9.5, 9.999, 10.0, 10.5, 11.0, 19.5, 20.0)


@st.composite
def tie_scenes(draw):
    """Small frames on a coarse grid, so equal distances, equal scores and
    distances exactly at a threshold are common."""
    frames = []
    for index in range(draw(st.integers(1, 3))):
        anns = draw(st.lists(st.builds(
            ann, st.sampled_from(GRID_X), st.sampled_from(GRID_Z),
            cls=st.sampled_from(("car", "truck"))), max_size=6))
        dets = draw(st.lists(st.builds(
            det, st.sampled_from(GRID_X), st.sampled_from(GRID_Z),
            score=st.sampled_from((0.5, 0.7, 0.9)),
            cls=st.sampled_from(("car", "truck", "bus"))), max_size=6))
        frames.append(FrameRecord(f"f{index}", anns, dets))
    return frames


#: Per-bucket thresholds, then one bucket covering every GRID_Z at one
#: threshold, which is matching a class at a single threshold.
REFERENCE_CONFIGS = (
    ProtocolConfig(),
    ProtocolConfig(range_buckets=((0, 5), (5, 10), (10, 20)),
                   match_thresholds=(0.5, 1, 2),
                   ap_distance_thresholds=(0.5, 1, 1.5, 2)),
) + tuple(ProtocolConfig(range_buckets=((0, 25),), match_thresholds=(t,))
          for t in (0.5, 1.0, 1.5, 2.0))


def identities(pairs):
    return [(id(p.detection), id(p.annotation), p.center_distance) for p in pairs]


def ids(objects):
    return [id(o) for o in objects]


class TestMatcherAgainstReference:
    """The candidate-table matcher against the original per-pair loop
    (``oracles.greedy_match``): the same objects, the same distances."""

    @given(tie_scenes(), st.sampled_from(REFERENCE_CONFIGS))
    @example([EDGE_FRAME], REFERENCE_CONFIGS[0])
    @example([EDGE_FRAME], REFERENCE_CONFIGS[3])
    @example(REUSE_FRAMES, REFERENCE_CONFIGS[0])
    @example(REUSE_FRAMES, REFERENCE_CONFIGS[1])
    @settings(max_examples=300, deadline=None)
    def test_matched_pairs_equal_reference(self, frames, config):
        def threshold_of(a):
            return config.match_thresholds[
                config.bucket_index(math.hypot(a.box.center_x, a.box.center_z))]

        pairs, fps, fns = matched_pairs(frames, config)
        ref_pairs, ref_fps, ref_fns = reference_walk(frames, config, threshold_of)
        assert {k: identities(v) for k, v in pairs.items()} == \
            {k: identities(v) for k, v in ref_pairs.items()}
        assert {k: ids(v) for k, v in fps.items()} == \
            {k: ids(v) for k, v in ref_fps.items()}
        assert {k: ids(v) for k, v in fns.items()} == \
            {k: ids(v) for k, v in ref_fns.items()}

    @given(tie_scenes(), st.sampled_from(REFERENCE_CONFIGS))
    @example([EDGE_FRAME], REFERENCE_CONFIGS[0])
    @example(REUSE_FRAMES, REFERENCE_CONFIGS[0])
    @example(REUSE_FRAMES, REFERENCE_CONFIGS[1])
    @settings(max_examples=200, deadline=None)
    def test_report_ap_equals_reference_labels(self, frames, config):
        report = evaluate(frames, config)
        gt_counts, classes = {}, set()
        for frame in frames:
            for a in frame.ground_truths:
                b = config.bucket_index(math.hypot(a.box.center_x, a.box.center_z))
                if b is not None:
                    gt_counts[(a.class_name, b)] = gt_counts.get((a.class_name, b), 0) + 1
            for d in frame.predictions:
                if config.bucket_index(math.hypot(d.box.center_x, d.box.center_z)) is not None:
                    classes.add(d.class_name)
        assert report.classes == sorted(classes | {c for c, _ in gt_counts})
        for t in config.ap_distance_thresholds:
            pairs, fps, _ = reference_walk(frames, config, lambda _a: t)
            for c in report.classes:
                for b in range(len(config.range_buckets)):
                    labels = ([(p.detection.score, True) for p in pairs.get((c, b), [])]
                              + [(d.score, False) for d in fps.get((c, b), [])])
                    expected = average_precision(labels, gt_counts.get((c, b), 0))
                    label = bucket_label(*config.range_buckets[b])
                    assert report.per_class[c][label].ap[t] == expected

    def test_edge_frame_outcome(self):
        # the hand-made frame, spelled out: ties go to the lower index, the
        # limit is inclusive, and each annotation keeps its own bucket's limit
        pairs, fps, fns = matched_pairs([EDGE_FRAME], ProtocolConfig())
        dets, anns = EDGE_FRAME.predictions, EDGE_FRAME.ground_truths
        assert identities(pairs[("car", 0)]) == [
            (id(dets[0]), id(anns[0]), 0.5), (id(dets[1]), id(anns[1]), 1.0)]
        assert identities(pairs[("car", 1)]) == [(id(dets[2]), id(anns[3]), 1.5)]
        assert ids(fps[("car", 1)]) == [id(dets[3])]
        assert ids(fps[("bus", 1)]) == [id(dets[4])]
        assert ids(fns[("car", 0)]) == [id(anns[2])]
        assert ids(fns[("truck", 1)]) == [id(anns[4])]
        # the bus class, seen only in predictions, is listed with its FP
        report = evaluate([EDGE_FRAME], ProtocolConfig())
        assert report.classes == ["bus", "car", "truck"]
        assert report.per_class["bus"]["[10,20)"].fp == 1
        assert report.per_bucket["[10,20)"].fp == 2
        assert report.overall.fp == 2


def walk_outcome(frames, config):
    """What the walk decides, in order: the pairs, false positives and false
    negatives with the identities of their objects, and the whole report."""
    pairs, fps, fns = matched_pairs(frames, config)
    return ([(k, identities(v)) for k, v in pairs.items()],
            [(k, ids(v)) for k, v in fps.items()],
            [(k, ids(v)) for k, v in fns.items()],
            evaluate(frames, config))


class TestChunkCap:
    """The walk's results do not depend on how it cuts the frames into
    chunks: a cap of one object (every frame alone) and a cap above the
    dataset (one chunk) give what the default cap gives."""

    @staticmethod
    def assert_cap_free(frames, config):
        default = walk_outcome(frames, config)
        for cap in (1, 10**9):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(evaluation, "_CHUNK_CAP", cap)
                assert walk_outcome(frames, config) == default

    @given(tie_scenes(), st.sampled_from(REFERENCE_CONFIGS))
    @example([EDGE_FRAME] + REUSE_FRAMES, REFERENCE_CONFIGS[0])
    @settings(max_examples=100, deadline=None)
    def test_tie_scenes(self, frames, config):
        self.assert_cap_free(frames, config)

    def test_synthetic_dataset_of_several_chunks(self):
        frames = generate_synthetic(SyntheticSpec(
            seed=17, frames=300, objects_min=2, objects_max=10,
            classes=("car", "pedestrian", "truck", "bus"), depth_bias=0.3,
            lateral_noise=0.4, miss_rate=0.2, fp_rate=0.5, range_min=2.0,
            range_max=21.0))
        objects = sum(len(f.ground_truths) + len(f.predictions) for f in frames)
        assert objects > 2 * evaluation._CHUNK_CAP
        self.assert_cap_free(frames, REFERENCE_CONFIGS[1])


def test_walk_working_memory_is_bounded():
    # the walk's transient allocations, the peak above what it still holds
    # on return, stay under 1 MiB on 2,000 frames (about 21,000 objects):
    # each chunk's arrays are freed before the next is built
    data = as_dataset(generate_synthetic(SyntheticSpec(
        seed=1, frames=2000, objects_min=2, objects_max=8, depth_bias=0.2,
        lateral_noise=0.1, size_noise=0.05, yaw_noise=0.05, miss_rate=0.1,
        fp_rate=0.2)))
    config = ProtocolConfig()
    tracemalloc.start()
    try:
        result = evaluation._walk(data, config, config.ap_distance_thresholds)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(result[0]) > 0
    assert peak - held < 2**20


class TestWalkBuckets:
    """The walk buckets each object as ``ProtocolConfig.bucket_index``
    buckets ``math.hypot`` of its center, also where ``np.hypot`` of it
    lands on the other side of an edge."""

    @staticmethod
    def walk_buckets(centers, config):
        """The bucket the walk gives a ground truth at each (x, z) of
        ``centers``, None outside every bucket: with no prediction, each is a
        false negative of its bucket."""
        anns = [ann(x, z) for x, z in centers]
        _, _, fns = matched_pairs([FrameRecord("f", anns, [])], config)
        bucket = {id(a): b for (_, b), objs in fns.items() for a in objs}
        return [bucket.get(id(a)) for a in anns]

    def test_np_hypot_rounds_onto_an_edge(self):
        x, z = -2.3850369953719723, 9.711415887022191
        assert np.hypot(x, z) == 10.0 and math.hypot(x, z) == 9.999999999999998
        assert self.walk_buckets([(x, z)], ProtocolConfig()) == [0]

    @pytest.mark.parametrize("config", REFERENCE_CONFIGS[:2])
    def test_centers_near_edges_equal_bucket_index(self, config):
        # centers within 2 ulps of an edge, a few of which np.hypot puts in
        # another bucket than math.hypot
        rng = random.Random(29)
        centers = [(0.0, 0.0)]
        for edge in {e for bucket in config.range_buckets for e in bucket}:
            for _ in range(2000):
                angle = rng.uniform(-math.pi, math.pi)
                scale = edge * (1 + rng.randint(-2, 2) * 2.0 ** -52)
                centers.append((scale * math.sin(angle), scale * math.cos(angle)))
        expected = [config.bucket_index(math.hypot(x, z)) for x, z in centers]
        by_np = [config.bucket_index(np.hypot(x, z).item()) for x, z in centers]
        assert by_np != expected
        assert self.walk_buckets(centers, config) == expected

    def test_subnormal_edges_and_overflowing_distances(self):
        # subnormal edges and distances, where the margin is that of the
        # least normal float, and distances that overflow to infinity
        tiny = 5e-324
        config = ProtocolConfig(range_buckets=((0.0, 5 * tiny), (5 * tiny, 2.0 ** -1060)),
                                match_thresholds=(1.0, 1.0))
        centers = [(a * tiny, b * tiny) for a in range(-8, 9) for b in range(9)]
        centers += [(2.0 ** -1060, 0.0), (1e308, 1e308), (-1e308, 1e308)]
        expected = [config.bucket_index(math.hypot(x, z)) for x, z in centers]
        assert {0, 1, None} <= set(expected)
        assert self.walk_buckets(centers, config) == expected


def edge_coordinate(c, reach, factor, sign, ulps):
    """c moved by sign * reach * factor, then ulps steps of nextafter."""
    moved = c + sign * reach * factor
    return math.nextafter(moved, math.copysign(math.inf, ulps)) if ulps else moved


@st.composite
def candidate_groups(draw):
    """(detection centers, annotation centers, reach). An annotation often
    sits at one reach, one ulp either side of it, or reach * (1 +- 1e-9)
    from a detection along x or z; coordinates reach 1e15 m, where rounding
    moves the window bounds; equal keys and duplicate centers are common,
    and either list may be empty."""
    reach = draw(st.sampled_from((1.0, 4.0, 0.3)) | st.floats(1e-9, 1e3))
    value = (st.sampled_from((0.0, 0.5, -7.25, 1e15, -1e15))
             | st.floats(-1e15, 1e15))
    dets = draw(st.lists(st.tuples(value, value), max_size=6))
    edge = st.tuples(st.sampled_from((0.0, 1.0, 1 - 1e-9, 1 + 1e-9)),
                     st.sampled_from((-1, 1)), st.sampled_from((-1, 0, 1)))
    anns = []
    for _ in range(draw(st.integers(0, 8))):
        if dets and draw(st.booleans()):
            anns.append(tuple(edge_coordinate(c, reach, *draw(edge))
                              for c in draw(st.sampled_from(dets))))
        else:
            anns.append(draw(st.tuples(value, value)))
    return dets, anns, reach


def candidate_table(dets, anns, reach, det_groups=None, ann_groups=None):
    """``evaluation._candidate_table`` as per-detection rows of (distance,
    annotation index), the form of ``oracles.reference_candidates``; every
    object in group 0 unless groups are given."""
    def arrays(objects, groups):
        return (np.array([o.box.center_x for o in objects], dtype=np.float64),
                np.array([o.box.center_z for o in objects], dtype=np.float64),
                np.array(groups or [0] * len(objects), dtype=np.int64))

    px, pz, p_group = arrays(dets, det_groups)
    gx, gz, g_group = arrays(anns, ann_groups)
    rows = [[] for _ in dets]
    for i, j, d in zip(*(a.tolist() for a in evaluation._candidate_table(
            px, pz, p_group, gx, gz, g_group, reach))):
        rows[i].append((d, j))
    return rows


class TestCandidateTable:
    """The windowed candidate table against the all-pairs one
    (``oracles.reference_candidates``)."""

    @given(candidate_groups())
    # 0.5 - x rounds to 1.0 although x < 0.5 - 1.0: only the slack keeps it
    @example(([(0.5, 0.0)], [(math.nextafter(-0.5, -math.inf), 0.0)], 1.0))
    @example(([(1e15, 0.0)], [(1e15 - 4.0, 4.0), (1e15 + 4.0, -4.0)], 4.0))
    @example(([], [(0.0, 0.0)], 1.0))
    @example(([(0.0, 0.0)], [], 1.0))
    @settings(max_examples=300, deadline=None)
    def test_equals_all_pairs_reference(self, group):
        det_centers, ann_centers, reach = group
        dets = [det(x, z) for x, z in det_centers]
        anns = [ann(x, z) for x, z in ann_centers]
        table = candidate_table(dets, anns, reach)
        assert table == reference_candidates(dets, anns, reach)
        # each distance is bev_center_distance's float, bit for bit
        assert [d.hex() for row in table for d, _ in row] == \
            [bev_center_distance(dets[i].box, anns[j].box).hex()
             for i, row in enumerate(table) for _, j in row]

    @given(candidate_groups(), st.lists(st.integers(0, 2), min_size=14, max_size=14))
    @settings(max_examples=200, deadline=None)
    def test_groups_are_matched_apart(self, group, labels):
        # the reference per group, annotation indices mapped back
        det_centers, ann_centers, reach = group
        dets = [det(x, z) for x, z in det_centers]
        anns = [ann(x, z) for x, z in ann_centers]
        det_groups, ann_groups = labels[:len(dets)], labels[6:6 + len(anns)]
        expected = []
        for i, d in enumerate(dets):
            members = [j for j, g in enumerate(ann_groups) if g == det_groups[i]]
            expected.append([(dist, members[j]) for dist, j in reference_candidates(
                [d], [anns[j] for j in members], reach)[0]])
        assert candidate_table(dets, anns, reach, det_groups, ann_groups) == expected

    def test_distances_only_inside_the_window(self, monkeypatch):
        # a 10 x 10 grid 5 m apart; each detection has one annotation in its
        # window, within the 1 m reach for half of them and beyond for the rest
        anns = [ann(5.0 * a, 5.0 * b) for a in range(10) for b in range(10)]
        dets = [det(5.0 * a + 0.25, 5.0 * b - 0.5) if (a + b) % 2
                else det(5.0 * a - 0.9, 5.0 * b + 0.9)
                for a in range(10) for b in range(10)]
        sizes = []
        hypot = evaluation.hypot
        monkeypatch.setattr(evaluation, "hypot",
                            lambda x, z: sizes.append(x.size) or hypot(x, z))
        table = candidate_table(dets, anns, 1.0)
        slack = 1.0 * (1 + 1e-9)
        window = sum(abs(d.box.center_x - a.box.center_x) <= slack
                     and abs(d.box.center_z - a.box.center_z) <= slack
                     for d in dets for a in anns)
        # one distance step, on the window's pairs only
        assert sizes == [window] and window == 100
        assert sum(map(len, table)) == 50
        assert table == reference_candidates(dets, anns, 1.0)


#: (score, is TP) labels whose scores often come from four values, so runs
#: of ties and of equal recalls are long
AP_LABELS = st.lists(st.tuples(st.sampled_from((0.0, 0.3, 0.5, 1.0)) | st.floats(0.0, 1.0),
                               st.booleans()), max_size=200)
TIED_LABELS = ([(0.5, False)] * 3 + [(0.5, True)] * 3 + [(0.0, True), (1.0, False)], 4)
FLOOR_LABELS = ([(0.3, False)] * 4 + [(0.3, True)] * 7, 10)


class TestAveragePrecision:
    def test_perfect_detector(self):
        scored = [(1.0, True)] * 7
        assert average_precision(scored, 7) == 1.0

    def test_no_detections(self):
        assert average_precision([], 5) == 0.0

    def test_no_ground_truths_is_undefined(self):
        assert average_precision([(0.9, False)], 0) is None

    def test_half_detected_staircase(self):
        scored = [(0.9, True), (0.8, True)]
        value = average_precision(scored, 4)
        assert value == pytest.approx(ap_oracle(scored, 4), abs=1e-12)
        # 40 grid points up to recall 0.5 at clipped precision 0.9
        assert value == pytest.approx(4.0 / 9.0, abs=1e-12)

    def test_mixed_staircase_matches_oracle(self):
        scored = [(0.95, True), (0.9, False), (0.85, True), (0.7, False),
                  (0.6, True), (0.5, False)]
        value = average_precision(scored, 4)
        assert value == pytest.approx(ap_oracle(scored, 4), abs=1e-12)

    @given(st.lists(st.tuples(st.floats(0.01, 1.0), st.booleans()),
                    min_size=0, max_size=12),
           st.integers(1, 8))
    # the largest recall is 0.7, which np.linspace(0, 1, 101) exceeds by an ulp
    @example([(0.3, False)] * 4 + [(0.3, True)] * 7, 10)
    @settings(max_examples=300)
    def test_oracle_agreement_and_bounds(self, scored, n_gt):
        n_tp = sum(1 for _, hit in scored if hit)
        if n_tp > n_gt:
            scored = scored[:0]  # invalid labeling, skip content
        value = average_precision(scored, n_gt)
        assert value == pytest.approx(ap_oracle(scored, n_gt), abs=1e-9)
        assert 0.0 <= value <= 1.0

    def test_order_independent_under_score_ties(self):
        a = [(0.9, True), (0.9, False), (0.8, True)]
        b = [(0.9, False), (0.9, True), (0.8, True)]
        assert average_precision(a, 3) == average_precision(b, 3)

    @given(AP_LABELS, st.integers(0, 250))
    @example(*TIED_LABELS)
    @example(*FLOOR_LABELS)
    @settings(max_examples=300, deadline=None)
    def test_equals_reference_bit_for_bit(self, scored, n_gt):
        # scores from four values give long runs of ties and equal recalls
        assert average_precision(scored, n_gt) == \
            reference_average_precision(scored, n_gt)

    @given(AP_LABELS, st.integers(0, 250))
    @example(*TIED_LABELS)
    @example(*FLOOR_LABELS)
    @settings(max_examples=300, deadline=None)
    def test_array_input_equals_tuple_input_bit_for_bit(self, scored, n_gt):
        array = np.array(scored, dtype=np.float64).reshape(-1, 2)
        assert repr(average_precision(array, n_gt)) == \
            repr(average_precision(scored, n_gt))


def pair(det_, ann_):
    return MatchedPair(det_, ann_, bev_center_distance(det_.box, ann_.box))


@pytest.mark.parametrize("make", [lambda: Annotation("", box()),
                                  lambda: Detection("", box(), 0.9)],
                         ids=["annotation", "detection"])
def test_empty_class_name_rejected(make):
    with pytest.raises(ValueError, match="^class_name must be a non-empty string$"):
        make()


@pytest.mark.parametrize("make", [lambda v: Annotation("car", box(), v),
                                  lambda v: Detection("car", box(), 0.9, v)],
                         ids=["annotation", "detection"])
class TestVelocity:
    def test_stored_as_two_floats(self, make):
        velocity = make([1, -2]).velocity
        assert velocity == (1.0, -2.0)
        assert all(type(v) is float for v in velocity)

    @pytest.mark.parametrize("velocity", [(1, 2, 3), (1,), (math.nan, 1.0),
                                          (1.0, -math.inf), (10**400, 0)],
                             ids=["three", "one", "nan", "inf",
                                  "int-beyond-float-range"])
    def test_rejects_all_but_two_finite_numbers(self, make, velocity):
        with pytest.raises(ValueError,
                           match=r"^velocity must be two finite numbers, got \("):
            make(velocity)


#: yaws near both ends of (-pi, pi], so that differences beyond +-pi are common
TP_YAWS = (st.sampled_from((math.pi, math.nextafter(-math.pi, 0.0), -3.0, 0.0, 3.0))
           | finite(-math.pi, math.pi))
#: a few sizes, so that equal dimensions are common
TP_SIZES = st.sampled_from((0.5, 1.0, 2.0)) | finite(0.1, 10.0)
#: velocity components up to the float range, so AVE overflows
TP_SPEEDS = st.sampled_from((0.0, 1e308, -1e308)) | finite(-5.0, 5.0)


@st.composite
def tp_pairs(draw):
    """1-8 matched pairs with velocities and attributes."""
    def obj(make, *extra):
        box = Box3D(draw(finite(-5.0, 5.0)), 0.0, draw(finite(1.0, 20.0)),
                    draw(TP_SIZES), draw(TP_SIZES), draw(TP_SIZES), draw(TP_YAWS))
        return make("car", box, *extra, (draw(TP_SPEEDS), draw(TP_SPEEDS)),
                    draw(st.sampled_from(("moving", "parked"))))

    return [pair(obj(Detection, 0.9), obj(Annotation))
            for _ in range(draw(st.integers(1, 8)))]


def outcome(function, *args):
    """The value of a call, or the type and message of its error."""
    try:
        return function(*args)
    except (UscError, ValueError) as exc:
        return type(exc), str(exc)


class TestTpErrorMeans:
    @given(tp_pairs(), st.lists(st.sampled_from(evaluation.TP_MEASURES),
                                min_size=1, max_size=5, unique=True))
    @example([pair(Detection("car", box(yaw=math.pi), 0.9),
                   Annotation("car", box(yaw=math.nextafter(-math.pi, 0.0))))],
             ["ASE", "AOE"])
    # the ratios multiplied in l, h, w order: (0.3 * 0.9) * 0.45 rounds to
    # another ASE than 0.3 * (0.9 * 0.45)
    @example([pair(Detection("car", box(l=0.3, h=0.9, w=0.45), 0.9), ann())], ["ASE"])
    # a velocity error that is infinite, and two finite ones whose sum overflows
    @example([pair(Detection("car", box(), 0.9, (1e308, 0.0)),
                   Annotation("car", box(), (-1e308, 0.0)))], ["ASE", "AVE"])
    @example([pair(Detection("car", box(), 0.9, (0.0, 0.0)),
                   Annotation("car", box(), (1e308, 0.0)))] * 2, ["ASE", "AVE"])
    @settings(max_examples=300, deadline=None)
    def test_equals_reference_bit_for_bit(self, pairs, measures):
        assert outcome(tp_error_means, pairs, measures) == \
            outcome(reference_tp_error_means, pairs, measures)

    def test_perfect_pairs_are_zero(self):
        pairs = [pair(det(1, 10), Annotation("car", box(1, 10)))]
        means = tp_error_means(pairs, ("ATE", "ASE", "AOE"))
        assert means == {"ATE": 0.0, "ASE": 0.0, "AOE": 0.0}

    def test_orientation_wraps(self):
        p = Detection("car", box(yaw=0.0), 0.9)
        g = Annotation("car", box(yaw=3 * math.pi / 2))
        means = tp_error_means([pair(p, g)], ("AOE",))
        assert means["AOE"] == pytest.approx(math.pi / 2, abs=1e-12)

    def test_scale_error_ratio_product(self):
        p = Detection("car", box(l=2, h=2, w=2), 0.9)
        g = Annotation("car", box(l=1, h=1, w=1))
        means = tp_error_means([pair(p, g)], ("ASE",))
        assert means["ASE"] == pytest.approx(0.875, abs=1e-12)

    def test_velocity_and_attribute_measures(self):
        p = Detection("car", box(), 0.9, velocity=(1.0, 0.0), attribute="moving")
        g = Annotation("car", box(), velocity=(0.0, 0.0), attribute="parked")
        means = tp_error_means([pair(p, g)], ("AVE", "AAE"))
        assert means["AVE"] == pytest.approx(1.0)
        assert means["AAE"] == 1.0
        g2 = Annotation("car", box(), velocity=(1.0, 0.0), attribute="moving")
        means = tp_error_means([pair(p, g2)], ("AVE", "AAE"))
        assert means == {"AVE": 0.0, "AAE": 0.0}

    def test_missing_fields_raise(self):
        pairs = [pair(det(), ann())]
        with pytest.raises(MissingAnnotationField):
            tp_error_means(pairs, ("AVE",))
        with pytest.raises(MissingAnnotationField):
            tp_error_means(pairs, ("AAE",))

    def test_empty_pairs_rejected(self):
        with pytest.raises(ValueError):
            tp_error_means([], ("ATE",))

    def test_unknown_measure_rejected(self):
        with pytest.raises(ValueError, match="^unknown TP measure 'XYZ'$"):
            tp_error_means([pair(det(), ann())], ("ATE", "xyz"))


class TestNds:
    def test_perfect_five_measure_case(self):
        errors = {m: 0.0 for m in ("ATE", "ASE", "AOE", "AVE", "AAE")}
        assert nds(1.0, errors) == 1.0

    def test_saturated_errors(self):
        errors = {m: 1.7 for m in ("ATE", "ASE", "AOE", "AVE", "AAE")}
        assert nds(0.5, errors) == pytest.approx(0.25, abs=1e-15)

    def test_three_measure_generalization(self):
        errors = {m: 0.0 for m in ("ATE", "ASE", "AOE")}
        assert nds(1.0, errors) == 1.0

    def test_intermediate_value(self):
        assert nds(0.6, {"ATE": 0.5}) == pytest.approx((0.6 + 0.5) / 2, abs=1e-12)

    def test_rejects_empty_measures(self):
        with pytest.raises(ValueError):
            nds(0.5, {})


class TestUscNds:
    def test_values(self):
        assert usc_nds(1.0, 1.0) == 1.0
        assert usc_nds(0.6, 0.8) == pytest.approx(0.7, abs=1e-15)
        assert usc_nds(0.0, 0.4) == pytest.approx(0.2, abs=1e-15)


class TestAggregateUsc:
    def test_class_mean(self):
        g = Annotation("car", box(0, 10, l=2, h=1.5, w=4))
        perfect = Detection("car", box(0, 9.4, l=2, h=1.5, w=4), 1.0)
        worse = Detection("car", box(0, 10.6, l=2, h=1.5, w=4), 1.0)
        ausc, _ = aggregate_usc([pair(perfect, g), pair(worse, g)])
        v1 = usc_score(perfect.box, g.box).usc
        v2 = usc_score(worse.box, g.box).usc
        assert ausc == pytest.approx((v1 + v2) / 2, abs=1e-15)

    def test_undefined_pairs_excluded_and_counted(self):
        behind = Annotation("car", Box3D(0, 0, -5, 1, 1, 1, 0))
        p = Detection("car", Box3D(0, 0, -4.5, 1, 1, 1, 0), 0.9)
        ausc, excluded = aggregate_usc([pair(p, behind)])
        assert ausc is None
        assert excluded == 1


class TestPearson:
    def test_perfect_positive(self):
        xs = [1.0, 2.0, 3.0, 4.0]
        assert pearson(xs, [2 * x + 1 for x in xs]) == pytest.approx(1.0, abs=1e-12)

    def test_perfect_negative(self):
        xs = [1.0, 2.0, 3.0]
        assert pearson(xs, [-x for x in xs]) == pytest.approx(-1.0, abs=1e-12)

    def test_hand_case(self):
        assert pearson([1, 2, 3], [2, 1, 3]) == pytest.approx(0.5, abs=1e-12)

    def test_zero_variance(self):
        with pytest.raises(ZeroVariance):
            pearson([1, 1, 1], [1, 2, 3])
        with pytest.raises(ZeroVariance):
            pearson([1.0], [2.0])
        # the rounded mean of three 0.1s is not 0.1
        with pytest.raises(ZeroVariance):
            pearson([0.1, 0.1, 0.1], [1, 2, 4])

    def test_unequal_lengths(self):
        with pytest.raises(ValueError, match="^series lengths differ$"):
            pearson([1.0, 2.0, 3.0], [1.0, 2.0])

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_huge_and_tiny_series(self, scale):
        assert pearson([0.1, 0.2, 0.3], [scale, 2 * scale, 3 * scale]) == \
            pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("shift", [-1020, -500, 500, 1024])
    def test_power_of_two_scale_changes_nothing(self, shift):
        xs, ys = [0.9, -0.9, 0.5, 0.25], [1.0, 2.0, 3.0, 5.0]
        scaled = [math.ldexp(x, shift) for x in xs]
        assert pearson(scaled, ys) == pearson(xs, ys)
        assert pearson(ys, scaled) == pearson(ys, xs)

    @given(st.lists(st.tuples(st.integers(-100, 100), st.integers(-100, 100)),
                    min_size=2, max_size=8),
           st.floats(1e-300, 1e300), st.floats(1e-300, 1e300))
    @settings(max_examples=300, deadline=None)
    def test_against_exact_fractions(self, steps, x_scale, y_scale):
        xs = [a * x_scale for a, _ in steps]
        ys = [b * y_scale for _, b in steps]
        exact_x, exact_y = [Fraction(v) for v in xs], [Fraction(v) for v in ys]
        mean_x, mean_y = sum(exact_x) / len(xs), sum(exact_y) / len(ys)
        dx, dy = [v - mean_x for v in exact_x], [v - mean_y for v in exact_y]
        cov = sum(a * b for a, b in zip(dx, dy))
        var_x, var_y = sum(a * a for a in dx), sum(b * b for b in dy)
        if var_x == 0 or var_y == 0:
            with pytest.raises(ZeroVariance):
                pearson(xs, ys)
            return
        r = pearson(xs, ys)
        r2 = cov * cov / (var_x * var_y)
        assert math.isclose(r * r, r2, rel_tol=1e-9, abs_tol=1e-12)
        if r2 > 1e-9:
            assert (r > 0) == (cov > 0)


def perfect_dataset(frames=20, seed=11):
    spec = SyntheticSpec(seed=seed, frames=frames, objects_min=1, objects_max=4)
    return generate_synthetic(spec)


class TestEvaluate:
    def test_empty_dataset(self):
        report = evaluate([], ProtocolConfig())
        assert report.frames == 0
        assert report.classes == []
        for summary in report.per_bucket.values():
            assert summary.mean_ap is None
            assert summary.nds is None
            assert summary.mausc is None
            assert summary.usc_nds is None
            assert summary.tp == summary.fp == summary.fn == 0

    def test_perfect_detector_identity(self):
        report = evaluate(perfect_dataset(), ProtocolConfig())
        for summary in report.per_bucket.values():
            assert summary.mean_ap == 1.0
            assert summary.nds == 1.0
            assert summary.mausc == 1.0
            assert summary.usc_nds == 1.0
            assert summary.fp == 0 and summary.fn == 0
            for value in summary.tp_errors.values():
                assert value == 0.0
        assert report.overall.usc_nds == 1.0

    def test_frame_permutation_leaves_metrics_unchanged(self):
        frames = generate_synthetic(SyntheticSpec(
            seed=5, frames=30, depth_bias=0.3, lateral_noise=0.1,
            size_noise=0.05, yaw_noise=0.05, miss_rate=0.1, fp_rate=0.1))
        config = ProtocolConfig()
        base = evaluate(frames, config)
        shuffled = list(frames)
        random.Random(3).shuffle(shuffled)
        permuted = evaluate(shuffled, config)
        assert base == permuted

    def test_depth_bias_direction_discriminated(self):
        over = generate_synthetic(SyntheticSpec(seed=21, frames=60, depth_bias=0.5))
        under = generate_synthetic(SyntheticSpec(seed=21, frames=60, depth_bias=-0.5))
        config = ProtocolConfig()
        r_over = evaluate(over, config)
        r_under = evaluate(under, config)
        ate_over = r_over.overall.tp_errors["ATE"]
        ate_under = r_under.overall.tp_errors["ATE"]
        assert ate_over == pytest.approx(ate_under, rel=0.01)
        assert r_under.overall.mausc > r_over.overall.mausc

    def test_radial_shift_weakly_degrades_mausc(self):
        config = ProtocolConfig()
        values = []
        for bias in (0.0, 0.2, 0.4, 0.8):
            frames = generate_synthetic(SyntheticSpec(seed=9, frames=40,
                                                      depth_bias=bias))
            values.append(evaluate(frames, config).overall.mausc)
        for earlier, later in zip(values, values[1:]):
            assert later <= earlier + 1e-12

    def test_unmatched_detection_bucketed_by_own_range(self):
        frames = [FrameRecord("f0", [ann(0, 5)], [det(0, 5, score=0.9),
                                                  det(3, 15, score=0.8)])]
        report = evaluate(frames, ProtocolConfig())
        near = report.per_bucket["[0,10)"]
        far = report.per_bucket["[10,20)"]
        assert near.tp == 1 and near.fp == 0
        assert far.fp == 1 and far.tp == 0

    def test_matched_detection_inherits_annotation_bucket(self):
        # annotation at 9.8 m (near bucket), detection at 10.5 m: pair counts
        # in the near bucket even though the detection itself sits beyond 10
        frames = [FrameRecord("f0", [ann(0, 9.8)], [det(0, 10.5, score=0.9)])]
        report = evaluate(frames, ProtocolConfig())
        assert report.per_bucket["[0,10)"].tp == 1
        assert report.per_bucket["[10,20)"].tp == 0
        assert report.per_bucket["[10,20)"].fp == 0

    def test_out_of_range_objects_dropped(self):
        frames = [FrameRecord("f0", [ann(0, 30)], [det(0, 30, score=0.9)])]
        report = evaluate(frames, ProtocolConfig())
        assert report.classes == []
        for summary in report.per_bucket.values():
            assert summary.tp == summary.fp == summary.fn == 0

    def test_near_bucket_threshold_tighter(self):
        # 1.4 m error: matches at 10+ m (2 m threshold), not below 10 m (1 m)
        frames = [FrameRecord("f0", [ann(0, 5), ann(0, 15, cls="truck")],
                              [det(1.4, 5, score=0.9),
                               det(1.4, 15, cls="truck", score=0.9)])]
        report = evaluate(frames, ProtocolConfig())
        assert report.per_class["car"]["[0,10)"].tp == 0
        assert report.per_class["car"]["[0,10)"].fn == 1
        assert report.per_class["truck"]["[10,20)"].tp == 1

    def test_skip_missing_classes(self):
        frames = [FrameRecord("f0",
                              [ann(0, 5), ann(0, 15, cls="truck")],
                              [det(0, 5, score=0.9),
                               det(0, 15, cls="truck", score=0.9)])]
        skipped = evaluate(frames, ProtocolConfig(skip_missing_classes=True))
        assert skipped.per_bucket["[0,10)"].mean_ap == 1.0
        assert skipped.per_bucket["[0,10)"].mausc == 1.0
        counted = evaluate(frames, ProtocolConfig(skip_missing_classes=False))
        # the truck class is absent below 10 m and drags worst-case scores in
        assert counted.per_bucket["[0,10)"].mean_ap == 0.5
        assert counted.per_bucket["[0,10)"].mausc == 0.5
        assert counted.per_bucket["[0,10)"].tp_errors["ATE"] == 0.5

    def test_usc_failures_surfaced(self):
        # object beside the vehicle: range in bucket but footprint not frontal
        frames = [FrameRecord("f0", [ann(5, 0.5)], [det(5, 0.6, score=0.9)])]
        report = evaluate(frames, ProtocolConfig())
        metrics = report.per_class["car"]["[0,10)"]
        assert metrics.tp == 1
        assert metrics.usc_excluded == 1
        assert metrics.ausc is None

    def test_velocity_measure_requires_fields(self):
        frames = [FrameRecord("f0", [ann(0, 5)], [det(0, 5, score=0.9)])]
        config = ProtocolConfig(tp_measures=("ATE", "AVE"))
        with pytest.raises(MissingAnnotationField):
            evaluate(frames, config)


CLASSES = st.sampled_from(("car", "truck", "bus"))
#: a third of fresh boxes have z in [-1, 3] m, so they often straddle the
#: camera plane
FRESH_BOXES = st.builds(Box3D, finite(-6.0, 6.0), finite(-1.0, 1.0),
                        finite(-1.0, 3.0) | finite(3.0, 22.0) | finite(3.0, 22.0),
                        finite(0.5, 4.5), finite(0.5, 2.5), finite(0.5, 4.5),
                        finite(-math.pi, math.pi))
#: (dx, dy, dz, length, height and width factors, dyaw) of a box near another
JITTERS = st.tuples(finite(-1.5, 1.5), finite(-0.3, 0.3), finite(-1.5, 1.5),
                    finite(0.7, 1.4), finite(0.7, 1.4), finite(0.7, 1.4),
                    finite(-0.5, 0.5))
VELOCITIES = st.tuples(finite(-5.0, 5.0), finite(-5.0, 5.0))
ATTRIBUTES = st.sampled_from(("moving", "parked"))
SCORES = st.sampled_from((0.3, 0.6, 0.9)) | finite(0.0, 1.0)


def jittered(box, jitter):
    dx, dy, dz, length, height, width, dyaw = jitter
    return Box3D(box.center_x + dx, box.center_y + dy, box.center_z + dz,
                 box.length * length, box.height * height, box.width * width,
                 box.yaw + dyaw)


@st.composite
def report_scenes(draw):
    """1-6 frames of 0-8 ground truths and 0-8 predictions over three
    classes, every object with a velocity and an attribute. Three in four
    predictions are jittered from a ground truth, four in five of those
    keeping its class; scores come from three values or anywhere in [0, 1]."""
    frames = []
    for index in range(draw(st.integers(1, 6))):
        anns = [Annotation(draw(CLASSES), draw(FRESH_BOXES), draw(VELOCITIES),
                           draw(ATTRIBUTES))
                for _ in range(draw(st.integers(0, 8)))]
        dets = []
        for _ in range(draw(st.integers(0, 8))):
            if anns and draw(st.integers(0, 3)):
                source = draw(st.sampled_from(anns))
                cls = source.class_name if draw(st.integers(0, 4)) else draw(CLASSES)
                box = jittered(source.box, draw(JITTERS))
            else:
                cls, box = draw(CLASSES), draw(FRESH_BOXES)
            dets.append(Detection(cls, box, draw(SCORES), draw(VELOCITIES),
                                  draw(ATTRIBUTES)))
        frames.append(FrameRecord(f"f{index}", anns, dets))
    return frames


@st.composite
def report_configs(draw):
    """The default buckets, three buckets or one, each with both
    ``skip_missing_classes`` values and any non-empty TP measure list."""
    buckets, thresholds, ap_thresholds = draw(st.sampled_from((
        (((0, 10), (10, 20)), (1, 2), (1, 2)),
        (((0, 5), (5, 10), (10, 20)), (0.5, 1, 2), (0.5, 1, 1.5, 2)),
        (((0, 15),), (1.5,), (1,)))))
    return ProtocolConfig(
        range_buckets=buckets, match_thresholds=thresholds,
        ap_distance_thresholds=ap_thresholds,
        tp_measures=tuple(draw(st.lists(st.sampled_from(evaluation.TP_MEASURES),
                                        min_size=1, max_size=5, unique=True))),
        skip_missing_classes=draw(st.booleans()))


def assert_same_report(actual, expected, path="report"):
    """Field by field: the same keys in the same order, the same counts and
    None-ness, and floats equal to 1e-12 relative."""
    if is_dataclass(expected):
        assert type(actual) is type(expected), path
        for f in fields(expected):
            assert_same_report(getattr(actual, f.name), getattr(expected, f.name),
                               f"{path}.{f.name}")
    elif isinstance(expected, dict):
        assert list(actual) == list(expected), path
        for key, value in expected.items():
            assert_same_report(actual[key], value, f"{path}[{key!r}]")
    elif isinstance(expected, (list, tuple)):
        assert len(actual) == len(expected), path
        for i, (a, e) in enumerate(zip(actual, expected)):
            assert_same_report(a, e, f"{path}[{i}]")
    elif isinstance(expected, float):
        assert isinstance(actual, float), (path, actual)
        assert math.isclose(actual, expected, rel_tol=1e-12, abs_tol=0.0), \
            (path, actual, expected)
    else:
        assert type(actual) is type(expected) and actual == expected, \
            (path, actual, expected)


#: a matched pair whose boxes reach behind the camera plane
BEHIND_CAMERA_FRAME = FrameRecord("behind", [ann(0.5, 1.0, l=2.0, w=2.0)],
                                  [det(0.6, 1.0, l=2.0, w=2.0)])


class TestReportAgainstReference:
    """Every field of the report against ``oracles.reference_evaluate``,
    which rebuilds it from the documented definitions."""

    @given(report_scenes(), report_configs())
    @example([EDGE_FRAME], ProtocolConfig())
    @example([EDGE_FRAME], ProtocolConfig(skip_missing_classes=False))
    @example([BEHIND_CAMERA_FRAME], ProtocolConfig(skip_missing_classes=False))
    @settings(max_examples=300, deadline=None)
    def test_report_equals_reference(self, frames, config):
        assert_same_report(evaluate(frames, config), reference_evaluate(frames, config))

    def test_behind_camera_pair_is_excluded(self):
        report = reference_evaluate([BEHIND_CAMERA_FRAME], ProtocolConfig())
        assert report.per_class["car"]["[0,10)"].usc_excluded == 1
        assert report.per_class["car"]["[0,10)"].ausc is None


@st.composite
def bucket_layouts(draw):
    """Configs of 1-5 ordered buckets, each 0.1 m or more wide, often sharing
    an edge with the next and otherwise leaving a gap."""
    buckets = []
    near = draw(st.sampled_from((0.0, 0.5)) | finite(0.0, 50.0))
    for _ in range(draw(st.integers(1, 5))):
        far = near + draw(st.sampled_from((0.1, 1.0, 10.0)) | finite(0.1, 50.0))
        buckets.append((near, far))
        near = far + draw(st.sampled_from((0.0, 0.0, 2.0)) | finite(0.1, 10.0))
    return ProtocolConfig(range_buckets=tuple(buckets),
                          match_thresholds=(1.0,) * len(buckets))


class TestProtocolConfigValidation:
    def test_defaults(self):
        config = ProtocolConfig()
        assert config.range_buckets == ((0.0, 10.0), (10.0, 20.0))
        assert config.match_thresholds == (1.0, 2.0)
        assert config.ap_distance_thresholds == (1.0, 2.0)
        assert config.tp_measures == ("ATE", "ASE", "AOE")
        assert config.skip_missing_classes is True
        assert [f.name for f in fields(config)] == [
            "range_buckets", "match_thresholds", "ap_distance_thresholds",
            "tp_measures", "skip_missing_classes"]

    def test_rejects_overlapping_buckets(self):
        with pytest.raises(ValueError):
            ProtocolConfig(range_buckets=((0, 10), (5, 20)),
                           match_thresholds=(1, 2))

    def test_rejects_threshold_count_mismatch(self):
        with pytest.raises(ValueError):
            ProtocolConfig(match_thresholds=(1.0,))

    def test_rejects_duplicate_ap_thresholds(self):
        with pytest.raises(ValueError, match="distinct"):
            ProtocolConfig(ap_distance_thresholds=(1.0, 1.0))
        with pytest.raises(ValueError, match="distinct"):
            ProtocolConfig(ap_distance_thresholds=(2, 1, 2.0))

    def test_rejects_buckets_with_one_label(self):
        # both print as [1e+06,1e+06), so their report entries would collide
        with pytest.raises(ValueError, match="distinct labels"):
            ProtocolConfig(range_buckets=((1000000.2, 1000000.3),
                                          (1000000.4, 1000000.5)),
                           match_thresholds=(1, 1))

    def test_rejects_ap_thresholds_with_one_label(self):
        # both head their table column AP@1m
        with pytest.raises(ValueError, match="distinct labels"):
            ProtocolConfig(ap_distance_thresholds=(1.0, 1.0000001))
        assert ap_label(1.0000001) == ap_label(1.0) == "AP@1m"

    def test_rejects_no_buckets(self):
        with pytest.raises(ValueError, match="^at least one range bucket is required$"):
            ProtocolConfig(range_buckets=(), match_thresholds=())

    def test_rejects_unknown_measure(self):
        with pytest.raises(ValueError):
            ProtocolConfig(tp_measures=("ATE", "XYZ"))

    def test_rejects_no_measures(self):
        with pytest.raises(ValueError, match="^at least one TP measure is required$"):
            ProtocolConfig(tp_measures=())

    def test_rejects_repeated_measures(self):
        # equal once upper-cased: the report would list a measure twice
        with pytest.raises(ValueError, match="distinct"):
            ProtocolConfig(tp_measures=("ATE", "ate"))
        with pytest.raises(ValueError, match="distinct"):
            ProtocolConfig(tp_measures=("ATE", "ate", "AOE"))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field, value, message", [
        ("match_thresholds", lambda bad: (1.0, bad), "match thresholds"),
        ("ap_distance_thresholds", lambda bad: (bad,), "AP distance thresholds"),
        ("range_buckets", lambda bad: ((0.0, 10.0), (10.0, bad)), "invalid bucket"),
    ])
    def test_rejects_non_finite_values(self, field, value, message, bad):
        with pytest.raises(ValueError, match=f"^{message}"):
            ProtocolConfig(**{field: value(bad)})

    @given(bucket_layouts(), st.lists(st.floats(), max_size=5))
    @example(ProtocolConfig(range_buckets=((0, 5), (5, 10), (12, 20)),
                            match_thresholds=(1, 1, 1)), [])
    @settings(max_examples=300, deadline=None)
    def test_bucket_index_equals_reference(self, config, distances):
        probes = [0.0, -0.0, math.inf, -math.inf, math.nan, *distances]
        for edge in (e for bucket in config.range_buckets for e in bucket):
            probes += [edge, math.nextafter(edge, -math.inf),
                       math.nextafter(edge, math.inf)]
        for distance in probes:
            assert config.bucket_index(distance) == \
                reference_bucket_index(config, distance), distance

    def test_bucket_lookup(self):
        config = ProtocolConfig()
        assert config.bucket_index(0.0) == 0
        assert config.bucket_index(9.999) == 0
        assert config.bucket_index(10.0) == 1
        assert config.bucket_index(20.0) is None
        assert bucket_label(*config.range_buckets[1]) == "[10,20)"
