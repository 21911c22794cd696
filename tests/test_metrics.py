import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import TOY
from milrank.data import VideoRecord
from milrank.errors import DataError, ShapeError
from milrank.metrics import (
    ScoredSegment,
    ap_at_k,
    average_precision,
    binarize_importance,
    evaluate_map,
    evaluate_top5_map,
    extract_highlights,
    scored_segments,
)
from milrank.model import init_params


def brute_force_ap(labels, scores):
    """Quadratic reference: precision at each positive rank, ties broken by
    ascending original index."""
    order = sorted(range(len(labels)), key=lambda i: (-scores[i], i))
    hits, total, n_pos = 0, 0.0, sum(labels)
    if n_pos == 0:
        return 0.0
    for rank, i in enumerate(order, start=1):
        if labels[i]:
            hits += 1
            total += hits / rank
    return total / n_pos


class TestAveragePrecision:
    def test_hand_value(self):
        assert abs(average_precision([1, 0, 1], [3.0, 2.0, 1.0]) - (1 + 2 / 3) / 2) < 1e-12

    def test_perfect_ranking(self):
        assert average_precision([1, 1, 0, 0], [4.0, 3.0, 2.0, 1.0]) == 1.0

    def test_worst_ranking(self):
        assert abs(average_precision([0, 0, 1], [3.0, 2.0, 1.0]) - 1 / 3) < 1e-12

    def test_no_positives(self):
        assert average_precision([0, 0], [1.0, 2.0]) == 0.0

    def test_all_positives(self):
        assert average_precision([1, 1, 1], [0.1, 0.5, 0.3]) == 1.0

    def test_tie_broken_by_index(self):
        # equal scores: earlier index ranks first
        assert average_precision([1, 0], [1.0, 1.0]) == 1.0
        assert abs(average_precision([0, 1], [1.0, 1.0]) - 0.5) < 1e-12

    def test_empty_rejected(self):
        with pytest.raises(ShapeError):
            average_precision([], [])

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            average_precision([1], [1.0, 2.0])

    def test_exhaustive_small_against_oracle(self):
        scores = [0.9, 0.4, 0.7, 0.1, 0.4]
        for labels in itertools.product([0, 1], repeat=5):
            assert abs(average_precision(labels, scores) - brute_force_ap(labels, scores)) < 1e-12

    @given(
        st.lists(
            st.tuples(st.integers(0, 1), st.floats(-10, 10, allow_nan=False)),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_oracle(self, pairs):
        labels = [p[0] for p in pairs]
        scores = [p[1] for p in pairs]
        assert abs(average_precision(labels, scores) - brute_force_ap(labels, scores)) < 1e-10

    def test_invariant_under_increasing_transform(self, rng):
        labels = rng.integers(0, 2, size=20)
        scores = rng.standard_normal(20)
        a = average_precision(labels, scores)
        b = average_precision(labels, np.exp(scores))
        assert abs(a - b) < 1e-12


class TestApAtK:
    def test_reduces_to_ap_for_large_k(self, rng):
        for _ in range(20):
            labels = rng.integers(0, 2, size=12)
            scores = rng.standard_normal(12)
            assert abs(ap_at_k(labels, scores, 12) - average_precision(labels, scores)) < 1e-12
            assert abs(ap_at_k(labels, scores, 50) - average_precision(labels, scores)) < 1e-12

    def test_hand_top5(self):
        labels = [1, 1, 0, 0, 0, 1, 1]
        scores = [7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0]
        # top five ranks hold two positives out of min(P, 5) = 4
        assert abs(ap_at_k(labels, scores, 5) - (1.0 + 1.0) / 4) < 1e-12

    def test_denominator_min_p_k(self):
        # one positive inside top-2 of a long list
        labels = [1, 0, 0, 0]
        scores = [4.0, 3.0, 2.0, 1.0]
        assert ap_at_k(labels, scores, 2) == 1.0

    def test_no_positives(self):
        assert ap_at_k([0, 0, 0], [3.0, 2.0, 1.0], 2) == 0.0

    def test_k_validation(self):
        with pytest.raises(ShapeError):
            ap_at_k([1], [1.0], 0)


class TestBinarizeImportance:
    def test_hand(self):
        assert np.array_equal(binarize_importance([4, 3, 2, 1]), [1, 1, 0, 0])

    def test_odd_length_floor(self):
        out = binarize_importance([5, 4, 3, 2, 1])
        assert out.sum() == 2
        assert np.array_equal(out, [1, 1, 0, 0, 0])

    def test_single_segment(self):
        assert np.array_equal(binarize_importance([7]), [1])

    def test_ties_prefer_earlier(self):
        assert np.array_equal(binarize_importance([2, 2, 2, 2]), [1, 1, 0, 0])

    def test_empty(self):
        with pytest.raises(ShapeError):
            binarize_importance([])


def labeled_video(rng, n=8, video_id="v", labels=None):
    if labels is None:
        labels = rng.integers(0, 2, size=n)
    return VideoRecord(
        video_id,
        "e",
        float(n),
        rng.standard_normal((n, TOY.dv)),
        rng.standard_normal((n, TOY.da)),
        np.asarray(labels),
    )


class TestEvaluateMap:
    def test_aggregate_is_mean(self, toy_params, rng):
        videos = [labeled_video(rng, video_id=f"v{i}") for i in range(4)]
        report = evaluate_map(toy_params, videos, "e")
        assert len(report.per_video) == 4
        assert abs(report.aggregate - np.mean([ap for _, ap in report.per_video])) < 1e-12

    def test_matches_direct_ap(self, toy_params, rng):
        from milrank.model import score_video

        video = labeled_video(rng)
        report = evaluate_map(toy_params, [video], "e")
        expected = average_precision(video.labels, score_video(video, toy_params))
        assert abs(report.per_video[0][1] - expected) < 1e-12

    def test_random_scores_near_permutation_baseline(self, rng):
        # AP of random rankings concentrates near the analytic mean for a
        # fixed label multiset; a Monte Carlo permutation oracle pins it down
        labels = np.array([1] * 3 + [0] * 9)
        mc = np.mean(
            [brute_force_ap(rng.permutation(labels).tolist(), list(range(12, 0, -1))) for _ in range(4000)]
        )
        samples = []
        for seed in range(300):
            r = np.random.default_rng(seed)
            samples.append(average_precision(labels, r.standard_normal(12)))
        assert abs(np.mean(samples) - mc) < 0.03

    def test_rejects_nonbinary(self, toy_params, rng):
        video = labeled_video(rng, labels=[0, 1, 2, 0, 1, 0, 1, 0])
        with pytest.raises(DataError, match="binary"):
            evaluate_map(toy_params, [video], "e")

    def test_rejects_unlabeled(self, toy_params, rng):
        video = labeled_video(rng)
        video.labels = None
        with pytest.raises(DataError):
            evaluate_map(toy_params, [video], "e")

    def test_report_text(self, toy_params, rng):
        report = evaluate_map(toy_params, [labeled_video(rng)], "surf")
        text = report.to_text()
        assert text.startswith("event\tsurf\tmetric\tmAP\n")
        assert text.rstrip().splitlines()[-1].startswith("aggregate\t")


class TestEvaluateTop5Map:
    def test_importance_binarization_path(self, toy_params, rng):
        from milrank.model import score_video

        video = labeled_video(rng, labels=[3, 1, 4, 1, 5, 9, 2, 6])
        report = evaluate_top5_map(toy_params, [video], "e")
        scores = score_video(video, toy_params)
        expected = ap_at_k(binarize_importance(video.labels), scores, 5)
        assert abs(report.per_video[0][1] - expected) < 1e-12
        assert report.metric == "top5-mAP"


@pytest.mark.parametrize("evaluate", [evaluate_map, evaluate_top5_map])
def test_unlabeled_video_is_refused_before_it_is_scored(evaluate, toy_params, rng, monkeypatch):
    scored = []
    monkeypatch.setattr("milrank.metrics.score_video", lambda video, *args: scored.append(video.video_id))
    video = labeled_video(rng, video_id="unlabeled")
    video.labels = None
    with pytest.raises(DataError, match="unlabeled: no"):
        evaluate(toy_params, [video], "e")
    assert scored == []


class TestExtractHighlights:
    def make_segments(self, scores):
        return [ScoredSegment(i, float(i), s) for i, s in enumerate(scores)]

    def test_topk_temporal_order(self):
        segs = self.make_segments([0.1, 0.9, 0.5, 0.8])
        sel, clamped = extract_highlights(segs, "top-k", k=2)
        assert [s.segment_index for s in sel] == [1, 3]
        assert not clamped

    def test_topk_clamps(self):
        segs = self.make_segments([0.1, 0.2])
        sel, clamped = extract_highlights(segs, "top-k", k=5)
        assert len(sel) == 2 and clamped

    def test_topk_tie_prefers_earlier(self):
        segs = self.make_segments([0.5, 0.5, 0.5])
        sel, _ = extract_highlights(segs, "top-k", k=2)
        assert [s.segment_index for s in sel] == [0, 1]

    @pytest.mark.parametrize("k", [1, 3, 7, 12, 13, 40])
    def test_topk_matches_full_sort_with_ties(self, k):
        scores = [0.5, 0.2, 0.5, 0.9, 0.2, 0.5, 0.9, 0.1, 0.2, 0.5, -0.3, 0.9]
        segs = self.make_segments(scores)
        sel, clamped = extract_highlights(segs, "top-k", k=k)
        ranked = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
        assert [s.segment_index for s in sel] == sorted(ranked[:k])
        assert clamped == (k > len(scores))

    def test_bad_mode_and_args(self):
        segs = self.make_segments([0.1])
        with pytest.raises(ShapeError):
            extract_highlights(segs, "best")
        with pytest.raises(ShapeError):
            extract_highlights(segs, "top-k")
        with pytest.raises(ShapeError):
            extract_highlights(segs, "threshold")
        with pytest.raises(ShapeError):
            extract_highlights([], "top-k", k=1)

    def test_scored_segments_one_second_grid(self, toy_params, rng):
        video = labeled_video(rng, n=5)
        segs = scored_segments(video, toy_params)
        assert [s.start_s for s in segs] == [float(i) for i in range(5)]

    def test_scored_segments_are_immutable_floats(self, toy_params, rng):
        video = labeled_video(rng, n=5)
        segs = scored_segments(video, toy_params)
        assert all(type(s.score) is float and type(s.segment_index) is int for s in segs)
        with pytest.raises(AttributeError):
            segs[0].score = 1.0
