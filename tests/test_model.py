import dataclasses
import os
import threading
import tracemalloc

import numpy as np
import pytest

import milrank.model
import milrank.numkit
from conftest import TOY, probe_stack, random_bag
from milrank.data import Bag, VideoRecord
from milrank.errors import ConfigError, NumericError, ShapeError
from milrank.model import (
    SCORE_BLOCK_ROWS,
    Ablation,
    ModelConfig,
    ModelParams,
    StackedForward,
    forward_bag,
    forward_stacked,
    init_params,
    score_video,
)
from milrank.numkit import stable_softmax


def zeroed(params):
    out = params.copy()
    for t in out.tensors.values():
        t[:] = 0.0
    return out


class TestInit:
    def test_same_seed_bit_identical(self):
        a = init_params(ModelConfig(), 5)
        b = init_params(ModelConfig(), 5)
        assert a.tensors.keys() == b.tensors.keys()
        for name in a.tensors:
            assert np.array_equal(a.tensors[name], b.tensors[name])

    def test_biases_zero(self):
        params = init_params(ModelConfig(), 9)
        for name, t in params.tensors.items():
            if t.ndim == 1:
                assert np.all(t == 0.0), name

    def test_k_must_divide_fused_width(self):
        with pytest.raises(ConfigError):
            init_params(ModelConfig(k=5), 0)

    def test_uniform_weight_statistics(self):
        params = init_params(ModelConfig(), 3)
        w = params.tensors["wv1"]  # largest layer, 256 x 512
        limit = np.sqrt(6.0 / w.shape[1])
        sigma = 2 * limit / np.sqrt(12.0)
        assert abs(w.mean()) < 3 * sigma / np.sqrt(w.size)
        assert np.all(np.abs(w) <= limit)


def stacked(params, vision, audio, ablation=Ablation()):
    """Forward over one bag given as plain (N, width) arrays."""
    return forward_stacked(np.asarray(vision)[None], np.asarray(audio)[None], params, ablation)


def zero_branches(params):
    out = params.copy()
    for name in out.tensors:
        if name.startswith("f"):
            out.tensors[name][:] = 0.0
    return out


class TestProjection:
    def test_zero_params_zero_output(self, toy_params):
        fwd = stacked(zeroed(toy_params), np.ones((3, TOY.dv)), np.ones((3, TOY.da)))
        assert np.array_equal(fwd.fused, np.zeros((1, 3, TOY.da)))

    def test_output_width_is_fused_width(self):
        params = init_params(ModelConfig(), 2)
        rng = np.random.default_rng(0)
        fwd = forward_stacked(rng.standard_normal((2, 3, 512)), rng.standard_normal((2, 3, 128)), params)
        assert fwd.fused.shape == (2, 3, 128)

    def test_hand_relu_chain(self):
        # with zero fusion branches the fused feature is the projected vision
        cfg = ModelConfig(dv=2, da=2, hv=2, hf=2, ds=2, hc=2, k=1)
        params = zero_branches(init_params(cfg, 0))
        params.tensors["wv1"] = np.eye(2)
        params.tensors["wv2"] = np.eye(2)
        fwd = stacked(params, [[1.0, -2.0]], np.zeros((1, 2)))
        assert np.array_equal(fwd.fused[0, 0], [1.0, 0.0])

    def test_shape_mismatch(self, toy_params):
        with pytest.raises(ShapeError):
            stacked(toy_params, np.zeros((2, TOY.dv + 1)), np.zeros((2, TOY.da)))
        with pytest.raises(ShapeError):
            stacked(toy_params, np.zeros((2, TOY.dv)), np.zeros((3, TOY.da)))
        with pytest.raises(ShapeError):
            forward_stacked(np.zeros((2, TOY.dv)), np.zeros((2, TOY.da)), toy_params)


class TestFuse:
    def test_zero_branches_residual_identity(self, toy_params, rng):
        params = zero_branches(toy_params)
        vision = rng.standard_normal((4, TOY.dv))
        audio = rng.standard_normal((4, TOY.da))
        # the residual base is the audio input when vision is ablated ...
        fwd = stacked(params, vision, audio, Ablation(no_vision=True))
        assert np.array_equal(fwd.fused[0], audio)
        # ... and the projected vision otherwise
        t = params.tensors
        projected = np.maximum(vision @ t["wv1"].T + t["bv1"], 0) @ t["wv2"].T + t["bv2"]
        assert np.allclose(stacked(params, vision, audio).fused[0], projected, atol=1e-12)

    def test_zero_vision_gives_pure_relation(self, toy_params, rng):
        params = toy_params.copy()
        params.tensors["wv2"][:] = 0.0
        params.tensors["bv2"][:] = 0.0
        audio = rng.standard_normal((3, TOY.da))
        out = stacked(params, rng.standard_normal((3, TOY.dv)), audio).fused[0]
        # with a zero residual base the output is the branch concatenation
        t = params.tensors
        cat = np.concatenate([np.zeros_like(audio), audio], axis=1)
        pieces = []
        for j in range(TOY.k):
            z1 = np.maximum(cat @ t[f"f{j}_w1"].T + t[f"f{j}_b1"], 0)
            z2 = np.maximum(z1 @ t[f"f{j}_w2"].T + t[f"f{j}_b2"], 0)
            pieces.append(z2 @ t[f"f{j}_w3"].T + t[f"f{j}_b3"])
        assert np.allclose(out, np.concatenate(pieces, axis=1))

    def test_branch_widths_k4(self):
        params = init_params(ModelConfig(k=4), 0)
        assert params.tensors["f0_w3"].shape[0] == 32
        fwd = stacked(params, np.zeros((1, 512)), np.zeros((1, 128)))
        assert fwd.fused.shape == (1, 1, 128)


class TestScoring:
    def test_zero_scorer_zero_score(self, toy_params, rng):
        params = toy_params.copy()
        for name in ("ws", "bs", "bh"):
            params.tensors[name][:] = 0.0
        fwd = stacked(params, rng.standard_normal((4, TOY.dv)), rng.standard_normal((4, TOY.da)))
        assert np.array_equal(fwd.raw_scores, np.zeros((1, 4)))

    def test_hand_chain(self):
        # zero branches and ablated vision make the fused feature the audio row
        cfg = ModelConfig(dv=2, da=2, hv=2, hf=2, ds=1, hc=2, k=1)
        params = zero_branches(init_params(cfg, 0))
        params.tensors["ws"] = np.array([[1.0, 0.0]])
        params.tensors["wh"] = np.array([[2.0]])
        params.tensors["bs"][:] = 0.0
        params.tensors["bh"][:] = 0.0
        audio = np.array([[3.0, 9.9], [-3.0, 9.9]])
        fwd = stacked(params, np.zeros((2, 2)), audio, Ablation(no_vision=True))
        assert np.array_equal(fwd.raw_scores[0], [6.0, 0.0])

    def test_normalize_uniform(self):
        out = stable_softmax(np.full(60, 0.7))
        assert np.allclose(out, 1.0 / 60.0)

    def test_normalize_single(self):
        assert np.allclose(stable_softmax([3.0]), [1.0])

    def test_normalize_hand(self):
        assert np.allclose(stable_softmax([0.0, np.log(3.0)]), [0.25, 0.75])

    def test_normalize_shift_invariant(self, rng):
        raw = rng.standard_normal(10)
        assert np.allclose(stable_softmax(raw), stable_softmax(raw + 17.3), atol=1e-6)


def pooled(fused, raw):
    """``forward_stacked(...).bag_feature`` of one bag whose fused rows and
    raw scores are given.  With vision ablated and zero fusion branches the
    fused rows are the audio rows; the audio carries one extra last column,
    which the scorer reads as the raw score (shifted to be nonnegative, which
    the in-bag softmax ignores).  Returns the pooled feature without that
    column."""
    fused = np.asarray(fused, dtype=np.float64)
    raw = np.asarray(raw, dtype=np.float64)
    width = fused.shape[1] + 1
    cfg = ModelConfig(dv=1, da=width, hv=1, hf=1, ds=1, hc=1, k=1)
    params = zero_branches(init_params(cfg, 0))
    params.tensors["ws"] = np.eye(1, width, width - 1)
    params.tensors["wh"] = np.ones((1, 1))
    audio = np.concatenate([fused, (raw - raw.min())[:, None]], axis=1)
    fwd = stacked(params, np.zeros((len(audio), 1)), audio, Ablation(no_vision=True))
    return fwd.bag_feature[0, :-1]


class TestBagFeature:
    def test_one_hot_selects(self, rng):
        fused = rng.standard_normal((4, 6))
        # exp(-1000) is 0.0 in float64, so the weights are exactly one-hot
        assert np.array_equal(pooled(fused, [0.0, 0.0, 1000.0, 0.0]), fused[2])

    def test_uniform_is_mean(self, rng):
        fused = rng.standard_normal((5, 6))
        out = pooled(fused, np.zeros(5))
        assert np.allclose(out, fused.mean(axis=0))

    def test_hand_weighted_sum(self):
        fused = np.array([[4.0, 0.0], [0.0, 4.0]])
        assert np.allclose(pooled(fused, [0.0, np.log(3.0)]), [1.0, 3.0])

    def test_length_mismatch(self, toy_params):
        # one softmax weight per fused row: the bag's vision and audio rows
        # must agree in number
        with pytest.raises(ShapeError):
            forward_stacked(np.zeros((1, 2, TOY.dv)), np.zeros((1, 3, TOY.da)), toy_params)


class TestClassifier:
    def test_equal_logits_half(self, toy_params, rng):
        fwd = stacked(zeroed(toy_params), rng.standard_normal((3, TOY.dv)), np.ones((3, TOY.da)))
        assert fwd.event_prob[0] == 0.5

    def test_hand_logits(self, toy_params, rng):
        params = zeroed(toy_params)
        params.tensors["bc2"] = np.array([0.0, np.log(3.0)])
        fwd = stacked(params, rng.standard_normal((3, TOY.dv)), rng.standard_normal((3, TOY.da)))
        assert abs(fwd.event_prob[0] - 0.75) < 1e-12

    def test_range(self, toy_params, rng):
        vision = 10 * rng.standard_normal((20, 4, TOY.dv))
        audio = 10 * rng.standard_normal((20, 4, TOY.da))
        y = forward_stacked(vision, audio, toy_params).event_prob
        assert y.shape == (20,)
        assert np.all((0.0 <= y) & (y <= 1.0))

    def test_head_skipped_on_request(self, toy_params, rng):
        vision = rng.standard_normal((2, 3, TOY.dv))
        audio = rng.standard_normal((2, 3, TOY.da))
        full = forward_stacked(vision, audio, toy_params)
        bare = forward_stacked(vision, audio, toy_params, head=False)
        assert bare.event_prob is None and bare.bag_feature is None
        assert np.array_equal(bare.raw_scores, full.raw_scores)


MODALITIES = [Ablation(), Ablation(no_audio=True), Ablation(no_vision=True)]


class TestStackedForward:
    @pytest.mark.parametrize("ablation", MODALITIES, ids=["full", "no-audio", "no-vision"])
    def test_stack_matches_single_bags(self, toy_params, rng, ablation):
        bags = [random_bag(rng, n=6) for _ in range(4)]
        fwd = forward_stacked(
            np.stack([b.vision for b in bags]), np.stack([b.audio for b in bags]), toy_params, ablation
        )
        assert fwd.raw_scores.shape == (4, 6) and fwd.bag_feature.shape == (4, TOY.fused_dim)
        for i, bag in enumerate(bags):
            one = forward_bag(bag, toy_params, ablation)
            assert np.allclose(fwd.fused[i], one.fused, rtol=0, atol=1e-12)
            assert np.allclose(fwd.raw_scores[i], one.raw_scores, rtol=0, atol=1e-12)
            assert np.allclose(fwd.norm_scores[i], one.norm_scores, rtol=0, atol=1e-12)
            assert np.allclose(fwd.bag_feature[i], one.bag_feature, rtol=0, atol=1e-12)
            assert abs(fwd.event_prob[i] - one.event_prob) <= 1e-12

    def test_in_bag_softmax_per_bag(self, toy_params, rng):
        fwd = forward_stacked(
            rng.standard_normal((3, 5, TOY.dv)), rng.standard_normal((3, 5, TOY.da)), toy_params
        )
        assert np.allclose(fwd.norm_scores.sum(axis=1), 1.0, atol=1e-12)
        for i in range(3):
            assert np.allclose(fwd.norm_scores[i], stable_softmax(fwd.raw_scores[i]), atol=1e-15)


class TestProbeAxes:
    """Parameters with a leading probe axis run one network per probe."""

    @pytest.mark.parametrize("head", [True, False], ids=["head", "no-head"])
    @pytest.mark.parametrize("ablation", MODALITIES, ids=["full", "no-audio", "no-vision"])
    def test_matches_each_probe_field_by_field(self, toy_params, rng, ablation, head):
        probes, stacked = probe_stack(toy_params, rng, 4)
        vision, audio = rng.standard_normal((2, 5, TOY.dv)), rng.standard_normal((2, 5, TOY.da))
        batched = forward_stacked(vision, audio, stacked, ablation, head=head)
        assert batched.raw_scores.shape == (4, 2, 5)
        for i, probe in enumerate(probes):
            one = forward_stacked(vision, audio, probe, ablation, head=head)
            assert batched.layer_inputs.keys() == one.layer_inputs.keys()
            for field in dataclasses.fields(StackedForward):
                got, want = getattr(batched, field.name), getattr(one, field.name)
                if field.name in ("ablation", "params_version") or want is None:
                    assert got == want, field.name
                    continue
                named = [(w, got[w], want[w]) for w in want] if isinstance(want, dict) else [(field.name, got, want)]
                for name, g, w in named:
                    # inputs and the no-vision branch input do not depend on the parameters
                    g = g[i] if g.ndim == w.ndim + 1 else g
                    np.testing.assert_allclose(g, w, rtol=1e-12, atol=1e-15, err_msg=name)

    def test_probe_axes_in_any_number(self, toy_params, rng):
        _, stacked = probe_stack(toy_params, rng, 6)
        grid = ModelParams(TOY, {k: v.reshape((2, 3) + v.shape[1:]) for k, v in stacked.tensors.items()})
        vision, audio = rng.standard_normal((2, 5, TOY.dv)), rng.standard_normal((2, 5, TOY.da))
        fwd = forward_stacked(vision, audio, grid)
        assert fwd.event_prob.shape == (2, 3, 2) and fwd.fused.shape == (2, 3, 2, 5, TOY.fused_dim)
        flat = forward_stacked(vision, audio, stacked)
        np.testing.assert_allclose(fwd.event_prob.reshape(6, 2), flat.event_prob, rtol=1e-12, atol=0)


class TestComputeDtype:
    """The forward computes in the dtype of the parameters it is given."""

    def inputs(self):
        rng = np.random.default_rng(5)
        return rng.standard_normal((2, 3, TOY.dv)), rng.standard_normal((2, 3, TOY.da))

    def test_float64_path_unchanged(self, toy_params):
        fwd = forward_stacked(*self.inputs(), toy_params)
        caches = [fwd.fused, *fwd.layer_inputs.values()]
        assert all(c.dtype == np.float64 for c in caches)
        # the scores this network has always given for these inputs
        expected = [
            [2.5235433246027665, 1.9401628034177842, 2.4623824742139293],
            [3.886351838412597, 1.4425338309551385, 1.9263667736477366],
        ]
        assert fwd.raw_scores.dtype == np.float64
        assert np.array_equal(fwd.raw_scores, np.array(expected))

    def test_float32_params_compute_in_float32(self, toy_params):
        mirror = ModelParams(TOY, {k: v.astype(np.float32) for k, v in toy_params.tensors.items()})
        fwd = forward_stacked(*self.inputs(), mirror)
        per_row = [fwd.fused, fwd.raw_scores] + [x for w, x in fwd.layer_inputs.items() if w not in ("wc1", "wc2")]
        assert all(c.dtype == np.float32 for c in per_row)
        # the in-bag softmax and the bag head stay float64
        assert fwd.norm_scores.dtype == fwd.bag_feature.dtype == fwd.event_prob.dtype == np.float64
        ref = forward_stacked(*self.inputs(), toy_params)
        assert np.allclose(fwd.raw_scores, ref.raw_scores, rtol=1e-5, atol=0)
        assert np.allclose(fwd.event_prob, ref.event_prob, rtol=1e-5, atol=0)


class TestForwardBag:
    def test_permutation_equivariance_and_invariance(self, toy_params, rng):
        bag = random_bag(rng, n=7)
        fwd = forward_bag(bag, toy_params)
        perm = rng.permutation(7)
        bag2 = Bag(bag.vision[perm], bag.audio[perm], "positive", "rand", perm)
        fwd2 = forward_bag(bag2, toy_params)
        assert np.allclose(fwd2.raw_scores, fwd.raw_scores[perm], atol=1e-6)
        assert np.allclose(fwd2.norm_scores, fwd.norm_scores[perm], atol=1e-6)
        assert np.allclose(fwd2.bag_feature, fwd.bag_feature, atol=1e-6)
        assert abs(fwd2.event_prob - fwd.event_prob) < 1e-6

    def test_invariants_random_bags(self, toy_params, rng):
        for _ in range(50):
            fwd = forward_bag(random_bag(rng, n=6), toy_params)
            assert abs(fwd.norm_scores.sum() - 1.0) < 1e-6
            assert np.all(fwd.norm_scores >= 0)
            recomputed = fwd.norm_scores @ fwd.fused
            assert np.allclose(fwd.bag_feature, recomputed, atol=1e-5)
            assert 0.0 <= fwd.event_prob <= 1.0
            lo = fwd.fused.min(axis=0) - 1e-9
            hi = fwd.fused.max(axis=0) + 1e-9
            assert np.all(fwd.bag_feature >= lo) and np.all(fwd.bag_feature <= hi)

    def test_all_zero_params_symmetric(self, toy_params, rng):
        params = zeroed(toy_params)
        fwd = forward_bag(random_bag(rng, n=5), params)
        assert np.allclose(fwd.norm_scores, 0.2)
        assert fwd.event_prob == 0.5

    def test_deterministic(self, toy_params, rng):
        bag = random_bag(rng)
        a = forward_bag(bag, toy_params)
        b = forward_bag(bag, toy_params)
        assert np.array_equal(a.raw_scores, b.raw_scores)
        assert a.event_prob == b.event_prob

    def test_ablation_rejects_both(self, toy_params, rng):
        with pytest.raises(ConfigError):
            forward_bag(random_bag(rng), toy_params, Ablation(no_audio=True, no_vision=True))

    def test_ablation_paths_differ(self, toy_params, rng):
        bag = random_bag(rng)
        full = forward_bag(bag, toy_params).raw_scores
        no_a = forward_bag(bag, toy_params, Ablation(no_audio=True)).raw_scores
        no_v = forward_bag(bag, toy_params, Ablation(no_vision=True)).raw_scores
        assert not np.allclose(full, no_a)
        assert not np.allclose(full, no_v)


class TestScoreVideo:
    def make_video(self, rng, n=6):
        return VideoRecord(
            "v", "e", float(n), rng.standard_normal((n, TOY.dv)), rng.standard_normal((n, TOY.da))
        )

    def test_duplicate_segment_same_score(self, toy_params, rng):
        video = self.make_video(rng)
        video.vision[3] = video.vision[0]
        video.audio[3] = video.audio[0]
        scores = score_video(video, toy_params)
        assert scores[3] == scores[0]

    def test_reversal_reverses_scores(self, toy_params, rng):
        video = self.make_video(rng)
        rev = VideoRecord("v", "e", video.duration_s, video.vision[::-1].copy(), video.audio[::-1].copy())
        assert np.allclose(score_video(rev, toy_params), score_video(video, toy_params)[::-1])

    def test_raw_ranking_matches_softmax_ranking(self, toy_params, rng):
        video = self.make_video(rng, n=9)
        raw = score_video(video, toy_params)
        assert np.array_equal(np.argsort(raw), np.argsort(stable_softmax(raw)))

    def test_empty_video_rejected(self, toy_params):
        video = VideoRecord("v", "e", 0.0, np.zeros((0, TOY.dv)), np.zeros((0, TOY.da)))
        with pytest.raises(ShapeError):
            score_video(video, toy_params)


def with_random_biases(params, seed):
    """Biases start at zero; give them values so an in-place write would show."""
    rng = np.random.default_rng(seed)
    for t in params.tensors.values():
        if t.ndim == 1:
            t += 0.1 * rng.standard_normal(t.shape)
    return params


class TestBlockedScoring:
    @pytest.fixture(scope="class")
    def params(self):
        return with_random_biases(init_params(ModelConfig(), 21), 21)

    @staticmethod
    def video(n, config=ModelConfig(), seed=0):
        rng = np.random.default_rng(seed)
        vision = rng.standard_normal((n, config.dv)).astype(np.float32)
        audio = rng.standard_normal((n, config.da)).astype(np.float32)
        return VideoRecord("v", "e", float(n), vision, audio)

    @pytest.mark.parametrize("ablation", MODALITIES, ids=["full", "no-audio", "no-vision"])
    @pytest.mark.parametrize(
        "n", [1, SCORE_BLOCK_ROWS - 1, SCORE_BLOCK_ROWS, SCORE_BLOCK_ROWS + 1, 3 * SCORE_BLOCK_ROWS + 5]
    )
    def test_blocks_match_one_forward(self, params, ablation, n):
        video = self.video(n)
        scores = score_video(video, params, ablation)
        whole = forward_stacked(video.vision[None], video.audio[None], params, ablation, head=False)
        expect = whole.raw_scores[0]
        assert scores.shape == (n,)
        assert np.max(np.abs(scores - expect)) <= 1e-12 * np.max(np.abs(expect))

    def test_peak_memory_does_not_grow_with_length(self, params):
        video = self.video(5000)
        score_video(video, params)
        tracemalloc.start()
        try:
            score_video(video, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a whole-video forward holds about 21.5 KB per segment: 107 MB here
        assert peak < 16e6

    def test_nonfinite_score_in_a_later_block(self, toy_params):
        video = self.video(2 * SCORE_BLOCK_ROWS + 3, TOY)
        video.vision[2 * SCORE_BLOCK_ROWS + 1, 0] = np.nan
        with pytest.raises(NumericError):
            score_video(video, toy_params)

    @pytest.mark.parametrize("ablation", MODALITIES, ids=["full", "no-audio", "no-vision"])
    def test_forward_leaves_params_and_inputs_unchanged(self, rng, ablation):
        params = with_random_biases(init_params(TOY, 5), 5)
        before = params.copy()
        vision = rng.standard_normal((3, 7, TOY.dv))
        audio = rng.standard_normal((3, 7, TOY.da))
        inputs = (vision.copy(), audio.copy())
        forward_stacked(vision, audio, params, ablation)
        score_video(VideoRecord("v", "e", 7.0, vision[0], audio[0]), params, ablation)
        for name, t in params.tensors.items():
            assert np.array_equal(t, before.tensors[name]), name
        assert np.array_equal(vision, inputs[0]) and np.array_equal(audio, inputs[1])


class TestThreadedScoring(TestBlockedScoring):
    """Every blocked-scoring test again, over more than one thread, plus the
    threads' own contract.  BLAS is made to read as single-threaded and the
    affinity mask to hold ``threads`` CPUs, since the default thread count of
    an unpinned BLAS keeps scoring on the calling thread."""

    @pytest.fixture(autouse=True, params=[2, 3], ids=["2-threads", "3-threads"])
    def threads(self, request, monkeypatch):
        monkeypatch.setattr(milrank.numkit, "blas_thread_count", lambda: (lambda: 1, lambda n: None))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(request.param)), raising=False)
        return request.param

    def test_runs_on_every_thread(self, threads, params, monkeypatch):
        seen = set()
        # each thread's first block waits for the others' first, so every
        # thread claims one whatever the scheduler does
        all_started = threading.Barrier(threads, timeout=10)
        real = milrank.model.forward_stacked

        def record(*args, **kwargs):
            if threading.get_ident() not in seen:
                seen.add(threading.get_ident())
                all_started.wait()
            return real(*args, **kwargs)

        monkeypatch.setattr(milrank.model, "forward_stacked", record)
        video = self.video(3 * SCORE_BLOCK_ROWS + 5)
        scores = score_video(video, params)
        assert len(seen) == threads and threading.get_ident() in seen
        monkeypatch.setattr(milrank.model, "forward_stacked", real)
        assert np.array_equal(scores, score_video(video, params))

    def test_caller_does_not_wait_for_a_helper_to_start(self, threads, params, monkeypatch):
        """Helpers that are not scheduled before the caller has claimed every
        block leave the call to the caller, and find nothing to do when they
        do run."""
        late = []
        start = milrank.model._thread.start_new_thread
        monkeypatch.setattr(milrank.model._thread, "start_new_thread", lambda f, args: late.append(f))
        video = self.video(3 * SCORE_BLOCK_ROWS + 5)
        scores = score_video(video, params)
        assert len(late) == threads - 1
        monkeypatch.setattr(milrank.model._thread, "start_new_thread", start)
        assert np.array_equal(scores, score_video(video, params))
        calls = []
        monkeypatch.setattr(milrank.model, "forward_stacked", lambda *a, **k: calls.append(a))
        for helper in late:
            helper()
        assert calls == []

    def test_repeated_calls_identical(self, params):
        video = self.video(2 * SCORE_BLOCK_ROWS + 7)
        first = score_video(video, params)
        for _ in range(4):
            assert np.array_equal(score_video(video, params), first)

    def test_lowest_failing_block_is_raised(self, toy_params, monkeypatch):
        real = milrank.model.forward_stacked
        starts = []

        def fail_late_blocks(vision, *args, **kwargs):
            start = int(vision[0, 0, 0])
            starts.append(start)
            if start >= SCORE_BLOCK_ROWS:
                raise NumericError(f"block at row {start}")
            return real(vision, *args, **kwargs)

        monkeypatch.setattr(milrank.model, "forward_stacked", fail_late_blocks)
        video = self.video(4 * SCORE_BLOCK_ROWS, TOY)
        video.vision[:, 0] = np.arange(video.n_segments)
        with pytest.raises(NumericError) as info:
            score_video(video, toy_params)
        first = min(s for s in starts if s >= SCORE_BLOCK_ROWS)
        assert str(info.value) == f"block at row {first}"
