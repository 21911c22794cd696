import math

import numpy as np
import pytest

from conftest import TOY, probe_stack, random_bag, shift_one_entry
from milrank.data import Bag
from milrank.errors import ConfigError, DataError, ShapeError
from milrank import gradcheck
from milrank.gradcheck import TOLERANCE, TOY_MODEL, check_case
from milrank.losses import (
    BCE_CLAMP,
    VARIANTS,
    backward,
    bce,
    mm_ranking_loss,
    total_loss,
    variant_ranking_loss,
)
from milrank.model import Ablation, ModelConfig, ModelParams, forward_stacked, init_params
from milrank.train import TrainingConfig


class TestMMRankingLoss:
    def test_hand_value(self):
        assert abs(mm_ranking_loss([0.2, 0.8], [0.1, 0.05], 1.0) - 0.3) < 1e-12

    def test_saturation(self):
        assert mm_ranking_loss([0.9], [0.1], 0.5) == 0.0

    def test_equal_maxima_gives_eps(self):
        assert mm_ranking_loss([0.4, 0.1], [0.4], 0.7) == 0.7

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            mm_ranking_loss([], [0.1], 1.0)

    def test_range_for_normalized_scores(self, rng):
        for _ in range(100):
            n = rng.integers(2, 10)
            ep = rng.dirichlet(np.ones(n))
            en = rng.dirichlet(np.ones(n))
            loss = mm_ranking_loss(ep, en, 1.0)
            assert 0.0 <= loss < 2.0
            # with N >= 2 the max normalized score is < 1, so the hinge is active
            assert loss > 0.0

    def test_zero_iff_margin_met(self, rng):
        for _ in range(50):
            ep = rng.random(4)
            en = rng.random(4)
            eps = 0.1
            loss = mm_ranking_loss(ep, en, eps)
            assert (loss == 0.0) == (ep.max() >= en.max() + eps)


class TestVariantRankingLoss:
    def test_min_max_hand(self):
        assert abs(variant_ranking_loss([0.2, 0.8], [0.1, 0.5], 1.0, "min-max") - 1.3) < 1e-12

    def test_max_min_hand(self):
        assert abs(variant_ranking_loss([0.2, 0.8], [0.1, 0.5], 1.0, "max-min") - 0.3) < 1e-12

    def test_min_min_hand(self):
        assert abs(variant_ranking_loss([0.2, 0.8], [0.1, 0.5], 1.0, "min-min") - 0.9) < 1e-12

    def test_cancellation_gives_eps(self):
        for variant in ("min-min", "min-max", "max-min"):
            assert variant_ranking_loss([0.3, 0.3], [0.3, 0.3], 1.0, variant) == 1.0

    def test_unknown_variant(self):
        with pytest.raises(ConfigError):
            variant_ranking_loss([0.1], [0.1], 1.0, "max-max-max")

    def test_all_variants_coincide_on_singletons(self, rng):
        for _ in range(20):
            ep, en = [float(rng.random())], [float(rng.random())]
            ref = mm_ranking_loss(ep, en, 1.0)
            for variant in ("min-min", "min-max", "max-min"):
                assert variant_ranking_loss(ep, en, 1.0, variant) == ref


class TestBCE:
    def test_perfect_prediction(self):
        assert bce(1.0, 1) <= 1e-6
        assert bce(0.0, 0) <= 1e-6

    def test_half(self):
        assert abs(bce(0.5, 1) - math.log(2)) < 1e-12
        assert abs(bce(0.5, 0) - math.log(2)) < 1e-12

    def test_clamp_ceiling(self):
        assert abs(bce(0.0, 1) - (-math.log(1e-7))) < 1e-9

    def test_bad_label(self):
        with pytest.raises(ConfigError):
            bce(0.5, 2)


def forward_pairs(params, bags_p, bags_n, ablation=Ablation()):
    """Stacked forward over positives followed by their paired negatives."""
    bags = list(bags_p) + list(bags_n)
    return forward_stacked(
        np.stack([b.vision for b in bags]), np.stack([b.audio for b in bags]), params, ablation
    )


class TestTotalLoss:
    def forwards(self, rng, params):
        return forward_pairs(params, [random_bag(rng)], [random_bag(rng)])

    def test_breakdown_additivity(self, toy_params, rng):
        for _ in range(20):
            lb = total_loss(self.forwards(rng, toy_params), 1.0)
            assert abs(lb.total - (lb.mm + lb.bce_pos + lb.bce_neg)) < 1e-6
            assert lb.mm >= 0 and lb.bce_pos >= 0 and lb.bce_neg >= 0

    def test_hand_combination(self, toy_params, rng):
        fwd = self.forwards(rng, toy_params)
        fwd.norm_scores = np.array([[0.8, 0.2], [0.1, 0.9 - 0.8]])
        fwd.event_prob = np.array([0.5, 0.5])
        lb = total_loss(fwd, 1.0)
        expected = 0.3 + math.log(2) + math.log(2)
        assert abs(lb.total - expected) < 1e-9

    def test_unpaired_stack_rejected(self, toy_params, rng):
        """Only one positive and one negative bag make a step: a lone bag and
        two pairs are both refused."""
        for n_pos, n_neg in ((1, 0), (2, 2)):
            bags = [random_bag(rng) for _ in range(n_pos + n_neg)]
            fwd = forward_pairs(toy_params, bags[:n_pos], bags[n_pos:])
            with pytest.raises(ShapeError, match=f"{n_pos + n_neg} stacked bags"):
                total_loss(fwd, 1.0)
            with pytest.raises(ShapeError, match=f"{n_pos + n_neg} stacked bags"):
                backward(fwd, toy_params, 1.0)

    def test_ablations_drop_terms(self, toy_params, rng):
        fwd = self.forwards(rng, toy_params)
        no_mm = total_loss(fwd, 1.0, ablate_mm=True)
        assert no_mm.mm == 0.0 and no_mm.bce_pos > 0
        no_bcm = total_loss(fwd, 1.0, ablate_bcm=True)
        assert no_bcm.bce_pos == 0.0 and no_bcm.bce_neg == 0.0 and no_bcm.mm > 0

    def test_both_ablations_rejected(self, toy_params, rng):
        fwd = self.forwards(rng, toy_params)
        with pytest.raises(ConfigError):
            total_loss(fwd, 1.0, ablate_mm=True, ablate_bcm=True)


class TestBatchedTotalLoss:
    """A forward over parameters with a leading probe axis gives one loss per
    probe, equal to that probe's own loss."""

    @pytest.mark.parametrize(
        "variant,ablate_mm,ablate_bcm",
        [(v, False, False) for v in VARIANTS] + [("max-max", True, False), ("max-max", False, True)],
    )
    def test_matches_each_probe(self, toy_params, rng, variant, ablate_mm, ablate_bcm):
        n_probes = 5
        probes, stacked = probe_stack(toy_params, rng, n_probes, scale=0.2)
        vision, audio = rng.standard_normal((2, 5, TOY.dv)), rng.standard_normal((2, 5, TOY.da))
        args = (1.0, variant, ablate_mm, ablate_bcm)
        batched = total_loss(forward_stacked(vision, audio, stacked, head=not ablate_bcm), *args)
        assert np.shape(batched.total) == (n_probes,)
        for i, probe in enumerate(probes):
            one = total_loss(forward_stacked(vision, audio, probe, head=not ablate_bcm), *args)
            for term in ("mm", "bce_pos", "bce_neg", "total"):
                got = np.broadcast_to(getattr(batched, term), (n_probes,))[i]
                np.testing.assert_allclose(got, getattr(one, term), rtol=1e-12, atol=0, err_msg=term)

    def test_hinge_selects_per_probe(self):
        """Each probe's statistic comes from its own scores: a hand-built stack
        of two probes whose maxima sit at different instances."""
        scores = np.array([[[0.7, 0.2, 0.1], [0.3, 0.3, 0.4]], [[0.1, 0.1, 0.8], [0.6, 0.2, 0.2]]])
        for variant in VARIANTS:
            expected = [variant_ranking_loss(pair[0], pair[1], 1.0, variant) for pair in scores]
            fwd = forward_stacked(np.zeros((2, 3, TOY.dv)), np.zeros((2, 3, TOY.da)), init_params(TOY, 0), head=False)
            fwd.norm_scores = scores
            assert list(total_loss(fwd, 1.0, variant, ablate_bcm=True).mm) == expected


class TestBackward:
    def test_saturated_hinge_no_bcm_zero_gradient(self, toy_params, rng):
        # eps = 0 saturates the hinge for whichever bag scores higher
        a, b = random_bag(rng), random_bag(rng)
        fa = forward_pairs(toy_params, [a], [b])
        if fa.norm_scores[0].max() < fa.norm_scores[1].max():
            a, b = b, a
        grads = backward(forward_pairs(toy_params, [a], [b]), toy_params, eps=0.0, ablate_bcm=True)
        assert grads.keys() == toy_params.tensors.keys()
        for name, g in grads.items():
            assert g.shape == toy_params.tensors[name].shape, name
            assert np.all(g == 0.0), name

    @pytest.mark.parametrize("ablation", [Ablation(), Ablation(no_audio=True), Ablation(no_vision=True)])
    @pytest.mark.parametrize("ablate_mm,ablate_bcm", [(False, False), (True, False), (False, True)])
    def test_one_gradient_per_parameter(self, toy_params, rng, ablation, ablate_mm, ablate_bcm):
        """Exactly the parameters' names, shapes and dtypes; zero where the
        layer did not run or its loss term is ablated, and only there."""
        bags = [random_bag(rng), random_bag(rng)]
        vision, audio = np.stack([b.vision for b in bags]), np.stack([b.audio for b in bags])
        fwd = forward_stacked(vision, audio, toy_params, ablation, head=not ablate_bcm)
        grads = backward(fwd, toy_params, 1.0, "max-max", ablate_mm, ablate_bcm)
        assert list(grads) == list(toy_params.tensors)
        for name, g in grads.items():
            theta = toy_params.tensors[name]
            assert (g.shape, g.dtype) == (theta.shape, theta.dtype), name
            zero = (ablation.no_vision and name[:2] in ("wv", "bv")) or (ablate_bcm and name[:2] in ("wc", "bc"))
            if name != "bh":  # the in-bag softmax is shift-invariant: bh's exact gradient is 0
                assert np.all(g == 0.0) == zero, name

    def test_saturated_classifier_inside_the_bce_clamp(self, toy_params, rng):
        """Both event probabilities lie inside the BCE clamp, where its
        gradient is 0: without the ranking term nothing moves."""
        a, b = random_bag(rng), random_bag(rng)
        fb = forward_pairs(toy_params, [a], [b]).bag_feature
        t = toy_params.tensors
        # hidden unit 0 is positive on the positive bag only; the logits
        # differ by +50 on the positive bag and -50 on the negative
        d = fb[0] - fb[1]
        for name in ("wc1", "bc1", "wc2", "bc2"):
            t[name][...] = 0.0
        t["wc1"][0] = d
        t["bc1"][0] = -d @ (fb[0] + fb[1]) / 2
        t["wc2"][1, 0] = 200.0 / (d @ d)
        t["bc2"][1] = -50.0
        fwd = forward_pairs(toy_params, [a], [b])
        assert fwd.event_prob[0] >= 1.0 - BCE_CLAMP and fwd.event_prob[1] <= BCE_CLAMP
        lb = total_loss(fwd, 1.0, ablate_mm=True)
        assert lb.bce_pos == lb.bce_neg == -np.log(1.0 - BCE_CLAMP)
        for name, g in backward(fwd, toy_params, 1.0, ablate_mm=True).items():
            assert np.all(g == 0.0), name

    def test_stale_cache_rejected(self, toy_params, rng):
        fwd = forward_pairs(toy_params, [random_bag(rng)], [random_bag(rng)])
        toy_params.bump_version()
        with pytest.raises(ConfigError, match="stale"):
            backward(fwd, toy_params, 1.0)

    def test_permutation_invariant_gradients(self, toy_params, rng):
        bag_p = random_bag(rng, n=6)
        bag_n = random_bag(rng, n=6)
        g1 = backward(forward_pairs(toy_params, [bag_p], [bag_n]), toy_params, 1.0)
        perm = rng.permutation(6)
        bag_p2 = Bag(bag_p.vision[perm], bag_p.audio[perm], "positive", "rand", perm)
        g2 = backward(forward_pairs(toy_params, [bag_p2], [bag_n]), toy_params, 1.0)
        for name in g1:
            assert np.allclose(g1[name], g2[name], atol=1e-6), name

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_matches_finite_differences(self, variant):
        err, _ = check_case(TrainingConfig(model=TOY_MODEL, loss_variant=variant), seed=42)
        assert err < 1e-4

    @pytest.mark.parametrize(
        "ablation,ablate_mm,ablate_bcm",
        [
            (Ablation(no_audio=True), False, False),
            (Ablation(no_vision=True), False, False),
            (Ablation(), True, False),
            (Ablation(), False, True),
        ],
    )
    def test_matches_finite_differences_ablations(self, ablation, ablate_mm, ablate_bcm):
        config = TrainingConfig(
            model=TOY_MODEL,
            no_audio=ablation.no_audio,
            no_vision=ablation.no_vision,
            no_mmrl=ablate_mm,
            no_bcm=ablate_bcm,
        )
        err, _ = check_case(config, seed=42)
        assert err < 1e-4

    def test_round_off_at_the_small_step_is_not_a_failure(self):
        """At this seed the difference quotient at the first step is swamped by
        round-off (2.6e-4 on `wv2`); the coarser second probe clears it."""
        config = TrainingConfig(model=TOY_MODEL, loss_variant="min-max", no_audio=True)
        err, _ = check_case(config, seed=100030)
        assert err < TOLERANCE


class TestOracleCatchesAWrongBackward:
    """The finite-difference check fails a backward that is wrong in a single
    entry, and names the tensor."""

    @pytest.mark.parametrize("modality", [{}, {"no_audio": True}, {"no_vision": True}])
    @pytest.mark.parametrize("terms", [{}, {"no_mmrl": True}, {"no_bcm": True}])
    def test_shifted_entry_fails_its_tensor(self, monkeypatch, modality, terms):
        monkeypatch.setattr(gradcheck, "backward", shift_one_entry(gradcheck.backward))
        err, errs = check_case(TrainingConfig(model=TOY_MODEL, **modality, **terms), seed=0)
        assert err >= TOLERANCE and errs["f0_w2"] >= TOLERANCE
        assert max(e for name, e in errs.items() if name != "f0_w2") < TOLERANCE


class TestFloat32Backward:
    """Training runs forward and backward on a float32 copy of the float64
    parameters; its gradient must agree with the float64 one."""

    @pytest.fixture(scope="class")
    def setup(self):
        params = init_params(ModelConfig(), 3)
        mirror = ModelParams(params.config, {k: v.astype(np.float32) for k, v in params.tensors.items()})
        rng = np.random.default_rng(0)
        # one positive and one negative 60-instance bag, the training step's shape
        vision = rng.standard_normal((2, 60, params.config.dv)).astype(np.float32)
        audio = rng.standard_normal((2, 60, params.config.da)).astype(np.float32)
        return params, mirror, vision, audio

    @pytest.mark.parametrize("ablation", [Ablation(), Ablation(no_audio=True), Ablation(no_vision=True)])
    @pytest.mark.parametrize("ablate_mm,ablate_bcm", [(False, False), (True, False), (False, True)])
    def test_matches_float64_gradient(self, setup, ablation, ablate_mm, ablate_bcm):
        params, mirror, vision, audio = setup
        grads = {}
        for p in (params, mirror):
            fwd = forward_stacked(vision, audio, p, ablation, head=not ablate_bcm)
            grads[p] = backward(fwd, p, 1.0, "max-max", ablate_mm, ablate_bcm)
        g64, g32 = grads[params], grads[mirror]
        assert g32.keys() == g64.keys()
        for name in g64:
            if not name.startswith(("wc", "bc")):  # outside the bag classifier
                assert g32[name].dtype == np.float32, name
            diff = float(np.max(np.abs(g32[name].astype(np.float64) - g64[name])))
            if name == "bh":
                # raw scores enter the loss only through the shift-invariant
                # in-bag softmax, so the exact bias gradient is zero
                assert diff <= 1e-6 and float(np.max(np.abs(g64[name]))) <= 1e-12
                continue
            scale = float(np.max(np.abs(g64[name])))
            assert diff <= 1e-5 * scale, (name, diff, scale)
