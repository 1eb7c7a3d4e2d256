"""Span head and answerable verification against brute-force oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from essayqa.encoder import EncoderConfig, softmax_last
from essayqa.errors import ValidationError
from essayqa.heads import (
    SpanDistributions,
    external_front_verification,
    init_head_params,
    log_softmax_positions,
    rear_verification,
    span_probabilities,
    threshold_verification,
    verify,
)

from reference import brute_force_tav, ref_softmax

RNG = np.random.default_rng(99)


def setup_heads(d_model=16):
    cfg = EncoderConfig(vocab_size=10, layers=1, d_model=d_model, heads=2,
                        ffn_inner=8, max_len=16, dtype="float64")
    rng = np.random.default_rng(3)
    return cfg, init_head_params(cfg, rng)


def random_dist(tau, rng=RNG):
    return SpanDistributions(prob_start=rng.dirichlet(np.ones(tau)),
                             prob_end=rng.dirichlet(np.ones(tau)))


class TestSpanProbabilities:
    def test_sums_to_one(self):
        cfg, params = setup_heads()
        for _ in range(20):
            h = RNG.normal(size=(int(RNG.integers(2, 12)), cfg.d_model))
            dist = span_probabilities(h, params)
            assert dist.prob_start.sum() == pytest.approx(1.0, abs=1e-9)
            assert dist.prob_end.sum() == pytest.approx(1.0, abs=1e-9)
            assert np.all(dist.prob_start >= 0) and np.all(dist.prob_start <= 1)

    def test_zero_weights_give_uniform(self):
        cfg, params = setup_heads()
        params = dict(params)
        params["span.w_start"] = np.zeros(cfg.d_model)
        h = RNG.normal(size=(7, cfg.d_model))
        dist = span_probabilities(h, params)
        assert np.allclose(dist.prob_start, 1.0 / 7)

    def test_matches_loop_reference(self):
        cfg, params = setup_heads()
        h = RNG.normal(size=(5, cfg.d_model))
        dist = span_probabilities(h, params)
        logits = [float(np.dot(h[i], params["span.w_start"])) for i in range(5)]
        expected = ref_softmax(logits)
        assert np.allclose(dist.prob_start, expected, atol=1e-10)


class TestLogSoftmaxPositions:
    """One softmax over positions serves inference and the training loss,
    which takes it on each sequence's slice of a pack's logits."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(1, 40), min_size=1, max_size=3),
           st.sampled_from([np.float64, np.float32]),
           st.sampled_from([1.0, 30.0, 1e4]), st.integers(0, 2**32 - 1))
    def test_unmasked_equals_softmax_last(self, shape, dtype, scale, seed):
        rng = np.random.default_rng(seed)
        logits = (rng.normal(size=shape) * scale).astype(dtype)
        log_p, p = log_softmax_positions(logits)
        assert np.array_equal(p, softmax_last(logits))
        assert np.allclose(np.exp(log_p), p, rtol=1e-5, atol=1e-30)

    def test_span_probabilities_uses_it(self):
        cfg, params = setup_heads()
        h = RNG.normal(size=(9, cfg.d_model))
        dist = span_probabilities(h, params)
        start = h @ params["span.w_start"]
        assert np.array_equal(dist.prob_start, softmax_last(start))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("scale", [1.0, 30.0, 1e4])
    def test_span_probabilities_equal_its_p(self, dtype, scale):
        """span_probabilities skips log p but keeps p's bits."""
        cfg, params = setup_heads()
        params = {k: v.astype(dtype) for k, v in params.items()}
        for tau in (1, 2, 9, 65, 512):
            h = (RNG.normal(size=(tau, cfg.d_model)) * scale).astype(dtype)
            dist = span_probabilities(h, params)
            start, end = h @ params["span.w_start"], h @ params["span.w_end"]
            assert dist.prob_start.dtype == dtype
            assert np.array_equal(dist.prob_start, log_softmax_positions(start)[1])
            assert np.array_equal(dist.prob_end, log_softmax_positions(end)[1])


class TestExternalFrontVerification:
    def test_equal_logits_zero_score(self):
        cfg, params = setup_heads()
        params = dict(params)
        params["verify.w"] = np.zeros((cfg.d_model, 2))
        params["verify.b"] = np.array([0.7, 0.7])
        _, _, score_ext = external_front_verification(RNG.normal(size=cfg.d_model), params)
        assert score_ext == pytest.approx(0.0, abs=1e-12)

    def test_direct_arithmetic(self):
        cfg, params = setup_heads()
        params = dict(params)
        params["verify.w"] = np.zeros((cfg.d_model, 2))
        params["verify.b"] = np.array([0.5, 2.0])
        logit_ans, logit_na, score_ext = external_front_verification(
            np.zeros(cfg.d_model), params)
        assert (logit_ans, logit_na) == (0.5, 2.0)
        assert score_ext == pytest.approx(1.5, abs=1e-12)

    def test_matches_loop_dot_products(self):
        cfg, params = setup_heads()
        h_cls = RNG.normal(size=cfg.d_model)
        logit_ans, logit_na, score_ext = external_front_verification(h_cls, params)
        ref_ans = sum(h_cls[i] * params["verify.w"][i, 0] for i in range(cfg.d_model))
        ref_ans += params["verify.b"][0]
        ref_na = sum(h_cls[i] * params["verify.w"][i, 1] for i in range(cfg.d_model))
        ref_na += params["verify.b"][1]
        assert logit_ans == pytest.approx(ref_ans, abs=1e-12)
        assert logit_na == pytest.approx(ref_na, abs=1e-12)
        assert score_ext == pytest.approx(ref_na - ref_ans, abs=1e-12)


class TestThresholdVerification:
    def test_worked_example(self):
        dist = SpanDistributions(prob_start=np.array([0.1, 0.2, 0.7]),
                                 prob_end=np.array([0.1, 0.6, 0.3]))
        score_has, score_null, score_diff = threshold_verification(dist)
        assert score_has == pytest.approx(1.0, abs=1e-12)
        assert score_null == pytest.approx(0.2, abs=1e-12)
        assert score_diff == pytest.approx(-0.8, abs=1e-12)

    def test_tau_two_single_pair(self):
        dist = SpanDistributions(prob_start=np.array([0.3, 0.7]),
                                 prob_end=np.array([0.4, 0.6]))
        score_has, score_null, _ = threshold_verification(dist)
        assert score_has == pytest.approx(0.7 + 0.6)
        assert score_null == pytest.approx(0.3 + 0.4)

    def test_tau_one_rejected(self):
        dist = SpanDistributions(prob_start=np.array([1.0]), prob_end=np.array([1.0]))
        with pytest.raises(ValidationError):
            threshold_verification(dist)

    def test_linear_scan_equals_brute_force_exactly(self):
        rng = np.random.default_rng(17)
        for _ in range(1000):
            tau = int(rng.integers(2, 24))
            dist = random_dist(tau, rng)
            fast = threshold_verification(dist)
            brute = brute_force_tav(list(dist.prob_start), list(dist.prob_end))
            assert fast[0] == brute[0]
            assert fast[1] == brute[1]
            assert fast[2] == brute[2]

    def test_score_has_bounds_diagonal_pairs(self):
        for _ in range(100):
            tau = int(RNG.integers(2, 16))
            dist = random_dist(tau)
            score_has, score_null, _ = threshold_verification(dist)
            for k in range(1, tau):
                assert score_has >= dist.prob_start[k] + dist.prob_end[k] - 1e-15
            assert 0.0 <= score_null <= 2.0
            assert 0.0 <= score_has <= 2.0
            assert score_null + score_has <= 2.0 + 1e-12


class TestRearVerification:
    def test_direct_arithmetic(self):
        score_final, _ = rear_verification(-0.8, 1.5, beta1=0.5, beta2=0.5, zeta=0.0)
        assert score_final == pytest.approx(0.35, abs=1e-12)

    def test_orientation_confident_answer(self):
        # concentrated answer distribution: score_diff strongly negative
        score_final, answered = rear_verification(-0.8, 0.0, beta1=1.0, beta2=0.0,
                                                  zeta=0.0)
        assert score_final == pytest.approx(-0.8)
        assert answered is True

    def test_boundary_counts_as_answered(self):
        _, answered = rear_verification(0.5, 0.5, beta1=1.0, beta2=1.0, zeta=1.0)
        assert answered is True

    def test_above_threshold_not_answered(self):
        _, answered = rear_verification(1.0, 1.0, beta1=1.0, beta2=1.0, zeta=0.5)
        assert answered is False

    @given(st.floats(-2, 2), st.floats(-5, 5), st.floats(0, 2), st.floats(-3, 3))
    @settings(max_examples=200, deadline=None)
    def test_monotone_in_score_ext(self, score_diff, score_ext, beta2, zeta):
        # raising score_ext with beta2 > 0 never flips not-answered -> answered
        _, answered_low = rear_verification(score_diff, score_ext, 0.5, beta2, zeta)
        _, answered_high = rear_verification(score_diff, score_ext + 1.0, 0.5, beta2, zeta)
        if not answered_low:
            assert not answered_high

    def test_invariants_of_bundle(self):
        cfg, params = setup_heads()
        for _ in range(50):
            tau = int(RNG.integers(2, 10))
            dist = random_dist(tau)
            h_cls = RNG.normal(size=cfg.d_model)
            bundle = verify(dist, h_cls, params, beta1=0.5, beta2=0.5, zeta=0.1)
            assert bundle.score_diff == pytest.approx(
                bundle.score_null - bundle.score_has, abs=1e-12)
            assert bundle.score_final == pytest.approx(
                0.5 * bundle.score_diff + 0.5 * bundle.score_ext, abs=1e-12)
            assert bundle.answered == (bundle.score_final <= 0.1)
