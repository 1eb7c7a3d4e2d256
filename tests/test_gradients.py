"""Finite-difference verification of the analytic gradients for every
parameter tensor, on a tau<=8 / d_model<=16 / 64-bit configuration."""

import numpy as np
import pytest

from essayqa.encoder import EncoderConfig, init_encoder_params
from essayqa.heads import init_head_params, span_probabilities
from essayqa.train import TrainingExample, loss_and_grads

from reference import finite_difference_grad, ref_example_loss


def tiny_setup(use_residual_norm=True, seed=7):
    cfg = EncoderConfig(vocab_size=12, layers=2, d_model=16, heads=2,
                        ffn_inner=12, max_len=8, seed=seed,
                        use_residual_norm=use_residual_norm, dtype="float64")
    rng = np.random.default_rng(seed)
    params = init_encoder_params(cfg, rng)
    params.update(init_head_params(cfg, rng))
    # re-draw at O(1) scale: keeps ReLU preactivations away from their kink,
    # where central differences are unreliable
    for name, value in params.items():
        if name.endswith((".gain",)):
            params[name] = 1.0 + 0.2 * rng.normal(size=value.shape)
        else:
            params[name] = 0.4 * rng.normal(size=value.shape)
    return cfg, params


def tiny_batch():
    return [
        TrainingExample(ids=(0, 5, 6, 1, 7, 8, 9), m=2, gold_start=5, gold_end=6,
                        answerable=True),
        TrainingExample(ids=(0, 4, 1, 10, 11), m=1, gold_start=1, gold_end=1,
                        answerable=False),
    ]


def check_all_tensors(cfg, params, batch, rtol=1e-4, atol=1e-8):
    _, analytic = loss_and_grads(params, cfg, batch, pad_id=3)

    def loss_of(p):
        loss, _ = loss_and_grads(p, cfg, batch, pad_id=3)
        return loss

    worst = {}
    for name in params:
        numeric = finite_difference_grad(loss_of, params, name, h=1e-5)
        ga, gn = analytic[name], numeric
        diff = np.linalg.norm(ga - gn)
        scale = max(np.linalg.norm(ga), np.linalg.norm(gn))
        assert diff <= atol + rtol * scale, (
            f"{name}: ||ga-gn||={diff:.3e} scale={scale:.3e}"
        )
        worst[name] = diff / scale if scale > 0 else 0.0
    return worst


class TestGradientCheck:
    # With the residual norm on, the same check is test_acceptance.py's
    # TestCriterion05GradientCheck.
    def test_every_tensor_without_residual_norm(self):
        cfg, params = tiny_setup(use_residual_norm=False)
        check_all_tensors(cfg, params, tiny_batch())

    def test_single_example_batch(self):
        cfg, params = tiny_setup()
        check_all_tensors(cfg, params, tiny_batch()[:1])


class TestLossValues:
    def test_concentrated_probabilities_give_near_zero_loss(self):
        tau = 6
        eps = 1e-12
        ps = np.full(tau, eps)
        ps[2] = 1.0 - eps * (tau - 1)
        pe = np.full(tau, eps)
        pe[4] = 1.0 - eps * (tau - 1)
        gold = TrainingExample(ids=(0,) * tau, m=1, gold_start=3, gold_end=5,
                               answerable=True)
        loss = ref_example_loss(ps, pe, (50.0, 0.0), gold)
        assert loss < 1e-6

    def test_uniform_probabilities_give_log_terms(self):
        tau = 8
        uniform = np.full(tau, 1 / tau)
        gold = TrainingExample(ids=(0,) * tau, m=1, gold_start=2, gold_end=2,
                               answerable=True)
        loss = ref_example_loss(uniform, uniform, (0.0, 0.0), gold)
        assert loss == pytest.approx(np.log(tau) + np.log(2.0), abs=1e-9)

    def test_loss_nonnegative(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            tau = int(rng.integers(2, 9))
            ps = rng.dirichlet(np.ones(tau))
            pe = rng.dirichlet(np.ones(tau))
            gold = TrainingExample(ids=(0,) * tau, m=1,
                                   gold_start=int(rng.integers(1, tau + 1)),
                                   gold_end=int(rng.integers(1, tau + 1)),
                                   answerable=bool(rng.integers(0, 2)))
            logits = tuple(rng.normal(size=2))
            assert ref_example_loss(ps, pe, logits, gold) >= 0.0

    def test_batch_loss_matches_per_example_compute_loss(self):
        from essayqa.encoder import encode
        from essayqa.heads import external_front_verification

        cfg, params = tiny_setup()
        batch = tiny_batch()
        batch_loss, _ = loss_and_grads(params, cfg, batch, pad_id=3)
        singles = []
        for ex in batch:
            h = encode(list(ex.ids), params, cfg)
            dist = span_probabilities(h, params)
            logit_ans, logit_na, _ = external_front_verification(h[0], params)
            singles.append(ref_example_loss(dist.prob_start, dist.prob_end,
                                            (logit_ans, logit_na), ex))
        assert batch_loss == pytest.approx(np.mean(singles), rel=1e-10)
