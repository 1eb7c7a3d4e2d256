"""Acceptance suite: one test per criterion, each printing a pass line with
its measured numbers (run with -s, or read the -v report).

Criterion 1 exercises the official SQuAD 2.0 train/dev files.  They are not
bundled (and never downloaded); place them under data/squad/ or point
ESSAYQA_SQUAD_DIR at a directory containing train-v2.0.json and dev-v2.0.json,
otherwise that single test skips.
"""

import os
import time

import numpy as np
import pytest

from essayqa.corpus import answer_length_stats, load_squad
from essayqa.encoder import (
    EncoderConfig,
    encode,
    encoder_layer,
    init_encoder_params,
    layer_slice,
    scaled_attention,
)
from essayqa.evalharness import accuracy, evaluate_model, overlap_f1
from essayqa.heads import (
    SpanDistributions,
    init_head_params,
    span_probabilities,
    threshold_verification,
)
from essayqa.locator import locate_response
from essayqa.model import new_model
from essayqa.qnorm import RewriteRuleSet, delete_redundant, normalize, switch_pronouns
from essayqa.seqbuild import assemble, build_vocab
from essayqa.synthetic import SyntheticConfig, generate_synthetic
from essayqa.train import (
    Stage,
    TrainConfig,
    loss_and_grads,
    multi_stage_train,
    prepare_examples,
    train_stage,
)

from recipes import CRITERION8, synthetic
from reference import (
    brute_force_tav,
    finite_difference_grad,
    recount_accuracy,
    recount_overlap_f1,
    ref_encoder_layer_no_norm,
    ref_multi_head_attention,
)


def report(criterion: int, text: str) -> None:
    print(f"\n[criterion {criterion:02d}] PASS - {text}")


def squad_dir() -> str | None:
    candidates = [os.environ.get("ESSAYQA_SQUAD_DIR"),
                  os.path.join(os.path.dirname(__file__), "..", "data", "squad")]
    for cand in candidates:
        if cand and os.path.exists(os.path.join(cand, "train-v2.0.json")) \
                and os.path.exists(os.path.join(cand, "dev-v2.0.json")):
            return cand
    return None


class TestCriterion01SquadStats:
    def test_official_squad_counts_and_mean_length(self):
        where = squad_dir()
        if where is None:
            pytest.skip("official SQuAD 2.0 files not present (see module docstring); "
                        "loader logic is covered by fixture tests in test_corpus.py")
        t0 = time.time()
        train = load_squad(os.path.join(where, "train-v2.0.json"))
        dev = load_squad(os.path.join(where, "dev-v2.0.json"))
        assert len(train) == 130_319
        assert len(dev) == 11_873
        stats = answer_length_stats(train + dev)
        assert stats.mean_answer_length_chars == pytest.approx(18.0, abs=2.0)
        elapsed = time.time() - t0
        assert elapsed < 120
        report(1, f"counts 130319/11873, mean length "
                  f"{stats.mean_answer_length_chars:.1f} chars in {elapsed:.0f}s")


class TestCriterion02NormalizationFidelity:
    def test_three_worked_examples_byte_exact(self):
        t0 = time.time()
        rules = RewriteRuleSet()
        assert switch_pronouns("What will you do in the summer vacation ?", rules) \
            == "What will I do in the summer vacation ?"
        assert delete_redundant("explain why you need to change the time", rules) \
            == "why you need to change the time"
        assert normalize("remind Sally where you arranged to meet", rules).normalized \
            == "Where I arranged to meet"
        elapsed = time.time() - t0
        assert elapsed < 1.0
        report(2, f"all three rewrite examples byte-exact in {elapsed * 1000:.0f}ms")


class TestCriterion03TavOracle:
    def test_linear_scan_equals_brute_force_10000(self):
        t0 = time.time()
        rng = np.random.default_rng(2024)
        checked = 0
        for i in range(10_000):
            tau = int(rng.integers(2, 40))
            dist = SpanDistributions(prob_start=rng.dirichlet(np.ones(tau)),
                                     prob_end=rng.dirichlet(np.ones(tau)))
            fast = threshold_verification(dist)
            brute = brute_force_tav(list(dist.prob_start), list(dist.prob_end))
            assert fast == brute  # exact equality, all three scores
            checked += 1
        elapsed = time.time() - t0
        assert checked == 10_000 and elapsed < 30
        report(3, f"10000 distributions, exact equality, {elapsed:.1f}s")


class TestCriterion04SublayerOracles:
    def test_attention_and_ffn_match_loop_references(self):
        cfg = EncoderConfig(vocab_size=17, layers=1, d_model=12, heads=3,
                            ffn_inner=10, max_len=16, seed=40,
                            use_residual_norm=False, dtype="float64")
        params = init_encoder_params(cfg, np.random.default_rng(40))
        lp = layer_slice(params, 0)
        rng = np.random.default_rng(41)
        worst = 0.0
        for _ in range(120):
            tau = int(rng.integers(1, 9))
            h = rng.normal(size=(tau, cfg.d_model))
            attn = scaled_attention(h, lp, cfg)
            attn_ref, _ = ref_multi_head_attention(h, lp, cfg.heads)
            layer = encoder_layer(h, lp, cfg)
            layer_ref = ref_encoder_layer_no_norm(h, lp, cfg.heads)
            for ours, ref in ((attn, attn_ref), (layer, layer_ref)):
                rel = np.linalg.norm(ours - ref) / max(np.linalg.norm(ref), 1e-300)
                worst = max(worst, rel)
                assert rel < 1e-10
        report(4, f"120 random cases, worst relative error {worst:.2e}")


class TestCriterion05GradientCheck:
    def test_every_tensor_against_central_differences(self):
        t0 = time.time()
        cfg = EncoderConfig(vocab_size=12, layers=2, d_model=16, heads=2,
                            ffn_inner=12, max_len=8, seed=7, dtype="float64")
        rng = np.random.default_rng(7)
        params = init_encoder_params(cfg, rng)
        params.update(init_head_params(cfg, rng))
        for name, value in params.items():
            if name.endswith(".gain"):
                params[name] = 1.0 + 0.2 * rng.normal(size=value.shape)
            else:
                params[name] = 0.4 * rng.normal(size=value.shape)
        from essayqa.train import TrainingExample

        batch = [
            TrainingExample(ids=(0, 5, 6, 1, 7, 8, 9), m=2, gold_start=5,
                            gold_end=6, answerable=True),
            TrainingExample(ids=(0, 4, 1, 10, 11), m=1, gold_start=1, gold_end=1,
                            answerable=False),
        ]
        _, analytic = loss_and_grads(params, cfg, batch, pad_id=3)

        def loss_of(p):
            loss, _ = loss_and_grads(p, cfg, batch, pad_id=3)
            return loss

        worst = 0.0
        for name in params:
            numeric = finite_difference_grad(loss_of, params, name, h=1e-5)
            diff = np.linalg.norm(analytic[name] - numeric)
            scale = max(np.linalg.norm(analytic[name]), np.linalg.norm(numeric))
            assert diff <= 1e-8 + 1e-4 * scale, name
            if scale > 1e-8:
                worst = max(worst, diff / scale)
        elapsed = time.time() - t0
        assert elapsed < 60
        report(5, f"all {len(params)} tensors, worst relative error "
                  f"{worst:.2e}, {elapsed:.0f}s")


class TestCriterion06ProbabilityInvariants:
    def test_distributions_and_attention_rows_sum_to_one(self):
        cfg = EncoderConfig(vocab_size=23, layers=2, d_model=16, heads=4,
                            ffn_inner=24, max_len=32, seed=3, dtype="float64")
        rng = np.random.default_rng(60)
        params = init_encoder_params(cfg, rng)
        params.update(init_head_params(cfg, rng))
        lp = layer_slice(params, 0)
        for _ in range(300):
            tau = int(rng.integers(2, 20))
            ids = list(rng.integers(0, cfg.vocab_size, size=tau))
            h = encode(ids, params, cfg)
            dist = span_probabilities(h, params)
            assert abs(dist.prob_start.sum() - 1.0) < 1e-9
            assert abs(dist.prob_end.sum() - 1.0) < 1e-9
            assert np.all(dist.prob_start >= 0) and np.all(dist.prob_end >= 0)
            _, weights = scaled_attention(h, lp, cfg, return_weights=True)
            assert np.all(np.abs(weights.sum(axis=-1) - 1.0) < 1e-9)
            assert np.all(weights >= 0) and np.all(weights <= 1)
        report(6, "300 random cases: span and attention rows sum to 1 within 1e-9")


RULES = RewriteRuleSet()


class TestCriterion07OverfitCapacity:
    def test_16_exact_span_matches_within_300_steps(self):
        t0 = time.time()
        corpus = generate_synthetic(SyntheticConfig(count=16, answerable_ratio=0.75,
                                                    seed=1))
        vocab = build_vocab([t for ex in corpus for t in (ex.question, ex.context)],
                            size=2000)
        model = new_model(vocab, seed=0)
        cfg = TrainConfig(epochs=1000, learning_rate=1e-3, batch_size=16, seed=0,
                          max_steps=300)
        result = train_stage(model.params, corpus, vocab, RULES, model.config, cfg)
        prepared, _ = prepare_examples(corpus, vocab, RULES, model.config.max_len)
        hits = 0
        for ex in prepared:
            h = encode(list(ex.ids), result.params, model.config)
            dist = span_probabilities(h, result.params)
            s = int(np.argmax(dist.prob_start)) + 1
            e = int(np.argmax(dist.prob_end)) + 1
            hits += (s == ex.gold_start and e == ex.gold_end)
        elapsed = time.time() - t0
        assert hits == 16
        assert result.steps <= 300
        assert elapsed < 300
        report(7, f"16/16 exact span matches after {result.steps} steps, {elapsed:.0f}s")


class TestCriterion08EndToEndLearning:
    def test_held_out_quality_on_5000_synthetic(self):
        t0 = time.time()
        model, _ = CRITERION8.fit()
        test = synthetic(*CRITERION8.test)
        result = evaluate_model(model, test)
        elapsed = time.time() - t0
        assert result.accuracy >= 0.90
        assert result.mean_overlap_f1 >= 0.80
        assert elapsed < 1800
        report(8, f"held-out acc {result.accuracy:.3f}, overlap F1 "
                  f"{result.mean_overlap_f1:.3f}, zeta {model.zeta:+.3f}, "
                  f"{elapsed:.0f}s")


class TestCriterion09TwoStageDirection:
    def test_general_then_domain_beats_general_only(self):
        t0 = time.time()
        general = generate_synthetic(SyntheticConfig(count=2500, answerable_ratio=0.6,
                                                     seed=401, bank="general"))
        gen_dev = generate_synthetic(SyntheticConfig(count=300, answerable_ratio=0.6,
                                                     seed=402, bank="general"))
        domain = generate_synthetic(SyntheticConfig(count=2500, answerable_ratio=0.6,
                                                    seed=403, bank="domain"))
        dom_dev = generate_synthetic(SyntheticConfig(count=300, answerable_ratio=0.6,
                                                     seed=404, bank="domain"))
        dom_test = generate_synthetic(SyntheticConfig(count=800, answerable_ratio=0.6,
                                                      seed=405, bank="domain"))
        vocab = build_vocab([t for ex in general + domain
                             for t in (ex.question, ex.context)], size=8000)
        model = new_model(vocab, seed=0)
        cfg = TrainConfig(epochs=4, learning_rate=1e-3, batch_size=16, seed=0,
                          warmup_steps=100)
        stage1 = Stage(name="general", corpus=general, dev=gen_dev, seed=0)
        stage2 = Stage(name="domain", corpus=domain, dev=dom_dev, seed=1)

        stage1_model, _ = multi_stage_train(model, [stage1], cfg)
        stage1_result = evaluate_model(stage1_model, dom_test)
        final_model, _ = multi_stage_train(stage1_model, [stage2], cfg)
        final_result = evaluate_model(final_model, dom_test)

        assert final_result.accuracy > stage1_result.accuracy  # strict
        from essayqa.evalharness import format_with_delta

        cell = format_with_delta(final_result.accuracy, stage1_result.accuracy)
        elapsed = time.time() - t0
        report(9, f"domain acc {cell} over stage-1-only "
                  f"{stage1_result.accuracy:.3f}, {elapsed:.0f}s")


class TestCriterion10LocatorRejections:
    def test_rejection_rules_and_span_invariant_fuzzed(self):
        from essayqa.heads import ScoreBundle

        essay = "I will travel to Japan. We meet near the gate."
        vocab = build_vocab([essay, "what will I do"], size=200)
        seq = assemble("what will I do", essay, vocab)
        rng = np.random.default_rng(10)
        yes = ScoreBundle(0, 0, 0, 0, -1.0, True)
        no = ScoreBundle(0, 0, 0, 0, 1.0, False)

        def peak(pos, tau):
            v = np.full(tau, 0.3 / (tau - 1))
            v[pos - 1] = 0.7
            return v / v.sum()

        # question-region argmax -> not answered
        for qpos in range(1, seq.m + 3):
            dist = SpanDistributions(peak(qpos, seq.tau),
                                     peak(seq.essay_start_pos + 1, seq.tau))
            assert not locate_response(dist, seq, yes, essay).answered
        # start > end -> not answered
        dist = SpanDistributions(peak(seq.essay_start_pos + 3, seq.tau),
                                 peak(seq.essay_start_pos, seq.tau))
        assert not locate_response(dist, seq, yes, essay).answered
        # fuzz: span present iff answered; answered spans inside essay region
        flips = 0
        for _ in range(2000):
            dist = SpanDistributions(rng.dirichlet(np.ones(seq.tau)),
                                     rng.dirichlet(np.ones(seq.tau)))
            scores = yes if rng.random() < 0.7 else no
            verdict = locate_response(dist, seq, scores, essay)
            assert (verdict.span is not None) == verdict.answered
            if not scores.answered:
                assert not verdict.answered
            if verdict.answered:
                flips += 1
                assert verdict.token_span[0] >= seq.essay_start_pos
                assert verdict.token_span[0] <= verdict.token_span[1]
                assert verdict.span.text == essay[verdict.span.char_start:
                                                  verdict.span.char_end]
        report(10, f"region/order rejections hold; {flips} answered fuzz cases "
                   "all carried in-essay spans")


class TestCriterion11MetricOracles:
    def test_metrics_match_recount_on_10000_cases(self):
        from essayqa.corpus import GoldAnswer, QAExample

        rng = np.random.default_rng(3000)
        n = 10_000
        pred_flags = rng.random(n) < 0.5
        gold_flags = rng.random(n) < 0.5
        gold = [QAExample(f"e{i}", "q", "xx yy", bool(gold_flags[i]),
                          (GoldAnswer("xx", 0),) if gold_flags[i] else ())
                for i in range(n)]
        ours = accuracy({f"e{i}": bool(pred_flags[i]) for i in range(n)}, gold)
        assert ours == recount_accuracy(list(pred_flags), list(gold_flags))

        pool = ["aa", "bb", "cc", "dd", "ee", "ff", "gg"]
        for _ in range(10_000):
            pred = [pool[int(i)] for i in rng.integers(0, 7, int(rng.integers(1, 8)))]
            gold_toks = [pool[int(i)] for i in rng.integers(0, 7, int(rng.integers(1, 8)))]
            text = " ".join(gold_toks)
            example = QAExample("e", "q", text, True, (GoldAnswer(text, 0),))
            ours3 = overlap_f1(" ".join(pred), example)
            ref3 = recount_overlap_f1(pred, gold_toks)
            assert ours3 == pytest.approx(ref3, abs=1e-12)

        hand = QAExample("h", "q", "t1 t2 t3 t4", True,
                         (GoldAnswer("t1 t2 t3 t4", 0),))
        p, r, f1 = overlap_f1("t1 t2 t3 x5 x6 x7", hand)
        assert (p, r) == (0.5, 0.75)
        assert f1 == pytest.approx(0.6)
        report(11, "accuracy and overlap F1 equal recount oracles on 10000 cases; "
                   "hand case F1 = 0.6")
