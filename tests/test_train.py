"""Training loop: example preparation, determinism, threshold selection,
and multi-stage threading with checkpoint resume (overfit capacity is
acceptance criterion 7)."""

import json
import struct
import threading
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from essayqa import pipeline, train
from essayqa.checkpoint import MAGIC, load_model, save_model
from essayqa.cli import cli_main
from essayqa.corpus import GoldAnswer, QAExample, save_sed_format
from essayqa.encoder import encode
from essayqa.errors import CheckpointError, OversizedQuestionError, ValidationError
from essayqa.heads import span_probabilities, verifier_logits
from essayqa.model import ModelBundle, new_model, param_shapes
from essayqa.qnorm import RewriteRuleSet
from essayqa.seqbuild import Vocabulary, assemble, build_vocab
from essayqa.synthetic import SyntheticConfig, generate_synthetic
from essayqa.train import (
    Adam,
    Stage,
    TrainConfig,
    TrainingExample,
    _part_loss_and_grads,
    char_span_to_positions,
    loss_and_grads,
    multi_stage_train,
    prepare_examples,
    select_zeta,
    train_stage,
)

from reference import ref_char_span_to_positions, ref_example_loss

RULES = RewriteRuleSet()


def desk_model(examples, seed=0, **overrides):
    texts = [t for ex in examples for t in (ex.question, ex.context)]
    vocab = build_vocab(texts, size=2000)
    return new_model(vocab, seed=seed, **overrides)


def small_corpus(count=16, seed=1, ratio=0.75):
    return generate_synthetic(SyntheticConfig(count=count, answerable_ratio=ratio,
                                              seed=seed))


SPAN_VOCAB = build_vocab(["I will travel to Japan in the summer"], size=40)


class TestCharSpanToPositions:
    """The bisection over the offset columns against the linear scan."""

    @given(st.lists(st.sampled_from(["I", "will", "travel", "to", "Japan", "summer", "zzq",
                                     "Unterwegs", "Japanese", "?", ",", "  "]),
                    min_size=1, max_size=12),
           st.integers(min_value=3, max_value=14))
    @example(["travel", "  ", "Japan", "?"], 5)
    @settings(max_examples=60, deadline=None)
    def test_matches_linear_scan(self, words, max_len):
        # every character range: token edges, gaps between tokens, ranges
        # past the truncation cut, empty and reversed ranges
        essay = " ".join(words)
        try:
            seq = assemble("will travel", essay, SPAN_VOCAB, max_len=max_len)
        except OversizedQuestionError:
            return
        for lo in range(-1, len(essay) + 2):
            for hi in range(lo - 1, len(essay) + 2):
                assert char_span_to_positions(seq, lo, hi) == \
                    ref_char_span_to_positions(seq, lo, hi), (lo, hi)

    def test_truncated_away_is_none(self):
        essay = "I will travel to Japan in the summer"
        seq = assemble("will", essay, SPAN_VOCAB, max_len=6)  # keeps "I will travel"
        assert seq.truncated and seq.n == 3
        assert char_span_to_positions(seq, essay.index("Japan"), len(essay)) is None
        assert char_span_to_positions(seq, 2, 6) == (5, 5)
        assert char_span_to_positions(seq, 6, 7) is None  # the gap after "will"


class TestPrepareExamples:
    def test_gold_positions_in_essay_region(self):
        corpus = small_corpus(30)
        model = desk_model(corpus)
        prepared, skipped = prepare_examples(corpus, model.vocab, RULES,
                                             model.config.max_len)
        assert skipped == 0
        assert len(prepared) + skipped == len(corpus)
        for ex in prepared:
            if ex.answerable:
                assert ex.gold_start >= ex.m + 3
                assert ex.gold_start <= ex.gold_end <= ex.tau
            else:
                assert (ex.gold_start, ex.gold_end) == (1, 1)

    def test_gold_tokens_cover_answer_text(self):
        corpus = [ex for ex in small_corpus(30) if ex.answerable][:5]
        model = desk_model(corpus)
        from essayqa.qnorm import normalize

        prepared, _ = prepare_examples(corpus, model.vocab, RULES,
                                       model.config.max_len)
        for raw, prep in zip(corpus, prepared):
            seq = assemble(normalize(raw.question, RULES), raw.context, model.vocab)
            ans = raw.gold_answers[0]
            assert seq.char_starts[prep.gold_start - 1] <= ans.char_start
            assert seq.char_ends[prep.gold_end - 1] >= ans.char_start + len(ans.text)

    def test_oversized_question_skipped_and_counted(self):
        corpus = small_corpus(6)
        model = desk_model(corpus)
        big_q = " ".join(["what"] * 600)
        corpus = corpus + [QAExample("big", big_q, "Some essay text.", False, ())]
        prepared, skipped = prepare_examples(corpus, model.vocab, RULES,
                                             model.config.max_len)
        assert skipped == 1
        assert len(prepared) + skipped == len(corpus)

    def test_truncated_away_answer_becomes_unanswerable(self):
        filler = "word " * 800
        answer = "the hidden response sentence"
        ctx = filler + answer
        ex = QAExample("t", "what is hidden", ctx, True,
                       (GoldAnswer(answer, len(filler)),))
        model = desk_model([ex])
        prepared, skipped = prepare_examples([ex], model.vocab, RULES, max_len=64)
        assert skipped == 0
        assert prepared[0].answerable is False
        assert (prepared[0].gold_start, prepared[0].gold_end) == (1, 1)


class TestTrainConfigBounds:
    @pytest.mark.parametrize("kwargs", [{"max_steps": 0}, {"max_steps": -1},
                                        {"warmup_steps": -5}])
    def test_rejected(self, kwargs):
        with pytest.raises(ValidationError, match=next(iter(kwargs))):
            TrainConfig(**kwargs)

    def test_edges_accepted(self):
        cfg = TrainConfig(max_steps=1, warmup_steps=0)
        assert (cfg.max_steps, cfg.warmup_steps) == (1, 0)
        assert TrainConfig(max_steps=None).max_steps is None

    def test_cli_rejects_negative_warmup_before_reading_the_corpus(self, tmp_path, capsys):
        code = cli_main(["train", "--corpus", str(tmp_path / "absent.jsonl"),
                         "--out", str(tmp_path / "m.ckpt"), "--warmup-steps", "-5"])
        assert code == 1
        assert capsys.readouterr().err == "error: warmup_steps must not be negative\n"
        assert not (tmp_path / "m.ckpt").exists()

    @pytest.mark.parametrize("fraction", [-0.5, 1.0, 1.5])
    def test_stage_rejects_dev_fraction_outside_zero_to_one(self, fraction):
        with pytest.raises(ValidationError,
                           match=rf"^dev_fraction must be in \[0, 1\), not {fraction}$"):
            Stage(name="a", corpus=small_corpus(4), dev_fraction=fraction)

    @pytest.mark.parametrize("fraction", ["-0.5", "1.5"])
    def test_cli_rejects_dev_fraction_outside_zero_to_one(self, tmp_path, capsys, fraction):
        corpus = tmp_path / "train.jsonl"
        save_sed_format(small_corpus(8), str(corpus))
        code = cli_main(["train", "--corpus", str(corpus), "--out", str(tmp_path / "m.ckpt"),
                         "--dev-fraction", fraction])
        assert code == 1
        assert capsys.readouterr().err == (f"error: dev_fraction must be in [0, 1), "
                                           f"not {fraction}\n")
        assert not (tmp_path / "m.ckpt").exists()


class TestTrainStage:
    def test_empty_corpus_rejected(self):
        model = desk_model(small_corpus(4))
        with pytest.raises(ValidationError):
            train_stage(model.params, [], model.vocab, RULES, model.config,
                        TrainConfig())

    def test_epoch_curve_improves(self):
        corpus = small_corpus(64, seed=3)
        model = desk_model(corpus)
        cfg = TrainConfig(epochs=4, learning_rate=1e-3, batch_size=16, seed=0)
        result = train_stage(model.params, corpus, model.vocab, RULES,
                             model.config, cfg)
        assert result.loss_curve[-1] < result.loss_curve[0]

    def test_same_seed_bit_identical(self):
        corpus = small_corpus(24, seed=5)
        model = desk_model(corpus)
        cfg = TrainConfig(epochs=2, learning_rate=1e-3, batch_size=8, seed=9)
        a = train_stage(model.params, corpus, model.vocab, RULES, model.config, cfg)
        b = train_stage(model.params, corpus, model.vocab, RULES, model.config, cfg)
        for name in a.params:
            assert np.array_equal(a.params[name], b.params[name]), name

    def test_input_params_not_mutated(self):
        corpus = small_corpus(8)
        model = desk_model(corpus)
        before = {k: v.copy() for k, v in model.params.items()}
        cfg = TrainConfig(epochs=1, batch_size=8, seed=0)
        train_stage(model.params, corpus, model.vocab, RULES, model.config, cfg)
        for name in before:
            assert np.array_equal(before[name], model.params[name])

    def test_divergence_guard_aborts(self):
        corpus = small_corpus(16, seed=1)
        model = desk_model(corpus)
        cfg = TrainConfig(epochs=50, learning_rate=1e9, batch_size=8, seed=0)
        from essayqa.errors import EssayQAError

        with np.errstate(all="ignore"), pytest.raises(
                EssayQAError, match="diverged at step 1: loss=inf; all parameters finite"):
            train_stage(model.params, corpus, model.vocab, RULES, model.config, cfg)

    def test_divergence_guard_names_first_non_finite_tensor(self):
        corpus = small_corpus(8, seed=1)
        model = desk_model(corpus)
        params = dict(model.params)
        params["layer1.ffn.b2"] = np.full_like(params["layer1.ffn.b2"], np.nan)
        params["span.w_end"] = np.full_like(params["span.w_end"], np.inf)
        from essayqa.errors import EssayQAError

        with np.errstate(all="ignore"), pytest.raises(
                EssayQAError, match=r"diverged at step 0: .*parameter layer1\.ffn\.b2 "):
            train_stage(params, corpus, model.vocab, RULES, model.config,
                        TrainConfig(epochs=1, batch_size=8, seed=0))

    def test_loss_gradients_finite_on_real_batch(self):
        corpus = small_corpus(8)
        model = desk_model(corpus)
        prepared, _ = prepare_examples(corpus, model.vocab, RULES,
                                       model.config.max_len)
        loss, grads = loss_and_grads(model.params, model.config, prepared,
                                     model.vocab.pad_id)
        assert np.isfinite(loss)
        for g in grads.values():
            assert np.all(np.isfinite(g))


class TestPackedParts:
    """loss_and_grads runs a batch as packs of consecutive examples; with
    two workers the caller's thread and one pack worker run them in pairs."""

    def batch(self, n=11, **overrides):
        corpus = small_corpus(40, seed=17)
        model = desk_model(corpus, **overrides)
        prepared, _ = prepare_examples(corpus, model.vocab, RULES, model.config.max_len)
        return model, prepared[:n]

    @staticmethod
    def run(monkeypatch, model, batch, workers):
        monkeypatch.setattr(pipeline, "_pack_workers", lambda: workers)
        return loss_and_grads(model.params, model.config, batch, model.vocab.pad_id)

    @staticmethod
    def record_parts(monkeypatch, batch, part_fn=None):
        """Run every part through ``part_fn`` (default: the real one) and
        record (index of the part's first example, thread name) in call order."""
        calls, original = [], train._part_loss_and_grads
        first = {id(ex): i for i, ex in enumerate(batch)}

        def recorded(params, cfg, part, n):
            calls.append((first[id(part[0])], threading.current_thread().name))
            return (part_fn or original)(params, cfg, part, n)

        monkeypatch.setattr(train, "_part_loss_and_grads", recorded)
        return calls

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_pooled_result_is_byte_equal_to_serial(self, monkeypatch, dtype):
        model, batch = self.batch(16, dtype=dtype)
        assert len({ex.tau for ex in batch}) > 3
        serial_loss, serial = self.run(monkeypatch, model, batch, 1)
        pooled_loss, pooled = self.run(monkeypatch, model, batch, 2)
        assert pooled_loss == serial_loss
        assert list(pooled) == list(serial)
        for name, g in pooled.items():
            assert g.dtype == np.dtype(dtype), name
            assert g.tobytes() == serial[name].tobytes(), name

    def test_odd_parts_run_on_a_pack_worker(self, monkeypatch):
        model, batch = self.batch(14)  # parts at 0, 4, 8 and 12
        calls = self.record_parts(monkeypatch, batch)
        self.run(monkeypatch, model, batch, 2)
        here = threading.current_thread().name
        threads = dict(calls)
        assert sorted(threads) == [0, 4, 8, 12]
        assert threads[0] == threads[8] == here
        assert all(threads[lo].startswith("essayqa-pack") for lo in (4, 12))
        calls.clear()
        self.run(monkeypatch, model, batch, 1)
        assert calls == [(lo, here) for lo in (0, 4, 8, 12)]

    def test_parts_run_under_the_callers_numpy_error_state(self, monkeypatch):
        model, batch = self.batch(8)
        seen = []

        def recording_errstate(params, cfg, part, n):
            seen.append(np.geterr()["divide"])
            return _part_loss_and_grads(params, cfg, part, n)

        calls = self.record_parts(monkeypatch, batch, recording_errstate)
        with np.errstate(divide="raise"):
            self.run(monkeypatch, model, batch, 2)
        assert calls[1][1].startswith("essayqa-pack")
        assert seen == ["raise", "raise"]

    def test_a_batch_of_one_part_never_touches_the_pool(self, monkeypatch):
        model, batch = self.batch(4)

        def no_pool():
            raise AssertionError("the pool was asked for")

        monkeypatch.setattr(pipeline, "_pack_pool", no_pool)
        calls = self.record_parts(monkeypatch, batch)
        self.run(monkeypatch, model, batch, 2)
        assert calls == [(0, threading.current_thread().name)]

    @pytest.mark.parametrize("failing", [0, 4], ids=["caller-part", "worker-part"])
    def test_a_failing_part_raises_after_the_other_part_finished(self, monkeypatch, failing):
        model, batch = self.batch(8)
        events, lock = [], threading.Lock()

        def slow_or_failing(params, cfg, part, n):
            lo = batch.index(part[0])
            if lo == failing:
                raise RuntimeError(f"part {lo} failed")
            time.sleep(0.2)
            with lock:
                events.append(lo)
            return _part_loss_and_grads(params, cfg, part, n)

        self.record_parts(monkeypatch, batch, slow_or_failing)
        with pytest.raises(RuntimeError, match=f"part {failing} failed"):
            self.run(monkeypatch, model, batch, 2)
        with lock:
            assert events == [4 - failing]

    def test_batch_gradient_is_the_mean_over_its_examples(self):
        model, batch = self.batch()
        assert len({ex.tau for ex in batch}) > 3
        loss, grads = loss_and_grads(model.params, model.config, batch, model.vocab.pad_id)
        singles = [loss_and_grads(model.params, model.config, [ex], model.vocab.pad_id)
                   for ex in batch]
        want_loss = 0.0
        for ex in batch:
            h = encode(list(ex.ids), model.params, model.config)
            dist = span_probabilities(h, model.params)
            want_loss += ref_example_loss(dist.prob_start, dist.prob_end,
                                          verifier_logits(h[0], model.params), ex)
        want_loss /= len(batch)
        assert loss == pytest.approx(want_loss, rel=1e-12)
        assert loss == pytest.approx(np.mean([single_loss for single_loss, _ in singles]), rel=1e-12)
        for name, g in grads.items():
            want = np.mean([s[name] for _, s in singles], axis=0)
            assert np.allclose(g, want, rtol=1e-10, atol=1e-14), name


class TestSelectZeta:
    def test_separates_confident_scores(self):
        corpus = small_corpus(16, seed=7)
        model = desk_model(corpus)
        cfg = TrainConfig(epochs=1000, learning_rate=1e-3, batch_size=16, seed=0,
                          max_steps=400)
        result = train_stage(model.params, corpus, model.vocab, RULES,
                             model.config, cfg)
        model = replace(model, params=result.params)
        zeta = select_zeta(model, corpus)
        model.zeta = zeta
        from essayqa.evalharness import evaluate_model

        train_eval = evaluate_model(model, corpus)
        assert train_eval.accuracy >= 0.9  # threshold fits the training data

    def test_empty_dev_keeps_current(self):
        model = desk_model(small_corpus(4))
        model.zeta = 0.37
        assert select_zeta(model, []) == 0.37

    def test_oversized_dev_question_ignored(self):
        dev = small_corpus(8, seed=3)
        model = desk_model(dev)
        huge = QAExample("huge", " ".join(["what"] * 600), dev[0].context, False, ())
        assert select_zeta(model, dev + [huge]) == select_zeta(model, dev)


class TestMultiStage:
    def test_single_stage_equals_train_stage(self):
        corpus = small_corpus(24, seed=11)
        model = desk_model(corpus)
        cfg = TrainConfig(epochs=2, batch_size=8, seed=4)
        direct = train_stage(model.params, corpus, model.vocab, RULES,
                             model.config, cfg)
        staged, infos = multi_stage_train(
            model, [Stage(name="only", corpus=corpus)], cfg)
        for name in direct.params:
            assert np.array_equal(direct.params[name], staged.params[name]), name
        assert infos[0].trained_count == len(corpus)

    def test_checkpoint_resume_bit_identical(self, tmp_path):
        corpus_a = small_corpus(24, seed=13)
        corpus_b = small_corpus(24, seed=14)
        model = desk_model(corpus_a + corpus_b)
        cfg = TrainConfig(epochs=2, batch_size=8, seed=4)
        stage_a = Stage(name="a", corpus=corpus_a, seed=4)
        stage_b = Stage(name="b", corpus=corpus_b, seed=5)

        full, _ = multi_stage_train(model, [stage_a, stage_b], cfg)

        half, _ = multi_stage_train(model, [stage_a], cfg)
        ckpt = tmp_path / "half.ckpt"
        save_model(half, str(ckpt))
        reloaded = load_model(str(ckpt))
        resumed, _ = multi_stage_train(reloaded, [stage_b], cfg)

        for name in full.params:
            assert np.array_equal(full.params[name], resumed.params[name]), name

    def test_per_stage_checkpoints_written(self, tmp_path):
        corpus = small_corpus(12)
        model = desk_model(corpus)
        cfg = TrainConfig(epochs=1, batch_size=8, seed=0)
        stages = [Stage(name="one", corpus=corpus), Stage(name="two", corpus=corpus)]
        _, infos = multi_stage_train(model, stages, cfg, out_dir=str(tmp_path))
        assert (tmp_path / "stage1-one.ckpt").exists()
        assert (tmp_path / "stage2-two.ckpt").exists()
        assert infos[0].checkpoint_path.endswith("stage1-one.ckpt")

    def test_zeta_reselected_per_stage(self):
        corpus = small_corpus(30, seed=15)
        model = desk_model(corpus)
        cfg = TrainConfig(epochs=3, batch_size=8, seed=1)
        _, infos = multi_stage_train(
            model,
            [Stage(name="a", corpus=corpus, dev=corpus[:10]),
             Stage(name="b", corpus=corpus, dev=corpus[10:20])],
            cfg,
        )
        assert len(infos) == 2
        # both stages selected some threshold (values recorded)
        assert all(isinstance(i.zeta, float) for i in infos)


class TestCheckpointFormat:
    def test_round_trip_preserves_everything(self, tmp_path):
        corpus = small_corpus(6)
        model = desk_model(corpus)
        model.rv_beta1, model.rv_beta2, model.zeta = 0.4, 0.6, -0.123
        path = tmp_path / "m.ckpt"
        save_model(model, str(path))
        loaded = load_model(str(path))
        assert loaded.config == model.config
        assert loaded.vocab.terms == model.vocab.terms
        assert loaded.rules == model.rules
        assert (loaded.rv_beta1, loaded.rv_beta2, loaded.zeta) == (0.4, 0.6, -0.123)
        for name in model.params:
            assert np.array_equal(loaded.params[name], model.params[name])
            assert loaded.params[name].dtype == model.params[name].dtype

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"not a checkpoint at all")
        from essayqa.errors import CheckpointError

        with pytest.raises(CheckpointError):
            load_model(str(path))

    def test_truncated_payload_rejected(self, tmp_path):
        corpus = small_corpus(6)
        model = desk_model(corpus)
        path = tmp_path / "m.ckpt"
        save_model(model, str(path))
        data = path.read_bytes()
        path.write_bytes(data[:-16])
        from essayqa.errors import CheckpointError

        with pytest.raises(CheckpointError):
            load_model(str(path))


class TestDtype:
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_dtype_kept_through_training_and_checkpoint(self, dtype, tmp_path):
        corpus = small_corpus(8, seed=21)
        model = desk_model(corpus, dtype=dtype)
        want = np.dtype(dtype)
        assert all(v.dtype == want for v in model.params.values())
        examples, _ = prepare_examples(corpus, model.vocab, RULES, 512)
        h = encode(examples[0].ids, model.params, model.config)
        assert h.dtype == want
        assert span_probabilities(h, model.params).prob_start.dtype == want
        _, grads = loss_and_grads(model.params, model.config, examples[:4],
                                  pad_id=model.vocab.pad_id)
        assert {k: g.dtype for k, g in grads.items()} == {k: want for k in model.params}
        params = dict(model.params)
        Adam(params).step(params, grads, lr=1e-3)
        assert {k: v.dtype for k, v in params.items()} == {k: want for k in params}
        path = tmp_path / "m.ckpt"
        save_model(replace(model, params=params), str(path))
        loaded = load_model(str(path))
        for name, arr in params.items():
            assert loaded.params[name].dtype == want
            assert np.array_equal(loaded.params[name], arr)


class TestCheckpointMatchesConfig:
    def _saved(self, tmp_path, edit):
        """A checkpoint of a desk model whose tensor directory and payload
        hold its params with ``edit`` applied.  save_model refuses such a
        bundle, so the file's tensors are rewritten here."""
        model = desk_model(small_corpus(6))
        path = tmp_path / "m.ckpt"
        save_model(model, str(path))
        params = dict(model.params)
        edit(params)
        blob = path.read_bytes()
        start = len(MAGIC) + 8
        (header_len,) = struct.unpack("<Q", blob[len(MAGIC):start])
        header = json.loads(blob[start:start + header_len])
        header["tensors"] = [{"name": name, "shape": list(arr.shape), "dtype": arr.dtype.str[1:]}
                             for name, arr in params.items()]
        payload = b"".join(arr.astype(arr.dtype.newbyteorder("<")).tobytes()
                           for arr in params.values())
        path.write_bytes(_header_bytes(header) + payload)
        return str(path)

    def test_shapes_name_every_initialized_tensor(self):
        model = desk_model(small_corpus(6))
        shapes = param_shapes(model.config)
        assert list(shapes) == list(model.params)
        assert all(model.params[k].shape == shapes[k] for k in shapes)

    def test_missing_tensor_rejected(self, tmp_path):
        path = self._saved(tmp_path, lambda p: p.pop("layer1.ffn.b2"))
        with pytest.raises(CheckpointError, match="missing"):
            load_model(path)

    # The span biases are the two extra tensors of a checkpoint written
    # before they were removed from the heads.
    @pytest.mark.parametrize("extra, message", [
        ({"stray": np.zeros(3)}, "stray"),
        ({"span.b_start": np.zeros(1), "span.b_end": np.zeros(1)},
         r"'span\.b_start', 'span\.b_end'"),
    ], ids=["stray", "span-biases"])
    def test_extra_tensor_rejected(self, tmp_path, extra, message):
        path = self._saved(tmp_path, lambda p: p.update(extra))
        with pytest.raises(CheckpointError, match=message):
            load_model(path)

    def test_wrong_shape_rejected(self, tmp_path):
        path = self._saved(tmp_path, lambda p: p.update({"verify.b": np.zeros(3)}))
        with pytest.raises(CheckpointError, match="shape"):
            load_model(path)

    def test_wrong_dtype_rejected(self, tmp_path):
        def to_f4(p):
            p["span.w_end"] = p["span.w_end"].astype(np.float32)

        path = self._saved(tmp_path, to_f4)
        with pytest.raises(CheckpointError, match="float32"):
            load_model(path)


def _with_params(edit):
    """Field overrides: a copy of the model's params with ``edit`` applied."""
    def overrides(model):
        params = dict(model.params)
        edit(params)
        return {"params": params}
    return overrides


def _to_f4(params, name):
    params[name] = params[name].astype(np.float32)


OTHER_VOCAB = build_vocab(["I will travel"], size=40)


class TestModelBundleChecksItself:
    """Construction and dataclasses.replace refuse a bundle whose tensors,
    vocabulary or verification constants do not fit its config."""

    @pytest.mark.parametrize("overrides, message", [
        (_with_params(lambda p: p.pop("layer1.ffn.b2")),
         r"missing tensors \['layer1\.ffn\.b2'\]"),
        (_with_params(lambda p: p.update(stray=np.zeros(3))),
         r"tensors not in the config \['stray'\]"),
        (_with_params(lambda p: p.update({"verify.b": np.zeros(3)})),
         r"tensor 'verify\.b' has shape \(3,\), config needs \(2,\)"),
        (_with_params(lambda p: _to_f4(p, "span.w_end")),
         "tensor 'span.w_end' is float32, config needs float64"),
        (lambda m: {"vocab": OTHER_VOCAB},
         f"vocabulary holds {len(OTHER_VOCAB)} terms, config.vocab_size is {len(SPAN_VOCAB)}"),
        (lambda m: {"rv_beta1": float("inf")}, "rv_beta1 must be finite, not inf"),
        (lambda m: {"rv_beta2": float("-inf")}, "rv_beta2 must be finite, not -inf"),
        (lambda m: {"zeta": float("nan")}, "zeta must be finite, not nan"),
    ], ids=["missing-tensor", "extra-tensor", "wrong-shape", "wrong-dtype", "vocab-size",
            "beta1-inf", "beta2-minus-inf", "zeta-nan"])
    def test_refused_when_built_and_when_replaced(self, overrides, message):
        model = new_model(SPAN_VOCAB, layers=2, d_model=8, heads=2, ffn_inner=8)
        fields = overrides(model)
        with pytest.raises(ValidationError, match=message):
            ModelBundle(**{"config": model.config, "params": model.params,
                           "vocab": model.vocab, "rules": model.rules, **fields})
        with pytest.raises(ValidationError, match=message):
            replace(model, **fields)


def _header_bytes(header: dict) -> bytes:
    blob = json.dumps(header).encode("utf-8")
    return MAGIC + struct.pack("<Q", len(blob)) + blob


class TestMalformedCheckpoint:
    """Hand-built files that are checkpoints in name only fail with
    CheckpointError, which the CLI reports as ``error: ...`` with exit 1."""

    @pytest.mark.parametrize("content, message", [
        (MAGIC + b"\x05\x00\x00", "truncated header length"),
        (_header_bytes({"config": {"vocab_size": 8}}), "no field 'tensors'"),
        (_header_bytes({"config": {"vocab_size": 8, "colour": "blue"}, "tensors": []}),
         "colour"),
        # a config EncoderConfig rejects; max_len 1024 is what older builds
        # accepted before the 512-position cap
        (_header_bytes({"config": {"vocab_size": 8, "heads": 3, "d_model": 8},
                        "tensors": []}),
         "bad.ckpt: bad config: d_model must be divisible by heads"),
        (_header_bytes({"config": {"vocab_size": 8, "max_len": 1024}, "tensors": []}),
         "bad.ckpt: bad config: max_len must be at most 512"),
    ], ids=["cut-in-header-length", "no-tensors", "unknown-config-key",
            "heads-not-dividing", "max-len-over-cap"])
    def test_rejected_cleanly(self, tmp_path, capsys, content, message):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(content)
        self._check_rejected(tmp_path, capsys, path, message)

    @pytest.mark.parametrize("edit, message", [
        (lambda h: h["vocab"].__setitem__(-1, h["vocab"][-2]),
         "bad.ckpt: bad vocabulary: duplicate vocabulary terms"),
        (lambda h: h["rules"].update(case_policy="shout"),
         "bad.ckpt: bad rules: unknown case_policy: 'shout'"),
    ], ids=["repeated-term", "unknown-case-policy"])
    def test_bad_vocabulary_or_rules_names_the_file(self, tmp_path, capsys, edit, message):
        path = tmp_path / "bad.ckpt"
        save_model(desk_model(small_corpus(6)), str(path))
        self._edit_header(path, edit)
        self._check_rejected(tmp_path, capsys, path, message)

    def test_vocabulary_larger_than_vocab_size_names_the_file(self, tmp_path, capsys):
        vocab = build_vocab(["I will travel to Japan in the summer"], size=27)
        assert len(vocab) == 27
        path = tmp_path / "bad.ckpt"
        save_model(new_model(vocab, layers=1, d_model=8, heads=2, ffn_inner=8), str(path))

        def add_term(header):
            header["vocab"].append("zebra")
            header["vocab_fingerprint"] = Vocabulary(header["vocab"]).fingerprint()

        self._edit_header(path, add_term)
        self._check_rejected(tmp_path, capsys, path,
                             "bad.ckpt: vocabulary holds 28 terms, config.vocab_size is 27")

    @pytest.mark.parametrize("edit, message", [
        (lambda v: v.update(zeta="0.5"),
         "bad.ckpt: malformed header: field 'zeta' must be a JSON number, not \"0.5\""),
        (lambda v: v.update(beta1=True),
         "bad.ckpt: malformed header: field 'beta1' must be a JSON number, not true"),
        (lambda v: v.update(zeta=float("nan")), "bad.ckpt: zeta must be finite, not nan"),
        (lambda v: v.update(beta2=float("inf")), "bad.ckpt: rv_beta2 must be finite, not inf"),
    ], ids=["zeta-string", "beta1-bool", "zeta-nan", "beta2-inf"])
    def test_verification_constants_are_finite_json_numbers(self, tmp_path, capsys,
                                                            edit, message):
        path = tmp_path / "bad.ckpt"
        save_model(new_model(SPAN_VOCAB, layers=1, d_model=8, heads=2, ffn_inner=8), str(path))
        self._edit_header(path, lambda header: edit(header["verification"]))
        self._check_rejected(tmp_path, capsys, path, message)

    @pytest.mark.parametrize("assign, message", [
        (lambda m: setattr(m, "zeta", float("nan")), "zeta must be finite, not nan"),
        (lambda m: m.params.update({"verify.b": np.zeros(3)}),
         r"tensor 'verify\.b' has shape \(3,\), config needs \(2,\)"),
    ], ids=["zeta-nan", "wrong-shape"])
    def test_save_refuses_a_bundle_it_could_not_load(self, tmp_path, assign, message):
        """Attribute assignment is not checked, so save_model checks the
        bundle before it opens the file: no file is left behind."""
        model = new_model(SPAN_VOCAB, layers=1, d_model=8, heads=2, ffn_inner=8)
        assign(model)
        path = tmp_path / "m.ckpt"
        with pytest.raises(ValidationError, match=message):
            save_model(model, str(path))
        assert not path.exists()

    @staticmethod
    def _edit_header(path, edit):
        blob = path.read_bytes()
        start = len(MAGIC) + 8
        (header_len,) = struct.unpack("<Q", blob[len(MAGIC):start])
        header = json.loads(blob[start:start + header_len])
        edit(header)
        path.write_bytes(_header_bytes(header) + blob[start + header_len:])

    @staticmethod
    def _check_rejected(tmp_path, capsys, path, message):
        with pytest.raises(CheckpointError, match=message):
            load_model(str(path))
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("", encoding="utf-8")
        assert cli_main(["predict", "--model", str(path), "--corpus", str(corpus)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and message in captured.err
