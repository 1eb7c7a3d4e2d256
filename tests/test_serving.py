"""Serving precision: every verdict is computed in float32, from a float32
cast of every tensor of a float64 model, and the float64 master model is
never changed."""

import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from essayqa import heads, pipeline, qnorm, train
from essayqa.checkpoint import save_model
from essayqa.cli import cli_main
from essayqa.corpus import save_sed_format
from essayqa.encoder import encode
from essayqa.errors import ValidationError
from essayqa.evalharness import predict_corpus
from essayqa.locator import OVERSIZED_QUESTION, locate_response
from essayqa.model import new_model
from essayqa.pipeline import EvaluationRequest, evaluate, infer_verdict, serving_model
from essayqa.seqbuild import assemble, build_vocab
from essayqa.synthetic import SyntheticConfig, generate_synthetic
from essayqa.train import select_zeta

EXAMPLES = generate_synthetic(SyntheticConfig(count=12, answerable_ratio=0.6, seed=404))
VOCAB = build_vocab([t for ex in EXAMPLES for t in (ex.question, ex.context)], size=600)


def small_model(dtype: str):
    model = new_model(VOCAB, layers=2, d_model=16, heads=2, ffn_inner=32, seed=9,
                      dtype=dtype)
    # a zeta inside the score range, so both verdicts occur
    model.zeta = float(np.median([infer_verdict(model, ex.question, ex.context)
                                  .scores.score_final for ex in EXAMPLES]))
    return model


def composed_verdict(model, ex):
    """The pipeline's stages composed by hand on the model's own tensors."""
    normalized = qnorm.normalize(ex.question, model.rules)
    seq = assemble(normalized, ex.context, model.vocab, max_len=model.config.max_len)
    h = encode(seq, model.params, model.config)
    dist = heads.span_probabilities(h, model.params)
    scores = heads.verify(dist, h[0], model.params, beta1=model.rv_beta1,
                          beta2=model.rv_beta2, zeta=model.zeta)
    return locate_response(dist, seq, scores, ex.context)


class TestServingCopy:
    def test_float32_model_is_served_as_it_is(self):
        model = small_model("float32")
        assert serving_model(model) is model

    def test_float32_model_verdicts_unchanged(self):
        model = small_model("float32")
        for ex in EXAMPLES:
            assert infer_verdict(model, ex.question, ex.context) == composed_verdict(model, ex)

    def test_float64_copy_is_a_float32_cast_of_every_tensor(self):
        model = small_model("float64")
        served = serving_model(model)
        assert served is not model and served.config.dtype == "float32"
        assert served.config == replace(model.config, dtype="float32")
        assert (served.vocab, served.rules, served.zeta) == (model.vocab, model.rules,
                                                             model.zeta)
        assert list(served.params) == list(model.params)
        for name, arr in served.params.items():
            assert arr.dtype == np.float32, name
            assert np.array_equal(arr, model.params[name].astype(np.float32)), name


class TestNoSilentPromotion:
    """One float64 table or head weight left in the math would quietly turn
    the serving path back into float64."""

    def test_hidden_states_span_probabilities_and_verifier_logits_are_float32(
            self, monkeypatch):
        seen: dict[str, set] = {"encode": set(), "span": set(), "verifier": set()}

        def spy(key, fn, dtype_of):
            def wrapped(*args, **kwargs):
                out = fn(*args, **kwargs)
                seen[key].add(dtype_of(out))
                return out
            return wrapped

        monkeypatch.setattr(pipeline, "encode", spy("encode", pipeline.encode, lambda h: h.dtype))
        monkeypatch.setattr(heads, "span_probabilities",
                            spy("span", heads.span_probabilities,
                                lambda d: (d.prob_start.dtype, d.prob_end.dtype)))
        monkeypatch.setattr(heads, "verifier_logits",
                            spy("verifier", heads.verifier_logits, lambda x: x.dtype))
        model = small_model("float64")
        ex = EXAMPLES[0]
        infer_verdict(model, ex.question, ex.context)
        evaluate(EvaluationRequest(essay=ex.context, requirements=(ex.question,), model=model))
        predict_corpus(model, EXAMPLES[:3])
        select_zeta(model, EXAMPLES[:3])
        f32 = np.dtype(np.float32)
        assert seen == {"encode": {f32}, "span": {(f32, f32)}, "verifier": {f32}}


class TestOneServingPrecision:
    def test_every_path_gives_the_same_score_final(self, monkeypatch, tmp_path, capsys):
        model = small_model("float64")
        finals: dict[str, list[float]] = {}

        def record(verdicts):
            return [v.scores.score_final for v in verdicts]

        finals["infer_verdict"] = record(infer_verdict(model, ex.question, ex.context)
                                         for ex in EXAMPLES)
        finals["evaluate"] = [
            evaluate(EvaluationRequest(essay=ex.context, requirements=(ex.question,),
                                       model=model))[0].scores.score_final
            for ex in EXAMPLES]
        by_id = predict_corpus(model, EXAMPLES)
        finals["predict_corpus"] = record(by_id[ex.example_id] for ex in EXAMPLES)

        ckpt, corpus_file = tmp_path / "m.ckpt", tmp_path / "c.jsonl"
        save_model(model, str(ckpt))
        save_sed_format(EXAMPLES, str(corpus_file))
        assert cli_main(["predict", "--model", str(ckpt), "--corpus", str(corpus_file)]) == 0
        finals["cli"] = [json.loads(line)["score_final"]
                         for line in capsys.readouterr().out.splitlines()]

        inside: list[float] = []
        original = train.infer_verdicts

        def capture(*args):
            verdicts = original(*args)
            inside.extend(record(verdicts))
            return verdicts

        monkeypatch.setattr(train, "infer_verdicts", capture)
        select_zeta(model, EXAMPLES)
        finals["select_zeta"] = inside

        want = finals["infer_verdict"]
        assert len(set(want)) > 1
        for path, got in finals.items():
            assert got == want, path

    def test_master_weights_untouched(self, tmp_path):
        model = small_model("float64")
        params = model.params
        arrays = dict(params)
        copies = {name: arr.copy() for name, arr in params.items()}
        before, after = tmp_path / "before.ckpt", tmp_path / "after.ckpt"
        save_model(model, str(before))

        ex = EXAMPLES[0]
        infer_verdict(model, ex.question, ex.context)
        evaluate(EvaluationRequest(essay=ex.context, requirements=(ex.question,), model=model))
        predict_corpus(model, EXAMPLES)
        select_zeta(model, EXAMPLES)

        assert model.params is params and model.config.dtype == "float64"
        assert list(params) == list(copies)
        for name, arr in params.items():
            assert arr is arrays[name] and arr.dtype == np.float64, name
            assert np.array_equal(arr, copies[name]), name
        save_model(model, str(after))
        assert after.read_bytes() == before.read_bytes()

    @pytest.mark.parametrize("call", ["evaluate", "predict_corpus", "select_zeta"])
    def test_one_copy_per_call(self, monkeypatch, call):
        model = small_model("float64")
        copies = []
        original = pipeline.serving_model

        def counting(model):
            served = original(model)
            if served is not model:
                copies.append(model)
            return served

        monkeypatch.setattr(pipeline, "serving_model", counting)
        if call == "evaluate":
            essay = EXAMPLES[0].context
            evaluate(EvaluationRequest(essay=essay, model=model,
                                       requirements=tuple(ex.question for ex in EXAMPLES[:3])))
        elif call == "predict_corpus":
            predict_corpus(model, EXAMPLES)
        else:
            select_zeta(model, EXAMPLES)
        assert copies == [model]


LAYER = "layer0.attn.w_q"


def three_requirements(model):
    return EvaluationRequest(essay=EXAMPLES[0].context, model=model,
                             requirements=tuple(ex.question for ex in EXAMPLES[:3]))


class TestServingCache:
    """A float64 model is copied to float32 once and served from that copy
    while its tensors stay the same array objects."""

    def test_two_evaluate_calls_share_one_copy(self, monkeypatch):
        model = small_model("float64")
        seen = []  # the params dict of every encode() call
        original = pipeline.encode
        monkeypatch.setattr(pipeline, "encode", lambda seq, params, cfg: (
            seen.append(params) or original(seq, params, cfg)))
        first = evaluate(three_requirements(model))
        second = evaluate(three_requirements(model))
        assert first == second and len(seen) == 2  # one pack per request
        for name in model.params:
            assert seen[0][name].dtype == np.float32, name
            assert all(p[name] is seen[0][name] for p in seen), name

    @pytest.mark.parametrize("change", ["tensor", "dict"])
    def test_new_weights_are_served_at_once(self, change):
        model = small_model("float64")
        before = evaluate(three_requirements(model))
        old = serving_model(model).params[LAYER]
        new_w = model.params[LAYER] * -3.0
        if change == "tensor":
            model.params[LAYER] = new_w
        else:
            model.params = {**model.params, LAYER: new_w}
        served = serving_model(model)
        assert served.params[LAYER] is not old
        assert np.array_equal(served.params[LAYER], new_w.astype(np.float32))
        after = evaluate(three_requirements(model))
        assert after != before
        assert after == evaluate(three_requirements(replace(model, params=dict(model.params))))

    def test_zeta_and_betas_apply_without_a_new_copy(self):
        model = small_model("float64")
        layer = serving_model(model).params[LAYER]
        for zeta in (-1e9, 1e9):
            model.zeta = zeta
            verdicts = evaluate(three_requirements(model))
            assert all(v.scores.answered == (zeta > 0) for v in verdicts)
        model.rv_beta1, model.rv_beta2 = 0.25, 0.75
        served = serving_model(model)
        assert (served.zeta, served.rv_beta1, served.rv_beta2) == (1e9, 0.25, 0.75)
        assert served.params[LAYER] is layer

    def test_in_place_write_to_a_served_master_array_raises(self):
        model = small_model("float64")
        evaluate(three_requirements(model))
        with pytest.raises(ValueError, match="read-only"):
            model.params[LAYER][0, 0] = 1.0
        for name in ("verify.b", "tok_emb", "pos_emb"):
            with pytest.raises(ValueError, match="read-only"):
                model.params[name] += 1.0
        assert not any(arr.flags.writeable for arr in model.params.values())

    def test_replace_starts_without_the_cache(self):
        model = small_model("float64")
        layer = serving_model(model).params[LAYER]
        other = replace(model, zeta=model.zeta + 1.0)
        assert other._serving is None
        assert serving_model(other).params[LAYER] is not layer
        assert serving_model(model).params[LAYER] is layer


ESSAYS = list(dict.fromkeys(ex.context for ex in EXAMPLES))
# A pool of short contexts, contexts joined past the 512 cap and a question
# that leaves no room for the essay.  A joined context moves the gold span,
# so those entries drop their gold; verdicts read only question and context.
POOL = [*EXAMPLES,
        *(replace(ex, context=" ".join(ESSAYS[j:] + ESSAYS[:j] + ESSAYS),
                  answerable=False, gold_answers=())
          for j, ex in enumerate(EXAMPLES[:len(ESSAYS)])),
        replace(EXAMPLES[0], question=" ".join(ESSAYS * 3))]


@pytest.fixture(scope="module")
def packing_model():
    return small_model("float64")


def tau_of(model, ex):
    return assemble(qnorm.normalize(ex.question, model.rules), ex.context, VOCAB).tau


class TestPacking:
    """A request's sequences share one encoder pack; every verdict equals
    the one its pair gets alone."""

    def test_pool_covers_the_cap_and_an_oversized_question(self, packing_model):
        verdicts = [infer_verdict(packing_model, ex.question, ex.context) for ex in POOL]
        assert verdicts[-1].reason == OVERSIZED_QUESTION
        taus = [tau_of(packing_model, ex) for ex in POOL[:-1]]
        assert max(taus) == 512 and min(taus) < 100

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(0, len(POOL) - 1), min_size=1, max_size=10))
    def test_predict_corpus_equals_one_at_a_time(self, packing_model, picks):
        corpus = [replace(POOL[i], example_id=f"{j}-{POOL[i].example_id}")
                  for j, i in enumerate(picks)]
        by_id = predict_corpus(packing_model, corpus)
        assert list(by_id) == [ex.example_id for ex in corpus]
        for ex in corpus:
            assert by_id[ex.example_id] == infer_verdict(packing_model, ex.question, ex.context)

    def test_predict_corpus_refuses_a_repeated_id(self, packing_model):
        with pytest.raises(ValidationError, match=f"example_id '{EXAMPLES[1].example_id}'"):
            predict_corpus(packing_model, [EXAMPLES[1], EXAMPLES[0], EXAMPLES[1]])

    def test_evaluate_with_an_oversized_question_mid_pack(self, packing_model):
        essay = EXAMPLES[3].context
        requirements = (EXAMPLES[0].question, POOL[-1].question, EXAMPLES[5].question)
        verdicts = evaluate(EvaluationRequest(essay=essay, requirements=requirements,
                                              model=packing_model))
        assert verdicts[1].reason == OVERSIZED_QUESTION
        assert verdicts == [infer_verdict(packing_model, q, essay) for q in requirements]
        assert verdicts[0] == composed_verdict(serving_model(packing_model),
                                               replace(EXAMPLES[0], context=essay,
                                                       answerable=False, gold_answers=()))

    def test_packs_straddle_the_row_cap_in_order(self, monkeypatch, packing_model):
        rows = []  # rows of every encode() call
        original = pipeline.encode
        monkeypatch.setattr(pipeline, "encode", lambda seqs, params, cfg: (
            rows.append(sum(s.tau for s in seqs)) or original(seqs, params, cfg)))
        corpus = [replace(ex, example_id=str(j)) for j, ex in enumerate(POOL[12:16] + POOL[:4])]
        taus = [tau_of(packing_model, ex) for ex in corpus]
        assert taus[:4] == [512] * 4 and pipeline._PACK_ROWS == 1024
        by_id = predict_corpus(packing_model, corpus)
        assert rows == [1024, 1024, sum(taus[4:])]
        monkeypatch.setattr(pipeline, "encode", original)
        assert list(by_id.values()) == [infer_verdict(packing_model, ex.question, ex.context)
                                        for ex in corpus]

    def test_float64_model_serves_the_verdicts_of_its_float32_cast(self, packing_model):
        cast = replace(packing_model,
                       config=replace(packing_model.config, dtype="float32"),
                       params={k: v.astype(np.float32) for k, v in packing_model.params.items()})
        pairs = [(ex.question, ex.context) for ex in POOL]
        assert pipeline.infer_verdicts(packing_model, pairs) == pipeline.infer_verdicts(cast, pairs)

    def test_select_zeta_encodes_its_dev_split_in_packs(self, monkeypatch, packing_model):
        calls = []
        original = pipeline.encode
        monkeypatch.setattr(pipeline, "encode", lambda seqs, params, cfg: (
            calls.append(len(seqs)) or original(seqs, params, cfg)))
        dev = EXAMPLES[:8]
        assert sum(tau_of(packing_model, ex) for ex in dev) <= pipeline._PACK_ROWS
        select_zeta(packing_model, dev)
        assert calls == [len(dev)]
