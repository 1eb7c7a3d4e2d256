"""Serving precision: every verdict is computed in float32, from a float32
cast of every tensor of a float64 model, and the float64 master model is
never changed."""

import json
import os
import signal
import subprocess
import sys
import threading
import time
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
        rows, seen = [], []  # rows of every encode() call; pair indices of every pack
        original_encode, original_pack = pipeline.encode, pipeline._verdict_pack
        monkeypatch.setattr(pipeline, "encode", lambda seqs, params, cfg: (
            rows.append(sum(s.tau for s in seqs)) or original_encode(seqs, params, cfg)))
        monkeypatch.setattr(pipeline, "_verdict_pack", lambda model, pack: (
            seen.append([i for i, _, _ in pack]) or original_pack(model, pack)))
        corpus = [replace(ex, example_id=str(j)) for j, ex in enumerate(POOL[12:16] + POOL[:4])]
        taus = [tau_of(packing_model, ex) for ex in corpus]
        assert taus[:4] == [512] * 4 and pipeline._PACK_ROWS == 1024
        assert sum(taus[4:]) <= 512
        want = [infer_verdict(packing_model, ex.question, ex.context) for ex in corpus]
        # One worker cuts packs at _PACK_ROWS rows, two at half of it each.
        for workers, packs in ((1, [[0, 1], [2, 3], [4, 5, 6, 7]]),
                               (2, [[0], [1], [2], [3], [4, 5, 6, 7]])):
            monkeypatch.setattr(pipeline, "_pack_workers", lambda: workers)
            rows.clear()
            seen.clear()
            cap = pipeline._PACK_ROWS // workers
            by_id = predict_corpus(packing_model, corpus)
            # Workers finish in any order, so packs are compared by first pair index.
            assert sorted(seen) == packs
            pack_rows = [sum(taus[i] for i in pack) for pack in packs]
            assert sorted(rows) == sorted(pack_rows) and max(pack_rows) == cap
            for pack, nxt in zip(packs, packs[1:]):
                assert sum(taus[i] for i in pack) + taus[nxt[0]] > cap  # cut at the cap
            assert list(by_id.values()) == want

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
        taus = [tau_of(packing_model, ex) for ex in dev]
        assert sum(taus) <= pipeline._PACK_ROWS
        assert sum(taus[:6]) <= pipeline._PACK_ROWS // 2 < sum(taus[:7])
        for workers, sizes in ((1, [8]), (2, [6, 2])):
            monkeypatch.setattr(pipeline, "_pack_workers", lambda: workers)
            calls.clear()
            select_zeta(packing_model, dev)
            assert sorted(calls, reverse=True) == sizes


# Long and short pairs with an oversized question in mid-stream (index 9);
# the seven short contexts after the first long one cross a 512-row cap, and
# with it they cross the 1024-row one.
POOL_CORPUS = [POOL[i] for i in (12, 0, 1, 2, 3, 4, 5, 6, 13, 16, 14, 7, 8, 9, 10, 11, 15)]


def pairs_of(examples):
    return [(ex.question, ex.context) for ex in examples]


class TestPackPool:
    """With two workers (numpy's OpenBLAS on one thread and two CPUs) the
    packs of one call run on a private pool; the verdicts are the serial ones."""

    def serve(self, monkeypatch, model, pairs, workers):
        monkeypatch.setattr(pipeline, "_pack_workers", lambda: workers)
        threads = []  # thread of every encode() call
        original = pipeline.encode
        monkeypatch.setattr(pipeline, "encode", lambda seqs, params, cfg: (
            threads.append(threading.current_thread().name) or original(seqs, params, cfg)))
        verdicts = pipeline.infer_verdicts(model, pairs)
        monkeypatch.setattr(pipeline, "encode", original)
        return verdicts, threads

    def test_pooled_verdicts_equal_serial_in_pair_order(self, monkeypatch, packing_model):
        pairs = pairs_of(POOL_CORPUS)
        taus = [tau_of(packing_model, ex) for ex in POOL_CORPUS if ex is not POOL[16]]
        assert taus[0] == 512 and sum(taus[1:8]) > 512 and taus[0] + sum(taus[1:8]) > 1024
        pooled, threads = self.serve(monkeypatch, packing_model, pairs, 2)
        serial, serial_threads = self.serve(monkeypatch, packing_model, pairs, 1)
        assert pooled == serial
        assert pooled[9].reason == OVERSIZED_QUESTION
        assert all(v.scores is not None for i, v in enumerate(pooled) if i != 9)
        assert len(threads) == 7 and all(t.startswith("essayqa-pack") for t in threads)
        assert serial_threads == [threading.current_thread().name] * 4
        assert pooled == [infer_verdict(packing_model, q, e) for q, e in pairs]

    def test_a_call_of_one_pack_runs_on_the_caller(self, monkeypatch, packing_model):
        _, threads = self.serve(monkeypatch, packing_model,
                                [(ex.question, EXAMPLES[0].context) for ex in EXAMPLES[:3]], 2)
        assert threads == [threading.current_thread().name]

    def test_a_failing_pack_raises_after_every_submitted_pack_finished(
            self, monkeypatch, packing_model):
        monkeypatch.setattr(pipeline, "_pack_workers", lambda: 2)
        events, lock = [], threading.Lock()
        original = pipeline._verdict_pack

        def slow_or_failing(model, pack):
            first = pack[0][0]
            with lock:
                events.append(("start", first))
            if first == 0:
                raise RuntimeError("pack 0 failed")
            time.sleep(0.05)
            result = original(model, pack)
            with lock:
                events.append(("end", first))
            return result

        monkeypatch.setattr(pipeline, "_verdict_pack", slow_or_failing)
        with pytest.raises(RuntimeError, match="pack 0 failed"):
            pipeline.infer_verdicts(packing_model, pairs_of(POOL[12:16] * 3))
        with lock:
            at_raise = list(events)
        started = {first for kind, first in at_raise if kind == "start"}
        ended = {first for kind, first in at_raise if kind == "end"}
        assert len(started) > 2 and ended == started - {0}
        time.sleep(0.2)
        assert events == at_raise  # nothing ran on after the call returned

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_forked_child_serves_on_a_pool_of_its_own(self, monkeypatch, packing_model):
        monkeypatch.setattr(pipeline, "_pack_workers", lambda: 2)
        pairs = pairs_of(POOL[12:16] + POOL[:4])
        want = pipeline.infer_verdicts(packing_model, pairs)
        assert pipeline._pool is not None  # live workers in this process
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                code = 0 if pipeline.infer_verdicts(packing_model, pairs) == want else 2
            finally:
                os._exit(code)
        deadline = time.monotonic() + 30
        while (done := os.waitpid(pid, os.WNOHANG))[0] == 0:
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail("the forked child hung in infer_verdicts")
            time.sleep(0.05)
        assert os.waitstatus_to_exitcode(done[1]) == 0


# Serves a corpus of several packs as the host's BLAS setting allows, then
# serially, and reports whether the pool ran and the verdicts agree.
POOL_PROBE = """
import json, os, threading
from essayqa import pipeline, seqbuild
from essayqa.model import new_model
from essayqa.synthetic import SyntheticConfig, generate_synthetic
examples = generate_synthetic(SyntheticConfig(count=24, seed=8, bank="general"))
vocab = seqbuild.build_vocab([t for ex in examples for t in (ex.question, ex.context)])
model = new_model(vocab, layers=1, d_model=16, heads=2, ffn_inner=32)
essays = [ex.context for ex in examples]
pairs = [(ex.question, " ".join(essays[i:i + 6])) for i, ex in enumerate(examples)]
threads = set()
original = pipeline.encode
pipeline.encode = lambda seqs, params, cfg: (
    threads.add(threading.current_thread().name) or original(seqs, params, cfg))
workers = pipeline._pack_workers()
served = pipeline.infer_verdicts(model, pairs)
pool = pipeline._pool
pipeline._pack_workers = lambda: 1
print(json.dumps({
    "blas_threads": pipeline._openblas_get_num_threads()(),
    "cpus": len(os.sched_getaffinity(0)),
    "workers": workers,
    "pool_threads": None if pool is None else len(pool._threads),
    "encode_threads": sorted(threads),
    "equal": served == pipeline.infer_verdicts(model, pairs),
}))
"""

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


@pytest.mark.skipif(pipeline._openblas_get_num_threads() is None or
                    not hasattr(os, "sched_getaffinity"),
                    reason="numpy without its bundled OpenBLAS, or no CPU affinity")
@pytest.mark.parametrize("one_thread", [True, False], ids=["blas-1-thread", "blas-default"])
def test_the_pool_runs_only_while_blas_has_one_thread(one_thread):
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"),
        env.get("PYTHONPATH")]))
    if one_thread:
        env["OPENBLAS_NUM_THREADS"] = "1"
    proc = subprocess.run([sys.executable, "-c", POOL_PROBE], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    got = json.loads(proc.stdout)
    assert got["equal"]
    pooled = got["blas_threads"] == 1 and got["cpus"] >= 2
    assert got["workers"] == (2 if pooled else 1)
    if one_thread:
        assert got["blas_threads"] == 1
    if pooled:
        assert got["pool_threads"] == 2
        assert all(name.startswith("essayqa-pack") for name in got["encode_threads"])
    else:
        assert got["pool_threads"] is None
        assert got["encode_threads"] == ["MainThread"]
