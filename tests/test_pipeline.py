"""End-to-end evaluate() on a trained desk model, and the CLI surface."""

import json
import subprocess
import sys

import numpy as np
import pytest

from essayqa import qnorm, seqbuild
from essayqa.checkpoint import save_model
from essayqa.corpus import QAExample, save_sed_format
from essayqa.errors import ValidationError
from essayqa.evalharness import PlanStage, evaluate_model, predict_corpus
from essayqa.model import new_model
from essayqa.pipeline import EvaluationRequest, evaluate, infer_verdict
from essayqa.seqbuild import Vocabulary, assemble, build_vocab
from essayqa.synthetic import SyntheticConfig, generate_synthetic
from essayqa.train import Stage, TrainConfig, multi_stage_train
from recipes import FIXTURE, PROBES, synthetic


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A small but genuinely trained model over the domain bank (measured
    held-out quality at these exact seeds: acc 0.865, overlap F1 0.771)."""
    model, train_set = FIXTURE.fit()
    path = tmp_path_factory.mktemp("model") / "desk.ckpt"
    save_model(model, str(path))
    return model, str(path), train_set


class TestEvaluate:
    def test_detects_matching_requirement(self, trained):
        # in-sample probes: the wiring test; held-out quality is gated by the
        # acceptance suite on the full-size training run
        model, _, train_set = trained
        answerable = [ex for ex in train_set if ex.answerable][:PROBES]
        hits = 0
        for ex in answerable:
            verdict = infer_verdict(model, ex.question, ex.context)
            if verdict.answered:
                hits += 1
                assert verdict.span.text in ex.context
        assert hits >= len(answerable) * 0.8

    def test_verdicts_in_requirement_order_with_scores(self, trained):
        model, _, _ = trained
        probe = generate_synthetic(SyntheticConfig(count=3, answerable_ratio=1.0,
                                                   seed=78))
        essay = probe[0].context
        requirements = tuple(ex.question for ex in probe[:3])
        verdicts = evaluate(EvaluationRequest(essay=essay, requirements=requirements,
                                              model=model))
        assert len(verdicts) == 3
        for v in verdicts:
            assert np.isfinite(v.scores.score_final)
            assert v.scores.score_diff == pytest.approx(
                v.scores.score_null - v.scores.score_has, abs=1e-12)

    def test_empty_requirements_rejected(self, trained):
        model, _, _ = trained
        with pytest.raises(ValidationError):
            evaluate(EvaluationRequest(essay="Some essay.", requirements=(),
                                       model=model))

    def test_empty_essay_rejected(self, trained):
        model, _, _ = trained
        with pytest.raises(ValidationError):
            evaluate(EvaluationRequest(essay="   ", requirements=("why",),
                                       model=model))

    @pytest.mark.parametrize("essay, requirements", [
        ("   ", ("why",)), ("Some essay.", ()), ("Some essay.", ("why", " ")),
    ])
    def test_bad_request_refused_when_built(self, essay, requirements):
        with pytest.raises(ValidationError):
            EvaluationRequest(essay=essay, requirements=requirements, model=None)

    def test_oversized_question_gets_its_own_verdict(self, trained):
        model, _, _ = trained
        probe = generate_synthetic(SyntheticConfig(count=3, answerable_ratio=1.0,
                                                   seed=80))
        essay = probe[0].context
        requirements = (probe[0].question, " ".join(["what"] * 600), probe[1].question)
        verdicts = evaluate(EvaluationRequest(essay=essay, requirements=requirements,
                                              model=model))
        assert len(verdicts) == 3
        assert verdicts[1].reason == "oversized_question" and verdicts[1].scores is None
        for i in (0, 2):
            single = evaluate(EvaluationRequest(essay=essay, requirements=(requirements[i],),
                                                model=model))
            assert verdicts[i] == single[0]

    def test_deterministic(self, trained):
        model, _, _ = trained
        probe = generate_synthetic(SyntheticConfig(count=3, answerable_ratio=1.0,
                                                   seed=79))
        request = EvaluationRequest(essay=probe[0].context,
                                    requirements=(probe[0].question,), model=model)
        a = evaluate(request)
        b = evaluate(request)
        assert a == b

    def test_batch_equals_single_calls(self, trained):
        model, _, _ = trained
        probe = generate_synthetic(SyntheticConfig(count=3, answerable_ratio=1.0,
                                                   seed=80))
        essay = probe[0].context
        reqs = tuple(ex.question for ex in probe)
        batch = evaluate(EvaluationRequest(essay=essay, requirements=reqs, model=model))
        singles = [
            evaluate(EvaluationRequest(essay=essay, requirements=(r,), model=model))[0]
            for r in reqs
        ]
        assert batch == singles


class TestEvaluateTokenizesOnce:
    """evaluate() reuses one essay tokenization across requirements; the
    sequences must equal independent assemble() calls on a cold vocabulary."""

    def _captured(self, monkeypatch, request):
        built = []

        def recording(*args, **kwargs):
            seq = assemble(*args, **kwargs)
            built.append(seq)
            return seq

        monkeypatch.setattr(seqbuild, "assemble", recording)
        verdicts = evaluate(request)
        assert len(verdicts) == len(request.requirements) == len(built)
        return built

    def _independent(self, request, max_len):
        model = request.model
        return [
            assemble(qnorm.normalize(req, model.rules), request.essay,
                     Vocabulary(model.vocab.terms), max_len=max_len)
            for req in request.requirements
        ]

    @pytest.mark.parametrize("max_len", [512, 80])
    def test_three_requirements_match_independent_assembly(self, monkeypatch, max_len):
        probe = generate_synthetic(SyntheticConfig(count=3, answerable_ratio=1.0,
                                                   seed=81))
        texts = [t for ex in probe for t in (ex.question, ex.context)]
        model = new_model(build_vocab(texts, size=300), seed=0, max_len=max_len)
        essay = probe[0].context
        long_question = "What will you do " + " ".join(["in the summer"] * 3) + " ?"
        request = EvaluationRequest(
            essay=essay, requirements=(probe[0].question, long_question, probe[1].question),
            model=model)
        tokenized = []
        real_token_columns = seqbuild._token_columns

        def counting(text, vocab):
            tokenized.append(text)
            return real_token_columns(text, vocab)

        monkeypatch.setattr(seqbuild, "_token_columns", counting)
        built = self._captured(monkeypatch, request)
        assert tokenized.count(essay) == 1
        monkeypatch.undo()
        expected = self._independent(request, max_len)
        for got, want in zip(built, expected):
            assert got == want
        if max_len == 80:
            # only the long question leaves too few slots for the whole essay
            assert [seq.truncated for seq in built] == [False, True, False]
            assert built[1].tau == 80


def run_cli(args, **kwargs):
    from essayqa.cli import cli_main

    return cli_main(args)


class TestCli:
    def test_unknown_subcommand_exits_2(self, capsys):
        assert run_cli(["frobnicate"]) == 2
        capsys.readouterr()

    def test_missing_required_flag_exits_2(self, capsys):
        assert run_cli(["normalize"]) == 2
        capsys.readouterr()

    def test_normalize_stdout(self, tmp_path, capsys):
        qfile = tmp_path / "q.txt"
        qfile.write_text("remind Sally where you arranged to meet\n"
                         "What will you do in the summer vacation ?\n",
                         encoding="utf-8")
        assert run_cli(["normalize", "--in", str(qfile)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == ["Where I arranged to meet",
                       "What will I do in the summer vacation ?"]

    def test_normalize_with_rules_file(self, tmp_path, capsys):
        qfile = tmp_path / "q.txt"
        qfile.write_text("tell us if we agree\n", encoding="utf-8")
        rules = tmp_path / "r.rules"
        rules.write_text("[pronouns]\nwe -> they\n[question_words]\nif\n",
                         encoding="utf-8")
        assert run_cli(["normalize", "--rules", str(rules), "--in", str(qfile)]) == 0
        assert capsys.readouterr().out.splitlines() == ["If they agree"]

    def test_generate_ingest_stats_round_trip(self, tmp_path, capsys):
        out = tmp_path / "syn.jsonl"
        assert run_cli(["generate", "--count", "60", "--seed", "3",
                        "--out", str(out)]) == 0
        reingested = tmp_path / "again.jsonl"
        assert run_cli(["ingest", "--in", str(out), "--out", str(reingested)]) == 0
        hist = tmp_path / "hist.csv"
        assert run_cli(["stats", "--in", str(out), "--out", str(hist)]) == 0
        text = capsys.readouterr().out
        assert "examples: 60" in text
        assert hist.read_text(encoding="utf-8").startswith("bin_start,bin_end,count")

    def test_stats_missing_file_exits_1(self, capsys):
        assert run_cli(["stats", "--in", "/nonexistent/file.jsonl"]) == 1
        capsys.readouterr()

    def test_build_vocab(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("the cat sat on the mat\n", encoding="utf-8")
        out = tmp_path / "vocab.txt"
        assert run_cli(["build-vocab", "--in", str(corpus), "--size", "50",
                        "--out", str(out)]) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[:4] == ["[CLS]", "[SEP]", "[UNK]", "[PAD]"]
        capsys.readouterr()

    def test_predict_essay_round_trip(self, trained, tmp_path, capsys):
        model, ckpt, _ = trained
        probe = generate_synthetic(SyntheticConfig(count=3, answerable_ratio=1.0,
                                                   seed=81))
        essay_file = tmp_path / "essay.txt"
        essay_file.write_text(probe[0].context, encoding="utf-8")
        req_file = tmp_path / "reqs.txt"
        req_file.write_text("\n".join(ex.question for ex in probe), encoding="utf-8")
        assert run_cli(["predict", "--model", ckpt, "--essay", str(essay_file),
                        "--requirements", str(req_file)]) == 0
        records = [json.loads(line) for line in
                   capsys.readouterr().out.strip().splitlines()]
        assert len(records) == 3
        assert records[0]["question_id"] == "q1"
        expected = evaluate(EvaluationRequest(
            essay=probe[0].context,
            requirements=tuple(ex.question for ex in probe), model=model))
        for rec, verdict in zip(records, expected):
            assert rec["answered"] == verdict.answered
            assert rec["score_final"] == pytest.approx(verdict.scores.score_final)

    def test_predict_corpus_and_eval(self, trained, tmp_path, capsys):
        _, ckpt, _ = trained
        gold_file = tmp_path / "gold.jsonl"
        assert run_cli(["generate", "--count", "30", "--seed", "82",
                        "--out", str(gold_file)]) == 0
        capsys.readouterr()
        assert run_cli(["predict", "--model", ckpt, "--corpus", str(gold_file)]) == 0
        pred_lines = capsys.readouterr().out
        pred_file = tmp_path / "pred.jsonl"
        pred_file.write_text(pred_lines, encoding="utf-8")
        assert run_cli(["eval", "--pred", str(pred_file), "--gold", str(gold_file)]) == 0
        out = capsys.readouterr().out
        assert "accuracy:" in out and "mean overlap F1:" in out

    def test_predict_corpus_leaves_essay_id_null(self, trained, tmp_path, capsys):
        # a corpus record names no essay; ids like syn-domain-0-000004 must
        # not be cut into a made-up essay_id shared across essays
        _, ckpt, _ = trained
        corpus = generate_synthetic(SyntheticConfig(count=6, seed=87))
        assert len({ex.context for ex in corpus}) == 2
        gold_file = tmp_path / "gold.jsonl"
        save_sed_format(corpus, str(gold_file))
        assert run_cli(["predict", "--model", ckpt, "--corpus", str(gold_file)]) == 0
        records = [json.loads(line) for line in
                   capsys.readouterr().out.strip().splitlines()]
        assert [rec["question_id"] for rec in records] == [ex.example_id for ex in corpus]
        assert [rec["essay_id"] for rec in records] == [None] * 6

    def test_predict_oversized_question_has_no_score(self, trained, tmp_path, capsys):
        model, ckpt, _ = trained
        probe = generate_synthetic(SyntheticConfig(count=1, seed=88))[0]
        huge = QAExample("huge", " ".join(["what"] * 600), probe.context, False, ())
        verdicts = predict_corpus(model, [probe, huge])
        assert verdicts["huge"].scores is None and not verdicts["huge"].answered
        assert verdicts[probe.example_id].scores is not None

        gold_file = tmp_path / "gold.jsonl"
        save_sed_format([probe, huge], str(gold_file))
        assert run_cli(["predict", "--model", ckpt, "--corpus", str(gold_file)]) == 0
        records = [json.loads(line) for line in
                   capsys.readouterr().out.strip().splitlines()]
        assert records[1]["answered"] is False and records[1]["score_final"] is None
        assert isinstance(records[0]["score_final"], float)
        assert run_cli(["predict", "--model", ckpt, "--corpus", str(gold_file),
                        "--pretty"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[1] == "huge: not answered (score_final=n/a)"
        assert "score_final=n/a" not in lines[0]

    def test_predict_essay_oversized_requirement_gets_its_record(self, trained, tmp_path,
                                                                   capsys):
        model, ckpt, _ = trained
        probe = generate_synthetic(SyntheticConfig(count=3, answerable_ratio=1.0,
                                                   seed=81))
        essay_file = tmp_path / "essay.txt"
        essay_file.write_text(probe[0].context, encoding="utf-8")
        req_file = tmp_path / "reqs.txt"
        req_file.write_text("\n".join([probe[0].question, " ".join(["what"] * 600),
                                       probe[1].question]), encoding="utf-8")
        argv = ["predict", "--model", ckpt, "--essay", str(essay_file),
                "--requirements", str(req_file)]
        assert run_cli(argv) == 0
        records = [json.loads(line) for line in
                   capsys.readouterr().out.strip().splitlines()]
        assert [rec["question_id"] for rec in records] == ["q1", "q2", "q3"]
        assert records[1]["reason"] == "oversized_question"
        assert records[1]["answered"] is False and records[1]["score_final"] is None
        assert all(isinstance(records[i]["score_final"], float) for i in (0, 2))
        assert run_cli(argv + ["--pretty"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[1] == "q2: not answered (score_final=n/a)"

    @pytest.mark.parametrize("flag", ["--paper-literal-threshold", "--paper-literal-region"])
    def test_removed_verdict_flags_exit_2(self, trained, tmp_path, capsys, flag):
        _, ckpt, _ = trained
        gold_file = tmp_path / "gold.jsonl"
        save_sed_format(generate_synthetic(SyntheticConfig(count=3, seed=89)), str(gold_file))
        assert run_cli(["predict", "--model", ckpt, "--corpus", str(gold_file), flag]) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("command", ["train", "predict"])
    @pytest.mark.parametrize("flag, value, field", [
        ("--zeta", "nan", "zeta"), ("--beta1", "inf", "rv_beta1"), ("--beta2", "-inf", "rv_beta2"),
    ])
    def test_non_finite_verification_flag_exits_1(self, tmp_path, capsys, command, flag,
                                                  value, field):
        corpus = generate_synthetic(SyntheticConfig(count=6, seed=87))
        corpus_file = tmp_path / "corpus.jsonl"
        save_sed_format(corpus, str(corpus_file))
        ckpt = tmp_path / "m.ckpt"
        if command == "predict":
            vocab = build_vocab([t for ex in corpus for t in (ex.question, ex.context)])
            save_model(new_model(vocab, layers=1, d_model=8, heads=2, ffn_inner=8), str(ckpt))
            argv = ["predict", "--model", str(ckpt), "--corpus", str(corpus_file)]
        else:
            argv = ["train", "--corpus", str(corpus_file), "--out", str(ckpt)]
        assert run_cli(argv + [f"{flag}={value}"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {field} must be finite, not {value}\n"
        assert ckpt.exists() == (command == "predict")

    def test_train_subcommand_produces_usable_checkpoint(self, tmp_path, capsys):
        train_file = tmp_path / "train.jsonl"
        dev_file = tmp_path / "dev.jsonl"
        run_cli(["generate", "--count", "120", "--seed", "5", "--out", str(train_file)])
        run_cli(["generate", "--count", "40", "--seed", "6", "--out", str(dev_file)])
        ckpt = tmp_path / "model.ckpt"
        loss_csv = tmp_path / "loss.csv"
        assert run_cli(["train", "--corpus", str(train_file), "--dev", str(dev_file),
                        "--epochs", "2", "--out", str(ckpt),
                        "--loss-csv", str(loss_csv)]) == 0
        out = capsys.readouterr().out
        assert "trained 120 examples" in out
        lines = loss_csv.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "epoch,mean_loss"
        assert len(lines) == 3
        # fresh checkpoint drives predict
        assert run_cli(["predict", "--model", str(ckpt), "--corpus",
                        str(dev_file)]) == 0
        records = [json.loads(line) for line in
                   capsys.readouterr().out.strip().splitlines()]
        assert len(records) == 40

    def test_train_defaults_are_the_library_defaults(self, tmp_path, capsys):
        corpus = generate_synthetic(SyntheticConfig(count=40, seed=12))
        corpus_file = tmp_path / "train.jsonl"
        save_sed_format(corpus, str(corpus_file))
        ckpt = tmp_path / "cli.ckpt"
        assert run_cli(["train", "--corpus", str(corpus_file), "--out", str(ckpt)]) == 0
        capsys.readouterr()

        vocab = build_vocab([t for ex in corpus for t in (ex.question, ex.context)])
        stage = Stage(name="train", corpus=corpus, dev_fraction=PlanStage.dev_fraction)
        model, infos = multi_stage_train(new_model(vocab, seed=0), [stage], TrainConfig())
        assert infos[0].dev_size == 4
        library = tmp_path / "library.ckpt"
        save_model(model, str(library))
        assert ckpt.read_bytes() == library.read_bytes()

    def test_eval_subword_unit_with_vocab(self, trained, tmp_path, capsys):
        model, ckpt, _ = trained
        gold_file = tmp_path / "gold.jsonl"
        run_cli(["generate", "--count", "12", "--seed", "86", "--out", str(gold_file)])
        capsys.readouterr()
        run_cli(["predict", "--model", ckpt, "--corpus", str(gold_file)])
        pred_file = tmp_path / "pred.jsonl"
        pred_file.write_text(capsys.readouterr().out, encoding="utf-8")
        vocab_file = tmp_path / "vocab.txt"
        model.vocab.save(str(vocab_file))
        assert run_cli(["eval", "--pred", str(pred_file), "--gold", str(gold_file),
                        "--overlap-unit", "subword", "--vocab", str(vocab_file)]) == 0
        assert "mean overlap F1:" in capsys.readouterr().out

    def test_predict_env_var_model(self, trained, tmp_path, capsys, monkeypatch):
        _, ckpt, _ = trained
        monkeypatch.setenv("ESSAYQA_MODEL", ckpt)
        gold_file = tmp_path / "gold.jsonl"
        run_cli(["generate", "--count", "6", "--seed", "83", "--out", str(gold_file)])
        capsys.readouterr()
        assert run_cli(["predict", "--corpus", str(gold_file)]) == 0
        capsys.readouterr()

    def test_predict_vocab_mismatch_exits_1(self, trained, tmp_path, capsys):
        _, ckpt, _ = trained
        other_vocab = tmp_path / "other.txt"
        build_vocab(["completely different corpus text"], size=40).save(str(other_vocab))
        gold_file = tmp_path / "gold.jsonl"
        run_cli(["generate", "--count", "6", "--seed", "84", "--out", str(gold_file)])
        capsys.readouterr()
        assert run_cli(["predict", "--model", ckpt, "--vocab", str(other_vocab),
                        "--corpus", str(gold_file)]) == 1
        capsys.readouterr()

    def test_seeded_outputs_bit_reproducible(self, tmp_path):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        run_cli(["generate", "--count", "40", "--seed", "9", "--out", str(a)])
        run_cli(["generate", "--count", "40", "--seed", "9", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_console_entry_point_usage_error(self):
        proc = subprocess.run(
            [sys.executable, "-m", "essayqa.cli"],
            input="", capture_output=True, text=True,
        )
        assert proc.returncode == 2

    def test_console_entry_point_help(self):
        proc = subprocess.run(
            [sys.executable, "-m", "essayqa.cli", "--help"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        for cmd in ("normalize", "build-vocab", "ingest", "stats", "train",
                    "experiment", "eval", "predict"):
            assert cmd in proc.stdout


# Latin-1 "é": a byte that cannot start a UTF-8 character.
NOT_UTF8 = "caf\xe9 au lait\n".encode("latin-1")


class TestNonUtf8Input:
    """Every file a command reads exits 1 with ``error: <file>: ...`` when it is
    not UTF-8, and ``error: <file>:<line>: ...`` for a JSON-lines file."""

    @pytest.fixture
    def paths(self, tmp_path):
        corpus = generate_synthetic(SyntheticConfig(count=3, seed=1))
        save_sed_format(corpus, str(tmp_path / "ok.jsonl"))
        vocab = build_vocab([t for ex in corpus for t in (ex.question, ex.context)])
        save_model(new_model(vocab, layers=1, d_model=8, heads=2, ffn_inner=8),
                   str(tmp_path / "m.ckpt"))
        (tmp_path / "ok.txt").write_text("what do you like\n", encoding="utf-8")
        (tmp_path / "bad.txt").write_bytes(NOT_UTF8)
        (tmp_path / "bad.json").write_bytes(NOT_UTF8)
        # line 1 is blank, so every reader reaches line 2
        (tmp_path / "bad.jsonl").write_bytes(b'\n{"question": "' + NOT_UTF8[:5] + b'"}\n')
        return {name: str(tmp_path / name) for name in
                ("ok.jsonl", "m.ckpt", "ok.txt", "bad.txt", "bad.json", "bad.jsonl", "out")}

    @pytest.mark.parametrize("argv, where", [
        (["normalize", "--in", "bad.txt"], "bad.txt"),
        (["normalize", "--rules", "bad.txt", "--in", "ok.txt"], "bad.txt"),
        (["build-vocab", "--in", "bad.txt", "--out", "out"], "bad.txt"),
        (["ingest", "--in", "bad.jsonl", "--out", "out"], "bad.jsonl:2"),
        (["ingest", "--in", "bad.json", "--out", "out"], "bad.json"),
        (["train", "--corpus", "bad.jsonl", "--out", "out"], "bad.jsonl:2"),
        (["experiment", "--plan", "bad.json"], "bad.json"),
        (["eval", "--pred", "bad.jsonl", "--gold", "ok.jsonl"], "bad.jsonl:2"),
        (["predict", "--model", "m.ckpt", "--essay", "bad.txt", "--requirements", "ok.txt"],
         "bad.txt"),
        (["predict", "--model", "m.ckpt", "--essay", "ok.txt", "--requirements", "bad.txt"],
         "bad.txt"),
        (["predict", "--model", "m.ckpt", "--vocab", "bad.txt", "--corpus", "ok.jsonl"],
         "bad.txt"),
    ], ids=["normalize", "rules", "build-vocab", "ingest-jsonl", "ingest-squad", "train",
            "plan", "eval", "essay", "requirements", "vocab"])
    def test_exits_1_naming_the_file(self, paths, capsys, argv, where):
        name, _, line = where.partition(":")
        assert run_cli([paths.get(arg, arg) for arg in argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        prefix = f"{paths[name]}:{line}" if line else paths[name]
        assert captured.err.startswith(f"error: {prefix}: not UTF-8 text")


class TestTrainedQuality:
    def test_held_out_quality_smoke(self, trained):
        model, _, _ = trained
        held_out = synthetic(*FIXTURE.test)
        result = evaluate_model(model, held_out)
        assert result.accuracy >= 0.80
        assert result.mean_overlap_f1 >= 0.70
