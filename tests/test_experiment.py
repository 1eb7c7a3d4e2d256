"""Experiment plans: parsing, validation order, determinism, and reports."""

import json
import os

import pytest

from essayqa.errors import PlanError
from essayqa.evalharness import (
    ExperimentPlan,
    PlanStage,
    load_plan,
    resolve_corpus,
    run_experiment,
)
from essayqa.model import new_model
from essayqa.seqbuild import build_vocab
from essayqa.train import Stage, TrainConfig, multi_stage_train


def tiny_plan(tmp_path, stage_counts=(200,), eval_count=80, epochs=2):
    stages = [
        PlanStage(
            name=f"s{i}",
            corpus={"synthetic": {"count": n, "answerable_ratio": 0.6,
                                  "seed": 50 + i, "bank": "domain"}},
            epochs=epochs,
            dev={"synthetic": {"count": 40, "answerable_ratio": 0.6,
                               "seed": 90 + i, "bank": "domain"}},
        )
        for i, n in enumerate(stage_counts)
    ]
    return ExperimentPlan(
        stages=stages,
        eval_corpus={"synthetic": {"count": eval_count, "answerable_ratio": 0.6,
                                   "seed": 99, "bank": "domain"}},
        seed=5,
        model={"layers": 2, "d_model": 32, "heads": 4, "ffn_inner": 64},
        train={"batch_size": 16, "learning_rate": 2e-3},
        vocab={"size": 4000},
    )


class TestPlanFile:
    def test_load_plan_round_trip(self, tmp_path):
        plan_obj = {
            "seed": 3,
            "model": {"d_model": 32},
            "train": {"batch_size": 8},
            "stages": [
                {"name": "a", "corpus": "a.jsonl", "epochs": 1},
                {"name": "b", "corpus": "b.jsonl", "learning_rate": 5e-4},
            ],
            "eval_corpus": "test.jsonl",
        }
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan_obj), encoding="utf-8")
        plan = load_plan(str(path))
        assert [s.name for s in plan.stages] == ["a", "b"]
        assert plan.stages[1].learning_rate == 5e-4
        assert plan.seed == 3

    def test_malformed_plan(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text("{\"stages\": [{\"bogus\": 1}]}", encoding="utf-8")
        with pytest.raises(PlanError):
            load_plan(str(path))

    @pytest.mark.parametrize("section, key", [
        ("train", "adam_epsilon"),
        ("train", "adam_eps"),
        ("train", "w_span"),
        ("train", "seed"),
        ("model", "d_modle"),
        ("model", "seed"),
        ("model", "vocab_size"),
    ])
    def test_unknown_config_key_rejected(self, tmp_path, section, key):
        plan_obj = {
            section: {key: 1},
            "stages": [{"name": "a", "corpus": "a.jsonl"}],
            "eval_corpus": "test.jsonl",
        }
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan_obj), encoding="utf-8")
        with pytest.raises(PlanError, match=f"'{section}' has unknown key '{key}'"):
            load_plan(str(path))

    def test_config_section_must_be_object(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({"train": [1], "stages": [{"name": "a", "corpus": "a.jsonl"}],
                                    "eval_corpus": "test.jsonl"}), encoding="utf-8")
        with pytest.raises(PlanError, match="'train' must be a JSON object"):
            load_plan(str(path))

    def test_cli_names_unknown_key_before_reading_corpora(self, tmp_path, capsys):
        from essayqa.cli import cli_main

        plan_obj = {
            "model": {"d_modle": 16},
            "stages": [{"name": "a", "corpus": "absent.jsonl"}],
            "eval_corpus": "absent.jsonl",
        }
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan_obj), encoding="utf-8")
        assert cli_main(["experiment", "--plan", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: 'model' has unknown key 'd_modle'")

    @pytest.mark.parametrize("section, key, value, kind", [
        ("train", "epochs", "2", "integer"),
        ("train", "epochs", True, "integer"),
        ("train", "batch_size", 8.0, "integer"),
        ("train", "learning_rate", "1e-3", "number"),
        ("train", "max_steps", False, "integer or null"),
        ("model", "layers", "2", "integer"),
        ("model", "use_residual_norm", 1, "boolean"),
        ("model", "dtype", 32, "string"),
        ("stage", "epochs", "1", "integer or null"),
        ("stage", "dev_fraction", "0.1", "number"),
    ])
    def test_mistyped_value_rejected(self, tmp_path, section, key, value, kind):
        stage = {"name": "a", "corpus": "a.jsonl"}
        plan_obj = {"stages": [stage], "eval_corpus": "test.jsonl"}
        if section == "stage":
            stage[key] = value
        else:
            plan_obj[section] = {key: value}
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan_obj), encoding="utf-8")
        where = "stage" if section == "stage" else f"'{section}'"
        with pytest.raises(PlanError) as info:
            load_plan(str(path))
        assert str(info.value) == (f"{path}: {where} field '{key}' must be a JSON {kind}, "
                                   f"not {json.dumps(value)}")

    @pytest.mark.parametrize("model, message", [
        ({"max_len": 1024}, "max_len must be at most 512"),
        ({"heads": 3}, "d_model must be divisible by heads"),
    ])
    def test_model_value_the_encoder_refuses_is_rejected_on_load(self, tmp_path, model,
                                                                 message):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({"model": model,
                                    "stages": [{"name": "a", "corpus": "absent.jsonl"}],
                                    "eval_corpus": "absent.jsonl"}), encoding="utf-8")
        with pytest.raises(PlanError) as info:
            load_plan(str(path))
        assert str(info.value) == f"{path}: 'model' {message}"

    @pytest.mark.parametrize("train, stage, message", [
        ({"batch_size": 0}, {}, "'train' epochs and batch_size must be positive"),
        ({"warmup_steps": -1}, {}, "'train' warmup_steps must not be negative"),
        ({}, {"epochs": 0}, "stage 'a' epochs and batch_size must be positive"),
        ({}, {"learning_rate": 0}, "stage 'a' learning_rate must be positive"),
        ({}, {"dev_fraction": 1.5}, "stage 'a' dev_fraction must be in [0, 1), not 1.5"),
        ({}, {"dev_fraction": -0.1}, "stage 'a' dev_fraction must be in [0, 1), not -0.1"),
    ])
    def test_train_value_the_trainer_refuses_is_rejected_on_load(self, tmp_path, train,
                                                                 stage, message):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({"train": train,
                                    "stages": [{"name": "a", "corpus": "absent.jsonl", **stage}],
                                    "eval_corpus": "absent.jsonl"}), encoding="utf-8")
        with pytest.raises(PlanError) as info:
            load_plan(str(path))
        assert str(info.value) == f"{path}: {message}"

    def test_int_for_float_and_null_max_steps_accepted(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({
            "train": {"learning_rate": 1, "max_steps": None},
            "stages": [{"name": "a", "corpus": "a.jsonl", "learning_rate": 1,
                        "dev_fraction": 0}],
            "eval_corpus": "test.jsonl",
        }), encoding="utf-8")
        plan = load_plan(str(path))
        assert TrainConfig(**plan.train).learning_rate == 1
        assert plan.stages[0].dev_fraction == 0

    def test_cli_names_mistyped_value_before_reading_corpora(self, tmp_path, capsys):
        from essayqa.cli import cli_main

        plan_obj = {
            "train": {"epochs": "2"},
            "stages": [{"name": "a", "corpus": "absent.jsonl"}],
            "eval_corpus": "absent.jsonl",
        }
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan_obj), encoding="utf-8")
        assert cli_main(["experiment", "--plan", str(path)]) == 1
        err = capsys.readouterr().err
        assert err == (f"error: {path}: 'train' field 'epochs' must be a JSON integer, "
                       f"not \"2\"\n")

    @pytest.mark.parametrize("spec, message", [
        ({"synthetic": {"cout": 20}}, "synthetic spec has unknown key 'cout'"),
        ({"synthetic": {"count": "20"}},
         "synthetic spec field 'count' must be a JSON integer, not \"20\""),
        ({"synthetic": {"count": 20, "min_sentences": 3}},
         "synthetic spec has unknown key 'min_sentences'"),
        ({"synthetic": {"count": 20, "answer_len_band": [25, 100]}},
         "synthetic spec has unknown key 'answer_len_band'"),
        ({"synthetic": {"seed": 1}}, "synthetic spec is missing key 'count'"),
        ({"synthetic": [20]}, "field 'synthetic' must be a JSON object"),
        ({"synth": {"count": 20}}, "must be a path or an object with the one key 'synthetic'"),
    ])
    @pytest.mark.parametrize("where", ["eval_corpus", "corpus", "dev"])
    def test_bad_synthetic_spec_rejected(self, tmp_path, where, spec, message):
        stage = {"name": "a", "corpus": "a.jsonl"}
        plan_obj = {"stages": [stage], "eval_corpus": "test.jsonl"}
        if where == "eval_corpus":
            plan_obj[where] = spec
            label = "'eval_corpus'"
        else:
            stage[where] = spec
            label = f"stage 'a' '{where}'"
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan_obj), encoding="utf-8")
        with pytest.raises(PlanError) as info:
            load_plan(str(path))
        assert str(info.value).startswith(f"{path}: {label}")
        assert message in str(info.value)

    def test_synthetic_spec_with_every_field_accepted(self):
        spec = {"count": 4, "answerable_ratio": 0.5, "seed": 2, "bank": "domain",
                "noise_rate": 0.0, "id_prefix": "x"}
        plan = ExperimentPlan(stages=[PlanStage(name="a", corpus={"synthetic": spec})],
                              eval_corpus={"synthetic": spec})
        assert len(resolve_corpus(plan.eval_corpus)) == 4

    @pytest.mark.parametrize("vocab, message", [
        ({"size": "4000"}, "'vocab' field 'size' must be a JSON integer, not \"4000\""),
        ({"size": True}, "'vocab' field 'size' must be a JSON integer, not true"),
        ({"size": 3}, "'vocab' field 'size' must be at least 4, not 3"),
        ({"sise": 4000}, "'vocab' has unknown key 'sise' (allowed: size)"),
    ])
    def test_bad_vocab_rejected(self, tmp_path, vocab, message):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({"vocab": vocab, "stages": [{"name": "a", "corpus": "a.jsonl"}],
                                    "eval_corpus": "test.jsonl"}), encoding="utf-8")
        with pytest.raises(PlanError) as info:
            load_plan(str(path))
        assert str(info.value) == f"{path}: {message}"

    @pytest.mark.parametrize("key, value, message", [
        ("eval_corpus", {"synthetic": {"cout": 20}},
         "'eval_corpus' synthetic spec has unknown key 'cout'"),
        ("vocab", {"size": "4000"}, "'vocab' field 'size' must be a JSON integer"),
    ])
    def test_cli_names_bad_spec_before_reading_corpora(self, tmp_path, capsys, key, value,
                                                       message):
        from essayqa.cli import cli_main

        plan_obj = {"stages": [{"name": "a", "corpus": "absent.jsonl"}],
                    "eval_corpus": "absent.jsonl", key: value}
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan_obj), encoding="utf-8")
        assert cli_main(["experiment", "--plan", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: {message}")

    def test_no_stages_rejected(self):
        with pytest.raises(PlanError):
            ExperimentPlan(stages=[], eval_corpus="x.jsonl")

    def test_resolve_corpus_variants(self, tmp_path):
        synthetic = resolve_corpus({"synthetic": {"count": 12, "seed": 1}})
        assert len(synthetic) == 12
        from essayqa.corpus import save_sed_format

        path = tmp_path / "c.jsonl"
        save_sed_format(synthetic, str(path))
        loaded = resolve_corpus(str(path))
        assert loaded == synthetic
        with pytest.raises(PlanError):
            resolve_corpus(123)


class TestRunExperiment:
    def test_empty_eval_corpus_fails_before_training(self, tmp_path):
        from essayqa.corpus import save_sed_format

        empty = tmp_path / "empty.jsonl"
        empty.write_text("", encoding="utf-8")
        plan = tiny_plan(tmp_path)
        plan.eval_corpus = str(empty)
        out_dir = tmp_path / "run"
        with pytest.raises(PlanError):
            run_experiment(plan, out_dir=str(out_dir))
        assert not out_dir.exists()  # nothing was trained or written

    def test_report_shape_and_checkpoints(self, tmp_path):
        plan = tiny_plan(tmp_path, stage_counts=(150, 150), epochs=1)
        out_dir = tmp_path / "run"
        report = run_experiment(plan, out_dir=str(out_dir))
        assert len(report.stages) == 2
        assert (out_dir / "stage1-s0.ckpt").exists()
        assert (out_dir / "stage2-s1.ckpt").exists()
        assert (out_dir / "report.json").exists()
        # delta cell formatted like a results-table entry
        assert report.accuracy_cell.startswith(f"{report.final_accuracy:.2f} (")
        text = "\n".join(report.lines())
        assert "final: Acc" in text
        saved = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
        assert saved["accuracy_cell"] == report.accuracy_cell

    def test_failed_stage_retains_completed_checkpoints(self, tmp_path):
        from essayqa.corpus import QAExample, save_sed_format
        from essayqa.errors import ValidationError

        # stage 2's only example has an oversized question, so its training
        # fails after stage 1 completed and checkpointed
        bad = [QAExample("bad", " ".join(["what"] * 600), "Essay text here.",
                         False, ())]
        bad_path = tmp_path / "bad.jsonl"
        save_sed_format(bad, str(bad_path))
        plan = tiny_plan(tmp_path, stage_counts=(100,), epochs=1)
        plan.stages.append(PlanStage(name="broken", corpus=str(bad_path), epochs=1))
        out_dir = tmp_path / "run"
        with pytest.raises(ValidationError):
            run_experiment(plan, out_dir=str(out_dir))
        assert (out_dir / "stage1-s0.ckpt").exists()
        assert not (out_dir / "stage2-broken.ckpt").exists()

    def test_checkpoints_byte_equal_to_multi_stage_train(self, tmp_path):
        """The experiment runner trains through the same per-stage step as
        multi_stage_train: same stage seeds, dev splits and checkpoint files."""
        plan = tiny_plan(tmp_path, stage_counts=(90, 90), eval_count=20, epochs=1)
        plan.stages[1].dev = None  # carve stage 2's dev split with its own seed
        run_experiment(plan, out_dir=str(tmp_path / "experiment"))

        corpora = [resolve_corpus(s.corpus) for s in plan.stages]
        vocab = build_vocab([t for c in corpora for ex in c for t in (ex.question, ex.context)],
                            size=plan.vocab["size"])
        model = new_model(vocab, seed=plan.seed, **plan.model)
        stages = [Stage(name=s.name, corpus=c, epochs=s.epochs,
                        dev=resolve_corpus(s.dev) if s.dev is not None else None,
                        dev_fraction=s.dev_fraction)
                  for s, c in zip(plan.stages, corpora)]
        _, infos = multi_stage_train(model, stages, TrainConfig(seed=plan.seed, **plan.train),
                                     out_dir=str(tmp_path / "direct"))
        names = [os.path.basename(info.checkpoint_path) for info in infos]
        assert names == ["stage1-s0.ckpt", "stage2-s1.ckpt"]
        assert infos[1].dev_size == 9
        for name in names:
            assert ((tmp_path / "experiment" / name).read_bytes()
                    == (tmp_path / "direct" / name).read_bytes()), name

    def test_seeded_plan_reproducible(self, tmp_path):
        a = run_experiment(tiny_plan(tmp_path, stage_counts=(120,), epochs=1))
        b = run_experiment(tiny_plan(tmp_path, stage_counts=(120,), epochs=1))
        assert a.to_dict() == b.to_dict()

    def test_cli_experiment(self, tmp_path, capsys):
        from essayqa.cli import cli_main

        plan_obj = {
            "seed": 7,
            "model": {"d_model": 32, "ffn_inner": 64},
            "train": {"batch_size": 16},
            "vocab": {"size": 3000},
            "stages": [{
                "name": "only",
                "epochs": 1,
                "corpus": {"synthetic": {"count": 120, "seed": 1}},
                "dev": {"synthetic": {"count": 30, "seed": 2}},
            }],
            "eval_corpus": {"synthetic": {"count": 60, "seed": 3}},
        }
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan_obj), encoding="utf-8")
        assert cli_main(["experiment", "--plan", str(path),
                         "--out-dir", str(tmp_path / "out")]) == 0
        out = capsys.readouterr().out
        assert "final: Acc" in out
        assert (tmp_path / "out" / "report.json").exists()
