"""Command-line entry point.

Subcommands: normalize, build-vocab, ingest, stats, generate, train,
experiment, eval, predict.  Exit codes: 0 success, 1 runtime error, 2 usage
error.  All randomness hangs off explicit seeds, so runs with the same flags
produce the same files.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from . import corpus as corpus_mod
from . import evalharness, qnorm, synthetic
from .checkpoint import load_model, save_model
from .encoder import DTYPES, EncoderConfig
from .errors import EssayQAError, read_text
from .locator import read_verdict_records, verdict_to_record, write_verdict_records
from .model import ModelBundle, new_model
from .pipeline import EvaluationRequest, evaluate
from .seqbuild import VOCAB_SIZE, Vocabulary, build_vocab
from .train import Stage, TrainConfig, multi_stage_train

DEFAULT_MODEL_ENV = "ESSAYQA_MODEL"


def _rules_from_args(args) -> qnorm.RewriteRuleSet:
    if getattr(args, "rules", None):
        return qnorm.load_rules(args.rules)
    return qnorm.RewriteRuleSet()


def _cmd_normalize(args) -> int:
    rules = _rules_from_args(args)
    questions = read_text(args.infile).split("\n")
    if questions[-1] == "":
        questions.pop()  # the newline ending the last line starts no question
    for q in questions:
        print(qnorm.normalize(q, rules).normalized)
    return 0


def _cmd_build_vocab(args) -> int:
    texts: list[str] = []
    for path in args.infile:
        if path.endswith((".json", ".jsonl")):
            for ex in corpus_mod.load_any(path):
                texts.append(ex.question)
                texts.append(ex.context)
        else:
            texts.append(read_text(path))
    vocab = build_vocab(texts, size=args.size)
    vocab.save(args.out)
    print(f"wrote {len(vocab)} terms to {args.out}")
    return 0


def _cmd_ingest(args) -> int:
    examples = corpus_mod.load_any(args.infile)
    corpus_mod.save_sed_format(examples, args.out)
    print(f"wrote {len(examples)} examples to {args.out}")
    return 0


def _cmd_stats(args) -> int:
    examples: list[corpus_mod.QAExample] = []
    for path in args.infile:
        examples.extend(corpus_mod.load_any(path))
    stats = corpus_mod.answer_length_stats(examples, bin_width=args.bin_width)
    print(f"examples: {stats.example_count}")
    print(f"answerable: {stats.answerable_count}")
    if stats.mean_answer_length_chars is None:
        print("mean answer length (chars): n/a (no gold answers)")
    else:
        print(f"mean answer length (chars): {stats.mean_answer_length_chars:.1f}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            corpus_mod.write_histogram_csv(stats, fh)
        print(f"histogram written to {args.out}")
    return 0


def _cmd_generate(args) -> int:
    cfg = synthetic.SyntheticConfig(
        count=args.count,
        answerable_ratio=args.answerable_ratio,
        seed=args.seed,
        bank=args.bank,
        noise_rate=args.noise_rate,
    )
    examples = synthetic.generate_synthetic(cfg)
    corpus_mod.save_sed_format(examples, args.out)
    print(f"wrote {len(examples)} synthetic examples to {args.out}")
    return 0


def _cmd_train(args) -> int:
    cfg = TrainConfig(
        epochs=args.epochs, learning_rate=args.learning_rate,
        batch_size=args.batch_size, seed=args.seed, warmup_steps=args.warmup_steps,
    )
    train_corpus = corpus_mod.load_any(args.corpus)
    dev = corpus_mod.load_any(args.dev) if args.dev else None
    stage = Stage(name="train", corpus=train_corpus, dev=dev, dev_fraction=args.dev_fraction)
    if args.vocab:
        vocab = Vocabulary.load(args.vocab)
    else:
        texts = [t for ex in train_corpus for t in (ex.question, ex.context)]
        vocab = build_vocab(texts, size=args.vocab_size)
    rules = _rules_from_args(args)
    model = new_model(
        vocab, rules=rules,
        layers=args.layers, d_model=args.d_model, heads=args.heads,
        ffn_inner=args.ffn_inner, seed=args.seed, dtype=args.dtype,
    )
    model = replace(model, rv_beta1=args.beta1, rv_beta2=args.beta2, zeta=args.zeta)
    model, infos = multi_stage_train(model, [stage], cfg)
    save_model(model, args.out)
    info = infos[0]
    print(f"trained {info.trained_count} examples "
          f"({info.skipped_count} skipped), zeta={model.zeta:+.4f}")
    if args.loss_csv:
        with open(args.loss_csv, "w", encoding="utf-8") as fh:
            fh.write("epoch,mean_loss\n")
            for i, val in enumerate(info.loss_curve, start=1):
                fh.write(f"{i},{val}\n")
    print(f"checkpoint written to {args.out}")
    return 0


def _cmd_experiment(args) -> int:
    plan = evalharness.load_plan(args.plan)
    if args.seed is not None:
        plan.seed = args.seed
    report = evalharness.run_experiment(
        plan, base_dir=os.path.dirname(os.path.abspath(args.plan)),
        out_dir=args.out_dir,
    )
    for line in report.lines():
        print(line)
    return 0


def _cmd_eval(args) -> int:
    gold = corpus_mod.load_any(args.gold)
    predictions = {rec["question_id"]: rec["text"] for rec in read_verdict_records(args.pred)}
    vocab = Vocabulary.load(args.vocab) if args.vocab else None
    result = evalharness.evaluate_predictions(predictions, gold,
                                              unit=args.overlap_unit, vocab=vocab)
    print(f"accuracy: {result.accuracy:.4f}")
    print(f"mean overlap F1: {result.mean_overlap_f1:.4f}")
    return 0


def _load_model_arg(args):
    path = args.model or os.environ.get(DEFAULT_MODEL_ENV)
    if not path:
        raise EssayQAError(
            f"no model given: pass --model or set ${DEFAULT_MODEL_ENV}"
        )
    flags = {"rv_beta1": args.beta1, "rv_beta2": args.beta2, "zeta": args.zeta}
    model = replace(load_model(path), **{k: v for k, v in flags.items() if v is not None})
    if args.vocab:
        external = Vocabulary.load(args.vocab)
        if external.fingerprint() != model.vocab.fingerprint():
            raise EssayQAError(
                f"vocabulary {args.vocab} does not match the checkpoint's vocabulary"
            )
    return model


def _cmd_predict(args) -> int:
    model = _load_model_arg(args)
    records: list[dict] = []
    if args.corpus:
        examples = corpus_mod.load_any(args.corpus)
        verdicts = evalharness.predict_corpus(model, examples)
        # a corpus record names no essay, so essay_id stays null
        for ex in examples:
            records.append(verdict_to_record(verdicts[ex.example_id],
                                             question_id=ex.example_id, essay_id=None))
    else:
        if not args.essay or not args.requirements:
            raise EssayQAError("predict needs --corpus, or --essay with --requirements")
        essay = read_text(args.essay)
        requirements = [line.strip() for line in read_text(args.requirements).split("\n")
                        if line.strip()]
        request = EvaluationRequest(essay=essay, requirements=tuple(requirements),
                                    model=model)
        verdicts = evaluate(request)
        essay_id = os.path.splitext(os.path.basename(args.essay))[0]
        for i, verdict in enumerate(verdicts, start=1):
            records.append(verdict_to_record(verdict, question_id=f"q{i}",
                                             essay_id=essay_id))
    if args.pretty:
        for rec in records:
            mark = "answered" if rec["answered"] else "not answered"
            score = rec["score_final"]
            score = "n/a" if score is None else f"{score:+.4f}"
            tail = f' "{rec["text"]}"' if rec["answered"] else ""
            print(f'{rec["question_id"]}: {mark} (score_final={score}){tail}')
    else:
        write_verdict_records(records, sys.stdout)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="essayqa",
        description="Decide which requirement questions an essay responds to "
                    "and extract the responding spans.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("normalize", help="normalize requirement questions")
    p.add_argument("--rules", help="rule-set file (defaults to built-in rules)")
    p.add_argument("--in", dest="infile", required=True, help="questions, one per line")
    p.set_defaults(func=_cmd_normalize)

    p = sub.add_parser("build-vocab", help="build a vocabulary from corpora")
    p.add_argument("--in", dest="infile", nargs="+", required=True,
                   help="text/.json/.jsonl inputs")
    p.add_argument("--size", type=int, default=VOCAB_SIZE)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_build_vocab)

    p = sub.add_parser("ingest", help="convert/validate a corpus into line records")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("stats", help="answer-length statistics")
    p.add_argument("--in", dest="infile", nargs="+", required=True)
    p.add_argument("--bin-width", type=int, default=corpus_mod.HISTOGRAM_BIN_WIDTH)
    p.add_argument("--out", help="histogram CSV (bin_start,bin_end,count)")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("generate", help="emit a synthetic essay corpus")
    p.add_argument("--count", type=int, required=True)
    syn = synthetic.SyntheticConfig
    p.add_argument("--answerable-ratio", type=float, default=syn.answerable_ratio)
    p.add_argument("--seed", type=int, default=syn.seed)
    p.add_argument("--bank", choices=sorted(synthetic.BANKS), default=syn.bank)
    p.add_argument("--noise-rate", type=float, default=syn.noise_rate)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("train", help="train a model on one corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--dev", help="dev corpus for threshold selection")
    p.add_argument("--dev-fraction", type=float,
                   default=evalharness.PlanStage.dev_fraction)
    p.add_argument("--vocab", help="existing vocabulary file")
    p.add_argument("--vocab-size", type=int, default=VOCAB_SIZE)
    p.add_argument("--rules")
    p.add_argument("--layers", type=int, default=EncoderConfig.layers)
    p.add_argument("--d-model", type=int, default=EncoderConfig.d_model)
    p.add_argument("--heads", type=int, default=EncoderConfig.heads)
    p.add_argument("--ffn-inner", type=int, default=EncoderConfig.ffn_inner)
    p.add_argument("--dtype", choices=DTYPES, default=EncoderConfig.dtype)
    p.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    p.add_argument("--learning-rate", type=float, default=TrainConfig.learning_rate)
    p.add_argument("--batch-size", type=int, default=TrainConfig.batch_size)
    p.add_argument("--warmup-steps", type=int, default=TrainConfig.warmup_steps)
    p.add_argument("--seed", type=int, default=TrainConfig.seed)
    p.add_argument("--beta1", type=float, default=ModelBundle.rv_beta1)
    p.add_argument("--beta2", type=float, default=ModelBundle.rv_beta2)
    p.add_argument("--zeta", type=float, default=ModelBundle.zeta)
    p.add_argument("--loss-csv")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("experiment", help="run a staged training plan")
    p.add_argument("--plan", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--out-dir")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("eval", help="score a prediction file against gold")
    p.add_argument("--pred", required=True)
    p.add_argument("--gold", required=True)
    p.add_argument("--overlap-unit", choices=evalharness.OVERLAP_UNITS,
                   default=evalharness.ExperimentPlan.overlap_unit)
    p.add_argument("--vocab", help="vocabulary file (needed for subword overlap)")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("predict", help="verdicts for an essay or a corpus")
    p.add_argument("--model", help=f"checkpoint (default ${DEFAULT_MODEL_ENV})")
    p.add_argument("--essay")
    p.add_argument("--requirements")
    p.add_argument("--corpus")
    p.add_argument("--vocab", help="cross-check against an external vocabulary")
    p.add_argument("--beta1", type=float)
    p.add_argument("--beta2", type=float)
    p.add_argument("--zeta", type=float)
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(func=_cmd_predict)

    return parser


def cli_main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 2
    try:
        return args.func(args)
    except EssayQAError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
