"""Metrics and the staged experiment runner.

Accuracy is the fraction of examples whose predicted answered flag matches
gold.  Answer-overlap F1 compares the predicted and gold span as token bags:
precision = overlap / predicted tokens, recall = overlap / gold tokens,
F1 = 2PR / (P + R).  Examples where both sides abstain score (1, 1, 1); where
exactly one side abstains, (0, 0, 0); with several gold answers the best F1
counts.  The corpus F1 is the plain mean of per-example F1.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from dataclasses import MISSING, asdict, dataclass, field, fields
from types import UnionType
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .corpus import QAExample, check_unique_ids, load_any, typed_field
from .encoder import EncoderConfig
from .errors import PlanError, ValidationError, read_text
from .locator import Verdict
from .model import ModelBundle, new_model
# infer_verdict is not called here; perfbench/tracer.py wraps it under this
# module's name.
from .pipeline import infer_verdict, infer_verdicts  # noqa: F401
from .qnorm import split_words
from .seqbuild import RESERVED, VOCAB_SIZE, Vocabulary, build_vocab, tokenize
from .synthetic import SyntheticConfig, generate_synthetic
from .train import Stage, TrainConfig, check_dev_fraction, run_stage, stage_config


@dataclass
class PerExample:
    example_id: str
    answered_pred: bool
    answered_gold: bool
    precision: float
    recall: float
    f1: float


@dataclass
class EvalResult:
    accuracy: float
    mean_overlap_f1: float
    per_example: list[PerExample] = field(default_factory=list)


def accuracy(predictions: dict[str, bool], gold: list[QAExample]) -> float:
    """Fraction of examples whose answered flag matches; ids must be unique and align."""
    if not gold:
        raise ValidationError("empty test set")
    check_unique_ids(gold)
    gold_ids = {ex.example_id for ex in gold}
    if gold_ids != set(predictions):
        missing = sorted(gold_ids - set(predictions))[:3]
        extra = sorted(set(predictions) - gold_ids)[:3]
        raise ValidationError(f"id mismatch between predictions and gold "
                              f"(missing={missing}, extra={extra})")
    correct = sum(1 for ex in gold if predictions[ex.example_id] == ex.answerable)
    return correct / len(gold)


OVERLAP_UNITS = ("word", "subword")


def _span_tokens(text: str, unit: str, vocab: Vocabulary | None) -> list[str]:
    if unit not in OVERLAP_UNITS:
        raise ValidationError(f"unknown overlap unit {unit!r}")
    if unit == "word":
        return [w.lower() for w, _, _ in split_words(text)]
    if vocab is None:
        raise ValidationError("subword overlap needs a vocabulary")
    return [t.surface for t in tokenize(text, vocab)]


def overlap_f1(pred_text: str | None, gold: QAExample, unit: str = "word",
               vocab: Vocabulary | None = None) -> tuple[float, float, float]:
    """(precision, recall, f1) of the token-bag overlap; pred_text None means
    the prediction abstained."""
    if pred_text is None and not gold.answerable:
        return 1.0, 1.0, 1.0
    if pred_text is None or not gold.answerable:
        return 0.0, 0.0, 0.0
    pred_tokens = _span_tokens(pred_text, unit, vocab)
    best = (0.0, 0.0, 0.0)
    for ans in gold.gold_answers:
        gold_tokens = _span_tokens(ans.text, unit, vocab)
        if not pred_tokens or not gold_tokens:
            continue
        common = Counter(pred_tokens) & Counter(gold_tokens)
        n_overlap = sum(common.values())
        if n_overlap == 0:
            continue
        p = n_overlap / len(pred_tokens)
        r = n_overlap / len(gold_tokens)
        f1 = 2 * p * r / (p + r)
        if f1 > best[2]:
            best = (p, r, f1)
    return best


def evaluate_predictions(predictions: dict[str, str | None], gold: list[QAExample],
                         unit: str = "word", vocab: Vocabulary | None = None) -> EvalResult:
    """Corpus-level metrics from each example's predicted span text, keyed by
    example id; None means the prediction abstained (not answered)."""
    per: list[PerExample] = []
    acc = accuracy({eid: text is not None for eid, text in predictions.items()}, gold)
    for ex in gold:
        pred_text = predictions[ex.example_id]
        p, r, f1 = overlap_f1(pred_text, ex, unit, vocab)
        per.append(PerExample(
            example_id=ex.example_id,
            answered_pred=pred_text is not None,
            answered_gold=ex.answerable,
            precision=p,
            recall=r,
            f1=f1,
        ))
    mean_f1 = float(np.mean([x.f1 for x in per]))
    return EvalResult(accuracy=acc, mean_overlap_f1=mean_f1, per_example=per)


def evaluate_verdicts(verdicts: dict[str, Verdict], gold: list[QAExample],
                      unit: str = "word", vocab: Vocabulary | None = None) -> EvalResult:
    """Corpus-level metrics from per-example verdicts keyed by example id (a
    verdict carries a span exactly when it is answered)."""
    predictions = {eid: v.span.text if v.span is not None else None
                   for eid, v in verdicts.items()}
    return evaluate_predictions(predictions, gold, unit, vocab)


def predict_corpus(model: ModelBundle, examples: list[QAExample]) -> dict[str, Verdict]:
    """Verdict per (unique) example id; consecutive examples share encoder packs."""
    check_unique_ids(examples)
    verdicts = infer_verdicts(model, [(ex.question, ex.context) for ex in examples])
    return {ex.example_id: v for ex, v in zip(examples, verdicts)}


def evaluate_model(model: ModelBundle, examples: list[QAExample],
                   unit: str = "word") -> EvalResult:
    verdicts = predict_corpus(model, examples)
    vocab = model.vocab if unit == "subword" else None
    return evaluate_verdicts(verdicts, examples, unit=unit, vocab=vocab)


# ------------------------------------------------------------ experiments


@dataclass
class PlanStage:
    name: str
    corpus: str | dict
    epochs: int | None = None
    learning_rate: float | None = None
    dev: str | dict | None = None
    dev_fraction: float = 0.1

    def __post_init__(self):
        _check_types("stage ", vars(self), PlanStage)
        _check_corpus_spec(f"stage {self.name!r} 'corpus'", self.corpus)
        _check_corpus_spec(f"stage {self.name!r} 'dev'", self.dev)
        try:
            check_dev_fraction(self.dev_fraction)
        except ValidationError as exc:
            raise PlanError(f"stage {self.name!r} {exc}") from None


@dataclass
class ExperimentPlan:
    stages: list[PlanStage]
    eval_corpus: str | dict
    seed: int = 0
    model: dict = field(default_factory=dict)
    train: dict = field(default_factory=dict)
    vocab: str | dict | None = None
    overlap_unit: str = "word"

    def __post_init__(self):
        _check_types("", vars(self), ExperimentPlan)
        if not self.stages:
            raise PlanError("plan needs at least one stage")
        # run_experiment sets seed and vocab_size; values are checked before any corpus is read
        _build("'model'", EncoderConfig, self.model, vocab_size=len(RESERVED), seed=0)
        train = _build("'train'", TrainConfig, self.train, seed=0)
        for stage in self.stages:
            try:
                stage_config(train, stage)
            except ValidationError as exc:
                raise PlanError(f"stage {stage.name!r} {exc}") from None
        _check_corpus_spec("'eval_corpus'", self.eval_corpus)
        if isinstance(self.vocab, dict):
            _check_vocab(self.vocab)


def _build(where: str, cls, values: dict, **fixed):
    """``cls`` from a plan's ``model`` / ``train`` / synthetic object, which may
    set only the fields ``fixed`` leaves, each to a value of the field's type,
    and must set those without a default; ``cls`` then checks the values."""
    allowed = {f.name for f in fields(cls)} - set(fixed)
    unknown = sorted(set(values) - allowed)
    if unknown:
        raise PlanError(f"{where} has unknown key {unknown[0]!r} "
                        f"(allowed: {', '.join(sorted(allowed))})")
    _check_types(f"{where} ", values, cls)
    for f in fields(cls):
        if f.default is MISSING and f.name not in values and f.name not in fixed:
            raise PlanError(f"{where} is missing key {f.name!r}")
    try:
        return cls(**values, **fixed)
    except ValidationError as exc:
        raise PlanError(f"{where} {exc}") from None


def _check_types(where: str, values: dict, cls) -> None:
    """Each value must be a JSON value of the type annotated on ``cls``'s
    field of that name (``corpus.typed_field``'s rules)."""
    hints = get_type_hints(cls)
    for key in values:
        hint = hints[key]
        kinds = get_args(hint) if isinstance(hint, UnionType) else (hint,)
        try:
            typed_field(values, key, tuple(get_origin(k) or k for k in kinds))
        except TypeError as exc:
            raise PlanError(f"{where}{exc}") from None


def _check_corpus_spec(where: str, spec: str | dict | None) -> None:
    """An inline corpus spec is ``{"synthetic": {...}}`` holding the fields
    of a valid ``SyntheticConfig``; a path or None is checked when it is read."""
    if not isinstance(spec, dict):
        return
    if set(spec) != {"synthetic"}:
        raise PlanError(f"{where} must be a path or an object with the one key "
                        f"'synthetic', not {json.dumps(spec)}")
    try:
        synthetic = typed_field(spec, "synthetic", dict)
    except TypeError as exc:
        raise PlanError(f"{where} {exc}") from None
    _build(f"{where} synthetic spec", SyntheticConfig, synthetic)


def _check_vocab(vocab: dict) -> None:
    """A plan's ``vocab`` object may set only ``size``, an integer of at
    least the reserved symbols' count."""
    unknown = sorted(set(vocab) - {"size"})
    if unknown:
        raise PlanError(f"'vocab' has unknown key {unknown[0]!r} (allowed: size)")
    try:
        size = typed_field(vocab, "size", int, VOCAB_SIZE)
    except TypeError as exc:
        raise PlanError(f"'vocab' {exc}") from None
    if size < len(RESERVED):
        raise PlanError(f"'vocab' field 'size' must be at least {len(RESERVED)}, not {size}")


def load_plan(path: str) -> ExperimentPlan:
    try:
        obj = json.loads(read_text(path))
    except (OSError, json.JSONDecodeError) as exc:
        raise PlanError(f"{path}: cannot read plan: {exc}") from exc
    try:
        stages = [PlanStage(**raw) for raw in obj.pop("stages")]
        return ExperimentPlan(stages=stages, **obj)
    except (KeyError, TypeError) as exc:
        raise PlanError(f"{path}: malformed plan: {exc}") from exc
    except PlanError as exc:
        raise PlanError(f"{path}: {exc}") from exc


def resolve_corpus(spec: str | dict, base_dir: str = ".") -> list[QAExample]:
    """A corpus reference is a file path or an inline synthetic spec
    {"synthetic": {count, answerable_ratio, seed, bank, ...}}."""
    if isinstance(spec, str):
        path = spec if os.path.isabs(spec) else os.path.join(base_dir, spec)
        return load_any(path)
    if isinstance(spec, dict) and "synthetic" in spec:
        return generate_synthetic(SyntheticConfig(**spec["synthetic"]))
    raise PlanError(f"unresolvable corpus reference: {spec!r}")


def format_with_delta(value: float, baseline: float) -> str:
    """Table-style cell: final value plus signed delta vs the baseline,
    e.g. 0.93 (+0.02)."""
    return f"{value:.2f} ({value - baseline:+.2f})"


@dataclass
class StageReport:
    name: str
    accuracy: float
    mean_overlap_f1: float
    zeta: float
    loss_curve: list[float]


@dataclass
class ExperimentReport:
    stages: list[StageReport]
    final_accuracy: float
    final_f1: float
    accuracy_cell: str   # "0.93 (+0.02)" vs the stage-1-only model
    f1_cell: str

    def lines(self) -> list[str]:
        out = ["stage        acc     f1      zeta"]
        for s in self.stages:
            out.append(f"{s.name:<12} {s.accuracy:.4f}  {s.mean_overlap_f1:.4f}  {s.zeta:+.4f}")
        out.append(f"final: Acc {self.accuracy_cell}  F1 {self.f1_cell}")
        return out

    def to_dict(self) -> dict:
        return asdict(self)


def run_experiment(plan: ExperimentPlan, base_dir: str = ".",
                   out_dir: str | None = None) -> ExperimentReport:
    """Execute a staged plan and measure each stage's model on the final
    evaluation corpus; deltas compare the final stage to the first."""
    eval_corpus = resolve_corpus(plan.eval_corpus, base_dir)
    if not eval_corpus:
        raise PlanError("evaluation corpus is empty")
    stage_corpora = [resolve_corpus(s.corpus, base_dir) for s in plan.stages]
    for stage, corpus in zip(plan.stages, stage_corpora):
        if not corpus:
            raise PlanError(f"stage {stage.name!r} corpus is empty")
    stage_devs = [
        resolve_corpus(s.dev, base_dir) if s.dev is not None else None
        for s in plan.stages
    ]

    if isinstance(plan.vocab, str):
        vocab = Vocabulary.load(plan.vocab if os.path.isabs(plan.vocab)
                                else os.path.join(base_dir, plan.vocab))
    else:
        size = (plan.vocab or {}).get("size", VOCAB_SIZE)
        texts = [t for corpus in stage_corpora for ex in corpus
                 for t in (ex.question, ex.context)]
        vocab = build_vocab(texts, size=size)

    model = new_model(vocab, seed=plan.seed, **plan.model)
    base_cfg = TrainConfig(seed=plan.seed, **plan.train)

    stages = [
        Stage(name=s.name, corpus=corpus, epochs=s.epochs,
              learning_rate=s.learning_rate, dev=dev, dev_fraction=s.dev_fraction)
        for s, corpus, dev in zip(plan.stages, stage_corpora, stage_devs)
    ]

    # Drive the stages one at a time, as multi_stage_train does, so every
    # stage's model can be measured on the evaluation corpus.
    reports: list[StageReport] = []
    for k, stage in enumerate(stages):
        # a failing stage aborts here; earlier stages' checkpoints stay on disk
        model, info = run_stage(model, stage, k, base_cfg, out_dir)
        result = evaluate_model(model, eval_corpus, unit=plan.overlap_unit)
        reports.append(StageReport(
            name=stage.name,
            accuracy=result.accuracy,
            mean_overlap_f1=result.mean_overlap_f1,
            zeta=model.zeta,
            loss_curve=info.loss_curve,
        ))

    final = reports[-1]
    first = reports[0]
    report = ExperimentReport(
        stages=reports,
        final_accuracy=final.accuracy,
        final_f1=final.mean_overlap_f1,
        accuracy_cell=format_with_delta(final.accuracy, first.accuracy),
        f1_cell=format_with_delta(final.mean_overlap_f1, first.mean_overlap_f1),
    )
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "report.json"), "w", encoding="utf-8") as fh:
            json.dump(report.to_dict(), fh, indent=2)
    return report
