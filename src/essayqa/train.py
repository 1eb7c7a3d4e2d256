"""Supervised training of encoder + heads.

The loss per example is

    (NLL of gold start + NLL of gold end) / 2
  + cross-entropy of the front-verifier logits

where unanswerable examples target the [CLS] position (1, 1) for both span
ends.  Gradients are fully analytic; optimization is adaptive moment
estimation with an optional linear warmup.  Everything is seeded: shuffles,
batching, and reduction order are fixed, so identical configs produce
bit-identical parameters.

Each epoch cuts a seeded shuffle of the examples into batches.  Each batch
runs through the encoder in consecutive parts of a few examples, in batch
order, and each part is one pack: its sequences' rows stacked with no
padding, attention and the span softmax taken per sequence.  The batch's
loss and gradients are the mean over its examples: the parts only change the
order of the sums.

A batch of more than one part runs on two cores while the serving pool
would (``pipeline._pack_workers``: numpy's OpenBLAS on one thread and two
or more CPUs): the caller's thread runs the even parts while one pool
worker runs the odd part beside it, one at a time, so at most two parts
hold their layer caches at once.  The parts' results are summed in part
order either way, so the loss and gradients are bit-identical to a serial
run.
"""

from __future__ import annotations

import contextvars
import functools
import logging
import os
from bisect import bisect_left, bisect_right
from concurrent.futures import wait
from dataclasses import dataclass, replace

import numpy as np

from . import pipeline
from .checkpoint import save_model
from .corpus import QAExample
from .encoder import EncoderConfig, backward_batch, forward_batch, pack_ids, softmax_last
from .errors import EssayQAError, OversizedQuestionError, ValidationError
from .heads import log_softmax_positions, span_logits, verifier_logits
from .model import ModelBundle
from .pipeline import infer_verdicts
from .qnorm import RewriteRuleSet, normalize
from .seqbuild import Vocabulary, assemble

logger = logging.getLogger(__name__)

# Examples per pack inside a batch.  A part holds its layer caches until its
# backward pass frees them layer by layer, so one pack of the whole batch
# (16) ran about 9 % faster on train_domain but raised its peak RSS by about
# 15 MiB; parts of 1 pay the per-call overhead 16 times a step.  On two
# cores two parts are live at once; parts of 2 there were slower and not
# bit-identical to parts of 4 (another summation order).
_SUB_BATCH = 4

# Adam's moment decay rates and denominator guard (the usual values).
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 2
    learning_rate: float = 1e-3
    batch_size: int = 16
    seed: int = 0
    warmup_steps: int = 0
    max_steps: int | None = None

    def __post_init__(self):
        if self.epochs <= 0 or self.batch_size <= 0:
            raise ValidationError("epochs and batch_size must be positive")
        if self.learning_rate <= 0:
            raise ValidationError("learning_rate must be positive")
        if self.warmup_steps < 0:
            raise ValidationError("warmup_steps must not be negative")
        if self.max_steps is not None and self.max_steps < 1:
            raise ValidationError("max_steps must be at least 1 (or None for no cap)")


@dataclass(frozen=True)
class TrainingExample:
    ids: tuple[int, ...]
    m: int                      # question token count
    gold_start: int             # 1-indexed positions in T; (1, 1) = [CLS]
    gold_end: int
    answerable: bool

    @property
    def tau(self) -> int:
        return len(self.ids)


def char_span_to_positions(seq, char_start: int, char_end: int) -> tuple[int, int] | None:
    """1-indexed (start, end) positions of the essay tokens overlapping the
    character range, or None when no essay token survives (truncation).

    Essay tokens are in text order and do not overlap, so both offset columns
    ascend: the overlapping tokens are the run from the first one ending after
    ``char_start`` to the last one starting before ``char_end``."""
    lo = seq.essay_start_pos - 1  # 0-indexed first essay token
    first = bisect_right(seq.char_ends, char_start, lo)
    last = bisect_left(seq.char_starts, char_end, lo) - 1
    if first > last:
        return None
    return first + 1, last + 1


def prepare_examples(corpus: list[QAExample], vocab: Vocabulary, rules: RewriteRuleSet,
                     max_len: int) -> tuple[list[TrainingExample], int]:
    """Convert QA examples into training rows.

    Oversized questions are skipped (counted); answers that truncation pushed
    entirely out of the window train as unanswerable.
    """
    prepared: list[TrainingExample] = []
    skipped = 0
    for ex in corpus:
        normalized = normalize(ex.question, rules)
        try:
            seq = assemble(normalized, ex.context, vocab, max_len=max_len)
        except OversizedQuestionError:
            skipped += 1
            continue
        gold_start, gold_end, answerable = 1, 1, False
        if ex.answerable and ex.gold_answers:
            ans = ex.gold_answers[0]
            span = char_span_to_positions(seq, ans.char_start, ans.char_start + len(ans.text))
            if span is not None:
                gold_start, gold_end = span
                answerable = True
        prepared.append(TrainingExample(
            ids=seq.ids,
            m=seq.m,
            gold_start=gold_start,
            gold_end=gold_end,
            answerable=answerable,
        ))
    if skipped:
        logger.info("skipped %d oversized-question examples", skipped)
    return prepared, skipped


def loss_and_grads(params: dict[str, np.ndarray], cfg: EncoderConfig,
                   batch: list[TrainingExample], pad_id: int):
    """Mean loss over the batch and analytic gradients for every tensor,
    summed over consecutive parts of ``_SUB_BATCH`` examples in batch order.

    With more than one part and two workers (``pipeline._pack_workers``),
    the caller's thread runs the even parts and one worker of the serving
    pool runs each odd part beside it; otherwise the parts run in turn on
    the caller's thread.  The sums run in part order either way, so the
    result is bit-identical to a serial run.  An exception from either part
    of a pair is raised once the other part has finished.

    ``pad_id`` is unused, since a pack holds no padding; the parameter stays
    for existing callers, and ``[PAD]`` stays a reserved vocabulary id
    because the vocabulary file format holds it."""
    if not batch:
        raise ValidationError("empty batch")
    run_part = functools.partial(_part_loss_and_grads, params, cfg, n=len(batch))
    parts = [batch[lo: lo + _SUB_BATCH] for lo in range(0, len(batch), _SUB_BATCH)]
    if len(parts) > 1 and pipeline._pack_workers() == 2:
        results = _paired_parts(run_part, parts)
    else:
        results = map(run_part, parts)
    loss = 0.0
    grads: dict[str, np.ndarray] = {}
    for part_loss, part_grads in results:
        loss += part_loss
        for name, g in part_grads.items():
            if name in grads:
                grads[name] += g
            else:
                grads[name] = g
    return loss, grads


def _paired_parts(run_part, parts):
    """Each part's result, in part order: the caller's thread runs the even
    parts while one pool worker runs the odd part that follows, one pair at
    a time."""
    pool = pipeline._pack_pool()
    for lo in range(0, len(parts), 2):
        if lo + 1 == len(parts):
            yield run_part(parts[lo])
            break
        # in a copy of the caller's context, so that numpy's error state
        # (np.errstate) applies to the worker's part as to the caller's
        odd = pool.submit(contextvars.copy_context().run, run_part, parts[lo + 1])
        try:
            yield run_part(parts[lo])
        finally:
            wait([odd])
        yield odd.result()


def _part_loss_and_grads(params: dict[str, np.ndarray], cfg: EncoderConfig,
                         part: list[TrainingExample], n: int):
    """The part's share of the mean loss over a batch of n examples, and its
    gradients, from one packed encoder forward and backward."""
    ids, bounds = pack_ids(part)
    h, cache = forward_batch(ids, params, cfg, bounds=bounds)
    cls = np.array(bounds[:-1])  # each sequence's [CLS] row

    # The start and end logits are the rows of one (2, N) array; each
    # sequence's span softmax runs over its own columns.
    logits = np.stack(span_logits(h, params))
    log_p, p = zip(*(log_softmax_positions(logits[:, s:e]) for s, e in zip(bounds, bounds[1:])))
    log_p, d_span = np.concatenate(log_p, axis=1), np.concatenate(p, axis=1)
    gold = cls + np.array([(ex.gold_start - 1, ex.gold_end - 1) for ex in part]).T
    span_nll = -np.take_along_axis(log_p, gold, axis=1).sum(axis=0) / 2.0

    h_cls = h[cls]
    v_prob = softmax_last(verifier_logits(h_cls, params))
    rows = np.arange(len(part))
    targets = np.array([0 if ex.answerable else 1 for ex in part])
    ce = -np.log(v_prob[rows, targets])

    loss = float(np.sum(span_nll + ce) / n)

    # Backward: d loss / d logits for both heads, then one encoder backward.
    d_span[[[0], [1]], gold] -= 1.0
    d_span *= 0.5 / n
    d_v = v_prob.copy()
    d_v[rows, targets] -= 1.0
    d_v *= 1.0 / n

    grads: dict[str, np.ndarray] = {
        "span.w_start": d_span[0] @ h,
        "span.w_end": d_span[1] @ h,
        "verify.w": h_cls.T @ d_v,
        "verify.b": d_v.sum(axis=0),
    }
    dh = d_span[0][:, None] * params["span.w_start"] + d_span[1][:, None] * params["span.w_end"]
    dh[cls] += d_v @ params["verify.w"].T
    grads.update(backward_batch(dh, cache, params, cfg))
    return loss, grads


def _divergence_cause(params: dict[str, np.ndarray]) -> str:
    """Name the first tensor (in insertion order) holding a non-finite value."""
    for name, value in params.items():
        if not np.all(np.isfinite(value)):
            return f"parameter {name} is non-finite"
    return "all parameters finite, so the forward pass overflowed"


class Adam:
    """Adaptive moment estimation with bias correction and the ``ADAM_*``
    constants; update order follows the gradient dict's insertion order for a
    fixed reduction order."""

    def __init__(self, params: dict[str, np.ndarray]):
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self.t = 0

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
             lr: float) -> None:
        self.t += 1
        bc1 = 1.0 - ADAM_BETA1 ** self.t
        bc2 = 1.0 - ADAM_BETA2 ** self.t
        for name in params:
            g = grads[name]
            self.m[name] = ADAM_BETA1 * self.m[name] + (1.0 - ADAM_BETA1) * g
            self.v[name] = ADAM_BETA2 * self.v[name] + (1.0 - ADAM_BETA2) * g * g
            params[name] = params[name] - lr * (self.m[name] / bc1) / (
                np.sqrt(self.v[name] / bc2) + ADAM_EPS
            )


@dataclass
class StageResult:
    params: dict[str, np.ndarray]
    loss_curve: list[float]      # mean loss per epoch
    step_losses: list[float]
    trained_count: int
    skipped_count: int
    steps: int


def train_stage(params: dict[str, np.ndarray], corpus: list[QAExample],
                vocab: Vocabulary, rules: RewriteRuleSet,
                enc_cfg: EncoderConfig, cfg: TrainConfig) -> StageResult:
    """One training stage over a corpus; returns fresh parameters (the input
    dict is not mutated) plus the loss curve."""
    examples, skipped = prepare_examples(corpus, vocab, rules, enc_cfg.max_len)
    if not examples:
        raise ValidationError("no trainable examples in corpus")
    params = {k: v.copy() for k, v in params.items()}
    opt = Adam(params)
    rng = np.random.default_rng(cfg.seed)
    step_losses: list[float] = []
    curve: list[float] = []
    step = 0
    done = False
    for _ in range(cfg.epochs):
        order = rng.permutation(len(examples))
        epoch_losses: list[float] = []
        for lo in range(0, len(examples), cfg.batch_size):
            batch = [examples[int(i)] for i in order[lo: lo + cfg.batch_size]]
            loss, grads = loss_and_grads(params, enc_cfg, batch, vocab.pad_id)
            if not np.isfinite(loss):
                raise EssayQAError(f"training diverged at step {step}: loss={loss}; "
                                   f"{_divergence_cause(params)}")
            step += 1
            lr = cfg.learning_rate
            if cfg.warmup_steps > 0:
                lr *= min(1.0, step / cfg.warmup_steps)
            opt.step(params, grads, lr)
            step_losses.append(loss)
            epoch_losses.append(loss)
            if cfg.max_steps is not None and step >= cfg.max_steps:
                done = True
                break
        if epoch_losses:
            curve.append(float(np.mean(epoch_losses)))
        if done:
            break
    return StageResult(
        params=params,
        loss_curve=curve,
        step_losses=step_losses,
        trained_count=len(examples),
        skipped_count=skipped,
        steps=step,
    )


def select_zeta(model: ModelBundle, dev: list[QAExample]) -> float:
    """Threshold maximizing answered/not-answered accuracy on a dev split.

    Candidates are midpoints between consecutive observed score_final values
    plus sentinels beyond both extremes; ties break toward the smallest
    threshold.  With no usable dev examples the model's current zeta wins.
    The finals are the served ones, computed in float32 and in packs like
    every verdict; oversized questions have none and are left out.
    """
    verdicts = infer_verdicts(model, [(ex.question, ex.context) for ex in dev])
    scored = [(v.scores.score_final, ex.answerable)
              for v, ex in zip(verdicts, dev) if v.scores is not None]
    if not scored:
        return model.zeta
    values, gold = map(np.array, zip(*scored))
    uniq = np.unique(values)
    candidates = np.concatenate([
        [uniq[0] - 1.0], (uniq[:-1] + uniq[1:]) / 2.0, [uniq[-1] + 1.0]
    ])
    best_zeta, best_acc = float(candidates[0]), -1.0
    for z in candidates:
        acc = float(np.mean((values <= z) == gold))
        if acc > best_acc:
            best_acc, best_zeta = acc, float(z)
    return best_zeta


@dataclass
class Stage:
    name: str
    corpus: list[QAExample]
    epochs: int | None = None
    learning_rate: float | None = None
    dev: list[QAExample] | None = None
    dev_fraction: float = 0.0
    seed: int | None = None  # default: base seed + stage index

    def __post_init__(self):
        check_dev_fraction(self.dev_fraction)


def check_dev_fraction(fraction: float) -> None:
    """The share of a stage corpus carved off as its dev split must be in [0, 1)."""
    if not 0 <= fraction < 1:
        raise ValidationError(f"dev_fraction must be in [0, 1), not {fraction}")


@dataclass
class StageRunInfo:
    name: str
    loss_curve: list[float]
    zeta: float
    skipped_count: int
    trained_count: int
    dev_size: int
    checkpoint_path: str | None = None


def stage_config(base_cfg: TrainConfig, stage) -> TrainConfig:
    """``base_cfg`` with a stage's own ``epochs`` and ``learning_rate``
    where it sets them (not None)."""
    own = {key: getattr(stage, key) for key in ("epochs", "learning_rate")
           if getattr(stage, key) is not None}
    return replace(base_cfg, **own)


def run_stage(model: ModelBundle, stage: Stage, k: int, base_cfg: TrainConfig,
              out_dir: str | None = None) -> tuple[ModelBundle, StageRunInfo]:
    """Train stage k (0-based) of a staged run and return the new model.

    The stage trains with seed base_cfg.seed + k unless it carries its own.
    Afterwards the verification threshold zeta is re-selected on the stage's
    dev split (explicit, or carved deterministically from the stage corpus
    when dev_fraction > 0), and with out_dir the model is checkpointed as
    ``stage{k+1}-{name}.ckpt`` there.
    """
    corpus = stage.corpus
    dev = stage.dev
    stage_seed = stage.seed if stage.seed is not None else base_cfg.seed + k
    if dev is None and stage.dev_fraction > 0:
        split_rng = np.random.default_rng(stage_seed * 7919 + 1)
        order = split_rng.permutation(len(corpus))
        n_dev = max(1, int(len(corpus) * stage.dev_fraction))
        dev = [corpus[int(i)] for i in order[:n_dev]]
        corpus = [corpus[int(i)] for i in order[n_dev:]]
    cfg = replace(stage_config(base_cfg, stage), seed=stage_seed)
    result = train_stage(model.params, corpus, model.vocab, model.rules,
                         model.config, cfg)
    model = replace(model, params=result.params)
    if dev:
        model.zeta = select_zeta(model, dev)
    path = None
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"stage{k + 1}-{stage.name}.ckpt")
        save_model(model, path)
    return model, StageRunInfo(
        name=stage.name,
        loss_curve=result.loss_curve,
        zeta=model.zeta,
        skipped_count=result.skipped_count,
        trained_count=result.trained_count,
        dev_size=len(dev) if dev else 0,
        checkpoint_path=path,
    )


def multi_stage_train(model: ModelBundle, stages: list[Stage], base_cfg: TrainConfig,
                      out_dir: str | None = None) -> tuple[ModelBundle, list[StageRunInfo]]:
    """Run stages sequentially through ``run_stage``, threading parameters
    through; stage k seeds with base_cfg.seed + k."""
    if not stages:
        raise ValidationError("at least one stage is required")
    infos: list[StageRunInfo] = []
    for k, stage in enumerate(stages):
        model, info = run_stage(model, stage, k, base_cfg, out_dir)
        infos.append(info)
    return model, infos
