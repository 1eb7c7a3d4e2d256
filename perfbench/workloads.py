"""The three benchmark workloads.

Each workload builds its inputs from the workload seed with
``synthetic.generate_synthetic``, then offers:

* ``setup()``     what the program does before its first timed operation
                  (checkpoint load or vocabulary build and model init, plus
                  a warm-up); timed as ``setup_s``;
* ``chunk(k)``    the k-th batch of inputs, built outside the timed region;
* ``run(chunk)``  the timed calls; returns a ``ChunkRun`` holding the raw
                  outputs;
* ``check(chunk, run)``  the output checks, outside the timed region;
* ``digest(run)`` a digest of the outputs, outside the timed region, to
                  compare a second pass over the same inputs with.

Every call into essayqa goes through a module attribute (``pipeline.evaluate``,
``cli.cli_main``, ``train.train_stage`` ...), so a traced run sees it.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import time
from dataclasses import dataclass, field

import numpy as np

from essayqa import checkpoint, cli, corpus, model, pipeline, qnorm, seqbuild, synthetic, train
from essayqa.corpus import GoldAnswer, QAExample

import checker

NOISE_RATE = 0.1
VOCAB_EXAMPLES = 600

# Offsets that keep the synthetic seeds of each purpose disjoint.
_VOCAB, _DEV, _CHUNK = 1, 2, 100
_SEED_STRIDE = 10_000
# Warm-up inputs do not depend on the workload seed, so setup does the
# same work on every seed.
WARM_SEED = 7


def _seed(seed: int, purpose: int, k: int = 0) -> int:
    return seed * _SEED_STRIDE + purpose + k


def _generate(count: int, seed: int, bank: str, prefix: str) -> list[QAExample]:
    return synthetic.generate_synthetic(synthetic.SyntheticConfig(
        count=count, seed=seed, bank=bank, noise_rate=NOISE_RATE, id_prefix=prefix))


def _texts(examples: list[QAExample]) -> list[str]:
    return [t for ex in examples for t in (ex.question, ex.context)]


def _essay_groups(examples: list[QAExample], size: int = 3) -> list[list[QAExample]]:
    """The generator emits each essay's requirements as consecutive runs of
    ``requirements_per_essay`` (3) examples."""
    return [examples[i:i + size] for i in range(0, len(examples), size)]


@dataclass
class ChunkRun:
    outputs: object
    items: int                      # verdicts or training examples finished
    latencies: list[float]          # seconds per call into the system


@dataclass
class Chunk:
    index: int
    items: list = field(default_factory=list)
    path: str | None = None          # corpus file for the CLI workload
    start_params: dict | None = None  # training state the chunk starts from


class _Inference:
    """Shared by the two inference workloads: a checkpoint written during
    input preparation, with zeta chosen by ``train.select_zeta`` on a
    disjoint dev split."""

    bank = "domain"

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        vocab_src = _generate(VOCAB_EXAMPLES, _seed(seed, _VOCAB), self.bank, "vocab")
        vocab = seqbuild.build_vocab(_texts(vocab_src))
        bundle = model.new_model(vocab, seed=seed)
        bundle.zeta = train.select_zeta(bundle, self.dev_split())
        self.zeta = bundle.zeta
        self.vocab, self.rules = bundle.vocab, bundle.rules
        self.max_len = min(bundle.config.max_len, seqbuild.MAX_INPUT_LEN)
        self.ckpt = os.path.join(workdir, "model.ckpt")
        checkpoint.save_model(bundle, self.ckpt)
        self._m_cache: dict[str, int] = {}

    def question_tokens(self, question: str) -> int:
        """m for a question, for the region check."""
        m = self._m_cache.get(question)
        if m is None:
            normalized = qnorm.normalize(question, self.rules).normalized
            m = len(seqbuild.tokenize(normalized, self.vocab, segment="question"))
            self._m_cache[question] = m
        return m

    def sequence(self, ex: QAExample):
        return seqbuild.assemble(qnorm.normalize(ex.question, self.rules), ex.context,
                                 self.vocab, max_len=self.max_len)

    def finish(self) -> list[str]:
        return []


class TrShort(_Inference):
    """The paper's own traffic: ``pipeline.evaluate`` on one domain-bank
    essay with its 3 requirements, closed loop, one client, no think time."""

    item_name = "verdicts"
    requests_per_chunk = 10
    min_calls = 1000  # so request p99 has at least 10 samples beyond it

    def dev_split(self):
        return _generate(150, _seed(self.seed, _DEV), self.bank, "dev")

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        self.warm = _essay_groups(_generate(9, WARM_SEED, self.bank, "warm"))
        self.bundle = None

    def setup(self) -> None:
        self.bundle = checkpoint.load_model(self.ckpt)
        for group in self.warm:
            pipeline.evaluate(self._request(group))

    def _request(self, group):
        return pipeline.EvaluationRequest(essay=group[0].context,
                                          requirements=tuple(ex.question for ex in group),
                                          model=self.bundle)

    def chunk(self, k: int) -> Chunk:
        # A freshly loaded model per chunk: where the weight arrays land in
        # memory moved the rate of whole runs by up to 11 %; reloading makes
        # that vary from chunk to chunk, where the median absorbs it.
        self.bundle = checkpoint.load_model(self.ckpt)
        examples = _generate(3 * self.requests_per_chunk, _seed(self.seed, _CHUNK, k),
                             self.bank, f"c{k}")
        return Chunk(index=k, items=_essay_groups(examples))

    def examples(self, chunk: Chunk) -> list[QAExample]:
        return [ex for group in chunk.items for ex in group]

    def run(self, chunk: Chunk) -> ChunkRun:
        verdicts, latencies = [], []
        for group in chunk.items:
            request = self._request(group)
            t0 = time.perf_counter()
            out = pipeline.evaluate(request)
            latencies.append(time.perf_counter() - t0)
            verdicts.append(out)
        return ChunkRun(outputs=verdicts, items=sum(len(out) for out in verdicts),
                        latencies=latencies)

    def digest(self, run: ChunkRun) -> str:
        return checker.verdict_digest([v for out in run.outputs for v in out])

    def check(self, chunk: Chunk, run: ChunkRun) -> tuple[int, list[str]]:
        """(verdicts failing a check, what failed)."""
        failed, problems = 0, []
        for group, verdicts in zip(chunk.items, run.outputs):
            if len(verdicts) != len(group):
                failed += len(group)
                problems.append(f"{len(verdicts)} verdicts for {len(group)} requirements")
                continue
            for ex, verdict in zip(group, verdicts):
                found = checker.check_verdict(verdict, ex.context,
                                              self.question_tokens(ex.question), self.zeta)
                failed += bool(found)
                problems.extend(f"{ex.example_id}: {p}" for p in found)
        return failed, problems

    def answered(self, run: ChunkRun) -> int:
        return sum(v.answered for out in run.outputs for v in out)


class CorpusLong(_Inference):
    """Offline batch through ``essayqa predict --corpus``.  Each context
    joins 2-8 general-bank essays, so tau spreads from about 150 up to the
    512 cap; each context gets one requirement, so no essay is reused."""

    bank = "general"
    item_name = "verdicts"
    # Every call gets the same mix of joined-essay counts, 2 to 8, three of
    # each, so calls differ only in the essays drawn.
    joins_per_call = tuple(range(2, 9)) * 3
    min_calls = 3

    def dev_split(self):
        rng = np.random.default_rng(_seed(self.seed, _DEV))
        return self._contexts(rng.permutation(self.joins_per_call * 2),
                              _seed(self.seed, _DEV), "dev")

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        self.warm = self._write(self._contexts((2, 4, 6, 8), WARM_SEED, "warm"), "warm")

    def _contexts(self, joins, seed: int, prefix: str) -> list[QAExample]:
        """One context per entry of ``joins``, joining that many essays."""
        rng = np.random.default_rng(seed)
        essays = _essay_groups(_generate(3 * int(sum(joins)), seed, self.bank, prefix))
        out, cursor = [], 0
        for i, j in enumerate(joins):
            group = essays[cursor:cursor + j]
            cursor += j
            pick = int(rng.integers(0, j))
            ex = group[pick][int(rng.integers(0, len(group[pick])))]
            shift = sum(len(g[0].context) + 1 for g in group[:pick])
            out.append(QAExample(
                example_id=f"{prefix}-{seed}-{i:05d}",
                question=ex.question,
                context=" ".join(g[0].context for g in group),
                answerable=ex.answerable,
                gold_answers=tuple(GoldAnswer(a.text, a.char_start + shift)
                                   for a in ex.gold_answers),
            ))
        return out

    def _write(self, examples: list[QAExample], name: str) -> Chunk:
        path = os.path.join(self.workdir, f"{name}.jsonl")
        corpus.save_sed_format(examples, path)
        return Chunk(index=-1, items=examples, path=path)

    def setup(self) -> None:
        self._predict(self.warm.path)

    def _predict(self, path: str) -> str:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.cli_main(["predict", "--model", self.ckpt, "--corpus", path])
        if code != 0:
            raise RuntimeError(f"predict exited {code}: {err.getvalue().strip()}")
        return out.getvalue()

    def chunk(self, k: int) -> Chunk:
        seed = _seed(self.seed, _CHUNK, k)
        joins = np.random.default_rng(seed).permutation(self.joins_per_call)
        examples = self._contexts(joins, seed, f"c{k}")
        chunk = self._write(examples, f"chunk{k}")
        chunk.index = k
        return chunk

    def examples(self, chunk: Chunk) -> list[QAExample]:
        return chunk.items

    def run(self, chunk: Chunk) -> ChunkRun:
        t0 = time.perf_counter()
        text = self._predict(chunk.path)
        latency = time.perf_counter() - t0
        return ChunkRun(outputs=text, items=len(chunk.items), latencies=[latency])

    @staticmethod
    def _records(run: ChunkRun) -> list[dict]:
        return [json.loads(line) for line in run.outputs.splitlines() if line.strip()]

    def digest(self, run: ChunkRun) -> str:
        return checker.records_digest(self._records(run))

    def check(self, chunk: Chunk, run: ChunkRun) -> tuple[int, list[str]]:
        return checker.check_records(self._records(run), chunk.items, self.zeta)

    def answered(self, run: ChunkRun) -> int:
        return sum(bool(r["answered"]) for r in self._records(run))


class TrainDomain:
    """The write path: ``train.train_stage`` over domain-bank corpora with the
    default 2x64 float64 model, batch 16 and a fixed ``max_steps``, each call
    continuing from the parameters the previous one returned."""

    item_name = "train examples"
    bank = "domain"
    batch_size = 16
    steps_per_call = 10
    min_calls = 3

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.vocab_texts = _texts(_generate(VOCAB_EXAMPLES, _seed(seed, _VOCAB), self.bank, "vocab"))
        self.warm = _generate(self.batch_size, WARM_SEED, self.bank, "warm")
        self.first_loss: float | None = None
        self.last_index = -1
        self.last_losses: list[float] = []

    def setup(self) -> None:
        vocab = seqbuild.build_vocab(self.vocab_texts)
        self.bundle = model.new_model(vocab, seed=self.seed)
        self.max_len = min(self.bundle.config.max_len, seqbuild.MAX_INPUT_LEN)
        train.train_stage(self.bundle.params, self.warm, vocab, self.bundle.rules,
                          self.bundle.config, self._config(1, WARM_SEED))
        self.params = self.bundle.params

    def _config(self, steps: int, seed: int) -> train.TrainConfig:
        return train.TrainConfig(epochs=1, batch_size=self.batch_size, max_steps=steps, seed=seed)

    def chunk(self, k: int) -> Chunk:
        examples = _generate(self.batch_size * self.steps_per_call,
                             _seed(self.seed, _CHUNK, k), self.bank, f"c{k}")
        return Chunk(index=k, items=examples)

    def examples(self, chunk: Chunk) -> list[QAExample]:
        return chunk.items

    def sequence(self, ex: QAExample):
        return seqbuild.assemble(qnorm.normalize(ex.question, self.bundle.rules), ex.context,
                                 self.bundle.vocab, max_len=self.max_len)

    def run(self, chunk: Chunk) -> ChunkRun:
        if chunk.start_params is None:
            chunk.start_params = self.params
        b = self.bundle
        t0 = time.perf_counter()
        result = train.train_stage(chunk.start_params, chunk.items, b.vocab, b.rules, b.config,
                                   self._config(self.steps_per_call,
                                                _seed(self.seed, _CHUNK, chunk.index)))
        latency = time.perf_counter() - t0
        self.params = result.params
        items = min(result.steps * self.batch_size, result.trained_count)
        return ChunkRun(outputs=result, items=items, latencies=[latency])

    def digest(self, run: ChunkRun) -> str:
        return checker.params_digest(run.outputs.params) + repr(run.outputs.step_losses)

    def check(self, chunk: Chunk, run: ChunkRun) -> tuple[int, list[str]]:
        losses = run.outputs.step_losses
        problems = checker.check_losses(losses)
        if problems:
            return run.items, problems
        if self.first_loss is None:
            self.first_loss = losses[0]
        # The digest pass replays chunk 0 after the last chunk; it must not
        # stand in for the last call actually trained.
        if chunk.index >= self.last_index:
            self.last_index, self.last_losses = chunk.index, losses
        return 0, []

    def finish(self) -> list[str]:
        """Run-level check once every chunk is done: the last chunk trained
        ends below the first step's loss."""
        if self.first_loss is None:
            return ["no training loss recorded"]
        return checker.check_loss_dropped(self.first_loss, self.last_losses)

    def answered(self, run: ChunkRun) -> int:
        return 0


WORKLOADS = {
    "tr_short": TrShort,
    "corpus_long": CorpusLong,
    "train_domain": TrainDomain,
}
