"""The training recipes behind the quality gates, in one place.

Acceptance criterion 8 and the ``trained`` fixture of tests/test_pipeline.py
train with these recipes, and tools/quality.py reruns the same recipes over
several shuffle seeds, so the seed study always measures what the gates run.
"""

from __future__ import annotations

from dataclasses import dataclass

from essayqa.corpus import QAExample
from essayqa.model import ModelBundle, new_model
from essayqa.seqbuild import build_vocab
from essayqa.synthetic import SyntheticConfig, generate_synthetic
from essayqa.train import Stage, TrainConfig, multi_stage_train


def synthetic(count: int, seed: int) -> list[QAExample]:
    return generate_synthetic(SyntheticConfig(count=count, answerable_ratio=0.6, seed=seed))


@dataclass(frozen=True)
class Recipe:
    """Synthetic sets as (count, generator seed), the vocabulary size and the
    schedule of one training stage; ``test`` is the set the gate scores."""

    train: tuple[int, int]
    dev: tuple[int, int]
    test: tuple[int, int]
    vocab_size: int
    epochs: int
    warmup_steps: int

    def fit(self, seed: int = 0) -> tuple[ModelBundle, list[QAExample]]:
        """The trained model and its training set; ``seed`` is
        ``TrainConfig.seed`` (the shuffle order)."""
        train_set, dev = synthetic(*self.train), synthetic(*self.dev)
        vocab = build_vocab([t for ex in train_set for t in (ex.question, ex.context)],
                            size=self.vocab_size)
        cfg = TrainConfig(epochs=self.epochs, learning_rate=1e-3, batch_size=16, seed=seed,
                          warmup_steps=self.warmup_steps)
        model, _ = multi_stage_train(new_model(vocab, seed=0),
                                     [Stage(name="fit", corpus=train_set, dev=dev)], cfg)
        return model, train_set


CRITERION8 = Recipe(train=(5000, 101), dev=(500, 202), test=(1000, 303), vocab_size=8000,
                    epochs=6, warmup_steps=100)
# scored by TestTrainedQuality; TestEvaluate::test_detects_matching_requirement
# answers the first PROBES answerable training examples
FIXTURE = Recipe(train=(2000, 31), dev=(150, 32), test=(200, 85), vocab_size=4000,
                 epochs=8, warmup_steps=50)
PROBES = 30
