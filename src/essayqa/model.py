"""The trainable model bundle: encoder + heads + verification constants,
plus the vocabulary and normalization rules it was built with, so a saved
model is self-contained."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .encoder import EncoderConfig, encoder_param_shapes, init_params
from .heads import head_param_shapes
from .qnorm import RewriteRuleSet
from .seqbuild import Vocabulary


@dataclass
class ModelBundle:
    config: EncoderConfig
    params: dict[str, np.ndarray]
    vocab: Vocabulary
    rules: RewriteRuleSet
    rv_beta1: float = 0.5
    rv_beta2: float = 0.5
    zeta: float = 0.0

    def with_params(self, params: dict[str, np.ndarray]) -> "ModelBundle":
        return ModelBundle(
            config=self.config, params=params, vocab=self.vocab, rules=self.rules,
            rv_beta1=self.rv_beta1, rv_beta2=self.rv_beta2, zeta=self.zeta,
        )

    def copy_params(self) -> dict[str, np.ndarray]:
        return {k: v.copy() for k, v in self.params.items()}


def param_shapes(config: EncoderConfig) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every tensor a model of this config holds, encoder
    then heads, in initialization order."""
    return {**encoder_param_shapes(config), **head_param_shapes(config)}


def new_model(vocab: Vocabulary, rules: RewriteRuleSet | None = None,
              config: EncoderConfig | None = None, **config_overrides) -> ModelBundle:
    """Fresh seeded model; config defaults to the desk-scale setup with the
    vocabulary size filled in."""
    if config is None:
        config = EncoderConfig(vocab_size=len(vocab), **config_overrides)
    elif config_overrides:
        config = replace(config, **config_overrides)
    if config.vocab_size != len(vocab):
        config = replace(config, vocab_size=len(vocab))
    rng = np.random.default_rng(config.seed)
    params = init_params(param_shapes(config), config, rng)
    return ModelBundle(
        config=config,
        params=params,
        vocab=vocab,
        rules=rules if rules is not None else RewriteRuleSet(),
    )
