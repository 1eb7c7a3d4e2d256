"""The trainable model bundle: encoder + heads + verification constants,
plus the vocabulary and normalization rules it was built with, so a saved
model is self-contained."""

from __future__ import annotations

from dataclasses import dataclass, field

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
    # pipeline.serving_model's float32 copy: (the master params it was made
    # from, the served params).  Not carried over by dataclasses.replace.
    _serving: tuple | None = field(default=None, init=False, repr=False, compare=False)


def param_shapes(config: EncoderConfig) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every tensor a model of this config holds, encoder
    then heads, in initialization order."""
    return {**encoder_param_shapes(config), **head_param_shapes(config)}


def new_model(vocab: Vocabulary, rules: RewriteRuleSet | None = None,
              **config_overrides) -> ModelBundle:
    """Fresh seeded model: the desk-scale config with the vocabulary size
    filled in and ``config_overrides`` applied."""
    config = EncoderConfig(vocab_size=len(vocab), **config_overrides)
    rng = np.random.default_rng(config.seed)
    params = init_params(param_shapes(config), config, rng)
    return ModelBundle(
        config=config,
        params=params,
        vocab=vocab,
        rules=rules if rules is not None else RewriteRuleSet(),
    )
