"""The trainable model bundle: encoder + heads + verification constants,
plus the vocabulary and normalization rules it was built with, so a saved
model is self-contained."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .encoder import EncoderConfig, encoder_param_shapes, init_params
from .errors import ValidationError
from .heads import head_param_shapes
from .qnorm import RewriteRuleSet
from .seqbuild import Vocabulary


@dataclass
class ModelBundle:
    """A model whose tensors, vocabulary and verification constants are
    those its config describes.  Construction and ``dataclasses.replace``
    check that and raise ValidationError; assigning an attribute later is
    not checked."""

    config: EncoderConfig
    params: dict[str, np.ndarray]
    vocab: Vocabulary
    rules: RewriteRuleSet
    rv_beta1: float = 0.5
    rv_beta2: float = 0.5
    zeta: float = 0.0
    # pipeline.serving_params' float32 copy: (the master params it was made
    # from, the served params).  Not carried over by dataclasses.replace.
    _serving: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        expected = param_shapes(self.config)
        missing = [name for name in expected if name not in self.params]
        if missing:
            raise ValidationError(f"missing tensors {missing[:5]}")
        extra = [name for name in self.params if name not in expected]
        if extra:
            raise ValidationError(f"tensors not in the config {extra[:5]}")
        for name, shape in expected.items():
            arr = self.params[name]
            if arr.shape != shape:
                raise ValidationError(
                    f"tensor {name!r} has shape {arr.shape}, config needs {shape}")
            if arr.dtype != self.config.np_dtype:
                raise ValidationError(
                    f"tensor {name!r} is {arr.dtype}, config needs {self.config.dtype}")
        if len(self.vocab) != self.config.vocab_size:
            raise ValidationError(f"vocabulary holds {len(self.vocab)} terms, "
                                  f"config.vocab_size is {self.config.vocab_size}")
        for name in ("rv_beta1", "rv_beta2", "zeta"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite, not {getattr(self, name)}")


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
