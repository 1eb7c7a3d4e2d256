"""Span-probability head and the three-part answerable verification.

Verification combines three scores, all of which grow when NO answer is the
likelier reading:

    score_ext  = logit_na - logit_ans          (front verifier on [CLS])
    score_diff = score_null - score_has        (threshold verification)
    score_final = beta1 * score_diff + beta2 * score_ext

The verdict is therefore "answered" when score_final <= zeta.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encoder import _MASKED, EncoderConfig, init_params, softmax_last
from .errors import ValidationError


def head_param_shapes(cfg: EncoderConfig) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every head tensor, in initialization order."""
    d = cfg.d_model
    return {
        "span.w_start": (d,),
        "span.w_end": (d,),
        "verify.w": (d, 2),
        "verify.b": (2,),
    }


def init_head_params(cfg: EncoderConfig, rng: np.random.Generator) -> dict[str, np.ndarray]:
    return init_params(head_param_shapes(cfg), cfg, rng)


@dataclass(frozen=True)
class SpanDistributions:
    """Start/end probability vectors over the tau positions (1-indexed: the
    probability of position u lives at prob_start[u - 1])."""

    prob_start: np.ndarray
    prob_end: np.ndarray

    def __post_init__(self):
        if self.prob_start.shape != self.prob_end.shape or self.prob_start.ndim != 1:
            raise ValidationError("prob_start and prob_end must be 1-d and same length")

    @property
    def tau(self) -> int:
        return len(self.prob_start)


@dataclass(frozen=True)
class ScoreBundle:
    score_ext: float
    score_has: float
    score_null: float
    score_diff: float
    score_final: float
    answered: bool


def span_logits(h_last: np.ndarray, params: dict[str, np.ndarray]):
    """Per-position start/end logits; works on (tau, d) or (B, T, d).

    They carry no bias: the softmax over positions ignores a constant added
    to every logit, so a bias would get no gradient."""
    return h_last @ params["span.w_start"], h_last @ params["span.w_end"]


def log_softmax_positions(logits: np.ndarray, mask: np.ndarray | None = None):
    """(log p, p) of the softmax over positions (the last axis).

    mask: optional boolean of the logits' shape, True at real positions;
    padded positions get p = 0 and are left out of every row's max and sum.
    Without a mask p is bit-identical to ``softmax_last(logits)``; log p is
    ``(x - max) - log(sum)`` and is meaningful at real positions only.
    """
    x = logits if mask is None else np.where(mask, logits, _MASKED)
    z = x - x.max(axis=-1, keepdims=True)
    e = np.exp(z)
    s = e.sum(axis=-1, keepdims=True)
    return z - np.log(s), e / s


def span_probabilities(h_last: np.ndarray, params: dict[str, np.ndarray]) -> SpanDistributions:
    """Softmax over positions of the per-position start and end logits; bit
    for bit the p of ``log_softmax_positions``, without computing log p."""
    start, end = span_logits(h_last, params)
    return SpanDistributions(prob_start=softmax_last(start), prob_end=softmax_last(end))


def verifier_logits(h_cls: np.ndarray, params: dict[str, np.ndarray]) -> np.ndarray:
    """Front-verifier logits (logit_ans, logit_na) on the last axis; works on
    (d,) or (B, d)."""
    return h_cls @ params["verify.w"] + params["verify.b"]


def external_front_verification(h_cls: np.ndarray, params: dict[str, np.ndarray]):
    """(logit_ans, logit_na, score_ext) from the [CLS] representation.

    The logits are pre-softmax; softmax enters only the training loss, since
    score_ext subtracts logits, not probabilities.
    """
    logits = verifier_logits(h_cls, params)
    logit_ans, logit_na = float(logits[0]), float(logits[1])
    return logit_ans, logit_na, logit_na - logit_ans


def threshold_verification(dist: SpanDistributions):
    """(score_has, score_null, score_diff).

    score_has is the best non-null pair probability max(p_start^k + p_end^l)
    over 1 < k <= l <= tau, found by a linear scan that tracks the running
    maximum of p_start; score_null reads the [CLS] position.
    """
    if dist.tau < 2:
        raise ValidationError("threshold verification needs tau >= 2")
    ps, pe = dist.prob_start, dist.prob_end
    running_max = np.maximum.accumulate(ps[1:])
    score_has = float((running_max + pe[1:]).max())
    score_null = float(ps[0] + pe[0])
    return score_has, score_null, score_null - score_has


def rear_verification(score_diff: float, score_ext: float, beta1: float, beta2: float,
                      zeta: float):
    """(score_final, answered): weighted combination against threshold zeta.

    Both inputs grow with no-answer evidence, so answered means
    score_final <= zeta (boundary counts as answered).
    """
    score_final = beta1 * score_diff + beta2 * score_ext
    return score_final, score_final <= zeta


def verify(dist: SpanDistributions, h_cls: np.ndarray, params: dict[str, np.ndarray],
           beta1: float, beta2: float, zeta: float) -> ScoreBundle:
    """Run all three verification steps and bundle the scores."""
    _, _, score_ext = external_front_verification(h_cls, params)
    score_has, score_null, score_diff = threshold_verification(dist)
    score_final, answered = rear_verification(score_diff, score_ext, beta1, beta2, zeta)
    return ScoreBundle(
        score_ext=score_ext,
        score_has=score_has,
        score_null=score_null,
        score_diff=score_diff,
        score_final=score_final,
        answered=answered,
    )
