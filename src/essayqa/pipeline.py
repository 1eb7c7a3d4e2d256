"""End-to-end evaluation of an essay against its requirement questions:
normalize each question, assemble the input sequence, encode, verify, and
locate the responding span."""

from __future__ import annotations

from dataclasses import dataclass

from . import heads, locator, qnorm, seqbuild
from .encoder import encode
from .errors import ValidationError
from .locator import Verdict
from .model import ModelBundle


@dataclass(frozen=True)
class EvaluationRequest:
    essay: str
    requirements: tuple[str, ...]
    model: ModelBundle

    def validate(self) -> None:
        if not self.essay or not self.essay.strip():
            raise ValidationError("essay must be nonempty")
        if not self.requirements:
            raise ValidationError("at least one requirement is needed")
        for i, req in enumerate(self.requirements):
            if not req.strip():
                raise ValidationError(f"requirement {i + 1} is empty")


def infer_verdict(model: ModelBundle, question: str, essay: str) -> Verdict:
    """Run the full pipeline for one (question, essay) pair."""
    normalized = qnorm.normalize(question, model.rules)
    seq = seqbuild.assemble(normalized, essay, model.vocab,
                            max_len=min(model.config.max_len, seqbuild.MAX_INPUT_LEN))
    h_last = encode(seq, model.params, model.config)
    dist = heads.span_probabilities(h_last, model.params)
    scores = heads.verify(dist, h_last[0], model.params,
                          beta1=model.rv_beta1, beta2=model.rv_beta2, zeta=model.zeta)
    return locator.locate_response(dist, seq, scores, essay)


def evaluate(request: EvaluationRequest) -> list[Verdict]:
    """Verdicts for every requirement, in request order."""
    request.validate()
    return [infer_verdict(request.model, req, request.essay)
            for req in request.requirements]
