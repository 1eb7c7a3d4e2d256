"""End-to-end evaluation of an essay against its requirement questions:
normalize each question, assemble the input sequence, encode, verify, and
locate the responding span.

Every serving path goes through ``infer_verdicts``.  It encodes consecutive
sequences as one pack of up to ``_PACK_ROWS`` rows (``encoder.encode`` on a
list), so a request's requirements share one encoder pass; the heads,
verification and locating run on each sequence's own rows.

Every verdict is computed in float32.  A float64 model is the master copy
that training updates and checkpoints store; its verdicts are served from
``serving_model``'s float32 cast of all its tensors, made once per model
and cached on it.  The master's values are never changed, and its arrays
are read-only once served.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, replace

from . import heads, locator, qnorm, seqbuild
from .encoder import encode
from .errors import OversizedQuestionError, ValidationError
from .locator import OVERSIZED_QUESTION, Verdict
from .model import ModelBundle


@dataclass(frozen=True)
class EvaluationRequest:
    essay: str
    requirements: tuple[str, ...]
    model: ModelBundle

    def __post_init__(self):
        if not self.essay or not self.essay.strip():
            raise ValidationError("essay must be nonempty")
        if not self.requirements:
            raise ValidationError("at least one requirement is needed")
        for i, req in enumerate(self.requirements):
            if not req.strip():
                raise ValidationError(f"requirement {i + 1} is empty")


_SERVING_DTYPE = "float32"


def serving_model(model: ModelBundle) -> ModelBundle:
    """The model verdicts are computed with: a float32 model itself, or a
    float32 copy of every tensor of a float64 model.

    The copy is made once per model and kept on it while every entry of
    ``model.params`` is the same array object; assigning a new tensor or a
    new dict makes the next call copy again.  The master arrays a cached
    copy was made from become read-only, so an in-place write raises
    instead of leaving the copy stale.  ``zeta``, the betas, the vocabulary
    and the rules are read from the model on every call.
    """
    if model.config.dtype == _SERVING_DTYPE:
        return model
    cached = model._serving
    if cached is None or not _same_arrays(model.params, cached[0]):
        source = tuple(model.params.items())
        params = {name: arr.astype(_SERVING_DTYPE) for name, arr in source}
        for _, arr in source:
            arr.setflags(write=False)
        cached = model._serving = (source, params)
    return replace(model, config=replace(model.config, dtype=_SERVING_DTYPE),
                   params=cached[1])


def _same_arrays(params: dict, source: tuple) -> bool:
    return len(params) == len(source) and all(
        name == src_name and arr is src_arr
        for (name, arr), (src_name, src_arr) in zip(params.items(), source))


# Rows of one serving encoder pass: two sequences at the input cap.  A larger
# pack holds more activation rows at once for little more speed.
_PACK_ROWS = 2 * seqbuild.MAX_INPUT_LEN


def infer_verdicts(model: ModelBundle, pairs: Iterable[tuple[str, str]]) -> list[Verdict]:
    """Run the full pipeline for each (question, essay) pair, in float32;
    verdicts in pair order.

    A float64 model is served from its cached float32 copy
    (``serving_model``), so its master arrays are read-only after the
    first verdict.  A question that leaves no room for the essay in
    ``config.max_len`` positions gets a not-answered verdict without scores,
    reason ``oversized_question``.
    """
    model = serving_model(model)
    verdicts: list[Verdict | None] = []
    pack: list[tuple[int, seqbuild.InputSequence, str]] = []
    rows = 0
    for question, essay in pairs:
        normalized = qnorm.normalize(question, model.rules)
        try:
            seq = seqbuild.assemble(normalized, essay, model.vocab, max_len=model.config.max_len)
        except OversizedQuestionError:
            verdicts.append(Verdict(answered=False, scores=None, reason=OVERSIZED_QUESTION))
            continue
        if pack and rows + seq.tau > _PACK_ROWS:
            _verdict_pack(model, pack, verdicts)
            pack, rows = [], 0
        pack.append((len(verdicts), seq, essay))
        verdicts.append(None)
        rows += seq.tau
    if pack:
        _verdict_pack(model, pack, verdicts)
    return verdicts


def _verdict_pack(model: ModelBundle, pack, verdicts: list) -> None:
    """Encode the pack's sequences in one pass and fill in their verdicts."""
    h = encode([seq for _, seq, _ in pack], model.params, model.config)
    start = 0
    for i, seq, essay in pack:
        h_last = h[start:start + seq.tau]
        start += seq.tau
        dist = heads.span_probabilities(h_last, model.params)
        scores = heads.verify(dist, h_last[0], model.params,
                              beta1=model.rv_beta1, beta2=model.rv_beta2, zeta=model.zeta)
        verdicts[i] = locator.locate_response(dist, seq, scores, essay)


def infer_verdict(model: ModelBundle, question: str, essay: str) -> Verdict:
    """``infer_verdicts`` for one (question, essay) pair."""
    return infer_verdicts(model, [(question, essay)])[0]


def evaluate(request: EvaluationRequest) -> list[Verdict]:
    """Verdicts for every requirement, in request order; the requirements
    share encoder packs."""
    return infer_verdicts(request.model, [(req, request.essay) for req in request.requirements])
