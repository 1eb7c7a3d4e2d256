"""Response locating: argmax span selection with rejection rules.

A candidate span is the pair (argmax start, argmax end), ties broken toward
the lowest position.  It is rejected -- question not responded -- when the
verifier said "not answered", when either position lies outside the essay
region, or when start > end, in that order; the verdict's ``reason`` names
the first rule that rejected it.  Accepted spans are mapped back to
character offsets in the original essay.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .corpus import read_json_lines, typed_field
from .errors import ValidationError
from .heads import ScoreBundle, SpanDistributions
from .seqbuild import InputSequence


@dataclass(frozen=True)
class ResponseSpan:
    char_start: int
    char_end: int
    text: str


# Verdict.reason: why a verdict came out as it did.  Every verdict has
# exactly one; all but ANSWERED mean "not answered".
ANSWERED = "answered"
VERIFIER = "verifier"                      # score_final > zeta
QUESTION_REGION = "question_region"        # start or end argmax before the essay
START_AFTER_END = "start_after_end"        # start argmax past the end argmax
OVERSIZED_QUESTION = "oversized_question"  # question too long to encode
REASONS = (ANSWERED, VERIFIER, QUESTION_REGION, START_AFTER_END, OVERSIZED_QUESTION)


@dataclass(frozen=True)
class Verdict:
    answered: bool
    scores: ScoreBundle | None  # None only for a question too long to encode
    token_span: tuple[int, int] | None = None  # 1-indexed positions in T
    span: ResponseSpan | None = None
    # One of REASONS; None works it out where the other fields decide it
    # (answered, the verifier's rejection, no scores).
    reason: str | None = None

    def __post_init__(self):
        if self.answered and self.span is None:
            raise ValidationError("answered verdict must carry a span")
        if not self.answered and self.span is not None:
            raise ValidationError("not-answered verdict must not carry a span")
        implied = (ANSWERED if self.answered
                   else OVERSIZED_QUESTION if self.scores is None
                   else VERIFIER if not self.scores.answered
                   else None)
        if implied is None:  # the verifier accepted, so a locator rule rejected
            if self.reason not in (QUESTION_REGION, START_AFTER_END):
                raise ValidationError(f"a verdict the locator rejected needs the rule "
                                      f"as its reason, not {self.reason!r}")
        elif self.reason is None:
            object.__setattr__(self, "reason", implied)
        elif self.reason != implied:
            raise ValidationError(f"reason {self.reason!r} contradicts the verdict "
                                  f"({implied!r})")


def span_to_chars(token_span: tuple[int, int], seq: InputSequence, essay: str) -> ResponseSpan:
    """Character span of the original essay covered by the token span
    (inclusive positions); includes any text between the tokens."""
    start_pos, end_pos = token_span
    for pos in token_span:
        if not seq.essay_start_pos <= pos <= seq.tau:
            raise ValidationError(f"position {pos} is outside the essay region "
                                  f"[{seq.essay_start_pos}, {seq.tau}]")
    char_start = seq.char_starts[start_pos - 1]
    char_end = seq.char_ends[end_pos - 1]
    return ResponseSpan(char_start=char_start, char_end=char_end,
                        text=essay[char_start:char_end])


def locate_response(dist: SpanDistributions, seq: InputSequence, scores: ScoreBundle,
                    essay: str) -> Verdict:
    """Decide the final verdict for one (question, essay) pair; the essay
    region starts at position m+3."""
    if dist.tau != seq.tau:
        raise ValidationError(f"distribution length {dist.tau} != sequence tau {seq.tau}")
    start_pos = int(np.argmax(dist.prob_start)) + 1
    end_pos = int(np.argmax(dist.prob_end)) + 1
    if not scores.answered:
        reason = VERIFIER
    elif min(start_pos, end_pos) < seq.essay_start_pos:
        reason = QUESTION_REGION
    elif start_pos > end_pos:
        reason = START_AFTER_END
    else:
        span = span_to_chars((start_pos, end_pos), seq, essay)
        return Verdict(answered=True, scores=scores, token_span=(start_pos, end_pos),
                       span=span, reason=ANSWERED)
    return Verdict(answered=False, scores=scores, token_span=(start_pos, end_pos),
                   reason=reason)


# ------------------------------------------------------- verdict records


def verdict_to_record(verdict: Verdict, question_id: str, essay_id: str | None) -> dict:
    """Line-record form: {question_id, essay_id, answered, reason, score_final,
    char_start, char_end, text} with null span fields when not answered and
    a null score_final when the verdict has no scores."""
    return {
        "question_id": question_id,
        "essay_id": essay_id,
        "answered": verdict.answered,
        "reason": verdict.reason,
        "score_final": verdict.scores.score_final if verdict.scores is not None else None,
        "char_start": verdict.span.char_start if verdict.span else None,
        "char_end": verdict.span.char_end if verdict.span else None,
        "text": verdict.span.text if verdict.span else None,
    }


def write_verdict_records(records: list[dict], fh) -> None:
    for rec in records:
        fh.write(json.dumps(rec, ensure_ascii=False) + "\n")


def read_verdict_records(path: str) -> list[dict]:
    """The records of a verdict file.  Each needs a string ``question_id``
    that no earlier record has; ``text`` is a string or null, an absent
    ``text`` reads as null, and ``answered`` is true exactly when ``text`` is
    a string.  ValidationError names path and line if not."""
    records: list[dict] = []
    first_line: dict[str, int] = {}
    for lineno, rec in read_json_lines(path):
        try:
            qid = typed_field(rec, "question_id", str)
            text = rec["text"] = typed_field(rec, "text", (str, type(None)), None)
        except KeyError as exc:
            raise ValidationError(f"{path}:{lineno}: missing field {exc}") from exc
        except TypeError as exc:
            raise ValidationError(f"{path}:{lineno}: malformed record: {exc}") from exc
        first = first_line.setdefault(qid, lineno)
        if first != lineno:
            raise ValidationError(f"{path}:{lineno}: question_id {qid!r} appears more than "
                                  f"once (first on line {first})")
        answered = rec.get("answered")
        if not isinstance(answered, bool) or answered != (text is not None):
            raise ValidationError(f"{path}:{lineno}: 'answered' must be true exactly when "
                                  f"'text' is given (answered={answered!r}, text={text!r})")
        records.append(rec)
    return records
