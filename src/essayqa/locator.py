"""Response locating: argmax span selection with rejection rules.

A candidate span is the pair (argmax start, argmax end), ties broken toward
the lowest position.  It is rejected -- question not responded -- when the
verifier said "not answered", when either position lies outside the essay
region, or when start > end.  Accepted spans are mapped back to character
offsets in the original essay.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .corpus import read_json_lines
from .errors import ValidationError
from .heads import ScoreBundle, SpanDistributions
from .seqbuild import InputSequence


@dataclass(frozen=True)
class ResponseSpan:
    char_start: int
    char_end: int
    text: str


@dataclass(frozen=True)
class Verdict:
    answered: bool
    scores: ScoreBundle | None  # None only for a question too long to encode
    token_span: tuple[int, int] | None = None  # 1-indexed positions in T
    span: ResponseSpan | None = None

    def __post_init__(self):
        if self.answered and self.span is None:
            raise ValidationError("answered verdict must carry a span")
        if not self.answered and self.span is not None:
            raise ValidationError("not-answered verdict must not carry a span")


def span_to_chars(token_span: tuple[int, int], seq: InputSequence, essay: str) -> ResponseSpan:
    """Character span of the original essay covered by the token span
    (inclusive positions); includes any text between the tokens."""
    start_pos, end_pos = token_span
    first = seq.token_at(start_pos)
    last = seq.token_at(end_pos)
    for tok in (first, last):
        if tok.is_special or tok.segment != "essay":
            raise ValidationError(
                f"token at position {start_pos if tok is first else end_pos} "
                "has no essay offsets"
            )
    return ResponseSpan(
        char_start=first.char_start,
        char_end=last.char_end,
        text=essay[first.char_start: last.char_end],
    )


def locate_response(dist: SpanDistributions, seq: InputSequence, scores: ScoreBundle,
                    essay: str) -> Verdict:
    """Decide the final verdict for one (question, essay) pair; the essay
    region starts at position m+3."""
    if dist.tau != seq.tau:
        raise ValidationError(f"distribution length {dist.tau} != sequence tau {seq.tau}")
    start_pos = int(np.argmax(dist.prob_start)) + 1
    end_pos = int(np.argmax(dist.prob_end)) + 1
    not_answered = Verdict(answered=False, scores=scores,
                           token_span=(start_pos, end_pos), span=None)
    if not scores.answered:
        return not_answered
    if min(start_pos, end_pos) < seq.essay_start_pos:
        return not_answered
    if start_pos > end_pos:
        return not_answered

    span = span_to_chars((start_pos, end_pos), seq, essay)
    return Verdict(answered=True, scores=scores, token_span=(start_pos, end_pos), span=span)


# ------------------------------------------------------- verdict records


def verdict_to_record(verdict: Verdict, question_id: str, essay_id: str | None) -> dict:
    """Line-record form: {question_id, essay_id, answered, score_final,
    char_start, char_end, text} with null span fields when not answered and
    a null score_final when the verdict has no scores."""
    return {
        "question_id": question_id,
        "essay_id": essay_id,
        "answered": verdict.answered,
        "score_final": verdict.scores.score_final if verdict.scores is not None else None,
        "char_start": verdict.span.char_start if verdict.span else None,
        "char_end": verdict.span.char_end if verdict.span else None,
        "text": verdict.span.text if verdict.span else None,
    }


def write_verdict_records(records: list[dict], fh) -> None:
    for rec in records:
        fh.write(json.dumps(rec, ensure_ascii=False) + "\n")


def read_verdict_records(path: str) -> list[dict]:
    return [rec for _, rec in read_json_lines(path)]
