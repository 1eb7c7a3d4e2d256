"""Output checks behind the benchmark's ``failed`` count.

Every verdict, CLI record and training call the benchmark times is checked
here, outside the timed region.  A check returns a list of violation
strings; an empty list means the output is correct.
"""

from __future__ import annotations

import hashlib
import json
import math


def check_verdict(verdict, essay: str, m: int, zeta: float) -> list[str]:
    """Invariants of one pipeline ``Verdict`` for a question with ``m``
    question tokens, answered under threshold ``zeta``."""
    problems: list[str] = []
    span = verdict.span
    if verdict.answered != (span is not None):
        problems.append(f"answered={verdict.answered} but span is {span!r}")
    if verdict.answered and not verdict.scores.score_final <= zeta:
        problems.append(f"answered with score_final={verdict.scores.score_final} > zeta={zeta}")
    if span is not None:
        if span.text != essay[span.char_start:span.char_end]:
            problems.append(
                f"span text {span.text!r} != essay[{span.char_start}:{span.char_end}]"
            )
        if verdict.token_span is None:
            problems.append("answered verdict without a token span")
        else:
            start, end = verdict.token_span
            if start < m + 3:
                problems.append(f"span starts at position {start}, before the essay at {m + 3}")
            if start > end:
                problems.append(f"span start {start} > end {end}")
    return problems


def check_record(record: dict, example_id: str, context: str, zeta: float) -> list[str]:
    """Invariants of one ``predict`` line record against the example it
    answers."""
    problems: list[str] = []
    if record.get("question_id") != example_id:
        problems.append(f"record for {record.get('question_id')!r} where {example_id!r} was due")
    fields = (record.get("char_start"), record.get("char_end"), record.get("text"))
    has_span = all(f is not None for f in fields)
    if not has_span and any(f is not None for f in fields):
        problems.append(f"{example_id}: partial span fields {fields!r}")
    if bool(record.get("answered")) != has_span:
        problems.append(f"{example_id}: answered={record.get('answered')} but span is {fields!r}")
    if record.get("answered") and not record["score_final"] <= zeta:
        problems.append(f"{example_id}: answered with score_final={record['score_final']} > zeta={zeta}")
    if has_span:
        start, end, text = fields
        if not 0 <= start <= end:
            problems.append(f"{example_id}: bad character span [{start}, {end})")
        elif text != context[start:end]:
            problems.append(f"{example_id}: span text {text!r} != context[{start}:{end}]")
    return problems


def check_records(records: list[dict], examples: list, zeta: float) -> tuple[int, list[str]]:
    """One record per example, in corpus order, each individually valid.
    Returns (examples failing a check, what failed)."""
    failed = abs(len(records) - len(examples))
    problems = [f"{len(records)} records for {len(examples)} examples"] if failed else []
    for record, ex in zip(records, examples):
        found = check_record(record, ex.example_id, ex.context, zeta)
        failed += bool(found)
        problems.extend(found)
    return failed, problems


def check_losses(step_losses: list[float]) -> list[str]:
    """Every training loss is finite."""
    bad = [i for i, loss in enumerate(step_losses) if not math.isfinite(loss)]
    return [f"non-finite loss at steps {bad[:5]}"] if bad else []


def check_loss_dropped(first_loss: float, final_losses: list[float]) -> list[str]:
    """The mean loss of the last training call ends below the first step's."""
    final = sum(final_losses) / len(final_losses)
    if not final < first_loss:
        return [f"training loss did not drop: first step {first_loss}, last call mean {final}"]
    return []


def verdict_digest(verdicts) -> str:
    """Digest of everything a verdict reports; equal digests mean equal
    verdicts bit for bit."""
    h = hashlib.sha256()
    for v in verdicts:
        s = v.scores
        span = (v.span.char_start, v.span.char_end, v.span.text) if v.span else None
        h.update(repr((v.answered, v.token_span, span, s.score_ext, s.score_has,
                       s.score_null, s.score_diff, s.score_final, s.answered)).encode())
    return h.hexdigest()


def records_digest(records: list[dict]) -> str:
    return hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()


def params_digest(params: dict) -> str:
    h = hashlib.sha256()
    for name in sorted(params):
        h.update(name.encode())
        h.update(params[name].tobytes())
    return h.hexdigest()
