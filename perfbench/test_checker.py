"""Tests of the benchmark's output checker.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import math
import os
import sys
from types import SimpleNamespace

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checker  # noqa: E402
import workloads  # noqa: E402
from essayqa import assemble, build_vocab, evaluate, new_model, normalize  # noqa: E402
from essayqa.heads import ScoreBundle  # noqa: E402
from essayqa.locator import ResponseSpan, Verdict, verdict_to_record  # noqa: E402
from essayqa.pipeline import EvaluationRequest  # noqa: E402

ESSAY = "Last week my class visited the museum. I need to change the plan because it rains."
ANSWER = "I need to change the plan because it rains"
ZETA = 0.0


def _scores(score_final: float = -0.5, answered: bool = True) -> ScoreBundle:
    return ScoreBundle(score_ext=-0.2, score_has=0.9, score_null=0.1, score_diff=-0.8,
                       score_final=score_final, answered=answered)


def _answered(char_start: int | None = None, text: str = ANSWER,
              token_span=(12, 20), score_final: float = -0.5) -> Verdict:
    start = ESSAY.index(ANSWER) if char_start is None else char_start
    return Verdict(answered=True, scores=_scores(score_final), token_span=token_span,
                   span=ResponseSpan(start, start + len(text), text))


def test_valid_answered_verdict_passes():
    assert checker.check_verdict(_answered(), ESSAY, m=5, zeta=ZETA) == []


def test_valid_unanswered_verdict_passes():
    verdict = Verdict(answered=False, scores=_scores(0.7, answered=False), token_span=(3, 2))
    assert checker.check_verdict(verdict, ESSAY, m=5, zeta=ZETA) == []


def test_span_off_by_one_character_is_caught():
    shifted = _answered(char_start=ESSAY.index(ANSWER) + 1)
    problems = checker.check_verdict(shifted, ESSAY, m=5, zeta=ZETA)
    assert len(problems) == 1 and "span text" in problems[0]


def test_answered_above_zeta_is_caught():
    problems = checker.check_verdict(_answered(score_final=0.3), ESSAY, m=5, zeta=ZETA)
    assert any("> zeta" in p for p in problems)


def test_span_in_question_region_is_caught():
    problems = checker.check_verdict(_answered(token_span=(7, 20)), ESSAY, m=5, zeta=ZETA)
    assert any("before the essay" in p for p in problems)


def test_span_start_after_end_is_caught():
    problems = checker.check_verdict(_answered(token_span=(15, 12)), ESSAY, m=5, zeta=ZETA)
    assert any("start 15 > end 12" in p for p in problems)


def test_answered_without_span_is_caught():
    # Verdict refuses this combination itself; a look-alike object gets past it.
    class Loose:
        answered, span, token_span = True, None, (12, 20)
        scores = _scores()

    assert checker.check_verdict(Loose(), ESSAY, m=5, zeta=ZETA)


class _Example:
    def __init__(self, example_id: str, context: str = ESSAY):
        self.example_id, self.context = example_id, context


def test_records_in_order_pass_and_corruptions_are_caught():
    verdict = _answered()
    records = [verdict_to_record(verdict, "a", "e"), verdict_to_record(verdict, "b", "e")]
    examples = [_Example("a"), _Example("b")]
    assert checker.check_records(records, examples, ZETA) == (0, [])

    swapped = list(reversed(records))
    assert checker.check_records(swapped, examples, ZETA)[0] == 2

    shifted = dict(records[0], char_start=records[0]["char_start"] + 1,
                   char_end=records[0]["char_end"] + 1)
    failed, problems = checker.check_records([shifted, records[1]], examples, ZETA)
    assert failed == 1 and "span text" in problems[0]

    assert checker.check_records(records[:1], examples, ZETA)[0] == 1


def test_pipeline_verdicts_pass_and_digest_is_stable():
    essay = "Last week we met. Remember that we arranged to meet near the school gate."
    model = new_model(build_vocab([essay, "remind tom where you arranged to meet"]), seed=0)
    model.zeta = 10.0  # answer everything the locator allows
    request = EvaluationRequest(essay=essay, requirements=("remind Tom where you arranged to meet",
                                                           "say when the match will take place"),
                                model=model)
    first, second = evaluate(request), evaluate(request)
    for question, verdict in zip(request.requirements, first):
        m = assemble(normalize(question, model.rules), essay, model.vocab).m
        assert checker.check_verdict(verdict, essay, m=m, zeta=model.zeta) == []
    assert checker.verdict_digest(first) == checker.verdict_digest(second)


def test_loss_checks():
    assert checker.check_losses([2.0, 1.5]) == []
    assert checker.check_losses([2.0, math.nan])
    assert checker.check_loss_dropped(3.0, [2.0, 2.5]) == []
    assert checker.check_loss_dropped(3.0, [3.0, 3.5])


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_non_finite_losses_are_caught(bad):
    assert checker.check_losses([1.0, bad])


def test_loss_drop_is_judged_on_the_last_trained_chunk_not_the_replay(tmp_path):
    wl = workloads.TrainDomain(1, str(tmp_path))

    def check(index, losses):
        run = workloads.ChunkRun(outputs=SimpleNamespace(step_losses=losses), items=16,
                                 latencies=[0.0])
        assert wl.check(workloads.Chunk(index=index), run) == (0, [])

    check(0, [5.0, 4.0])
    check(1, [4.0, 4.5])
    check(2, [5.5, 6.0])  # finite, but back above the first step's loss
    check(0, [5.0, 4.0])  # the digest pass replays chunk 0 after the last chunk
    assert wl.finish()
