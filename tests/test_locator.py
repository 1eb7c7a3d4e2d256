"""Response locating: rejection rules, char-offset round trips, and the
span-presence invariant under fuzzing."""

import numpy as np
import pytest

from essayqa.corpus import QAExample
from essayqa.errors import ValidationError
from essayqa.evalharness import predict_corpus
from essayqa.heads import ScoreBundle, SpanDistributions
from essayqa.locator import (
    REASONS,
    ResponseSpan,
    Verdict,
    locate_response,
    read_verdict_records,
    span_to_chars,
    verdict_to_record,
    write_verdict_records,
)
from essayqa.model import new_model
from essayqa.seqbuild import assemble, build_vocab

RNG = np.random.default_rng(42)

ESSAY = "I will travel to Japan. We meet near the gate."
QUESTION = "what will I do"
VOCAB = build_vocab([ESSAY, QUESTION], size=200)
SEQ = assemble(QUESTION, ESSAY, VOCAB)


def answered_scores():
    return ScoreBundle(score_ext=-1.0, score_has=1.5, score_null=0.1,
                       score_diff=-1.4, score_final=-1.2, answered=True)


def rejected_scores():
    return ScoreBundle(score_ext=2.0, score_has=0.2, score_null=1.4,
                       score_diff=1.2, score_final=1.6, answered=False)


def dist_with_argmax(start_pos, end_pos, tau):
    ps = np.full(tau, 0.5 / (tau - 1) if tau > 1 else 1.0)
    pe = ps.copy()
    ps[start_pos - 1] = 0.5
    pe[end_pos - 1] = 0.5
    ps /= ps.sum()
    pe /= pe.sum()
    return SpanDistributions(prob_start=ps, prob_end=pe)


class TestLocateResponse:
    def test_answered_with_constructed_argmaxes(self):
        start = SEQ.essay_start_pos
        end = SEQ.essay_start_pos + 2
        dist = dist_with_argmax(start, end, SEQ.tau)
        verdict = locate_response(dist, SEQ, answered_scores(), ESSAY)
        assert verdict.answered
        assert verdict.token_span == (start, end)
        assert verdict.span.text == ESSAY[SEQ.char_starts[start - 1]: SEQ.char_ends[end - 1]]
        assert verdict.span.text == "I will travel"

    # the first question token, the last question token (m+1) and [SEP] (m+2)
    @pytest.mark.parametrize("start", [2, SEQ.m + 1, SEQ.m + 2],
                             ids=["first-question-token", "last-question-token", "sep"])
    def test_question_region_argmax_rejected(self, start):
        dist = dist_with_argmax(start, SEQ.essay_start_pos + 2, SEQ.tau)
        verdict = locate_response(dist, SEQ, answered_scores(), ESSAY)
        assert not verdict.answered
        assert verdict.span is None

    def test_sep_position_rejected(self):
        dist = dist_with_argmax(SEQ.m + 2, SEQ.essay_start_pos + 1, SEQ.tau)
        verdict = locate_response(dist, SEQ, answered_scores(), ESSAY)
        assert not verdict.answered

    def test_start_after_end_rejected(self):
        dist = dist_with_argmax(SEQ.essay_start_pos + 3, SEQ.essay_start_pos, SEQ.tau)
        verdict = locate_response(dist, SEQ, answered_scores(), ESSAY)
        assert not verdict.answered

    def test_verifier_rejection_is_final(self):
        dist = dist_with_argmax(SEQ.essay_start_pos, SEQ.essay_start_pos + 1, SEQ.tau)
        verdict = locate_response(dist, SEQ, rejected_scores(), ESSAY)
        assert not verdict.answered
        assert verdict.span is None

    def test_tie_breaks_to_lowest_position(self):
        ps = np.full(SEQ.tau, 1.0 / SEQ.tau)
        dist = SpanDistributions(prob_start=ps, prob_end=ps.copy())
        verdict = locate_response(dist, SEQ, answered_scores(), ESSAY)
        # uniform: argmax is position 1 ([CLS]) -> question region -> rejected
        assert verdict.token_span == (1, 1)
        assert not verdict.answered

    def test_length_mismatch_rejected(self):
        dist = dist_with_argmax(2, 3, SEQ.tau + 1)
        with pytest.raises(ValidationError):
            locate_response(dist, SEQ, answered_scores(), ESSAY)


class TestSpanToChars:
    def test_single_token(self):
        pos = SEQ.essay_start_pos
        start, end = SEQ.char_starts[pos - 1], SEQ.char_ends[pos - 1]
        span = span_to_chars((pos, pos), SEQ, ESSAY)
        assert (span.char_start, span.char_end) == (start, end)
        assert span.text == ESSAY[start:end]

    def test_union_includes_gap_text(self):
        a, b = SEQ.essay_start_pos, SEQ.essay_start_pos + 2
        span = span_to_chars((a, b), SEQ, ESSAY)
        assert span.char_start == SEQ.char_starts[a - 1]
        assert span.char_end == SEQ.char_ends[b - 1]
        assert " " in span.text

    def test_special_position_rejected(self):
        with pytest.raises(ValidationError):
            span_to_chars((1, SEQ.essay_start_pos), SEQ, ESSAY)
        with pytest.raises(ValidationError):
            span_to_chars((2, 2), SEQ, ESSAY)  # question token

    def test_round_trip_randomized(self):
        words = ["alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf"]
        vocab = build_vocab([" ".join(words)], size=100)
        rng = np.random.default_rng(7)
        for _ in range(1000):
            n = int(rng.integers(3, 15))
            essay = " ".join(words[int(i)] for i in rng.integers(0, len(words), n))
            seq = assemble("alpha bravo", essay, vocab)
            lo = int(rng.integers(seq.essay_start_pos, seq.tau + 1))
            hi = int(rng.integers(lo, seq.tau + 1))
            span = span_to_chars((lo, hi), seq, essay)
            assert span.text == essay[span.char_start: span.char_end]


class TestVerdictInvariants:
    def test_answered_requires_span(self):
        with pytest.raises(ValidationError):
            Verdict(answered=True, scores=answered_scores(), span=None)

    def test_not_answered_forbids_span(self):
        with pytest.raises(ValidationError):
            Verdict(answered=False, scores=rejected_scores(),
                    span=ResponseSpan(0, 1, "I"))

    def test_fuzzed_invariant_span_iff_answered(self):
        rng = np.random.default_rng(11)
        for _ in range(500):
            ps = rng.dirichlet(np.ones(SEQ.tau))
            pe = rng.dirichlet(np.ones(SEQ.tau))
            dist = SpanDistributions(prob_start=ps, prob_end=pe)
            scores = answered_scores() if rng.random() < 0.7 else rejected_scores()
            verdict = locate_response(dist, SEQ, scores, ESSAY)
            assert (verdict.span is not None) == verdict.answered
            assert verdict.reason in REASONS
            assert (verdict.reason == "answered") == verdict.answered
            if verdict.answered:
                assert verdict.token_span[0] >= SEQ.essay_start_pos
                assert verdict.token_span[1] >= verdict.token_span[0]
                assert verdict.span.text == ESSAY[verdict.span.char_start:
                                                  verdict.span.char_end]
            if not scores.answered:
                assert not verdict.answered


class TestVerdictReason:
    """One hand-built verdict per reason, each from the code path that sets it."""

    def test_answered(self):
        dist = dist_with_argmax(SEQ.essay_start_pos, SEQ.essay_start_pos + 1, SEQ.tau)
        verdict = locate_response(dist, SEQ, answered_scores(), ESSAY)
        assert verdict.answered and verdict.reason == "answered"

    def test_verifier(self):
        # the span would be valid: the verifier alone decides
        dist = dist_with_argmax(SEQ.essay_start_pos, SEQ.essay_start_pos + 1, SEQ.tau)
        verdict = locate_response(dist, SEQ, rejected_scores(), ESSAY)
        assert not verdict.answered and verdict.reason == "verifier"

    def test_question_region(self):
        dist = dist_with_argmax(SEQ.m + 2, SEQ.essay_start_pos + 1, SEQ.tau)
        verdict = locate_response(dist, SEQ, answered_scores(), ESSAY)
        assert not verdict.answered and verdict.reason == "question_region"

    def test_start_after_end(self):
        dist = dist_with_argmax(SEQ.essay_start_pos + 3, SEQ.essay_start_pos, SEQ.tau)
        verdict = locate_response(dist, SEQ, answered_scores(), ESSAY)
        assert not verdict.answered and verdict.reason == "start_after_end"

    def test_oversized_question(self):
        model = new_model(VOCAB, layers=1, d_model=8, heads=2, ffn_inner=8, max_len=16)
        huge = QAExample("huge", " ".join(["what"] * 20), ESSAY, False, ())
        verdict = predict_corpus(model, [huge])["huge"]
        assert verdict.scores is None and verdict.reason == "oversized_question"

    def test_region_wins_over_order(self):
        # start after end *and* in the question region: the region rule is first
        dist = dist_with_argmax(SEQ.essay_start_pos + 1, 2, SEQ.tau)
        assert locate_response(dist, SEQ, answered_scores(), ESSAY).reason == "question_region"

    def test_reason_implied_where_the_fields_decide(self):
        span = ResponseSpan(0, 1, "I")
        assert Verdict(answered=True, scores=answered_scores(), span=span).reason == "answered"
        assert Verdict(answered=False, scores=rejected_scores()).reason == "verifier"
        assert Verdict(answered=False, scores=None).reason == "oversized_question"

    @pytest.mark.parametrize("scores, reason", [
        ("answered", None),             # a locator rejection must name its rule
        ("answered", "verifier"),       # the verifier accepted
        ("rejected", "question_region"),  # the verifier rejected first
        (None, "verifier"),             # no scores: the question was too long
        ("answered", "no_essay_token"),
    ])
    def test_contradicting_reason_rejected(self, scores, reason):
        bundle = {"answered": answered_scores(), "rejected": rejected_scores(),
                  None: None}[scores]
        with pytest.raises(ValidationError):
            Verdict(answered=False, scores=bundle, reason=reason)


class TestVerdictRecords:
    def test_record_round_trip(self, tmp_path):
        dist = dist_with_argmax(SEQ.essay_start_pos, SEQ.essay_start_pos + 1, SEQ.tau)
        verdicts = [
            locate_response(dist, SEQ, answered_scores(), ESSAY),
            locate_response(dist, SEQ, rejected_scores(), ESSAY),
        ]
        records = [verdict_to_record(v, question_id=f"q{i}", essay_id="e1")
                   for i, v in enumerate(verdicts)]
        path = tmp_path / "verdicts.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            write_verdict_records(records, fh)
        loaded = read_verdict_records(str(path))
        assert loaded == records
        assert loaded[0]["answered"] is True
        assert loaded[0]["text"] == verdicts[0].span.text
        assert loaded[1]["text"] is None
        assert set(loaded[0]) == {"question_id", "essay_id", "answered", "reason",
                                  "score_final", "char_start", "char_end", "text"}
        assert [rec["reason"] for rec in loaded] == ["answered", "verifier"]
