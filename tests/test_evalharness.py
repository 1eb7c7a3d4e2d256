"""Metrics against independent recount oracles, plus report formatting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from essayqa.cli import cli_main
from essayqa.corpus import GoldAnswer, QAExample, save_sed_format
from essayqa.errors import ValidationError
from essayqa.evalharness import (
    accuracy,
    evaluate_verdicts,
    format_with_delta,
    overlap_f1,
)
from essayqa.heads import ScoreBundle
from essayqa.locator import ResponseSpan, Verdict, verdict_to_record, write_verdict_records
from reference import recount_accuracy, recount_overlap_f1

RNG = np.random.default_rng(555)


def gold_example(eid, answerable=True, answers=("the tall tower",), context=None):
    golds = []
    ctx = context if context is not None else " ".join(answers) + " extra words"
    for text in answers if answerable else ():
        start = ctx.find(text)
        golds.append(GoldAnswer(text=text, char_start=start))
    return QAExample(eid, "q", ctx, answerable, tuple(golds))


def make_verdict(answered, text=None):
    scores = ScoreBundle(0.0, 0.0, 0.0, 0.0, -1.0 if answered else 1.0, answered)
    span = ResponseSpan(0, len(text), text) if answered else None
    return Verdict(answered=answered, scores=scores, span=span)


class TestAccuracy:
    def test_all_match(self):
        gold = [gold_example(f"e{i}", answerable=bool(i % 2)) for i in range(6)]
        preds = {ex.example_id: ex.answerable for ex in gold}
        assert accuracy(preds, gold) == 1.0

    def test_three_of_four(self):
        gold = [gold_example(f"e{i}", answerable=True) for i in range(4)]
        preds = {f"e{i}": True for i in range(4)}
        preds["e3"] = False
        assert accuracy(preds, gold) == 0.75

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            accuracy({}, [])

    def test_id_mismatch_rejected(self):
        gold = [gold_example("e0")]
        with pytest.raises(ValidationError):
            accuracy({"other": True}, gold)

    def test_repeated_gold_id_rejected(self):
        gold = [gold_example("e0"), gold_example("e0", answerable=False)]
        with pytest.raises(ValidationError, match="example_id 'e0' repeats"):
            accuracy({"e0": True}, gold)

    def test_recount_oracle_10000(self):
        n = 10_000
        pred_flags = RNG.random(n) < 0.5
        gold_flags = RNG.random(n) < 0.5
        gold = [
            QAExample(f"e{i}", "q", "ctx filler here", bool(gold_flags[i]),
                      (GoldAnswer("ctx", 0),) if gold_flags[i] else ())
            for i in range(n)
        ]
        preds = {f"e{i}": bool(pred_flags[i]) for i in range(n)}
        ours = accuracy(preds, gold)
        ref = recount_accuracy(list(pred_flags), list(gold_flags))
        assert ours == ref

    def test_permutation_invariant(self):
        gold = [gold_example(f"e{i}", answerable=bool(i % 3)) for i in range(30)]
        preds = {ex.example_id: bool(RNG.random() < 0.5) for ex in gold}
        a = accuracy(preds, gold)
        shuffled = list(gold)
        RNG.shuffle(shuffled)
        assert accuracy(preds, shuffled) == a


class TestOverlapF1:
    def test_identical_spans(self):
        gold = gold_example("e", answers=("the tall tower",))
        assert overlap_f1("the tall tower", gold) == (1.0, 1.0, 1.0)

    def test_disjoint(self):
        gold = gold_example("e", answers=("the tall tower",))
        assert overlap_f1("some other words", gold) == (0.0, 0.0, 0.0)

    def test_hand_case_three_of_six_and_four(self):
        gold = gold_example("e", answers=("aa bb cc dd",),
                            context="aa bb cc dd xx yy zz qq rr")
        p, r, f1 = overlap_f1("aa bb cc xx yy zz", gold)
        assert p == pytest.approx(0.5)
        assert r == pytest.approx(0.75)
        assert f1 == pytest.approx(0.6)

    def test_both_unanswerable(self):
        gold = gold_example("e", answerable=False)
        assert overlap_f1(None, gold) == (1.0, 1.0, 1.0)

    def test_one_side_abstains(self):
        gold_yes = gold_example("e", answers=("the tall tower",))
        assert overlap_f1(None, gold_yes) == (0.0, 0.0, 0.0)
        gold_no = gold_example("e", answerable=False)
        assert overlap_f1("anything", gold_no) == (0.0, 0.0, 0.0)

    def test_multiple_golds_take_max(self):
        ctx = "aa bb cc dd ee"
        gold = QAExample("e", "q", ctx, True, (
            GoldAnswer("aa bb", 0), GoldAnswer("aa bb cc dd", 0),
        ))
        _, _, f1 = overlap_f1("aa bb cc dd", gold)
        assert f1 == 1.0

    def test_case_insensitive_bag(self):
        gold = gold_example("e", answers=("The Tall Tower",),
                            context="The Tall Tower stands")
        assert overlap_f1("the tall tower", gold)[2] == 1.0

    def test_recount_oracle_10000(self):
        pool = ["aa", "bb", "cc", "dd", "ee", "ff"]
        for _ in range(10_000):
            pred = [pool[int(i)] for i in RNG.integers(0, len(pool),
                                                       int(RNG.integers(1, 7)))]
            gold_toks = [pool[int(i)] for i in RNG.integers(0, len(pool),
                                                            int(RNG.integers(1, 7)))]
            gold_text = " ".join(gold_toks)
            gold = QAExample("e", "q", gold_text, True,
                             (GoldAnswer(gold_text, 0),))
            ours = overlap_f1(" ".join(pred), gold)
            ref = recount_overlap_f1(pred, gold_toks)
            assert ours == pytest.approx(ref, abs=1e-12)

    @given(st.lists(st.sampled_from("abcde"), min_size=1, max_size=8),
           st.lists(st.sampled_from("abcde"), min_size=1, max_size=8))
    @settings(max_examples=300, deadline=None)
    def test_symmetric_and_bounded(self, xs, ys):
        ctx_a, ctx_b = " ".join(xs), " ".join(ys)
        ga = QAExample("a", "q", ctx_a, True, (GoldAnswer(ctx_a, 0),))
        gb = QAExample("b", "q", ctx_b, True, (GoldAnswer(ctx_b, 0),))
        pa, ra, fa = overlap_f1(ctx_b, ga)
        pb, rb, fb = overlap_f1(ctx_a, gb)
        assert fa == pytest.approx(fb, abs=1e-12)   # symmetry in pred/gold bags
        assert pa == pytest.approx(rb, abs=1e-12)
        assert 0.0 <= fa <= min(1.0, 2 * min(pa, ra)) + 1e-12
        assert (fa == 0.0) == (pa * ra == 0.0)


class TestEvaluateVerdicts:
    def test_mean_f1_is_plain_mean(self):
        gold = [
            gold_example("e0", answers=("aa bb",), context="aa bb cc"),
            gold_example("e1", answerable=False, context="dd ee"),
            gold_example("e2", answers=("cc dd",), context="cc dd ee"),
        ]
        verdicts = {
            "e0": make_verdict(True, "aa bb"),       # f1 = 1
            "e1": make_verdict(False),               # f1 = 1 (both abstain)
            "e2": make_verdict(False),               # f1 = 0 (missed)
        }
        result = evaluate_verdicts(verdicts, gold)
        per = {p.example_id: p.f1 for p in result.per_example}
        assert per == {"e0": 1.0, "e1": 1.0, "e2": 0.0}
        assert result.mean_overlap_f1 == pytest.approx((1 + 1 + 0) / 3)
        assert result.accuracy == pytest.approx(2 / 3)

    def test_accuracy_recomputable_from_records(self):
        gold = [gold_example(f"e{i}", answerable=bool(i % 2)) for i in range(10)]
        verdicts = {ex.example_id: make_verdict(bool(RNG.random() < 0.5), "x аб"[:1])
                    for ex in gold}
        verdicts = {k: (v if not v.answered else make_verdict(True, "the"))
                    for k, v in verdicts.items()}
        result = evaluate_verdicts(verdicts, gold)
        recount = sum(1 for p in result.per_example
                      if p.answered_pred == p.answered_gold) / len(result.per_example)
        assert result.accuracy == pytest.approx(recount)


class TestCliEval:
    """``essayqa eval`` scores prediction records through the library's scorer."""

    def _files(self, tmp_path, gold, records):
        gold_file, pred_file = tmp_path / "gold.jsonl", tmp_path / "pred.jsonl"
        save_sed_format(gold, str(gold_file))
        with open(pred_file, "w", encoding="utf-8") as fh:
            write_verdict_records(records, fh)
        return ["eval", "--pred", str(pred_file), "--gold", str(gold_file)]

    def test_prints_what_evaluate_verdicts_computes(self, tmp_path, capsys):
        rng = np.random.default_rng(7)
        words = ["aa", "bb", "cc", "dd", "ee", "ff"]
        gold, verdicts = [], {}
        for i in range(40):
            context = " ".join(rng.choice(words, size=8))
            answer = " ".join(context.split()[2:2 + int(rng.integers(1, 4))])
            gold.append(gold_example(f"e{i}", answerable=bool(rng.random() < 0.6),
                                     answers=(answer,), context=context))
            lo = int(rng.integers(0, 5))
            pred = " ".join(context.split()[lo:lo + int(rng.integers(1, 4))])
            verdicts[f"e{i}"] = make_verdict(bool(rng.random() < 0.5), pred)
        expected = evaluate_verdicts(verdicts, gold)
        assert 0.0 < expected.mean_overlap_f1 < 1.0 and 0.0 < expected.accuracy < 1.0
        records = [verdict_to_record(v, question_id=eid, essay_id="x")
                   for eid, v in verdicts.items()]
        assert cli_main(self._files(tmp_path, gold, records)) == 0
        assert capsys.readouterr().out.splitlines() == [
            f"accuracy: {expected.accuracy:.4f}",
            f"mean overlap F1: {expected.mean_overlap_f1:.4f}",
        ]

    @pytest.mark.parametrize("answered, text", [(True, None), (False, "aa bb"),
                                                (None, None), (1, "aa bb")])
    def test_answered_flag_disagreeing_with_text_exits_1(self, tmp_path, capsys,
                                                          answered, text):
        gold = [gold_example("e0", answers=("aa bb",), context="aa bb cc"),
                gold_example("e1", answerable=False, context="dd ee")]
        records = [{"question_id": "e0", "essay_id": "x", "answered": answered,
                    "score_final": 0.0, "char_start": None, "char_end": None,
                    "text": text},
                   {"question_id": "e1", "essay_id": "x", "answered": False,
                    "score_final": 1.0, "char_start": None, "char_end": None,
                    "text": None}]
        assert cli_main(self._files(tmp_path, gold, records)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "pred.jsonl:1: 'answered'" in captured.err

    @pytest.mark.parametrize("field, value", [("question_id", 5), ("text", 5),
                                              ("text", ["aa", "bb"])])
    def test_mistyped_record_field_exits_1(self, tmp_path, capsys, field, value):
        # an integer id must not match the gold id "5" by its string form
        gold = [gold_example("5", answers=("aa bb",), context="aa bb cc")]
        record = {"question_id": "5", "answered": True, "text": "aa bb", field: value}
        assert cli_main(self._files(tmp_path, gold, [record])) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {tmp_path / 'pred.jsonl'}:1: ")
        assert f"field '{field}' must be a JSON string" in captured.err

    def test_record_without_question_id_exits_1(self, tmp_path, capsys):
        gold = [gold_example("e0", answerable=False, context="dd ee")]
        assert cli_main(self._files(tmp_path, gold, [{"answered": False, "text": None}])) == 1
        assert "pred.jsonl:1: missing field 'question_id'" in capsys.readouterr().err

    @pytest.mark.parametrize("answered, status", [(False, 0), (True, 1)])
    def test_absent_text_reads_as_null(self, tmp_path, capsys, answered, status):
        gold = [gold_example("e0", answerable=False, context="dd ee")]
        record = {"question_id": "e0", "answered": answered}
        assert cli_main(self._files(tmp_path, gold, [record])) == status
        captured = capsys.readouterr()
        if status == 0:
            assert captured.out.splitlines()[0] == "accuracy: 1.0000"
        else:
            assert "pred.jsonl:1: 'answered'" in captured.err

    def test_id_mismatch_exits_1(self, tmp_path, capsys):
        gold = [gold_example("e0"), gold_example("e1")]
        records = [verdict_to_record(make_verdict(False), "e0", "x")]
        assert cli_main(self._files(tmp_path, gold, records)) == 1
        assert "missing=['e1']" in capsys.readouterr().err

    def test_duplicate_question_id_exits_1(self, tmp_path, capsys):
        gold = [gold_example("e0", answers=("aa bb",), context="aa bb cc"),
                gold_example("e1", answerable=False, context="dd ee")]
        records = [verdict_to_record(make_verdict(False), "e0", "x"),
                   verdict_to_record(make_verdict(True, "aa bb"), "e0", "x"),
                   verdict_to_record(make_verdict(False), "e1", "x")]
        assert cli_main(self._files(tmp_path, gold, records)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert ("pred.jsonl:2: question_id 'e0' appears more than once (first on line 1)"
                in captured.err)

    @pytest.mark.parametrize("bad_file", ["pred", "gold"])
    def test_line_that_is_not_an_object_exits_1(self, tmp_path, capsys, bad_file):
        gold = [gold_example("e0")]
        records = [verdict_to_record(make_verdict(True, "the tall tower"), "e0", "x")]
        args = self._files(tmp_path, gold, records)
        (tmp_path / f"{bad_file}.jsonl").write_text("[1,2]\n", encoding="utf-8")
        assert cli_main(args) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{bad_file}.jsonl:1:" in captured.err


class TestFormatting:
    def test_positive_delta(self):
        assert format_with_delta(0.93, 0.91) == "0.93 (+0.02)"

    def test_negative_delta(self):
        assert format_with_delta(0.90, 0.91) == "0.90 (-0.01)"

    def test_zero_delta(self):
        assert format_with_delta(0.91, 0.91) == "0.91 (+0.00)"
