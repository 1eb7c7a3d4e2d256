"""Corpus loading/validation, statistics, and the synthetic generator."""

import hashlib
import json
import re

import pytest

from essayqa.cli import cli_main
from essayqa.corpus import (
    CorpusStats,
    GoldAnswer,
    QAExample,
    answer_length_stats,
    load_sed_format,
    load_squad,
    save_sed_format,
    write_histogram_csv,
)
from essayqa.errors import ValidationError
from essayqa.synthetic import BANKS, REQUIREMENTS_PER_ESSAY, SyntheticConfig, \
    generate_synthetic


def squad_payload():
    ctx = "The tower was finished in 1889. It stands in Paris."
    return {
        "version": "v2.0",
        "data": [{
            "title": "Tower",
            "paragraphs": [{
                "context": ctx,
                "qas": [
                    {
                        "id": "q1",
                        "question": "When was the tower finished?",
                        "is_impossible": False,
                        "answers": [{"text": "1889", "answer_start": 26}],
                    },
                    {
                        "id": "q2",
                        "question": "Who demolished the tower?",
                        "is_impossible": True,
                        "answers": [],
                        "plausible_answers": [{"text": "1889", "answer_start": 26}],
                    },
                ],
            }],
        }],
    }


class TestLoadSquad:
    def test_loads_and_flags(self, tmp_path):
        path = tmp_path / "squad.json"
        path.write_text(json.dumps(squad_payload()), encoding="utf-8")
        examples = load_squad(str(path))
        assert len(examples) == 2
        assert examples[0].answerable and examples[0].gold_answers[0].text == "1889"
        assert not examples[1].answerable and examples[1].gold_answers == ()

    def test_bad_offset_names_example_id(self, tmp_path):
        payload = squad_payload()
        payload["data"][0]["paragraphs"][0]["qas"][0]["answers"][0]["answer_start"] = 3
        path = tmp_path / "squad.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ValidationError, match="q1"):
            load_squad(str(path))

    def test_repeated_id_names_file(self, tmp_path):
        payload = squad_payload()
        payload["data"][0]["paragraphs"][0]["qas"][1]["id"] = "q1"
        path = tmp_path / "dup.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ValidationError, match=r"dup\.json: .*example_id 'q1' repeats"):
            load_squad(str(path))

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ValidationError):
            load_squad(str(path))

    def test_missing_data_field(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"version": "x"}), encoding="utf-8")
        with pytest.raises(ValidationError):
            load_squad(str(path))

    def test_question_without_id_names_file(self, tmp_path):
        payload = squad_payload()
        del payload["data"][0]["paragraphs"][0]["qas"][1]["id"]
        path = tmp_path / "no-id.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ValidationError, match=r"no-id\.json: missing field 'id'"):
            load_squad(str(path))

    @pytest.mark.parametrize("value", ["no", 0, None])
    def test_is_impossible_must_be_boolean(self, tmp_path, value):
        payload = squad_payload()
        payload["data"][0]["paragraphs"][0]["qas"][1]["is_impossible"] = value
        path = tmp_path / "flag.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ValidationError,
                           match=r"flag\.json: .*'is_impossible' must be a JSON boolean"):
            load_squad(str(path))

    @pytest.mark.parametrize("where, key", [
        (lambda p: p["data"][0]["paragraphs"][0]["qas"][0], "question"),
        (lambda p: p["data"][0]["paragraphs"][0], "context"),
        (lambda p: p["data"][0]["paragraphs"][0]["qas"][0]["answers"][0], "text"),
    ], ids=["question", "context", "answer-text"])
    def test_text_must_be_string(self, tmp_path, where, key):
        payload = squad_payload()
        where(payload)[key] = 1889
        path = tmp_path / "num.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ValidationError, match=rf"num\.json: .*'{key}' must be a JSON string"):
            load_squad(str(path))

    @pytest.mark.parametrize("key, kind, value", [
        ("id", "string", None), ("id", "string", 7),
        ("answer_start", "integer", 26.9), ("answer_start", "integer", True),
        ("answer_start", "integer", "26"),
    ])
    def test_id_and_offset_keep_their_json_type(self, tmp_path, key, kind, value):
        payload = squad_payload()
        qa = payload["data"][0]["paragraphs"][0]["qas"][0]
        (qa if key == "id" else qa["answers"][0])[key] = value
        path = tmp_path / "typed.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ValidationError, match=rf"^[^:]*typed\.json: malformed entry: "
                                                  rf"field '{key}' must be a JSON {kind}, "
                                                  rf"not {re.escape(json.dumps(value))}$"):
            load_squad(str(path))


class TestQAExample:
    @pytest.mark.parametrize("answerable, golds", [
        (True, (GoldAnswer("near the gate", 0),)),   # not at its offset
        (True, (GoldAnswer("gate.", 20),)),          # past the context
        (True, ()),
        (False, (GoldAnswer("Meet", 0),)),
    ])
    def test_inconsistent_example_refused_when_built(self, answerable, golds):
        with pytest.raises(ValidationError, match="^a: "):
            QAExample("a", "where do we meet", "Meet near the gate.", answerable, golds)


class TestSedFormat:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("", encoding="utf-8")
        assert load_sed_format(str(path)) == []

    def test_unanswerable_with_answers_rejected(self, tmp_path):
        rec = {"example_id": "x", "question": "q", "context": "I agree.",
               "answerable": False,
               "gold_answers": [{"text": "I agree", "char_start": 0}]}
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(rec) + "\n", encoding="utf-8")
        with pytest.raises(ValidationError):
            load_sed_format(str(path))

    def test_record_failing_its_own_check_names_line(self, tmp_path):
        good = {"example_id": "a", "question": "q", "context": "I agree.",
                "answerable": False}
        bad = {"example_id": "b", "question": "q", "context": "I agree.",
               "answerable": True, "gold_answers": [{"text": "agree", "char_start": 0}]}
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n",
                        encoding="utf-8")
        with pytest.raises(ValidationError,
                           match=r"bad\.jsonl:2: .*b: answer text does not match"):
            load_sed_format(str(path))

    def test_repeated_example_id_names_both_lines(self, tmp_path):
        rec = {"example_id": "dup", "question": "q", "context": "I agree.",
               "answerable": False}
        path = tmp_path / "dup.jsonl"
        path.write_text(json.dumps(rec) + "\n\n" + json.dumps(rec) + "\n", encoding="utf-8")
        with pytest.raises(ValidationError) as info:
            load_sed_format(str(path))
        assert str(info.value) == f"{path}:3: example_id 'dup' repeats line 1"

    def test_round_trip_500_synthetic(self, tmp_path):
        examples = generate_synthetic(SyntheticConfig(count=500, seed=3))
        path = tmp_path / "syn.jsonl"
        save_sed_format(examples, str(path))
        loaded = load_sed_format(str(path))
        assert loaded == examples

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_lines_split_as_in_text_mode(self, tmp_path, newline):
        examples = generate_synthetic(SyntheticConfig(count=3, seed=3))
        path = tmp_path / "syn.jsonl"
        save_sed_format(examples, str(path))
        lines = path.read_text(encoding="utf-8").splitlines()
        path.write_bytes(newline.join(lines[:2] + ["", '{"example_id": "x"}']).encode())
        with pytest.raises(ValidationError, match=r"syn\.jsonl:4: missing field"):
            load_sed_format(str(path))
        path.write_bytes(newline.join(lines).encode())
        assert load_sed_format(str(path)) == examples

    def test_missing_field_reports_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"example_id": "x"}\n', encoding="utf-8")
        with pytest.raises(ValidationError, match=":1"):
            load_sed_format(str(path))

    def test_gold_answer_that_is_not_an_object_reports_line(self, tmp_path):
        good = {"example_id": "a", "question": "q", "context": "I agree.",
                "answerable": False}
        bad = {"example_id": "b", "question": "q", "context": "I agree.",
               "answerable": True, "gold_answers": ["I agree"]}
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n",
                        encoding="utf-8")
        with pytest.raises(ValidationError, match=r"bad\.jsonl:2: malformed record"):
            load_sed_format(str(path))


    @pytest.mark.parametrize("value", ["no", 1, None])
    def test_answerable_must_be_boolean(self, tmp_path, value):
        rec = {"example_id": "x", "question": "q", "context": "I agree.",
               "answerable": value}
        path = tmp_path / "flag.jsonl"
        path.write_text(json.dumps(rec) + "\n", encoding="utf-8")
        with pytest.raises(ValidationError,
                           match=r"flag\.jsonl:1: .*'answerable' must be a JSON boolean"):
            load_sed_format(str(path))

    @pytest.mark.parametrize("key, value", [
        ("question", 5), ("context", ["I agree."]), ("text", 7),
    ])
    def test_text_must_be_string(self, tmp_path, key, value):
        good = {"example_id": "a", "question": "q", "context": "I agree.",
                "answerable": True, "gold_answers": [{"text": "I agree", "char_start": 0}]}
        bad = json.loads(json.dumps(good))
        if key == "text":
            bad["gold_answers"][0]["text"] = value
        else:
            bad[key] = value
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n",
                        encoding="utf-8")
        with pytest.raises(ValidationError,
                           match=rf"bad\.jsonl:2: .*'{key}' must be a JSON string"):
            load_sed_format(str(path))

    @pytest.mark.parametrize("key, kind, value", [
        ("example_id", "string", None), ("example_id", "string", 7),
        ("char_start", "integer", 3.9), ("char_start", "integer", False),
        ("char_start", "integer", "3"),
    ])
    def test_id_and_offset_keep_their_json_type(self, tmp_path, key, kind, value):
        good = {"example_id": "a", "question": "q", "context": "I agree.",
                "answerable": True, "gold_answers": [{"text": "agree", "char_start": 2}]}
        bad = json.loads(json.dumps(good))
        (bad if key == "example_id" else bad["gold_answers"][0])[key] = value
        path = tmp_path / "typed.jsonl"
        path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n", encoding="utf-8")
        with pytest.raises(ValidationError, match=rf"typed\.jsonl:2: malformed record: "
                                                  rf"field '{key}' must be a JSON {kind}, "
                                                  rf"not {re.escape(json.dumps(value))}$"):
            load_sed_format(str(path))

    def test_ingest_of_non_string_question_exits_1(self, tmp_path, capsys):
        rec = {"example_id": "x", "question": 5, "context": "I agree.",
               "answerable": False}
        path = tmp_path / "num.jsonl"
        path.write_text(json.dumps(rec) + "\n", encoding="utf-8")
        out = tmp_path / "out.jsonl"
        assert cli_main(["ingest", "--in", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "num.jsonl:1:" in err and "'question'" in err
        assert not out.exists()


class TestStats:
    def test_single_answer_mean(self):
        ex = QAExample("a", "q", "abcdefgh", True, (GoldAnswer("abcdefg", 0),))
        stats = answer_length_stats([ex])
        assert stats.mean_answer_length_chars == 7.0
        assert stats.example_count == 1
        assert stats.answerable_count == 1
        assert sum(c for *_, c in stats.answer_length_histogram) == 1

    def test_no_answers_mean_absent(self):
        ex = QAExample("a", "q", "ctx", False, ())
        stats = answer_length_stats([ex])
        assert stats.mean_answer_length_chars is None
        assert sum(c for *_, c in stats.answer_length_histogram) == 0

    def test_histogram_mass_equals_gold_answers(self):
        examples = generate_synthetic(SyntheticConfig(count=300, seed=5))
        stats = answer_length_stats(examples)
        assert (sum(c for *_, c in stats.answer_length_histogram)
                == sum(len(ex.gold_answers) for ex in examples))

    def test_histogram_matches_generator_bookkeeping(self):
        examples = generate_synthetic(SyntheticConfig(count=200, seed=9))
        stats = answer_length_stats(examples, bin_width=5)
        expected_bins = {}
        for n in (len(ans.text) for ex in examples for ans in ex.gold_answers):
            expected_bins[n // 5] = expected_bins.get(n // 5, 0) + 1
        for bin_start, _, count in stats.answer_length_histogram:
            assert count == expected_bins.get(bin_start // 5, 0)

    def test_stats_stable_across_recompute(self):
        examples = generate_synthetic(SyntheticConfig(count=100, seed=1))
        a = answer_length_stats(examples)
        b = answer_length_stats(examples)
        assert a == b

    def test_surrounding_whitespace_excluded(self):
        ex = QAExample("a", "q", "  hi there  ", True, (GoldAnswer(" hi there ", 1),))
        stats = answer_length_stats([ex])
        assert stats.mean_answer_length_chars == len("hi there")

    def test_csv_shape(self, tmp_path):
        import io

        stats = CorpusStats(2, 1, [(0, 5, 0), (5, 10, 1)], 7.0)
        buf = io.StringIO()
        write_histogram_csv(stats, buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "bin_start,bin_end,count"
        assert lines[2] == "5,10,1"


class TestSyntheticGenerator:
    def test_same_seed_byte_identical(self):
        a = generate_synthetic(SyntheticConfig(count=120, seed=21))
        b = generate_synthetic(SyntheticConfig(count=120, seed=21))
        assert a == b

    def test_different_seed_differs(self):
        a = generate_synthetic(SyntheticConfig(count=60, seed=1))
        b = generate_synthetic(SyntheticConfig(count=60, seed=2))
        assert a != b

    def test_exact_answerable_ratio(self):
        examples = generate_synthetic(SyntheticConfig(count=1000, answerable_ratio=0.7,
                                                      seed=4))
        assert sum(1 for e in examples if e.answerable) == 700

    def test_answer_lengths_in_band(self):
        examples = generate_synthetic(SyntheticConfig(count=600, seed=8))
        for ex in examples:
            for ans in ex.gold_answers:
                assert 25 <= len(ans.text) <= 100

    def test_every_template_combination_fits_band(self):
        from essayqa.synthetic import _capitalize, _fill

        for templates, _ in BANKS.values():
            for t in templates:
                slot_items = list(t.slots.items()) + list(t.fillers.items())

                def expand(values, remaining):
                    if not remaining:
                        sent = _capitalize(_fill(t.response, values))
                        assert 25 <= len(sent) <= 100, (t.name, sent)
                        return
                    key, options = remaining[0]
                    for opt in options:
                        expand({**values, key: opt}, remaining[1:])

                expand({}, slot_items)

    def test_offsets_valid_with_noise(self):
        # each example checks its gold offsets when it is built
        examples = generate_synthetic(SyntheticConfig(count=400, seed=12,
                                                      noise_rate=0.5))
        assert len(examples) == 400

    def test_gold_span_found_at_recorded_offset(self):
        examples = generate_synthetic(SyntheticConfig(count=300, seed=14))
        for ex in examples:
            for ans in ex.gold_answers:
                assert ex.context.find(ans.text) == ans.char_start or \
                    ex.context[ans.char_start: ans.char_start + len(ans.text)] == ans.text

    def test_sentence_counts_in_range(self):
        examples = generate_synthetic(SyntheticConfig(count=200, seed=2))
        essays = {ex.context for ex in examples}
        for essay in essays:
            n_sentences = essay.count(".")
            assert 3 <= n_sentences <= 9  # responses can push one past max

    def test_three_requirements_per_essay(self):
        examples = generate_synthetic(SyntheticConfig(count=300, seed=6))
        by_essay: dict[str, set[str]] = {}
        for ex in examples:
            by_essay.setdefault(ex.context, set()).add(ex.question)
        sizes = sorted(len(v) for v in by_essay.values())
        assert sizes[0] >= 1 and sizes[-1] <= 3
        assert sum(sizes) == 300

    def test_unanswerable_lacks_response_sentence(self):
        examples = generate_synthetic(SyntheticConfig(count=300, seed=10))
        answer_texts = {ans.text for ex in examples for ans in ex.gold_answers}
        for ex in examples:
            if not ex.answerable:
                # no recorded answer for OTHER pairings of the same essay may
                # satisfy this question's template keywords exactly
                assert all(ex.question not in t for t in answer_texts)

    def test_every_bank_fills_an_essay_with_distinct_templates(self):
        for templates, _ in BANKS.values():
            assert len(templates) >= REQUIREMENTS_PER_ESSAY

    def test_general_bank_distinct(self):
        domain = generate_synthetic(SyntheticConfig(count=60, seed=1, bank="domain"))
        general = generate_synthetic(SyntheticConfig(count=60, seed=1, bank="general"))
        assert {e.question for e in domain}.isdisjoint({e.question for e in general})

    def test_bad_config_rejected(self):
        with pytest.raises(ValidationError):
            SyntheticConfig(count=0)
        with pytest.raises(ValidationError):
            SyntheticConfig(count=10, answerable_ratio=1.5)
        with pytest.raises(ValidationError):
            SyntheticConfig(count=10, bank="nope")


class TestGoldenCorpora:
    """The saved bytes of the corpora the gates, the recipes and the
    benchmark workloads train and serve on: a change to the generator that
    moves any random draw or any text shows here."""

    @pytest.mark.parametrize("cfg, digest", [
        (SyntheticConfig(count=600, seed=101),
         "de11c309e56f635b2a8630ee3981f4708addfacaa4724037263fc3ebd9ea3f4e"),
        (SyntheticConfig(count=600, seed=401, bank="general"),
         "364fbf1038e024b954d0a0d6de35c5f416b275115e7e727ba0d521dd687d01cf"),
        (SyntheticConfig(count=600, seed=7, noise_rate=0.1, id_prefix="x"),
         "8d03eff97484c10a87e5773e5e7c599525827a06f7d933045d3e834cffea81e0"),
    ], ids=["domain-101", "general-401", "domain-7-noise"])
    def test_saved_corpus_sha256(self, tmp_path, cfg, digest):
        path = tmp_path / "corpus.jsonl"
        save_sed_format(generate_synthetic(cfg), str(path))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
