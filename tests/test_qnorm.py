"""Question normalization: worked examples byte-exactly, plus rule-set
properties (idempotence, determinism, token-count bounds)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from essayqa.errors import ValidationError
from essayqa.qnorm import (
    RewriteRuleSet,
    delete_redundant,
    load_rules,
    normalize,
    split_words,
    switch_pronouns,
)

RULES = RewriteRuleSet()


class TestSwitchPronouns:
    def test_summer_vacation_example(self):
        assert switch_pronouns("What will you do in the summer vacation ?", RULES) == \
            "What will I do in the summer vacation ?"

    def test_pronoun_component_of_composed_example(self):
        assert switch_pronouns("remind Sally where you arranged to meet", RULES) == \
            "remind Sally where I arranged to meet"

    def test_no_second_person_pronouns(self):
        text = "tell her who or what they filmed"
        assert switch_pronouns(text, RULES) == text

    def test_empty(self):
        assert switch_pronouns("", RULES) == ""

    def test_word_boundaries_not_substrings(self):
        # "yourself" is itself a key; "youth" must not be touched
        assert switch_pronouns("you yourself enjoy youth", RULES) == \
            "I myself enjoy youth"

    def test_case_insensitive_match(self):
        assert switch_pronouns("Your book and YOUR pen", RULES) == "my book and my pen"

    def test_contraction_splits_at_apostrophe(self):
        # rule matching splits on punctuation, so the "you" of "you're" is a word
        assert switch_pronouns("where you're going", RULES) == "where I're going"


class TestDeleteRedundant:
    def test_explain_why_example(self):
        assert delete_redundant("explain why you need to change the time", RULES) == \
            "why you need to change the time"

    def test_remind_sally_example(self):
        assert delete_redundant("remind Sally where you arranged to meet", RULES) == \
            "where you arranged to meet"

    def test_already_starts_with_question_word(self):
        text = "why the TV company chose my school"
        assert delete_redundant(text, RULES) == text

    def test_no_question_word_returns_unchanged(self):
        text = "suggest a new time to meet on Tuesday"
        assert delete_redundant(text, RULES) == text

    def test_question_word_inside_word_not_matched(self):
        text = "describe somewhere nice"
        assert delete_redundant(text, RULES) == text

    def test_punctuation_tokens_count_as_removable(self):
        assert delete_redundant("Say, where did it go", RULES) == "where did it go"


class TestNormalize:
    def test_composed_paper_example(self):
        result = normalize("remind Sally where you arranged to meet", RULES)
        assert result.normalized == "Where I arranged to meet"
        assert result.applied_rules == ("pronoun:you->I", "delete_before:where")

    def test_pronoun_only_example(self):
        result = normalize("What will you do in the summer vacation ?", RULES)
        assert result.normalized == "What will I do in the summer vacation ?"

    def test_empty_input(self):
        result = normalize("", RULES)
        assert result.normalized == ""
        assert result.applied_rules == ()

    def test_applied_rules_empty_iff_unchanged_up_to_case(self):
        result = normalize("suggest a new time to meet on Tuesday", RULES)
        # only capitalization differs -> no rules recorded
        assert result.applied_rules == ()
        assert result.normalized == "Suggest a new time to meet on Tuesday"

    def test_preserve_case_policy(self):
        rules = RewriteRuleSet(case_policy="preserve")
        result = normalize("explain why you need to change the time", rules)
        assert result.normalized == "why I need to change the time"


WORDS = st.sampled_from([
    "you", "your", "What", "why", "explain", "tell", "Sally", "the", "time",
    "meet", "remind", "?", ",", "yourself", "need", "change", "suggest",
])


@st.composite
def questions(draw):
    return " ".join(draw(st.lists(WORDS, min_size=0, max_size=12)))


class TestProperties:
    @given(questions())
    @settings(max_examples=200, deadline=None)
    def test_idempotent(self, q):
        once = normalize(q, RULES).normalized
        twice = normalize(once, RULES).normalized
        assert twice == once

    @given(questions())
    @settings(max_examples=100, deadline=None)
    def test_deterministic(self, q):
        assert normalize(q, RULES) == normalize(q, RULES)

    @given(questions())
    @settings(max_examples=100, deadline=None)
    def test_delete_never_adds_tokens(self, q):
        assert len(split_words(delete_redundant(q, RULES))) <= len(split_words(q))

    @given(questions())
    @settings(max_examples=100, deadline=None)
    def test_switch_preserves_token_count(self, q):
        # all default replacements are single tokens
        assert len(split_words(switch_pronouns(q, RULES))) == len(split_words(q))

    @given(questions())
    @settings(max_examples=100, deadline=None)
    def test_nonempty_stays_nonempty(self, q):
        if q.strip():
            assert normalize(q, RULES).normalized

    @given(questions())
    @settings(max_examples=100, deadline=None)
    def test_rules_recorded_iff_changed(self, q):
        result = normalize(q, RULES)
        unchanged_up_to_case = result.normalized in (
            q, q[:1].upper() + q[1:] if q else q
        )
        assert (result.applied_rules == ()) == unchanged_up_to_case


class TestRuleSet:
    def test_duplicate_pronoun_keys_rejected(self):
        with pytest.raises(ValidationError):
            RewriteRuleSet(pronoun_map=(("you", "I"), ("You", "me")))

    def test_empty_question_words_rejected(self):
        with pytest.raises(ValidationError):
            RewriteRuleSet(question_words=())

    def test_unknown_case_policy_rejected(self):
        with pytest.raises(ValidationError):
            RewriteRuleSet(case_policy="upper")


class TestRulesFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "custom.rules"
        path.write_text(
            "# comment\n"
            "[pronouns]\n"
            "you -> I\n"
            "we -> they  # inline comment\n"
            "\n"
            "[question_words]\n"
            "what\n"
            "whether\n"
            "[options]\n"
            "case_policy = preserve\n",
            encoding="utf-8",
        )
        rules = load_rules(str(path))
        assert rules.pronoun_map == (("you", "I"), ("we", "they"))
        assert rules.question_words == ("what", "whether")
        assert rules.case_policy == "preserve"
        assert normalize("tell me whether we agree", rules).normalized == "whether they agree"

    def test_empty_sections_keep_the_defaults(self, tmp_path):
        path = tmp_path / "options-only.rules"
        path.write_text("[pronouns]\n[options]\ncase_policy = capitalize_first\n",
                        encoding="utf-8")
        assert load_rules(str(path)) == RewriteRuleSet()

    def test_bad_section(self, tmp_path):
        path = tmp_path / "bad.rules"
        path.write_text("[nonsense]\n", encoding="utf-8")
        with pytest.raises(ValidationError):
            load_rules(str(path))

    def test_entry_outside_section(self, tmp_path):
        path = tmp_path / "bad.rules"
        path.write_text("you -> I\n", encoding="utf-8")
        with pytest.raises(ValidationError):
            load_rules(str(path))
