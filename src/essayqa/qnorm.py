"""Question normalization: rewrite task-requirement questions from the
examiner's perspective into the examinee's perspective.

Two deterministic rule families are applied, in this order:

1. pronoun switching   -- whole-word second-person pronouns become first person
2. redundant-word deletion -- everything before the first interrogative lead
   word ("what", "why", ...) is dropped

followed by an optional case policy on the result.  Rules operate on surface
words (whitespace/punctuation tokens), independent of the model tokenizer.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import ValidationError, read_text

# A "word" for rule matching: a run of letters/digits (apostrophes split, so
# the "you" in "you're" is its own token) or a single non-space symbol.
_WORD_RE = re.compile(r"[A-Za-z0-9]+|[^\sA-Za-z0-9]")

DEFAULT_PRONOUN_PAIRS = (
    ("you", "I"),
    ("your", "my"),
    ("yours", "mine"),
    ("yourself", "myself"),
)

DEFAULT_QUESTION_WORDS = (
    "what", "how", "why", "where", "when", "who", "which",
)


def split_words(text: str) -> list[tuple[str, int, int]]:
    """Split text into (word, char_start, char_end) triples, end exclusive."""
    return [(m.group(0), m.start(), m.end()) for m in _WORD_RE.finditer(text)]


@dataclass(frozen=True)
class RewriteRuleSet:
    """Immutable bundle of normalization rules.

    pronoun_map entries are (source, replacement) pairs matched whole-word and
    case-insensitively; question_words are the interrogative lead words that
    anchor redundant-word deletion.
    """

    pronoun_map: tuple[tuple[str, str], ...] = DEFAULT_PRONOUN_PAIRS
    question_words: tuple[str, ...] = DEFAULT_QUESTION_WORDS
    case_policy: str = "capitalize_first"  # or "preserve"
    # Built once from the fields above; normalize() reads them on every call.
    _pronoun_lookup: dict[str, str] = field(init=False, repr=False, compare=False)
    _question_word_set: frozenset[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        lookup = {src.lower(): dst for src, dst in self.pronoun_map}
        if len(lookup) != len(self.pronoun_map):
            raise ValidationError("pronoun_map keys must be unique (case-insensitive)")
        if not self.question_words:
            raise ValidationError("question_words must be nonempty")
        if self.case_policy not in ("preserve", "capitalize_first"):
            raise ValidationError(f"unknown case_policy: {self.case_policy!r}")
        object.__setattr__(self, "_pronoun_lookup", lookup)
        object.__setattr__(self, "_question_word_set",
                           frozenset(w.lower() for w in self.question_words))

    def pronoun_lookup(self) -> dict[str, str]:
        """Lower-cased source -> replacement; shared, so do not mutate it."""
        return self._pronoun_lookup

    def question_word_set(self) -> frozenset[str]:
        return self._question_word_set


@dataclass(frozen=True)
class NormalizedQuestion:
    original: str
    normalized: str
    applied_rules: tuple[str, ...] = field(default_factory=tuple)


def switch_pronouns(question: str, rules: RewriteRuleSet) -> str:
    """Replace every whole-word pronoun_map match, preserving all other text."""
    text, _ = _switch_pronouns_traced(question, rules)
    return text


def _switch_pronouns_traced(question: str, rules: RewriteRuleSet) -> tuple[str, list[str]]:
    lookup = rules.pronoun_lookup()
    out: list[str] = []
    fired: dict[str, str] = {}
    cursor = 0
    for word, start, end in split_words(question):
        repl = lookup.get(word.lower())
        if repl is None or repl == word:
            continue
        out.append(question[cursor:start])
        out.append(repl)
        cursor = end
        fired.setdefault(word.lower(), repl)
    out.append(question[cursor:])
    rule_ids = [f"pronoun:{src}->{dst}" for src, dst in fired.items()]
    return "".join(out), rule_ids


def delete_redundant(question: str, rules: RewriteRuleSet) -> str:
    """Drop every token before the first question word, if one occurs."""
    text, _ = _delete_redundant_traced(question, rules)
    return text


def _delete_redundant_traced(question: str, rules: RewriteRuleSet) -> tuple[str, list[str]]:
    qwords = rules.question_word_set()
    words = split_words(question)
    for i, (word, start, _) in enumerate(words):
        if word.lower() in qwords:
            if i == 0:
                return question, []
            return question[start:], [f"delete_before:{word.lower()}"]
    return question, []


def _apply_case_policy(text: str, rules: RewriteRuleSet) -> str:
    if rules.case_policy == "capitalize_first" and text:
        return text[0].upper() + text[1:]
    return text


def normalize(question: str, rules: RewriteRuleSet | None = None) -> NormalizedQuestion:
    """Full normalization: pronoun switch, then deletion, then case policy.

    applied_rules records only the rewrites that changed the text; the case
    policy is not a rule, so a question altered by capitalization alone still
    reports an empty rule list.
    """
    rules = rules if rules is not None else RewriteRuleSet()
    if not question:
        return NormalizedQuestion(original=question, normalized=question)
    switched, pronoun_rules = _switch_pronouns_traced(question, rules)
    trimmed, delete_rules = _delete_redundant_traced(switched, rules)
    final = _apply_case_policy(trimmed, rules)
    return NormalizedQuestion(
        original=question,
        normalized=final,
        applied_rules=tuple(pronoun_rules + delete_rules),
    )


def load_rules(path: str) -> RewriteRuleSet:
    """Parse a rule-set file.

    Grammar (line oriented; '#' starts a comment; blank lines ignored):

        [pronouns]
        you -> I
        your -> my

        [question_words]
        what
        why

        [options]
        case_policy = capitalize_first

    A section left empty keeps the built-in defaults of this module.
    """
    pronouns: list[tuple[str, str]] = []
    qwords: list[str] = []
    case_policy = RewriteRuleSet.case_policy
    section = None
    for lineno, raw in enumerate(read_text(path).split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section not in ("pronouns", "question_words", "options"):
                raise ValidationError(f"{path}:{lineno}: unknown section [{section}]")
            continue
        if section == "pronouns":
            if "->" not in line:
                raise ValidationError(f"{path}:{lineno}: expected 'source -> replacement'")
            src, dst = (part.strip() for part in line.split("->", 1))
            if not src or not dst:
                raise ValidationError(f"{path}:{lineno}: empty pronoun side")
            pronouns.append((src, dst))
        elif section == "question_words":
            qwords.append(line)
        elif section == "options":
            if "=" not in line:
                raise ValidationError(f"{path}:{lineno}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            if key != "case_policy":
                raise ValidationError(f"{path}:{lineno}: unknown option {key!r}")
            case_policy = value
        else:
            raise ValidationError(f"{path}:{lineno}: entry outside any section")
    return RewriteRuleSet(
        pronoun_map=tuple(pronouns) or DEFAULT_PRONOUN_PAIRS,
        question_words=tuple(qwords) or DEFAULT_QUESTION_WORDS,
        case_policy=case_policy,
    )
