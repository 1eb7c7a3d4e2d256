"""Corpus ingestion and statistics.

Two on-disk layouts are understood:

* SQuAD 2.0 JSON (data/paragraphs/context/qas with is_impossible and
  answers[text, answer_start]);
* a line-delimited record format for essay datasets, one JSON object per
  line with fields {example_id, question, context, answerable,
  gold_answers: [{text, char_start}]}.

Every example checks its answers against their offsets when it is built.
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from dataclasses import dataclass

from .errors import ValidationError, read_text

HISTOGRAM_BIN_WIDTH = 5  # characters per answer-length bin

_JSON_TYPE_NAMES = {str: "string", bool: "boolean", int: "integer", float: "number",
                    dict: "object", list: "array", type(None): "null"}


@dataclass(frozen=True)
class GoldAnswer:
    text: str
    char_start: int


@dataclass(frozen=True)
class QAExample:
    example_id: str
    question: str
    context: str
    answerable: bool
    gold_answers: tuple[GoldAnswer, ...] = ()

    def __post_init__(self):
        if self.answerable and not self.gold_answers:
            raise ValidationError(f"{self.example_id}: answerable example without gold answers")
        if not self.answerable and self.gold_answers:
            raise ValidationError(f"{self.example_id}: unanswerable example with gold answers")
        for ans in self.gold_answers:
            end = ans.char_start + len(ans.text)
            if ans.char_start < 0 or end > len(self.context):
                raise ValidationError(
                    f"{self.example_id}: answer offset {ans.char_start} outside context"
                )
            if self.context[ans.char_start: end] != ans.text:
                raise ValidationError(
                    f"{self.example_id}: answer text does not match context at "
                    f"offset {ans.char_start}"
                )


@dataclass
class CorpusStats:
    example_count: int
    answerable_count: int
    answer_length_histogram: list[tuple[int, int, int]]  # (bin_start, bin_end, count)
    mean_answer_length_chars: float | None


_REQUIRED = object()


def _is_json_kind(value, kind: type) -> bool:
    """isinstance with JSON's number rules: a boolean is no integer or number,
    and an integer is a number."""
    if kind in (int, float):
        return isinstance(value, (int, kind)) and not isinstance(value, bool)
    return isinstance(value, kind)


def typed_field(obj: dict, key: str, kind: type | tuple[type, ...], default=_REQUIRED):
    """``obj[key]``, or ``default`` when given and the key is absent; the value
    must be a JSON value of ``kind`` (a type or a tuple of types; ``int``
    rejects booleans and ``float`` accepts integers).  KeyError when missing,
    TypeError when mistyped."""
    value = obj[key] if default is _REQUIRED else obj.get(key, default)
    kinds = kind if isinstance(kind, tuple) else (kind,)
    if not any(_is_json_kind(value, k) for k in kinds):
        names = " or ".join(_JSON_TYPE_NAMES[k] for k in kinds)
        raise TypeError(f"field '{key}' must be a JSON {names}, "
                        f"not {json.dumps(value, default=repr)}")
    return value


def check_unique_ids(examples: list[QAExample]) -> None:
    """ValidationError naming the first repeated id: results are keyed by id."""
    seen: set[str] = set()
    for ex in examples:
        if ex.example_id in seen:
            raise ValidationError(f"example_id {ex.example_id!r} repeats")
        seen.add(ex.example_id)


def load_squad(path: str) -> list[QAExample]:
    """Flatten a SQuAD 2.0 file into one example per question; ids must be unique."""
    try:
        payload = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: not valid JSON: {exc}") from exc
    examples: list[QAExample] = []
    try:
        articles = payload["data"]
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"{path}: missing top-level 'data' field") from exc
    try:
        for article in articles:
            for para in article.get("paragraphs", []):
                context = typed_field(para, "context", str)
                for qa in para["qas"]:
                    is_impossible = typed_field(qa, "is_impossible", bool, False)
                    answers = () if is_impossible else tuple(
                        GoldAnswer(text=typed_field(a, "text", str),
                                   char_start=typed_field(a, "answer_start", int))
                        for a in qa.get("answers", [])
                    )
                    examples.append(QAExample(
                        example_id=typed_field(qa, "id", str),
                        question=typed_field(qa, "question", str),
                        context=context,
                        answerable=not is_impossible,
                        gold_answers=answers,
                    ))
        check_unique_ids(examples)
    except KeyError as exc:
        raise ValidationError(f"{path}: missing field {exc}") from exc
    except (AttributeError, TypeError, ValidationError) as exc:
        raise ValidationError(f"{path}: malformed entry: {exc}") from exc
    return examples


def read_json_lines(path: str) -> Iterator[tuple[int, dict]]:
    """(line number, object) for each non-blank line of a JSON-lines file;
    a line that is not UTF-8 or not a JSON object raises ValidationError
    naming path and line.  Lines split where text mode splits them."""
    with open(path, "rb") as fh:
        raw_lines = fh.read().splitlines()
    for lineno, raw in enumerate(raw_lines, start=1):
        try:
            line = raw.decode("utf-8").strip()
        except UnicodeDecodeError as exc:
            raise ValidationError(f"{path}:{lineno}: not UTF-8 text ({exc.reason})") from exc
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}:{lineno}: bad record: {exc}") from exc
        if not isinstance(obj, dict):
            raise ValidationError(f"{path}:{lineno}: record is a JSON "
                                  f"{type(obj).__name__}, not an object")
        yield lineno, obj


def load_sed_format(path: str) -> list[QAExample]:
    """Load the line-delimited essay-record format; example ids must be unique."""
    examples: list[QAExample] = []
    first_line: dict[str, int] = {}
    for lineno, obj in read_json_lines(path):
        try:
            ex = QAExample(
                example_id=typed_field(obj, "example_id", str),
                question=typed_field(obj, "question", str),
                context=typed_field(obj, "context", str),
                answerable=typed_field(obj, "answerable", bool),
                gold_answers=tuple(
                    GoldAnswer(text=typed_field(a, "text", str),
                               char_start=typed_field(a, "char_start", int))
                    for a in obj.get("gold_answers", [])
                ),
            )
        except KeyError as exc:
            raise ValidationError(f"{path}:{lineno}: missing field {exc}") from exc
        except (TypeError, ValidationError) as exc:
            raise ValidationError(f"{path}:{lineno}: malformed record: {exc}") from exc
        first = first_line.setdefault(ex.example_id, lineno)
        if first != lineno:
            raise ValidationError(f"{path}:{lineno}: example_id {ex.example_id!r} "
                                  f"repeats line {first}")
        examples.append(ex)
    return examples


def save_sed_format(examples: list[QAExample], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for ex in examples:
            fh.write(json.dumps({
                "example_id": ex.example_id,
                "question": ex.question,
                "context": ex.context,
                "answerable": ex.answerable,
                "gold_answers": [
                    {"text": a.text, "char_start": a.char_start} for a in ex.gold_answers
                ],
            }, ensure_ascii=False) + "\n")


def load_any(path: str) -> list[QAExample]:
    """Dispatch on extension: .json is SQuAD layout, anything else is the
    line-record layout."""
    if path.endswith(".json"):
        return load_squad(path)
    return load_sed_format(path)


def answer_length_stats(examples: list[QAExample],
                        bin_width: int = HISTOGRAM_BIN_WIDTH) -> CorpusStats:
    """Character-level gold-answer lengths (internal whitespace counted,
    surrounding whitespace not); unanswerable examples contribute no mass."""
    if bin_width <= 0:
        raise ValidationError("bin_width must be positive")
    lengths = [
        len(ans.text.strip())
        for ex in examples if ex.answerable
        for ans in ex.gold_answers
    ]
    answerable = sum(1 for ex in examples if ex.answerable)
    if not lengths:
        return CorpusStats(len(examples), answerable, [], None)
    top = max(lengths)
    bins = [0] * (top // bin_width + 1)
    for n in lengths:
        bins[n // bin_width] += 1
    histogram = [
        (i * bin_width, (i + 1) * bin_width, count)
        for i, count in enumerate(bins)
    ]
    return CorpusStats(
        example_count=len(examples),
        answerable_count=answerable,
        answer_length_histogram=histogram,
        mean_answer_length_chars=sum(lengths) / len(lengths),
    )


def write_histogram_csv(stats: CorpusStats, fh) -> None:
    fh.write("bin_start,bin_end,count\n")
    for bin_start, bin_end, count in stats.answer_length_histogram:
        fh.write(f"{bin_start},{bin_end},{count}\n")
