"""Tokenization and input-sequence assembly.

The model consumes one flat sequence per (question, essay) pair:

    position 1          [CLS]
    positions 2..m+1    question tokens
    position m+2        [SEP]
    positions m+3..tau  essay tokens

with tau = m + n + 2.  Positions are 1-indexed everywhere in this engine;
token ids are 0-indexed rows of the embedding matrix.  Character offsets
always refer to the original (non-lowercased) source string, so extracted
spans preserve the student's casing.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .errors import OversizedQuestionError, ValidationError, VocabularyError
from .qnorm import NormalizedQuestion, split_words

CLS = "[CLS]"
SEP = "[SEP]"
UNK = "[UNK]"
PAD = "[PAD]"
RESERVED = (CLS, SEP, UNK, PAD)

MAX_INPUT_LEN = 512

# Entries a Vocabulary's word-piece memo may hold; it is emptied when full.
WORD_MEMO_CAP = 2 ** 15
_MISSING = object()


class Vocabulary:
    """Ordered term list; id = file line number - 1, reserved ids 0..3."""

    def __init__(self, terms: list[str]):
        if list(terms[:4]) != list(RESERVED):
            raise VocabularyError(f"first four terms must be {RESERVED}")
        counts = Counter(terms)
        dupes = [t for t, c in counts.items() if c > 1]
        if dupes:
            raise VocabularyError(f"duplicate vocabulary terms: {dupes[:5]}")
        self.terms = list(terms)
        self.index = {t: i for i, t in enumerate(terms)}
        self._max_piece_len = max(len(t) for t in terms)
        # Tokenization is a pure function of (text, vocabulary), so each
        # vocabulary caches its own results: raw word -> ((id, piece, start,
        # end), ...) relative to the word, or None for [UNK]; and the last
        # essay that assemble() tokenized, as (essay, tokens).
        self._word_memo: dict[str, tuple[tuple[int, str, int, int], ...] | None] = {}
        self._last_essay: tuple[str, tuple[Token, ...]] | None = None

    def __len__(self) -> int:
        return len(self.terms)

    @property
    def cls_id(self) -> int:
        return self.index[CLS]

    @property
    def sep_id(self) -> int:
        return self.index[SEP]

    @property
    def unk_id(self) -> int:
        return self.index[UNK]

    @property
    def pad_id(self) -> int:
        return self.index[PAD]

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for term in self.terms:
                fh.write(term + "\n")

    @classmethod
    def load(cls, path: str) -> "Vocabulary":
        with open(path, encoding="utf-8") as fh:
            terms = [line.rstrip("\n") for line in fh]
        while terms and terms[-1] == "":
            terms.pop()
        if len(terms) < 4:
            raise VocabularyError(f"{path}: vocabulary needs at least the 4 reserved terms")
        return cls(terms)

    def fingerprint(self) -> str:
        import hashlib

        h = hashlib.sha256()
        for term in self.terms:
            h.update(term.encode("utf-8"))
            h.update(b"\n")
        return h.hexdigest()


@dataclass(frozen=True)
class Token:
    id: int
    surface: str
    char_start: int | None = None  # None for special symbols
    char_end: int | None = None
    segment: str = "essay"  # "special" | "question" | "essay"

    @property
    def is_special(self) -> bool:
        return self.char_start is None


def _lower_preserving_length(text: str) -> str:
    # str.lower() can change length for a few Unicode characters; keep offsets valid.
    return "".join(c.lower() if len(c.lower()) == 1 else c for c in text)


def tokenize(text: str, vocab: Vocabulary, segment: str = "essay") -> list[Token]:
    """Greedy longest-match subword tokenization.

    Words are lowercased for matching; a word none of whose pieces match maps
    to a single [UNK] covering the whole word.  Offsets index the original
    text (end exclusive).
    """
    memo = vocab._word_memo
    unk_id = vocab.unk_id
    tokens: list[Token] = []
    for word, start, end in split_words(text):
        pieces = memo.get(word, _MISSING)
        if pieces is _MISSING:
            pieces = _word_pieces(word, vocab)
            if len(memo) >= WORD_MEMO_CAP:
                memo.clear()
            memo[word] = pieces
        if pieces is None:
            tokens.append(Token(unk_id, UNK, start, end, segment))
            continue
        for piece_id, piece, lo, hi in pieces:
            tokens.append(Token(piece_id, piece, start + lo, start + hi, segment))
    return tokens


def _word_pieces(word: str, vocab: Vocabulary) -> tuple[tuple[int, str, int, int], ...] | None:
    """Greedy longest-match pieces of one word as (id, piece, start, end),
    offsets relative to the word; None when some position matches nothing."""
    lowered = _lower_preserving_length(word)
    pieces = []
    pos = 0
    limit = vocab._max_piece_len
    while pos < len(lowered):
        match = None
        for end in range(min(len(lowered), pos + limit), pos, -1):
            piece = lowered[pos:end]
            if piece in vocab.index and piece not in RESERVED:
                match = piece
                break
        if match is None:
            return None
        pieces.append((vocab.index[match], match, pos, pos + len(match)))
        pos += len(match)
    return tuple(pieces)


def _essay_tokens(essay: str, vocab: Vocabulary) -> tuple[Token, ...]:
    """Essay-segment tokens, reused while consecutive calls share the essay
    (the requirements of one request, or examples sharing a context)."""
    last = vocab._last_essay
    if last is not None and last[0] == essay:
        return last[1]
    tokens = tuple(tokenize(essay, vocab, segment="essay"))
    vocab._last_essay = (essay, tokens)
    return tokens


@dataclass(frozen=True)
class InputSequence:
    tokens: tuple[Token, ...]
    m: int  # question token count
    n: int  # essay token count, post-truncation
    truncated: bool = False

    @property
    def tau(self) -> int:
        return self.m + self.n + 2

    @property
    def essay_start_pos(self) -> int:
        """First essay position, 1-indexed (= m + 3)."""
        return self.m + 3

    @property
    def ids(self) -> list[int]:
        return [t.id for t in self.tokens]

    def token_at(self, pos: int) -> Token:
        """Token at 1-indexed position."""
        if not 1 <= pos <= self.tau:
            raise IndexError(f"position {pos} outside [1, {self.tau}]")
        return self.tokens[pos - 1]


def assemble(
    q: NormalizedQuestion | str,
    essay: str,
    vocab: Vocabulary,
    max_len: int = MAX_INPUT_LEN,
) -> InputSequence:
    """Build T = ([CLS], question, [SEP], essay), truncating essay tokens from
    the end so that tau never exceeds max_len.  Question tokens are never
    truncated; a question needing the whole budget is an error."""
    question_text = q.normalized if isinstance(q, NormalizedQuestion) else q
    if not question_text:
        raise ValidationError("question must be nonempty")
    if not essay:
        raise ValidationError("essay must be nonempty")

    q_tokens = tokenize(question_text, vocab, segment="question")
    m = len(q_tokens)
    if m + 2 >= max_len:
        raise OversizedQuestionError(
            f"question occupies {m} tokens; no essay token fits in max_len={max_len}"
        )
    e_tokens = _essay_tokens(essay, vocab)
    budget = max_len - m - 2
    truncated = len(e_tokens) > budget
    if truncated:
        e_tokens = e_tokens[:budget]

    tokens = (
        Token(vocab.cls_id, CLS, segment="special"),
        *q_tokens,
        Token(vocab.sep_id, SEP, segment="special"),
        *e_tokens,
    )
    return InputSequence(tokens=tokens, m=m, n=len(e_tokens), truncated=truncated)


def build_vocab(texts: list[str], size: int = 8000) -> Vocabulary:
    """Frequency-based vocabulary: reserved symbols, every single character
    seen (the fallback alphabet), then the most frequent words up to `size`.

    Ties break alphabetically so the result is deterministic for a given
    corpus regardless of input order.
    """
    if size < 4:
        raise VocabularyError("vocabulary size must be at least 4")
    word_counts: Counter[str] = Counter()
    chars: set[str] = set()
    for text in texts:
        for word, _, _ in split_words(text):
            lowered = _lower_preserving_length(word)
            word_counts[lowered] += 1
            chars.update(lowered)
    terms = list(RESERVED) + sorted(chars)
    seen = set(terms)
    ranked = sorted(word_counts.items(), key=lambda kv: (-kv[1], kv[0]))
    for word, _ in ranked:
        if len(terms) >= size:
            break
        if word not in seen:
            terms.append(word)
            seen.add(word)
    return Vocabulary(terms)
