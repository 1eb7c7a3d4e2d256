"""Tokenizer, vocabulary, and input assembly: offset fidelity, the
tau = m + n + 2 arithmetic, and truncation boundaries."""

import sys
import threading

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from essayqa import seqbuild
from essayqa.errors import OversizedQuestionError, ValidationError, VocabularyError
from essayqa.seqbuild import (
    CLS,
    PAD,
    RESERVED,
    SEP,
    UNK,
    Vocabulary,
    assemble,
    build_vocab,
    tokenize,
)


class TestTokenize:
    def test_empty_text(self, tiny_vocab):
        assert tokenize("", tiny_vocab) == []

    def test_hand_counted_offsets(self, tiny_vocab):
        tokens = tokenize("I will travel to Japan", tiny_vocab)
        assert len(tokens) == 5
        assert [(t.char_start, t.char_end) for t in tokens] == \
            [(0, 1), (2, 6), (7, 13), (14, 16), (17, 22)]
        assert [t.surface for t in tokens] == ["i", "will", "travel", "to", "japan"]

    def test_forced_oov_single_unk(self):
        vocab = Vocabulary(list(RESERVED) + ["a", "b"])
        tokens = tokenize("zzzqqq", vocab)
        assert len(tokens) == 1
        assert tokens[0].surface == UNK
        assert (tokens[0].char_start, tokens[0].char_end) == (0, 6)

    def test_subword_split_offsets(self):
        vocab = Vocabulary(list(RESERVED) + ["play", "ing", "p", "l", "a", "y", "i", "n", "g"])
        tokens = tokenize("Playing", vocab)
        assert [t.surface for t in tokens] == ["play", "ing"]
        assert [(t.char_start, t.char_end) for t in tokens] == [(0, 4), (4, 7)]

    def test_greedy_prefers_longest_match(self):
        vocab = Vocabulary(list(RESERVED) + ["un", "unhappy", "happy", "u", "n", "h", "a", "p", "y"])
        tokens = tokenize("unhappy", vocab)
        assert [t.surface for t in tokens] == ["unhappy"]

    def test_offsets_reconstruct_source(self, tiny_vocab):
        text = "The quick Brown fox Jumps over the lazy dog"
        for tok in tokenize(text, tiny_vocab):
            piece = text[tok.char_start: tok.char_end]
            assert piece.lower() == tok.surface or tok.surface == UNK

    def test_punctuation_is_tokenized(self, tiny_vocab):
        tokens = tokenize("meet?", tiny_vocab)
        assert [t.surface for t in tokens] == ["meet", "?"]


class TestVocabulary:
    def test_reserved_must_lead(self):
        with pytest.raises(VocabularyError):
            Vocabulary(["a", CLS, SEP, UNK, PAD])

    def test_duplicate_terms_rejected(self):
        with pytest.raises(VocabularyError):
            Vocabulary(list(RESERVED) + ["a", "a"])

    def test_save_load_round_trip(self, tiny_vocab, tmp_path):
        path = tmp_path / "vocab.txt"
        tiny_vocab.save(str(path))
        loaded = Vocabulary.load(str(path))
        assert loaded.terms == tiny_vocab.terms
        assert loaded.fingerprint() == tiny_vocab.fingerprint()
        # line number = index: line N holds the term with id N - 1
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == CLS and lines[3] == PAD
        assert lines[tiny_vocab.index["will"]] == "will"

    def test_lookup_bijection(self, tiny_vocab):
        for i, term in enumerate(tiny_vocab.terms):
            assert tiny_vocab.index[term] == i

    def test_build_vocab_deterministic(self):
        texts = ["b a a", "c c c b"]
        v1 = build_vocab(texts, size=50)
        v2 = build_vocab(list(texts), size=50)
        assert v1.terms == v2.terms
        # frequency order: c(3) then a(2) then b(2) (ties alphabetical)
        words = [t for t in v1.terms if t not in RESERVED and len(t) > 1]
        assert words == []  # all single chars here
        assert v1.index["c"] < len(v1)


class TestAssemble:
    def test_tau_is_m_plus_n_plus_2(self, tiny_vocab):
        seq = assemble("will travel Japan", "I will travel to Japan", tiny_vocab)
        assert seq.m == 3
        assert seq.n == 5
        assert seq.tau == 10
        assert seq.tau == seq.m + seq.n + 2

    def test_layout(self, tiny_vocab):
        seq = assemble("will travel", "I will travel to Japan", tiny_vocab)
        assert seq.tokens[0].surface == CLS
        assert seq.token_at(1).surface == CLS
        assert seq.token_at(seq.m + 2).surface == SEP
        assert seq.token_at(seq.essay_start_pos).surface == "i"
        assert all(t.segment == "question" for t in seq.tokens[1: seq.m + 1])
        assert all(t.segment == "essay" for t in seq.tokens[seq.m + 2:])
        # no trailing [SEP]: T ends with the last essay token
        assert seq.tokens[-1].surface != SEP

    def test_truncation_from_end(self, tiny_vocab):
        q = "will travel to japan in the summer to meet sally"  # 10 tokens
        essay = " ".join(["japan"] * 600)
        seq = assemble(q, essay, tiny_vocab, max_len=512)
        assert seq.m == 10
        assert seq.n == 500
        assert seq.tau == 512
        assert seq.truncated
        surviving = [t for t in seq.tokens if t.segment == "essay"]
        assert surviving[-1].char_end <= len(essay)
        # removed from the END: all surviving offsets precede the cut
        assert surviving == sorted(surviving, key=lambda t: t.char_start)

    def test_truncation_boundary_arithmetic(self):
        vocab = Vocabulary(list(RESERVED) + ["w"])
        q509 = " ".join(["w"] * 509)
        seq = assemble(q509, " ".join(["w"] * 50), vocab, max_len=512)
        assert seq.m == 509
        assert seq.n == 1
        assert seq.tau == 512
        q510 = " ".join(["w"] * 510)
        with pytest.raises(OversizedQuestionError):
            assemble(q510, "w", vocab, max_len=512)

    def test_question_never_truncated(self, tiny_vocab):
        q = "will travel to japan in the summer"
        seq = assemble(q, " ".join(["japan"] * 600), tiny_vocab, max_len=64)
        assert seq.m == len(tokenize(q, tiny_vocab))
        assert seq.tau == 64

    def test_empty_inputs_rejected(self, tiny_vocab):
        with pytest.raises(ValidationError):
            assemble("", "essay text", tiny_vocab)
        with pytest.raises(ValidationError):
            assemble("question", "", tiny_vocab)


WORD_POOL = ("travel", "japan", "summer", "meet", "sally", "dog", "fox", "zz")


@st.composite
def essays(draw):
    words = draw(st.lists(st.sampled_from(WORD_POOL), min_size=1, max_size=40))
    return " ".join(words)


class TestProperties:
    @given(essays())
    @settings(max_examples=150, deadline=None)
    def test_round_trip_offsets(self, essay):
        vocab = build_vocab([" ".join(WORD_POOL)], size=100)
        seq = assemble("travel japan", essay, vocab)
        assert seq.tau == seq.m + seq.n + 2
        for tok in seq.tokens:
            if tok.segment == "essay":
                assert essay[tok.char_start: tok.char_end].lower() == tok.surface \
                    or tok.surface == UNK

    @given(essays(), st.integers(min_value=8, max_value=40))
    @settings(max_examples=100, deadline=None)
    def test_tau_never_exceeds_max_len(self, essay, max_len):
        vocab = build_vocab([" ".join(WORD_POOL)], size=100)
        try:
            seq = assemble("travel", essay, vocab, max_len=max_len)
        except OversizedQuestionError:
            return
        assert seq.tau <= max_len
        assert seq.tau == seq.m + seq.n + 2


# Characters whose lowercase differs in length ("İ" -> "i̇"), a final sigma,
# characters outside the vocabulary, and punctuation.
MEMO_WORDS = WORD_POOL + ("İstanbul", "İ", "ΟΔΟΣ", "Σ", "straẞe", "Ünïcode", "x?y", "42")
MEMO_TERMS = build_vocab([" ".join(WORD_POOL), "istanbul οδος ς σ"], size=120).terms


@st.composite
def memo_texts(draw):
    words = draw(st.lists(st.sampled_from(MEMO_WORDS) | st.text(min_size=1, max_size=6),
                          min_size=0, max_size=30))
    return " ".join(words)


class TestTokenizationReuse:
    @given(st.lists(memo_texts(), min_size=1, max_size=6))
    @example(["İ Σ", "İstanbul ΟΔΟΣ x?y"])
    @settings(max_examples=150, deadline=None)
    def test_warm_memo_matches_fresh_vocabulary(self, texts):
        warm = Vocabulary(MEMO_TERMS)
        for text in texts:
            assert tokenize(text, warm) == tokenize(text, Vocabulary(MEMO_TERMS))
        for text in texts:  # every word now memoized
            assert tokenize(text, warm, "question") == \
                tokenize(text, Vocabulary(MEMO_TERMS), "question")

    def test_length_changing_lowercase_keeps_offsets(self):
        # "İ" lowers to two characters, so it is matched as is
        text = "İstanbul ΟΔΟΣ İ"
        warm = Vocabulary(MEMO_TERMS)
        first = tokenize(text, warm)
        assert tokenize(text, warm) == first == tokenize(text, Vocabulary(MEMO_TERMS))
        assert [(t.surface, t.char_start) for t in first[:2]] == [(UNK, 0), ("s", 1)]
        assert first[-1].char_end == len(text)

    def test_vocabularies_never_share_entries(self):
        a = Vocabulary(list(RESERVED) + ["a", "b", "ab"])
        b = Vocabulary(list(RESERVED) + ["ab", "b", "a"])
        assert [t.id for t in tokenize("ab ba", a)] == [6, 5, 4]
        assert [t.id for t in tokenize("ab ba", b)] == [4, 5, 6]
        assert a._word_memo is not b._word_memo
        assert a._word_memo["ab"] == ((6, "ab", 0, 2),)
        assert b._word_memo["ab"] == ((4, "ab", 0, 2),)
        seq_a = assemble("a", "ab ba", a)
        seq_b = assemble("a", "ab ba", b)
        assert [t.id for t in seq_a.tokens[3:]] == [6, 5, 4]
        assert [t.id for t in seq_b.tokens[3:]] == [4, 5, 6]

    def test_cap_bounds_memo_and_keeps_tokens(self, monkeypatch):
        monkeypatch.setattr(seqbuild, "WORD_MEMO_CAP", 8)
        terms = list(RESERVED) + list("abcdefghijklmnopqrstuvwxyz")
        vocab = Vocabulary(terms)
        words = [a + b for a in "abcdef" for b in "ghij"]  # 24 distinct words
        text = " ".join(words + words[::-1])
        for _ in range(3):
            assert tokenize(text, vocab) == tokenize(text, Vocabulary(terms))
            assert len(vocab._word_memo) <= 8

    def test_repeated_essay_assembles_like_fresh(self, tiny_vocab):
        essay = "I will travel to Japan in the summer to meet Sally " * 8
        questions = ["will travel", "what will you do in the summer vacation", "meet"]
        vocab = Vocabulary(tiny_vocab.terms)
        for q in questions:
            for max_len in (512, 30, 16):
                assert assemble(q, essay, vocab, max_len=max_len) == \
                    assemble(q, essay, Vocabulary(tiny_vocab.terms), max_len=max_len)

    def test_essay_memo_follows_the_essay(self, tiny_vocab):
        vocab = Vocabulary(tiny_vocab.terms)
        first = assemble("meet", "I will travel", vocab)
        second = assemble("meet", "I will travel to Japan", vocab)
        again = assemble("meet", "I will travel", vocab)
        assert second.n == 5
        assert first == again
        assert vocab._last_essay[0] == "I will travel"

    def test_shared_vocabulary_under_threads(self, monkeypatch, tiny_vocab):
        # Concurrent callers may repeat work but must never see another
        # essay's tokens; a small cap makes the memo clear often.
        monkeypatch.setattr(seqbuild, "WORD_MEMO_CAP", 16)
        essays = [f"I will travel to Japan {i} with Sally {i * 7} in the summer"
                  for i in range(6)]
        questions = ["will travel", "meet Sally", "the summer vacation"]
        want = {(q, e): assemble(q, e, Vocabulary(tiny_vocab.terms), max_len=20)
                for q in questions for e in essays}
        shared = Vocabulary(tiny_vocab.terms)
        errors = []

        def worker(offset):
            try:
                for step in range(150):
                    e = essays[(step + offset) % len(essays)]
                    q = questions[step % len(questions)]
                    if assemble(q, e, shared, max_len=20) != want[(q, e)]:
                        errors.append((q, e))
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        # each thread adds at most one word between the size check and the store
        assert len(shared._word_memo) <= 16 + len(threads)
