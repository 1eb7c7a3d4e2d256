"""Independent reference implementations used as oracles.

Everything here is deliberately written the slow, obvious way (explicit
loops, whole-matrix enumeration) and never calls into the library's own
computation paths.
"""

from __future__ import annotations

import math
import re

import numpy as np


def ref_softmax(row):
    m = max(row)
    exp = [math.exp(x - m) for x in row]
    s = sum(exp)
    return [e / s for e in exp]


def ref_single_head_attention(h, w_q, w_k, w_v):
    """softmax(Q K^T / sqrt(d_k)) V with two explicit loops over positions."""
    tau = h.shape[0]
    q = h @ w_q
    k = h @ w_k
    v = h @ w_v
    d_k = q.shape[1]
    out = np.zeros_like(q)
    weights = np.zeros((tau, tau))
    for i in range(tau):
        scores = [float(np.dot(q[i], k[j])) / math.sqrt(d_k) for j in range(tau)]
        probs = ref_softmax(scores)
        for j in range(tau):
            weights[i, j] = probs[j]
            out[i] += probs[j] * v[j]
    return out, weights


def ref_multi_head_attention(h, lp, heads):
    """Per-head loop attention, concatenated and output-projected."""
    d_model = h.shape[1]
    d_k = d_model // heads
    chunks = []
    all_weights = []
    for head in range(heads):
        cols = slice(head * d_k, (head + 1) * d_k)
        out, weights = ref_single_head_attention(
            h, lp["attn.w_q"][:, cols], lp["attn.w_k"][:, cols], lp["attn.w_v"][:, cols]
        )
        chunks.append(out)
        all_weights.append(weights)
    concat = np.concatenate(chunks, axis=1)
    return concat @ lp["attn.w_o"] + lp["attn.b_o"], np.stack(all_weights)


def ref_encoder_layer_no_norm(h, lp, heads):
    """Attention sublayer then relu(A W1 + b1) W2 + b2, straight composition."""
    attn, _ = ref_multi_head_attention(h, lp, heads)
    inner = attn @ lp["ffn.w1"] + lp["ffn.b1"]
    relu = np.maximum(0.0, inner)
    return relu @ lp["ffn.w2"] + lp["ffn.b2"]


def brute_force_tav(prob_start, prob_end):
    """Enumerate every pair 1 < k <= l <= tau (1-indexed) for score_has."""
    tau = len(prob_start)
    score_has = -math.inf
    for k in range(1, tau):        # 0-based index 1 == position 2
        for l in range(k, tau):
            score_has = max(score_has, prob_start[k] + prob_end[l])
    score_null = prob_start[0] + prob_end[0]
    return score_has, score_null, score_null - score_has


def ref_example_loss(prob_start, prob_end, verifier_logits, gold):
    """Training loss of one example: the mean negative log of the gold start
    and end probabilities (1-indexed positions on ``gold``), plus the
    cross-entropy of the (logit_ans, logit_na) verifier pair against
    "answered" for an answerable example and "not answered" otherwise."""
    log_p_start = math.log(float(prob_start[gold.gold_start - 1]))
    log_p_end = math.log(float(prob_end[gold.gold_end - 1]))
    span_nll = -(log_p_start + log_p_end) / 2.0
    logit_ans, logit_na = (float(x) for x in verifier_logits)
    log_z = float(np.logaddexp(logit_ans, logit_na))
    target_logit = logit_ans if gold.answerable else logit_na
    verifier_ce = log_z - target_logit
    return span_nll + verifier_ce


def finite_difference_grad(loss_fn, params, name, h=1e-5):
    """Central differences of loss_fn(params) w.r.t. params[name]."""
    base = params[name]
    grad = np.zeros_like(base)
    flat = base.reshape(-1)
    gflat = grad.reshape(-1)
    for idx in range(flat.size):
        orig = flat[idx]
        flat[idx] = orig + h
        up = loss_fn(params)
        flat[idx] = orig - h
        down = loss_fn(params)
        flat[idx] = orig
        gflat[idx] = (up - down) / (2 * h)
    return grad


def recount_accuracy(pred_flags, gold_flags):
    """Accuracy by explicit recount over aligned flag lists."""
    assert len(pred_flags) == len(gold_flags) and gold_flags
    hits = 0
    for p, g in zip(pred_flags, gold_flags):
        if bool(p) == bool(g):
            hits += 1
    return hits / len(gold_flags)


def recount_overlap_f1(pred_tokens, gold_tokens):
    """Bag-overlap precision/recall/F1 via explicit counting."""
    if not pred_tokens and not gold_tokens:
        return 1.0, 1.0, 1.0
    if not pred_tokens or not gold_tokens:
        return 0.0, 0.0, 0.0
    remaining = list(gold_tokens)
    overlap = 0
    for tok in pred_tokens:
        if tok in remaining:
            remaining.remove(tok)
            overlap += 1
    if overlap == 0:
        return 0.0, 0.0, 0.0
    p = overlap / len(pred_tokens)
    r = overlap / len(gold_tokens)
    return p, r, 2 * p * r / (p + r)


_REF_WORD_RE = re.compile(r"[A-Za-z0-9]+|[^\sA-Za-z0-9]")


def ref_tokenize(text, terms, segment):
    """Greedy longest-match subword tokens, one ``Token`` built per token
    with no memo: a word with an unmatched position is one [UNK]."""
    from essayqa.seqbuild import RESERVED, UNK, Token

    index = {t: i for i, t in enumerate(terms)}
    tokens = []
    for match in _REF_WORD_RE.finditer(text):
        word, base = match.group(0), match.start()
        lowered = "".join(c.lower() if len(c.lower()) == 1 else c for c in word)
        pieces, pos = [], 0
        while pos < len(lowered):
            for end in range(len(lowered), pos, -1):
                piece = lowered[pos:end]
                if piece in index and piece not in RESERVED:
                    pieces.append(Token(index[piece], piece, base + pos, base + end, segment))
                    pos = end
                    break
            else:
                pieces = [Token(index[UNK], UNK, base, match.end(), segment)]
                break
        tokens.extend(pieces)
    return tokens


def ref_assemble(question, essay, terms, max_len):
    """(tokens, m, n, truncated) of [CLS] question [SEP] essay as one Token
    per position, the essay cut from the end so tau <= max_len; None when
    the question leaves no room for an essay token."""
    from essayqa.seqbuild import CLS, SEP, Token

    q_tokens = ref_tokenize(question, terms, "question")
    m = len(q_tokens)
    if m + 2 >= max_len:
        return None
    e_tokens = ref_tokenize(essay, terms, "essay")
    budget = max_len - m - 2
    truncated = len(e_tokens) > budget
    e_tokens = e_tokens[:budget]
    tokens = (Token(terms.index(CLS), CLS, segment="special"), *q_tokens,
              Token(terms.index(SEP), SEP, segment="special"), *e_tokens)
    return tokens, m, len(e_tokens), truncated


def ref_char_span_to_positions(seq, char_start, char_end):
    """Linear scan: first and last essay position whose token overlaps the
    character range, or None."""
    hits = [
        pos for pos in range(seq.essay_start_pos, seq.tau + 1)
        if seq.char_starts[pos - 1] < char_end and seq.char_ends[pos - 1] > char_start
    ]
    if not hits:
        return None
    return hits[0], hits[-1]
