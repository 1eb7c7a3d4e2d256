"""Miniature multi-layer transformer encoder in plain numpy.

Forward and backward passes are hand-written so training needs nothing
beyond numpy.  Training and inference run the same layout, a pack: the rows
of several sequences stacked with no padding, ids (N,) and hidden states
(N, d_model) with N = sum tau, and the row bounds of each.  The
position-wise work (embedding, projections, residuals, LayerNorm, FFN and
their gradients) runs once over all N rows, and attention and its backward
run on each sequence's own rows, as (heads, tau, d_k) blocks.  A single
sequence is a pack of one.

Sublayer composition per layer, with residual/normalization enabled
(the default):

    A   = LayerNorm(H_prev + MultiHeadAttention(H_prev))
    H_l = LayerNorm(A + relu(A @ W1 + b1) @ W2 + b2)

With ``use_residual_norm=False`` (oracle configuration) the layer reduces to
the bare attention-then-FFN form:

    H_l = relu(MultiHeadAttention(H_prev) @ W1 + b1) @ W2 + b2
"""

from __future__ import annotations

import ctypes
import math
import os
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import ValidationError
from .seqbuild import MAX_INPUT_LEN, InputSequence

_M_TOP_PAD = -2  # glibc <malloc.h>
_TOP_PAD_BYTES = 64 * 2 ** 20


def _retain_freed_heap() -> None:
    """Keep up to 64 MiB of freed heap for reuse (glibc mallopt M_TOP_PAD).

    By default glibc returns freed heap to the OS, so each call's multi-MiB
    score, FFN and gradient arrays land on fresh pages and page-fault again.
    A MALLOC_TOP_PAD_ the host set is left in force.  Without glibc's mallopt
    (macOS, Windows) this does nothing, and musl's mallopt ignores the call.
    """
    if "MALLOC_TOP_PAD_" in os.environ:
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no mallopt; Windows: no CDLL(None)
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_TOP_PAD, _TOP_PAD_BYTES)


_retain_freed_heap()

LN_EPS = 1e-5
DTYPES = ("float32", "float64")


@dataclass(frozen=True)
class EncoderConfig:
    vocab_size: int
    layers: int = 2
    d_model: int = 64
    heads: int = 4
    ffn_inner: int = 256
    max_len: int = MAX_INPUT_LEN
    seed: int = 0
    use_residual_norm: bool = True
    dtype: str = "float64"

    def __post_init__(self):
        for name in ("vocab_size", "layers", "d_model", "heads", "ffn_inner", "max_len"):
            if getattr(self, name) <= 0:
                raise ValidationError(f"{name} must be positive")
        if self.max_len > MAX_INPUT_LEN:
            raise ValidationError(f"max_len must be at most {MAX_INPUT_LEN}")
        if self.d_model % self.heads != 0:
            raise ValidationError("d_model must be divisible by heads")
        if self.dtype not in DTYPES:
            raise ValidationError(f"unsupported dtype {self.dtype!r}")

    @property
    def d_k(self) -> int:
        return self.d_model // self.heads

    @property
    def np_dtype(self):
        return np.dtype(self.dtype)


def encoder_param_shapes(cfg: EncoderConfig) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every encoder tensor, in initialization order."""
    d, f = cfg.d_model, cfg.ffn_inner
    shapes = {"tok_emb": (cfg.vocab_size, d), "pos_emb": (cfg.max_len, d)}
    for i in range(cfg.layers):
        pre = f"layer{i}"
        shapes.update({
            f"{pre}.attn.w_q": (d, d),
            f"{pre}.attn.w_k": (d, d),
            f"{pre}.attn.w_v": (d, d),
            f"{pre}.attn.w_o": (d, d),
            f"{pre}.attn.b_o": (d,),
            f"{pre}.ffn.w1": (d, f),
            f"{pre}.ffn.b1": (f,),
            f"{pre}.ffn.w2": (f, d),
            f"{pre}.ffn.b2": (d,),
        })
        if cfg.use_residual_norm:
            shapes.update({
                f"{pre}.ln1.gain": (d,),
                f"{pre}.ln1.bias": (d,),
                f"{pre}.ln2.gain": (d,),
                f"{pre}.ln2.bias": (d,),
            })
    return shapes


def init_params(shapes: dict[str, tuple[int, ...]], cfg: EncoderConfig,
                rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Seeded initialization, by the tensor name's last part: unit "gain",
    zero biases ("b*"), normal(0, 0.02) weights drawn in ``shapes`` order."""
    dt = cfg.np_dtype
    p: dict[str, np.ndarray] = {}
    for name, shape in shapes.items():
        leaf = name.rsplit(".", 1)[-1]
        if leaf == "gain":
            p[name] = np.ones(shape, dtype=dt)
        elif leaf.startswith("b"):
            p[name] = np.zeros(shape, dtype=dt)
        else:
            p[name] = rng.normal(0.0, 0.02, size=shape).astype(dt)
    return p


def init_encoder_params(cfg: EncoderConfig, rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Seeded initialization: normal(0, 0.02) weights, zero biases, unit gains."""
    return init_params(encoder_param_shapes(cfg), cfg, rng)


def softmax_last(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Numerically stable softmax along the last axis (max subtraction).

    The row max is subtracted into ``out`` (a new array when None; ``out=x``
    normalizes ``x`` in place), then exp and the divide run in place there, so
    the result is bit-identical to ``exp(x - max) / sum`` and is ``out``.
    """
    z = np.subtract(x, x.max(axis=-1, keepdims=True), out=out)
    np.exp(z, out=z)
    z /= z.sum(axis=-1, keepdims=True)
    return z


# ---------------------------------------------------------------- layernorm


def _ln_forward(x, gain, bias):
    # A sum then an in-place divide is what ndarray.mean computes, bit for
    # bit, without the Python overhead of its wrapper.
    d = x.shape[-1]
    mean = np.add.reduce(x, axis=-1, keepdims=True)
    mean /= d
    xhat = x - mean
    var = np.add.reduce(xhat ** 2, axis=-1, keepdims=True)
    var /= d
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat *= inv
    y = xhat * gain
    y += bias
    return y, (xhat, inv, gain)


def _ln_backward(dy, cache):
    xhat, inv, gain = cache
    dgain = (dy * xhat).sum(axis=0)
    dbias = dy.sum(axis=0)
    g = dy * gain
    dx = (g - g.mean(axis=-1, keepdims=True) - xhat * (g * xhat).mean(axis=-1, keepdims=True)) * inv
    return dx, dgain, dbias


# ---------------------------------------------------------------- attention
#
# Sublayer functions read their tensors as ``p[pre + name]``: ``p`` is the
# full parameter dict with ``pre = "layer{i}.attn."`` etc., or a layer dict
# with the layer prefix already stripped.  Backward functions add their
# gradients to ``grads`` under the same keys.


def _split_heads(x, heads):
    t, d = x.shape
    return x.reshape(t, heads, d // heads).transpose(1, 0, 2)


def _merge_heads(x):
    h, t, dk = x.shape
    return x.transpose(1, 0, 2).reshape(t, h * dk)


def _attn_forward(h_in, p, pre, cfg: EncoderConfig, bounds, keep_cache=False):
    """Multi-head scaled dot-product attention with output projection on a
    pack (N, d_model): sequence j holds rows bounds[j]:bounds[j + 1] and
    attends to those rows only.  Returns (out, cache).

    With ``keep_cache``, ``cache`` holds what ``_attn_backward`` reads, its
    fifth entry the list of each sequence's (heads, tau, tau) attention
    matrix; without it the cache is None and each sequence's weights are
    freed once its context is computed."""
    q = _split_heads(h_in @ p[pre + "w_q"], cfg.heads)
    k = _split_heads(h_in @ p[pre + "w_k"], cfg.heads)
    v = _split_heads(h_in @ p[pre + "w_v"], cfg.heads)
    weights = [] if keep_cache else None
    ctx = np.empty_like(h_in, dtype=v.dtype)
    for s, e in zip(bounds, bounds[1:]):
        # softmax(Q K^T / sqrt(d_k)), scaled and normalized inside the one
        # (heads, tau, tau) array the matmul returns
        w = q[:, s:e] @ k[:, s:e].transpose(0, 2, 1)
        w /= math.sqrt(cfg.d_k)
        softmax_last(w, out=w)
        ctx[s:e] = _merge_heads(w @ v[:, s:e])
        if keep_cache:
            weights.append(w)
    out = ctx @ p[pre + "w_o"]
    out += p[pre + "b_o"]
    cache = (h_in, q, k, v, weights, ctx, bounds) if keep_cache else None
    return out, cache


def _attn_backward(dout, cache, p, pre, cfg: EncoderConfig, grads):
    h_in, q, k, v, weights, ctx, bounds = cache

    d_wo = ctx.T @ dout
    d_bo = dout.sum(axis=0)
    do_h = _split_heads(dout @ p[pre + "w_o"].T, cfg.heads)

    # Each sequence's d q, d k and d v are written into its rows of the
    # merged (N, d_model) arrays through their split-heads views.
    dq_lin, dk_lin, dv_lin = (np.empty_like(ctx) for _ in range(3))
    dq, dk, dv = (_split_heads(x, cfg.heads) for x in (dq_lin, dk_lin, dv_lin))
    for s, e, w in zip(bounds, bounds[1:], weights):
        do_j = do_h[:, s:e]
        dv[:, s:e] = w.transpose(0, 2, 1) @ do_j
        # d weights, turned into d scores in place: (dw - rowdot) * w / sqrt(d_k)
        dscores = do_j @ v[:, s:e].transpose(0, 2, 1)
        dscores -= (dscores * w).sum(axis=-1, keepdims=True)
        dscores *= w
        dscores /= math.sqrt(cfg.d_k)
        dq[:, s:e] = dscores @ k[:, s:e]
        dk[:, s:e] = dscores.transpose(0, 2, 1) @ q[:, s:e]

    grads[pre + "w_q"] = h_in.T @ dq_lin
    grads[pre + "w_k"] = h_in.T @ dk_lin
    grads[pre + "w_v"] = h_in.T @ dv_lin
    grads[pre + "w_o"] = d_wo
    grads[pre + "b_o"] = d_bo
    return dq_lin @ p[pre + "w_q"].T + dk_lin @ p[pre + "w_k"].T + dv_lin @ p[pre + "w_v"].T


# ---------------------------------------------------------------- ffn


def _ffn_forward(a, p, pre):
    r = a @ p[pre + "w1"]
    r += p[pre + "b1"]
    np.maximum(0.0, r, out=r)
    out = r @ p[pre + "w2"]
    out += p[pre + "b2"]
    return out, (a, r)


def _ffn_backward(dout, cache, p, pre, grads):
    a, r = cache
    d_w2 = r.T @ dout
    d_b2 = dout.sum(axis=0)
    du = dout @ p[pre + "w2"].T
    du *= r > 0  # r = relu(u), so r > 0 exactly where u > 0
    grads[pre + "w1"] = a.T @ du
    grads[pre + "b1"] = du.sum(axis=0)
    grads[pre + "w2"] = d_w2
    grads[pre + "b2"] = d_b2
    return du @ p[pre + "w1"].T


# ---------------------------------------------------------------- layers


def layer_slice(params: dict[str, np.ndarray], i: int) -> dict[str, np.ndarray]:
    """Layer i's tensors with the layer prefix stripped (attn.*, ffn.*, ln*.*)."""
    pre = f"layer{i}."
    return {k[len(pre):]: v for k, v in params.items() if k.startswith(pre)}


def _layer_forward(h_prev, p, pre, cfg: EncoderConfig, bounds, keep_cache=False):
    attn_out, c_attn = _attn_forward(h_prev, p, pre + "attn.", cfg, bounds, keep_cache)
    if cfg.use_residual_norm:
        attn_out += h_prev
        a, c_ln1 = _ln_forward(attn_out, p[pre + "ln1.gain"], p[pre + "ln1.bias"])
        ffn_out, c_ffn = _ffn_forward(a, p, pre + "ffn.")
        ffn_out += a
        h_out, c_ln2 = _ln_forward(ffn_out, p[pre + "ln2.gain"], p[pre + "ln2.bias"])
        return h_out, (c_attn, c_ln1, c_ffn, c_ln2)
    ffn_out, c_ffn = _ffn_forward(attn_out, p, pre + "ffn.")
    return ffn_out, (c_attn, None, c_ffn, None)


def _layer_backward(dh_out, cache, p, pre, cfg: EncoderConfig, grads):
    """The caller hands ``cache`` over: the LN2, FFN and LN1 caches and the
    dead intermediates are dropped as they are consumed, so they are freed
    before the attention backward runs."""
    c_attn, c_ln1, c_ffn, c_ln2 = cache
    del cache
    if cfg.use_residual_norm:
        dr2, grads[pre + "ln2.gain"], grads[pre + "ln2.bias"] = _ln_backward(dh_out, c_ln2)
        del c_ln2
        da = _ffn_backward(dr2, c_ffn, p, pre + "ffn.", grads)
        del c_ffn
        da += dr2
        del dr2
        dr1, grads[pre + "ln1.gain"], grads[pre + "ln1.bias"] = _ln_backward(da, c_ln1)
        del da, c_ln1
        dattn_out = dh_prev_res = dr1
    else:
        dattn_out = _ffn_backward(dh_out, c_ffn, p, pre + "ffn.", grads)
        del c_ffn
        dh_prev_res = 0.0
    return _attn_backward(dattn_out, c_attn, p, pre + "attn.", cfg, grads) + dh_prev_res


# ---------------------------------------------------------------- public ops


def scaled_attention(h_prev: np.ndarray, layer_params: dict[str, np.ndarray],
                     cfg: EncoderConfig, return_weights: bool = False):
    """Attention sublayer on a single (tau, d_model) input, a pack of one.

    Per head: Q = H W_q, K = H W_k, V = H W_v; softmax(Q K^T / sqrt(d_k)) V;
    heads concatenated then output-projected.  ``layer_params`` holds a
    layer's tensors (``attn.w_q``, ..., as ``layer_slice`` returns them).
    With return_weights=True also returns the per-head attention matrix
    (heads, tau, tau).
    """
    if not np.all(np.isfinite(h_prev)):
        raise ValidationError("attention input must be finite")
    out, cache = _attn_forward(h_prev, layer_params, "attn.", cfg, [0, len(h_prev)],
                               return_weights)
    return (out, cache[4][0]) if return_weights else out


def encoder_layer(h_prev: np.ndarray, layer_params: dict[str, np.ndarray],
                  cfg: EncoderConfig) -> np.ndarray:
    """One full encoder layer on a single (tau, d_model) input, a pack of one."""
    out, _ = _layer_forward(h_prev, layer_params, "", cfg, [0, len(h_prev)])
    return out


def _embed(ids: np.ndarray, params, cfg: EncoderConfig, bounds):
    if ids.max(initial=0) >= cfg.vocab_size or ids.min(initial=0) < 0:
        raise ValidationError(
            f"token id out of range for vocab_size={cfg.vocab_size}"
        )
    lengths = np.diff(bounds).tolist()
    t = max(lengths)
    if t > cfg.max_len:
        raise ValidationError(f"sequence length {t} exceeds max_len={cfg.max_len}")
    x = params["tok_emb"][ids]
    for start, n in zip(bounds, lengths):  # positions restart at 0 for each sequence
        x[start:start + n] += params["pos_emb"][:n]
    return x


def forward_batch(ids: np.ndarray, params: dict[str, np.ndarray], cfg: EncoderConfig,
                  *, bounds: list[int], keep_cache: bool = True):
    """Encode a pack: ids (N,) of sequences stacked at the row offsets
    ``bounds``; returns (H (N, d_model), cache).

    A training pack keeps the layer caches that ``backward_batch`` reads.
    That cache is used once: ``backward_batch`` empties it.  Serving passes
    ``keep_cache=False``: its cache is None and each layer's activations are
    freed as it ends.  ``bounds`` is keyword-only because perfbench's tracer
    reads a fourth positional argument as a padding mask."""
    h = _embed(ids, params, cfg, bounds)
    layer_caches = []
    for i in range(cfg.layers):
        h, cache = _layer_forward(h, params, f"layer{i}.", cfg, bounds, keep_cache)
        if keep_cache:
            layer_caches.append(cache)
    return h, (ids, bounds, layer_caches) if keep_cache else None


def backward_batch(dh: np.ndarray, cache, params: dict[str, np.ndarray],
                   cfg: EncoderConfig) -> dict[str, np.ndarray]:
    """Gradients of every encoder tensor given dLoss/dH^L (N, d_model) of the
    pack whose ``forward_batch`` cache is ``cache``.

    The cache is used once: each layer's cache is popped as its backward
    consumes it, so a layer's activations are freed as soon as its
    gradients are taken, and the cache's list of layers is empty after."""
    ids, bounds, layer_caches = cache
    grads: dict[str, np.ndarray] = {}
    for i in reversed(range(cfg.layers)):
        dh = _layer_backward(dh, layer_caches.pop(), params, f"layer{i}.", cfg, grads)
    d_tok = np.zeros_like(params["tok_emb"])
    np.add.at(d_tok, ids, dh)
    d_pos = np.zeros_like(params["pos_emb"])
    for s, e in zip(bounds, bounds[1:]):
        d_pos[:e - s] += dh[s:e]
    grads["tok_emb"] = d_tok
    grads["pos_emb"] = d_pos
    return grads


def encode(seq: InputSequence | list[InputSequence] | list[int] | np.ndarray,
           params: dict[str, np.ndarray], cfg: EncoderConfig) -> np.ndarray:
    """H^L for one sequence, (tau, d_model), or for a list of InputSequences
    their packed rows, (sum tau, d_model), in list order.  One sequence is a
    pack of one, so each slice of a pack equals that sequence encoded alone
    wherever a GEMM's output rows do not depend on the other rows.
    Deterministic for fixed params."""
    if isinstance(seq, list) and seq and isinstance(seq[0], InputSequence):
        ids, bounds = pack_ids(seq)
    else:
        ids = np.asarray(seq.ids if isinstance(seq, InputSequence) else seq, dtype=np.int64)
        bounds = [0, len(ids)]
    h, _ = forward_batch(ids, params, cfg, bounds=bounds, keep_cache=False)
    return h


def pack_ids(seqs) -> tuple[np.ndarray, list[int]]:
    """The ids (N,) and row bounds of sequences (anything with ``ids`` and
    ``tau``) stacked as one pack, in order."""
    ids = np.fromiter(chain.from_iterable(s.ids for s in seqs), dtype=np.int64)
    return ids, np.cumsum([0, *(s.tau for s in seqs)]).tolist()
