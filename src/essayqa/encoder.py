"""Miniature multi-layer transformer encoder in plain numpy.

Forward and backward passes are hand-written so training needs nothing
beyond numpy.  Shapes follow (B, T, D) = batch, positions, model width;
attention uses (B, heads, T, d_k).  A single sequence is a batch of one.

Sublayer composition per layer, with residual/normalization enabled
(the default):

    A   = LayerNorm(H_prev + MultiHeadAttention(H_prev))
    H_l = LayerNorm(A + relu(A @ W1 + b1) @ W2 + b2)

With ``use_residual_norm=False`` (oracle configuration) the layer reduces to
the bare attention-then-FFN form:

    H_l = relu(MultiHeadAttention(H_prev) @ W1 + b1) @ W2 + b2
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np

from .errors import ValidationError
from .seqbuild import InputSequence

LN_EPS = 1e-5
_MASKED = -1e30


@dataclass(frozen=True)
class EncoderConfig:
    vocab_size: int
    layers: int = 2
    d_model: int = 64
    heads: int = 4
    ffn_inner: int = 256
    max_len: int = 512
    seed: int = 0
    use_residual_norm: bool = True
    dtype: str = "float64"

    def __post_init__(self):
        for name in ("vocab_size", "layers", "d_model", "heads", "ffn_inner", "max_len"):
            if getattr(self, name) <= 0:
                raise ValidationError(f"{name} must be positive")
        if self.d_model % self.heads != 0:
            raise ValidationError("d_model must be divisible by heads")
        if self.dtype not in ("float32", "float64"):
            raise ValidationError(f"unsupported dtype {self.dtype!r}")

    @property
    def d_k(self) -> int:
        return self.d_model // self.heads

    @property
    def np_dtype(self):
        return np.dtype(self.dtype)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "EncoderConfig":
        return cls(**d)


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


def softmax_last(x: np.ndarray) -> np.ndarray:
    """Numerically stable softmax along the last axis (max subtraction)."""
    z = x - x.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


# ---------------------------------------------------------------- layernorm


def _ln_forward(x, gain, bias):
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat = (x - mu) * inv
    return xhat * gain + bias, (xhat, inv, gain)


def _ln_backward(dy, cache):
    xhat, inv, gain = cache
    lead = tuple(range(dy.ndim - 1))
    dgain = (dy * xhat).sum(axis=lead)
    dbias = dy.sum(axis=lead)
    g = dy * gain
    dx = (g - g.mean(axis=-1, keepdims=True) - xhat * (g * xhat).mean(axis=-1, keepdims=True)) * inv
    return dx, dgain, dbias


# ---------------------------------------------------------------- attention


def _split_heads(x, heads):
    b, t, d = x.shape
    return x.reshape(b, t, heads, d // heads).transpose(0, 2, 1, 3)


def _merge_heads(x):
    b, h, t, dk = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, t, h * dk)


def _attn_forward(h_in, lp, cfg: EncoderConfig, mask=None):
    """Multi-head scaled dot-product attention with output projection.

    mask: optional (B, T) boolean, True at real positions; padded key columns
    are excluded from every softmax row.
    Returns (out, weights, cache) with weights (B, heads, T, T).
    """
    q = _split_heads(h_in @ lp["w_q"], cfg.heads)
    k = _split_heads(h_in @ lp["w_k"], cfg.heads)
    v = _split_heads(h_in @ lp["w_v"], cfg.heads)
    scores = q @ k.transpose(0, 1, 3, 2) / math.sqrt(cfg.d_k)
    if mask is not None:
        scores = np.where(mask[:, None, None, :], scores, _MASKED)
    weights = softmax_last(scores)
    ctx = _merge_heads(weights @ v)
    out = ctx @ lp["w_o"] + lp["b_o"]
    cache = (h_in, q, k, v, weights, ctx)
    return out, weights, cache


def _attn_backward(dout, cache, lp, cfg: EncoderConfig):
    h_in, q, k, v, weights, ctx = cache
    b, t, d = h_in.shape
    flat = lambda x: x.reshape(-1, x.shape[-1])

    d_wo = flat(ctx).T @ flat(dout)
    d_bo = dout.sum(axis=(0, 1))
    dctx = dout @ lp["w_o"].T
    do_h = _split_heads(dctx, cfg.heads)

    dweights = do_h @ v.transpose(0, 1, 3, 2)
    dv = weights.transpose(0, 1, 3, 2) @ do_h
    rowdot = (dweights * weights).sum(axis=-1, keepdims=True)
    dscores = (dweights - rowdot) * weights / math.sqrt(cfg.d_k)
    dq = dscores @ k
    dk = dscores.transpose(0, 1, 3, 2) @ q

    dq_lin = _merge_heads(dq)
    dk_lin = _merge_heads(dk)
    dv_lin = _merge_heads(dv)
    d_wq = flat(h_in).T @ flat(dq_lin)
    d_wk = flat(h_in).T @ flat(dk_lin)
    d_wv = flat(h_in).T @ flat(dv_lin)
    dh = dq_lin @ lp["w_q"].T + dk_lin @ lp["w_k"].T + dv_lin @ lp["w_v"].T
    grads = {"w_q": d_wq, "w_k": d_wk, "w_v": d_wv, "w_o": d_wo, "b_o": d_bo}
    return dh, grads


# ---------------------------------------------------------------- ffn


def _ffn_forward(a, lp):
    u = a @ lp["w1"] + lp["b1"]
    r = np.maximum(0.0, u)
    out = r @ lp["w2"] + lp["b2"]
    return out, (a, u, r)


def _ffn_backward(dout, cache, lp):
    a, u, r = cache
    flat = lambda x: x.reshape(-1, x.shape[-1])
    d_w2 = flat(r).T @ flat(dout)
    d_b2 = dout.sum(axis=(0, 1))
    dr = dout @ lp["w2"].T
    du = dr * (u > 0)
    d_w1 = flat(a).T @ flat(du)
    d_b1 = du.sum(axis=(0, 1))
    da = du @ lp["w1"].T
    grads = {"w1": d_w1, "b1": d_b1, "w2": d_w2, "b2": d_b2}
    return da, grads


# ---------------------------------------------------------------- layers


def layer_slice(params: dict[str, np.ndarray], i: int) -> dict[str, np.ndarray]:
    """Layer i's tensors with the layer prefix stripped (attn.*, ffn.*, ln*.*)."""
    pre = f"layer{i}."
    return {k[len(pre):]: v for k, v in params.items() if k.startswith(pre)}


def _layer_forward(h_prev, lp, cfg: EncoderConfig, mask=None):
    attn_lp = {k[5:]: v for k, v in lp.items() if k.startswith("attn.")}
    ffn_lp = {k[4:]: v for k, v in lp.items() if k.startswith("ffn.")}
    attn_out, _, c_attn = _attn_forward(h_prev, attn_lp, cfg, mask)
    if cfg.use_residual_norm:
        a, c_ln1 = _ln_forward(h_prev + attn_out, lp["ln1.gain"], lp["ln1.bias"])
        ffn_out, c_ffn = _ffn_forward(a, ffn_lp)
        h_out, c_ln2 = _ln_forward(a + ffn_out, lp["ln2.gain"], lp["ln2.bias"])
        return h_out, (c_attn, c_ln1, c_ffn, c_ln2)
    ffn_out, c_ffn = _ffn_forward(attn_out, ffn_lp)
    return ffn_out, (c_attn, None, c_ffn, None)


def _layer_backward(dh_out, cache, lp, cfg: EncoderConfig):
    c_attn, c_ln1, c_ffn, c_ln2 = cache
    attn_lp = {k[5:]: v for k, v in lp.items() if k.startswith("attn.")}
    ffn_lp = {k[4:]: v for k, v in lp.items() if k.startswith("ffn.")}
    grads: dict[str, np.ndarray] = {}
    if cfg.use_residual_norm:
        dr2, dg2, db2 = _ln_backward(dh_out, c_ln2)
        grads["ln2.gain"], grads["ln2.bias"] = dg2, db2
        da_ffn, ffn_grads = _ffn_backward(dr2, c_ffn, ffn_lp)
        da = dr2 + da_ffn
        dr1, dg1, db1 = _ln_backward(da, c_ln1)
        grads["ln1.gain"], grads["ln1.bias"] = dg1, db1
        dattn_out = dr1
        dh_prev_res = dr1
    else:
        dattn_out, ffn_grads = _ffn_backward(dh_out, c_ffn, ffn_lp)
        dh_prev_res = 0.0
    for k, v in ffn_grads.items():
        grads[f"ffn.{k}"] = v
    dh_prev_attn, attn_grads = _attn_backward(dattn_out, c_attn, attn_lp, cfg)
    for k, v in attn_grads.items():
        grads[f"attn.{k}"] = v
    return dh_prev_attn + dh_prev_res, grads


# ---------------------------------------------------------------- public ops


def scaled_attention(h_prev: np.ndarray, layer_params: dict[str, np.ndarray],
                     cfg: EncoderConfig, return_weights: bool = False):
    """Attention sublayer on a single (tau, d_model) input.

    Per head: Q = H W_q, K = H W_k, V = H W_v; softmax(Q K^T / sqrt(d_k)) V;
    heads concatenated then output-projected.  With return_weights=True also
    returns the per-head attention matrix (heads, tau, tau).
    """
    if not np.all(np.isfinite(h_prev)):
        raise ValidationError("attention input must be finite")
    attn_lp = {k[5:]: v for k, v in layer_params.items() if k.startswith("attn.")}
    out, weights, _ = _attn_forward(h_prev[None], attn_lp or layer_params, cfg)
    return (out[0], weights[0]) if return_weights else out[0]


def encoder_layer(h_prev: np.ndarray, layer_params: dict[str, np.ndarray],
                  cfg: EncoderConfig) -> np.ndarray:
    """One full encoder layer on a single (tau, d_model) input."""
    out, _ = _layer_forward(h_prev[None], layer_params, cfg)
    return out[0]


def _embed(ids: np.ndarray, params, cfg: EncoderConfig):
    if ids.max(initial=0) >= cfg.vocab_size or ids.min(initial=0) < 0:
        raise ValidationError(
            f"token id out of range for vocab_size={cfg.vocab_size}"
        )
    t = ids.shape[-1]
    if t > cfg.max_len:
        raise ValidationError(f"sequence length {t} exceeds max_len={cfg.max_len}")
    return params["tok_emb"][ids] + params["pos_emb"][:t]


def forward_batch(ids: np.ndarray, params: dict[str, np.ndarray], cfg: EncoderConfig,
                  mask: np.ndarray | None = None):
    """Encode a padded id matrix (B, T); returns (H (B, T, d_model), cache)."""
    h = _embed(ids, params, cfg)
    layer_caches = []
    for i in range(cfg.layers):
        h, cache = _layer_forward(h, layer_slice(params, i), cfg, mask)
        layer_caches.append(cache)
    return h, (ids, layer_caches)


def backward_batch(dh: np.ndarray, cache, params: dict[str, np.ndarray],
                   cfg: EncoderConfig) -> dict[str, np.ndarray]:
    """Gradients of every encoder tensor given dLoss/dH^L."""
    ids, layer_caches = cache
    grads: dict[str, np.ndarray] = {}
    for i in reversed(range(cfg.layers)):
        dh, layer_grads = _layer_backward(dh, layer_caches[i], layer_slice(params, i), cfg)
        for k, v in layer_grads.items():
            grads[f"layer{i}.{k}"] = v
    d_tok = np.zeros_like(params["tok_emb"])
    np.add.at(d_tok, ids.reshape(-1), dh.reshape(-1, dh.shape[-1]))
    d_pos = np.zeros_like(params["pos_emb"])
    d_pos[: ids.shape[-1]] = dh.sum(axis=0)
    grads["tok_emb"] = d_tok
    grads["pos_emb"] = d_pos
    return grads


def encode(seq: InputSequence | list[int] | np.ndarray,
           params: dict[str, np.ndarray], cfg: EncoderConfig) -> np.ndarray:
    """H^L for one sequence: (tau, d_model).  Deterministic for fixed params."""
    ids = np.asarray(seq.ids if isinstance(seq, InputSequence) else seq, dtype=np.int64)
    h, _ = forward_batch(ids[None], params, cfg)
    return h[0]


def encode_batch(seqs: list[InputSequence | list[int]],
                 params: dict[str, np.ndarray], cfg: EncoderConfig,
                 pad_id: int = 0) -> list[np.ndarray]:
    """Encode several sequences jointly, padding to the longest; each result
    is sliced back to its own tau and matches its unbatched encoding."""
    ids_list = [np.asarray(s.ids if isinstance(s, InputSequence) else s, dtype=np.int64)
                for s in seqs]
    ids, mask = pad_ids(ids_list, pad_id)
    h, _ = forward_batch(ids, params, cfg, mask)
    return [h[i, : len(ids_list[i])] for i in range(len(ids_list))]


def pad_ids(ids_list: list[np.ndarray], pad_id: int) -> tuple[np.ndarray, np.ndarray]:
    """Stack variable-length id vectors into (B, Tmax) plus a validity mask."""
    if not ids_list:
        raise ValidationError("empty batch")
    tmax = max(len(ids) for ids in ids_list)
    ids = np.full((len(ids_list), tmax), pad_id, dtype=np.int64)
    mask = np.zeros((len(ids_list), tmax), dtype=bool)
    for i, row in enumerate(ids_list):
        ids[i, : len(row)] = row
        mask[i, : len(row)] = True
    return ids, mask
