"""Encoder oracles: sublayers against explicit-loop references, probability
invariants, determinism, packing invariance, bit-identity with the
out-of-place formulas, peak memory and dtype."""

import functools
import math
import os
import platform
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from essayqa import encoder
from essayqa.encoder import (
    DTYPES,
    EncoderConfig,
    _merge_heads,
    _split_heads,
    encode,
    encoder_layer,
    forward_batch,
    init_encoder_params,
    layer_slice,
    pack_ids,
    scaled_attention,
    softmax_last,
)
from essayqa.errors import ValidationError
from essayqa.heads import init_head_params
from essayqa.seqbuild import InputSequence
from essayqa.train import TrainingExample, loss_and_grads

from reference import ref_encoder_layer_no_norm, ref_multi_head_attention

RNG = np.random.default_rng(1234)


def small_config(**overrides):
    base = dict(vocab_size=31, layers=2, d_model=16, heads=4, ffn_inner=24,
                max_len=32, seed=5, use_residual_norm=True, dtype="float64")
    base.update(overrides)
    return EncoderConfig(**base)


def make_params(cfg):
    return init_encoder_params(cfg, np.random.default_rng(cfg.seed))


class TestConfig:
    def test_heads_must_divide(self):
        with pytest.raises(ValidationError):
            EncoderConfig(vocab_size=10, d_model=10, heads=4)

    def test_positive_counts(self):
        with pytest.raises(ValidationError):
            EncoderConfig(vocab_size=0)

    def test_max_len_capped_at_input_limit(self):
        assert EncoderConfig(vocab_size=10, max_len=512).max_len == 512
        with pytest.raises(ValidationError, match="max_len must be at most 512"):
            EncoderConfig(vocab_size=10, max_len=513)


class TestScaledAttention:
    def test_matches_two_loop_reference(self):
        cfg = small_config()
        params = make_params(cfg)
        lp = layer_slice(params, 0)
        for _ in range(100):
            tau = int(RNG.integers(2, 7))
            h = RNG.normal(size=(tau, cfg.d_model))
            ours, our_weights = scaled_attention(h, lp, cfg, return_weights=True)
            ref, ref_weights = ref_multi_head_attention(h, lp, cfg.heads)
            assert np.linalg.norm(ours - ref) / max(np.linalg.norm(ref), 1e-12) < 1e-10
            assert np.allclose(our_weights, ref_weights, atol=1e-12)

    def test_tau_one_weight_is_identity(self):
        cfg = small_config()
        params = make_params(cfg)
        lp = layer_slice(params, 0)
        h = RNG.normal(size=(1, cfg.d_model))
        out, weights = scaled_attention(h, lp, cfg, return_weights=True)
        assert weights.shape == (cfg.heads, 1, 1)
        assert np.allclose(weights, 1.0)
        v = (h @ lp["attn.w_v"])
        assert np.allclose(out, v @ lp["attn.w_o"] + lp["attn.b_o"])

    def test_identical_keys_give_uniform_rows(self):
        cfg = small_config()
        params = make_params(cfg)
        lp = dict(layer_slice(params, 0))
        lp["attn.w_k"] = np.zeros_like(lp["attn.w_k"])  # K rows all zero -> identical
        tau = 5
        h = RNG.normal(size=(tau, cfg.d_model))
        out, weights = scaled_attention(h, lp, cfg, return_weights=True)
        assert np.allclose(weights, 1.0 / tau)
        # every output row equals the mean of V's rows, projected
        v = h @ lp["attn.w_v"]
        expected = np.tile(v.mean(axis=0), (tau, 1)) @ lp["attn.w_o"] + lp["attn.b_o"]
        assert np.allclose(out, expected)

    def test_rows_sum_to_one_in_unit_interval(self):
        cfg = small_config()
        params = make_params(cfg)
        lp = layer_slice(params, 0)
        for _ in range(50):
            tau = int(RNG.integers(1, 9))
            h = RNG.normal(size=(tau, cfg.d_model)) * 3
            _, weights = scaled_attention(h, lp, cfg, return_weights=True)
            assert np.all(weights >= 0.0) and np.all(weights <= 1.0)
            assert np.allclose(weights.sum(axis=-1), 1.0, atol=1e-9)

    def test_nonfinite_input_rejected(self):
        cfg = small_config()
        params = make_params(cfg)
        h = np.full((3, cfg.d_model), np.nan)
        with pytest.raises(ValidationError):
            scaled_attention(h, layer_slice(params, 0), cfg)


class TestEncoderLayer:
    def test_matches_loop_reference_without_norm(self):
        cfg = small_config(use_residual_norm=False)
        params = make_params(cfg)
        lp = layer_slice(params, 0)
        for _ in range(100):
            tau = int(RNG.integers(2, 7))
            h = RNG.normal(size=(tau, cfg.d_model))
            ours = encoder_layer(h, lp, cfg)
            ref = ref_encoder_layer_no_norm(h, lp, cfg.heads)
            assert np.linalg.norm(ours - ref) / max(np.linalg.norm(ref), 1e-12) < 1e-10

    def test_zero_ffn_weights_broadcast_b2(self):
        cfg = small_config(use_residual_norm=False)
        params = make_params(cfg)
        lp = dict(layer_slice(params, 0))
        lp["ffn.w1"] = np.zeros_like(lp["ffn.w1"])
        lp["ffn.b1"] = np.zeros_like(lp["ffn.b1"])
        lp["ffn.b2"] = RNG.normal(size=cfg.d_model)
        h = RNG.normal(size=(4, cfg.d_model))
        out = encoder_layer(h, lp, cfg)
        assert np.allclose(out, np.tile(lp["ffn.b2"], (4, 1)))

    def test_shape_contract(self):
        cfg = small_config()
        params = make_params(cfg)
        lp = layer_slice(params, 0)
        for tau in (1, 3, cfg.max_len):
            h = RNG.normal(size=(tau, cfg.d_model))
            assert encoder_layer(h, lp, cfg).shape == (tau, cfg.d_model)


class TestEncode:
    def test_deterministic_bit_identical(self):
        cfg = small_config()
        params = make_params(cfg)
        ids = list(RNG.integers(0, cfg.vocab_size, size=9))
        a = encode(ids, params, cfg)
        b = encode(ids, params, cfg)
        assert np.array_equal(a, b)

    def test_output_rows_equal_tau(self):
        cfg = small_config()
        params = make_params(cfg)
        for tau in (1, 5, 17):
            ids = list(RNG.integers(0, cfg.vocab_size, size=tau))
            assert encode(ids, params, cfg).shape == (tau, cfg.d_model)

    def test_token_id_out_of_range(self):
        cfg = small_config()
        params = make_params(cfg)
        with pytest.raises(ValidationError):
            encode([0, cfg.vocab_size], params, cfg)

    def test_too_long_rejected(self):
        cfg = small_config()
        params = make_params(cfg)
        with pytest.raises(ValidationError):
            encode([0] * (cfg.max_len + 1), params, cfg)

    def test_permutation_sensitive(self):
        cfg = small_config()
        params = make_params(cfg)
        for _ in range(10):
            ids = list(RNG.integers(4, cfg.vocab_size, size=8))
            if ids[2] == ids[5]:
                ids[5] = (ids[5] + 1) % cfg.vocab_size or 4
            swapped = list(ids)
            swapped[2], swapped[5] = swapped[5], swapped[2]
            a = encode(ids, params, cfg)
            b = encode(swapped, params, cfg)
            assert not np.allclose(a, b)

    def test_no_nans_for_bounded_inputs(self):
        cfg = small_config()
        params = make_params(cfg)
        # inflate embeddings to the |entry| <= 10 bound
        params = {k: v.copy() for k, v in params.items()}
        params["tok_emb"] *= 500.0
        params["tok_emb"] = np.clip(params["tok_emb"], -10, 10)
        ids = list(RNG.integers(0, cfg.vocab_size, size=16))
        h = encode(ids, params, cfg)
        assert np.all(np.isfinite(h))

    def test_pack_rows_equal_each_sequence_alone(self):
        """Each sequence's rows of a training pack of 8 (layer caches kept)
        equal that sequence encoded alone, byte for byte: nothing beside it
        in the pack moves its H."""
        cfg = small_config(max_len=200)
        params = make_params(cfg)
        lengths = (1, 3, 9, 14, 57, 120, 199, 200)
        seqs = [RNG.integers(0, cfg.vocab_size, size=n) for n in lengths]
        bounds = np.cumsum([0, *lengths]).tolist()
        h, cache = forward_batch(np.concatenate(seqs), params, cfg, bounds=bounds)
        assert h.shape == (sum(lengths), cfg.d_model) and cache is not None
        for seq, s, e in zip(seqs, bounds, bounds[1:]):
            assert h[s:e].tobytes() == encode(seq, params, cfg).tobytes()

    def test_residual_norm_on_both_layers_used(self):
        cfg = small_config()
        params = make_params(cfg)
        ids = [1, 2, 3, 4]
        h = encode(ids, params, cfg)
        # layer norm keeps per-row variance near 1
        var = h.var(axis=-1)
        assert np.all(var > 0.1)


def packed_sequence(ids):
    """An InputSequence of ``ids`` with a one-token question; encode reads
    only the ids."""
    n = len(ids)
    return InputSequence(ids=tuple(int(i) for i in ids), surfaces=("w",) * n,
                         char_starts=(None,) * n, char_ends=(None,) * n, m=1, n=n - 3)


@functools.cache
def packing_model(dtype):
    """The default-size encoder, weights redrawn so attention is not flat."""
    cfg = EncoderConfig(vocab_size=100, seed=11, dtype=dtype)
    return cfg, full_params(cfg, 0.1)


class TestPacking:
    """A pack runs the position-wise work over all its rows at once, so a
    BLAS whose GEMM output rows depend on the other rows would move each
    sequence's H; one sequence is a pack of one."""

    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from(DTYPES), st.lists(st.integers(3, 512), min_size=1, max_size=8),
           st.integers(0, 2 ** 32 - 1))
    def test_each_slice_equals_its_sequence_alone(self, dtype, lengths, seed):
        cfg, params = packing_model(dtype)
        rng = np.random.default_rng(seed)
        seqs = [packed_sequence(rng.integers(0, cfg.vocab_size, size=n)) for n in lengths]
        h = encode(seqs, params, cfg)
        assert h.shape == (sum(lengths), cfg.d_model) and h.dtype == cfg.np_dtype
        start = 0
        for seq in seqs:
            alone = encode(seq, params, cfg)
            assert h[start:start + seq.tau].tobytes() == alone.tobytes()
            assert alone.tobytes() == encode(list(seq.ids), params, cfg).tobytes()
            start += seq.tau

    def test_pack_may_exceed_max_len_but_no_sequence_may(self):
        cfg = small_config()
        params = make_params(cfg)
        fits = [packed_sequence([4] * cfg.max_len)] * 3
        assert encode(fits, params, cfg).shape == (3 * cfg.max_len, cfg.d_model)
        with pytest.raises(ValidationError, match="exceeds max_len"):
            encode([fits[0], packed_sequence([4] * (cfg.max_len + 1)), fits[0]], params, cfg)


class TestSoftmax:
    def test_matches_direct_computation(self):
        x = RNG.normal(size=(4, 7)) * 5
        s = softmax_last(x)
        direct = np.exp(x) / np.exp(x).sum(axis=-1, keepdims=True)
        assert np.allclose(s, direct, atol=1e-12)
        assert np.allclose(s.sum(axis=-1), 1.0, atol=1e-9)

    def test_stable_for_large_values(self):
        x = np.array([[1e4, 1e4 + 1.0]])
        s = softmax_last(x)
        assert np.all(np.isfinite(s))
        assert abs(s.sum() - 1.0) < 1e-9

    def test_out_none_keeps_input_and_out_x_is_in_place(self):
        x = RNG.normal(size=(2, 3, 7)) * 40
        before = x.copy()
        s = softmax_last(x)
        assert np.array_equal(x, before)
        assert np.array_equal(s, ref_softmax(x))
        assert softmax_last(x, out=x) is x
        assert np.array_equal(x, s)


# ------------------------------------------------ out-of-place formulas
#
# The sublayers as they were written before scores, d scores, LayerNorm and
# the FFN were computed in place.  Installed over the encoder's own sublayer
# functions, they give the reference the in-place code must equal bit for bit.


def ref_softmax(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def ref_attn_forward(h_in, p, pre, cfg, bounds, keep_cache=False):
    q = _split_heads(h_in @ p[pre + "w_q"], cfg.heads)
    k = _split_heads(h_in @ p[pre + "w_k"], cfg.heads)
    v = _split_heads(h_in @ p[pre + "w_v"], cfg.heads)
    spans = list(zip(bounds[:-1], bounds[1:]))  # the same formula on each sequence's rows
    weights = [ref_softmax(q[:, s:e] @ k[:, s:e].transpose(0, 2, 1) / math.sqrt(cfg.d_k))
               for s, e in spans]
    ctx = np.concatenate([_merge_heads(w @ v[:, s:e]) for w, (s, e) in zip(weights, spans)])
    out = ctx @ p[pre + "w_o"] + p[pre + "b_o"]
    return out, (h_in, q, k, v, weights, ctx, bounds) if keep_cache else None


def ref_attn_backward(dout, cache, p, pre, cfg, grads):
    h_in, q, k, v, weights, ctx, bounds = cache
    grads_o = (ctx.T @ dout, dout.sum(axis=0))
    do_h = _split_heads(dout @ p[pre + "w_o"].T, cfg.heads)
    dq, dk, dv = [], [], []
    for w, s, e in zip(weights, bounds, bounds[1:]):
        dweights = do_h[:, s:e] @ v[:, s:e].transpose(0, 2, 1)
        dv.append(w.transpose(0, 2, 1) @ do_h[:, s:e])
        rowdot = (dweights * w).sum(axis=-1, keepdims=True)
        dscores = (dweights - rowdot) * w / math.sqrt(cfg.d_k)
        dq.append(dscores @ k[:, s:e])
        dk.append(dscores.transpose(0, 2, 1) @ q[:, s:e])
    dq, dk, dv = (_merge_heads(np.concatenate(x, axis=1)) for x in (dq, dk, dv))
    grads[pre + "w_q"] = h_in.T @ dq
    grads[pre + "w_k"] = h_in.T @ dk
    grads[pre + "w_v"] = h_in.T @ dv
    grads[pre + "w_o"], grads[pre + "b_o"] = grads_o
    return dq @ p[pre + "w_q"].T + dk @ p[pre + "w_k"].T + dv @ p[pre + "w_v"].T


def ref_ln_forward(x, gain, bias):
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + encoder.LN_EPS)
    xhat = (x - mu) * inv
    return xhat * gain + bias, (xhat, inv, gain)


def ref_ffn_forward(a, p, pre):
    u = a @ p[pre + "w1"] + p[pre + "b1"]
    r = np.maximum(0.0, u)
    return r @ p[pre + "w2"] + p[pre + "b2"], (a, u, r)


def ref_ffn_backward(dout, cache, p, pre, grads):
    a, u, r = cache
    du = (dout @ p[pre + "w2"].T) * (u > 0)
    grads[pre + "w1"] = a.T @ du
    grads[pre + "b1"] = du.sum(axis=0)
    grads[pre + "w2"] = r.T @ dout
    grads[pre + "b2"] = dout.sum(axis=0)
    return du @ p[pre + "w1"].T


def out_of_place(monkeypatch, fn, *args):
    """fn(*args) with the encoder's sublayers replaced by the formulas above."""
    with monkeypatch.context() as m:
        m.setattr(encoder, "_attn_forward", ref_attn_forward)
        m.setattr(encoder, "_attn_backward", ref_attn_backward)
        m.setattr(encoder, "_ln_forward", ref_ln_forward)
        m.setattr(encoder, "_ffn_forward", ref_ffn_forward)
        m.setattr(encoder, "_ffn_backward", ref_ffn_backward)
        return fn(*args)


def bit_config(**overrides):
    """d_k = 3: dividing by sqrt(d_k) is not the same as multiplying by its
    inverse, as it would be for d_k = 4."""
    return small_config(d_model=12, **overrides)


def full_params(cfg, scale):
    """Encoder and head tensors redrawn at ``scale`` so scores get large."""
    rng = np.random.default_rng(cfg.seed)
    params = init_encoder_params(cfg, rng)
    params.update(init_head_params(cfg, rng))
    return {k: (v + scale * rng.normal(size=v.shape)).astype(cfg.np_dtype)
            for k, v in params.items()}


def mixed_length_batch():
    """Examples of lengths 1..9; the length-1 one has a single key.  As a
    batch of 5 it trains as two packs, of 4 and of 1."""
    lengths = (9, 1, 4, 7, 2)
    rng = np.random.default_rng(99)
    return [TrainingExample(ids=tuple(int(i) for i in rng.integers(4, 31, size=n)),
                            m=0, gold_start=1 + n // 2, gold_end=n,
                            answerable=bool(j % 2))
            for j, n in enumerate(lengths)]


class TestBitIdenticalToOutOfPlace:
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("shape", [(1, 12), (9, 12), (65, 64), (3, 7, 64), (5, 1, 12)])
    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    def test_layer_norm(self, dtype, shape, scale):
        """``_ln_forward``'s sum-then-divide equals the ``x - x.mean()`` /
        ``(xhat ** 2).mean()`` formula bit for bit."""
        rng = np.random.default_rng(len(shape) * 1000 + shape[-1])
        gain = rng.normal(size=shape[-1]).astype(dtype)
        bias = rng.normal(size=shape[-1]).astype(dtype)
        for _ in range(20):
            x = ((rng.normal(size=shape) + rng.normal()) * scale).astype(dtype)
            y, (xhat, inv, g) = encoder._ln_forward(x, gain, bias)
            y_ref, (xhat_ref, inv_ref, _) = ref_ln_forward(x, gain, bias)
            assert y.dtype == xhat.dtype == inv.dtype == np.dtype(dtype)
            assert np.array_equal(y, y_ref)
            assert np.array_equal(xhat, xhat_ref)
            assert np.array_equal(inv, inv_ref)
            assert g is gain

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("scale", [1.0, 100.0])
    def test_scaled_attention(self, monkeypatch, dtype, scale):
        cfg = bit_config(dtype=dtype)
        params = full_params(cfg, 0.5)
        lp = layer_slice(params, 0)
        for tau in (1, 2, 9, 32):
            h = (RNG.normal(size=(tau, cfg.d_model)) * scale).astype(cfg.np_dtype)
            ours = scaled_attention(h, lp, cfg, return_weights=True)
            ref = out_of_place(monkeypatch, scaled_attention, h, lp, cfg, True)
            assert np.array_equal(ours[0], ref[0])
            assert np.array_equal(ours[1], ref[1])

    @pytest.mark.parametrize("use_residual_norm", [True, False])
    @pytest.mark.parametrize("scale", [1.0, 100.0])
    def test_encoder_layer(self, monkeypatch, use_residual_norm, scale):
        cfg = bit_config(use_residual_norm=use_residual_norm)
        lp = layer_slice(full_params(cfg, 0.5), 1)
        for tau in (1, 6, 32):
            h = RNG.normal(size=(tau, cfg.d_model)) * scale
            ours = encoder_layer(h, lp, cfg)
            assert np.array_equal(ours, out_of_place(monkeypatch, encoder_layer, h, lp, cfg))

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("use_residual_norm", [True, False])
    @pytest.mark.parametrize("scale", [1.0, 100.0])
    def test_packed_encode(self, monkeypatch, dtype, use_residual_norm, scale):
        cfg = bit_config(dtype=dtype, use_residual_norm=use_residual_norm)
        params = full_params(cfg, 0.5)
        params["tok_emb"] *= scale
        pack = [packed_sequence(RNG.integers(0, cfg.vocab_size, size=n)) for n in (3, 32, 9)]
        ours = encode(pack, params, cfg)
        assert np.array_equal(ours, out_of_place(monkeypatch, encode, pack, params, cfg))

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("use_residual_norm", [True, False])
    @pytest.mark.parametrize("scale", [0.3, 3.0])
    def test_packed_forward_and_loss_and_grads(self, monkeypatch, dtype,
                                               use_residual_norm, scale):
        """A training pack, whose attention is confined to each sequence's
        own rows, and the loss and gradients of its batch."""
        cfg = bit_config(dtype=dtype, use_residual_norm=use_residual_norm)
        params = full_params(cfg, scale)
        batch = mixed_length_batch()
        ids, bounds = pack_ids(batch)
        pack = functools.partial(forward_batch, bounds=bounds)
        h, _ = pack(ids, params, cfg)
        h_ref, _ = out_of_place(monkeypatch, pack, ids, params, cfg)
        assert np.array_equal(h, h_ref)
        with np.errstate(divide="ignore", over="ignore"):
            loss, grads = loss_and_grads(params, cfg, batch, 3)
            ref_loss, ref_grads = out_of_place(monkeypatch, loss_and_grads,
                                               params, cfg, batch, 3)
        assert loss == ref_loss or (np.isnan(loss) and np.isnan(ref_loss))
        assert list(grads) == list(ref_grads)
        for name in grads:
            assert np.array_equal(grads[name], ref_grads[name], equal_nan=True), name


class TestMemory:
    def test_encode_peak_is_one_score_buffer_per_layer_plus_slack(self):
        """A served sequence's (heads, T, T) scores are scaled and
        normalized in place: no second buffer of that size."""
        cfg = EncoderConfig(vocab_size=100)
        params = init_encoder_params(cfg, np.random.default_rng(0))
        ids = np.random.default_rng(1).integers(0, cfg.vocab_size, size=cfg.max_len)
        tracemalloc.start()
        try:
            encode(ids, params, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        score_buffer = cfg.heads * cfg.max_len ** 2 * cfg.np_dtype.itemsize
        assert peak <= (cfg.layers + 1.5) * score_buffer, peak / score_buffer

    # Steady-state minor page faults per call, measured in a fresh interpreter
    # so that pytest's own heap does not count.
    FAULTS_SCRIPT = """
import resource
import numpy as np
from essayqa.encoder import EncoderConfig, encode, init_encoder_params
from essayqa.heads import init_head_params
from essayqa.seqbuild import InputSequence
from essayqa.train import TrainingExample, loss_and_grads

def faults_per_call(fn, warmup=3, calls=5):
    for _ in range(warmup):
        fn()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(calls):
        fn()
    return (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / calls

cfg = EncoderConfig(vocab_size=100)
rng = np.random.default_rng(0)
params = init_encoder_params(cfg, rng)
params.update(init_head_params(cfg, rng))
ids = rng.integers(4, cfg.vocab_size, size=cfg.max_len)
batch = []
for j in range(16):
    n = int(rng.integers(40, 101))
    batch.append(TrainingExample(ids=tuple(int(i) for i in rng.integers(4, 100, size=n)),
                                 m=0, gold_start=1 + n // 2, gold_end=n, answerable=bool(j % 2)))
print(faults_per_call(lambda: encode(ids, params, cfg)),
      faults_per_call(lambda: loss_and_grads(params, cfg, batch, 3)))
"""

    @staticmethod
    def faults(**env):
        src = os.path.dirname(os.path.dirname(encoder.__file__))
        env = {**os.environ, "PYTHONPATH": src, **env}
        out = subprocess.run([sys.executable, "-c", TestMemory.FAULTS_SCRIPT], env=env,
                             capture_output=True, text=True, check=True, timeout=300)
        encode_faults, train_faults = map(float, out.stdout.split())
        return encode_faults, train_faults

    @pytest.mark.skipif(not sys.platform.startswith("linux")
                        or platform.libc_ver()[0] != "glibc",
                        reason="heap retention is set through glibc mallopt")
    def test_freed_heap_is_reused_without_page_faults(self, monkeypatch):
        """A 512-token encode and a B=16 training step page-fault again on
        every call when freed heap goes back to the OS."""
        monkeypatch.delenv("MALLOC_TOP_PAD_", raising=False)
        encode_faults, train_faults = self.faults()
        assert encode_faults < 64 and train_faults < 64, (encode_faults, train_faults)
        # A host's own MALLOC_TOP_PAD_ stays in force.
        encode_faults, _ = self.faults(MALLOC_TOP_PAD_="131072")
        assert encode_faults >= 64, encode_faults


class TestFloat32:
    def test_packed_forward_and_gradients_stay_float32_and_finite(self):
        """A training pack's H, every array its layer caches hold, and the
        gradients stay float32."""
        cfg = small_config(dtype="float32")
        params = full_params(cfg, 0.3)
        batch = mixed_length_batch()
        ids, bounds = pack_ids(batch)
        h, (_, _, layer_caches) = forward_batch(ids, params, cfg, bounds=bounds)
        activations = [h]
        for layer in layer_caches:
            for part in filter(None, layer):
                for a in part:
                    activations.extend(a if isinstance(a, list) else [a])
        arrays = [a for a in activations if isinstance(a, np.ndarray)]
        assert len(arrays) > len(layer_caches) * len(batch)
        for a in arrays:
            assert a.dtype == np.float32 and np.all(np.isfinite(a))
        loss, grads = loss_and_grads(params, cfg, batch, 3)
        assert np.isfinite(loss)
        assert set(grads) == set(params)
        for name, g in grads.items():
            assert g.dtype == np.float32 and np.all(np.isfinite(g)), name
