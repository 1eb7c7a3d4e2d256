"""Fixed reference kernel that tracks how fast the machine runs right now.

On a shared machine the speed of the CPU the benchmark gets drifts by tens
of per cent over seconds to minutes (tr_short measured 350-472 verdicts/s in
five 30-second runs of the same code).  The benchmark times this kernel
right after each chunk of work and divides the chunk's time by the ratio of
the kernel's time to ``NOMINAL_S``, which cancels most of the drift.  The
kernel mixes the same kinds of work as a verdict: a regex word split with
dictionary lookups, then a two-layer 64-wide attention + FFN forward pass
over 67 positions in float64.  It does not use essayqa, so no change to the
program can change it.
"""

from __future__ import annotations

import re
import time

import numpy as np

NOMINAL_S = 1e-3  # normalized figures are for a machine running one kernel call in 1 ms
MIN_CALLS = 10
# Shape of the kernel's forward pass: a tr_short verdict's mean tau and the
# default encoder's width, heads and FFN size.
TAU, WIDTH, HEADS, INNER = 67, 64, 4, 256

_WORD = re.compile(r"[A-Za-z0-9]+|[^\sA-Za-z0-9]")
_TEXT = " ".join(["Last week my class visited the city museum, and we ate lunch together."] * 6)


class Reference:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.w_qkvo = [rng.normal(0.0, 0.02, size=(WIDTH, WIDTH)) for _ in range(4)]
        self.w1 = rng.normal(0.0, 0.02, size=(WIDTH, INNER))
        self.w2 = rng.normal(0.0, 0.02, size=(INNER, WIDTH))
        self.x = rng.normal(size=(TAU, WIDTH))
        self.vocab = {w: i for i, w in enumerate(sorted(set(_TEXT.lower().split())))}

    def kernel(self) -> int:
        ids = [self.vocab.get(m.group(0).lower(), 0) for m in _WORD.finditer(_TEXT)]
        t, d = self.x.shape
        dk = d // HEADS
        h = self.x
        w_q, w_k, w_v, w_o = self.w_qkvo
        for _ in range(2):
            q = (h @ w_q).reshape(t, HEADS, dk).transpose(1, 0, 2)
            k = (h @ w_k).reshape(t, HEADS, dk).transpose(1, 0, 2)
            v = (h @ w_v).reshape(t, HEADS, dk).transpose(1, 0, 2)
            s = q @ k.transpose(0, 2, 1) / np.sqrt(dk)
            s = np.exp(s - s.max(axis=-1, keepdims=True))
            s /= s.sum(axis=-1, keepdims=True)
            h = h + (s @ v).transpose(1, 0, 2).reshape(t, d) @ w_o
            h = (h - h.mean(axis=-1, keepdims=True)) / np.sqrt(h.var(axis=-1, keepdims=True) + 1e-5)
            h = h + np.maximum(h @ self.w1, 0.0) @ self.w2
        return len(ids)

    def seconds_per_call(self, budget_s: float) -> float:
        """Mean time of one kernel call, over at least ``MIN_CALLS`` calls
        and ``budget_s`` seconds."""
        calls = 0
        start = time.perf_counter()
        while True:
            self.kernel()
            calls += 1
            elapsed = time.perf_counter() - start
            if calls >= MIN_CALLS and elapsed >= budget_s:
                return elapsed / calls
