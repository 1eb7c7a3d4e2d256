"""End-to-end evaluation of an essay against its requirement questions:
normalize each question, assemble the input sequence, encode, verify, and
locate the responding span.

Every serving path goes through ``infer_verdicts``.  It encodes consecutive
sequences as one pack (``encoder.encode`` on a list), so a request's
requirements share one encoder pass; the heads, verification and locating
run on each sequence's own rows.  Packs are independent, so a call that
makes more than one runs them on a private pool of two worker threads
while numpy's bundled OpenBLAS reports one thread and the process may use
two or more CPUs; otherwise, and for a call of one pack, they run in turn
on the caller's thread.  Either way ``_PACK_ROWS`` rows are encoded at
once at most, split evenly between the workers, and the verdicts come back
in pair order, bit-identical to a serial run.

Every verdict is computed in float32.  A float64 model is the master copy
that training updates and checkpoints store; its verdicts are served from
``serving_params``' float32 cast of all its tensors, made once per model
and cached on it, with the master's config: the encoder computes in its
parameters' dtype.  The master's values are never changed, and its arrays
are read-only once served.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import os
import threading
from collections import deque
from collections.abc import Iterable
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass

import numpy as np

from . import heads, locator, qnorm, seqbuild
from .encoder import encode
from .errors import OversizedQuestionError, ValidationError
from .locator import OVERSIZED_QUESTION, Verdict
from .model import ModelBundle


@dataclass(frozen=True)
class EvaluationRequest:
    essay: str
    requirements: tuple[str, ...]
    model: ModelBundle

    def __post_init__(self):
        if not self.essay or not self.essay.strip():
            raise ValidationError("essay must be nonempty")
        if not self.requirements:
            raise ValidationError("at least one requirement is needed")
        for i, req in enumerate(self.requirements):
            if not req.strip():
                raise ValidationError(f"requirement {i + 1} is empty")


_SERVING_DTYPE = "float32"


def serving_params(model: ModelBundle) -> dict[str, np.ndarray]:
    """The params verdicts are computed with: a float32 model's own, or a
    float32 cast of every tensor of a float64 model.

    The cast is made once per model and kept on it while every entry of
    ``model.params`` is the same array object; assigning a new tensor or a
    new dict makes the next call cast again.  The master arrays a cached
    cast was made from become read-only, so an in-place write raises
    instead of leaving the cast stale.
    """
    if model.config.dtype == _SERVING_DTYPE:
        return model.params
    cached = model._serving
    if cached is None or not _same_arrays(model.params, cached[0]):
        source = tuple(model.params.items())
        params = {name: arr.astype(_SERVING_DTYPE) for name, arr in source}
        for _, arr in source:
            arr.setflags(write=False)
        cached = model._serving = (source, params)
    return cached[1]


def _same_arrays(params: dict, source: tuple) -> bool:
    return len(params) == len(source) and all(
        name == src_name and arr is src_arr
        for (name, arr), (src_name, src_arr) in zip(params.items(), source))


# Rows encoded at once, over all workers: two sequences at the input cap.
# More rows in flight hold more activations for little more speed.
_PACK_ROWS = 2 * seqbuild.MAX_INPUT_LEN
_POOL_WORKERS = 2
# Packs submitted and not yet collected; each holds only its sequences
# until a worker takes it, so a long corpus is not assembled ahead.
_PACKS_QUEUED = 2 * _POOL_WORKERS

_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()


@functools.cache
def _openblas_get_num_threads():
    """numpy's bundled OpenBLAS ``get_num_threads``, or None when this
    numpy carries no such library (another BLAS or another build)."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas64_*.so"))):
        try:
            getter = ctypes.CDLL(path).scipy_openblas_get_num_threads64_
        except (AttributeError, OSError):
            continue
        getter.argtypes = ()
        getter.restype = ctypes.c_int
        return getter
    return None


def _pack_workers() -> int:
    """Workers for one call's packs: two while numpy's OpenBLAS runs one
    thread and this process may use two or more CPUs, else one (serial).

    Each worker's GEMMs must stay on one thread: two workers over
    OpenBLAS's own threads ran slower than one.  The thread count is the
    host's (``OPENBLAS_NUM_THREADS``); serving never sets it.
    """
    get_num_threads = _openblas_get_num_threads()
    if get_num_threads is None or get_num_threads() != 1 or \
            not hasattr(os, "sched_getaffinity"):
        return 1
    return min(_POOL_WORKERS, len(os.sched_getaffinity(0)))


def _pack_pool() -> ThreadPoolExecutor:
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(_POOL_WORKERS, thread_name_prefix="essayqa-pack")
        return _pool


def _forget_pool() -> None:
    """In a forked child the parent's worker threads do not exist, so a
    pack submitted to the inherited pool would never run."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def infer_verdicts(model: ModelBundle, pairs: Iterable[tuple[str, str]]) -> list[Verdict]:
    """Run the full pipeline for each (question, essay) pair, in float32;
    verdicts in pair order.

    A float64 model is served from its cached float32 params
    (``serving_params``), so its master arrays are read-only after the
    first verdict; ζ, the betas, the vocabulary and the rules are read from
    the model on every call.  A question that leaves no room for the essay in
    ``config.max_len`` positions gets a not-answered verdict without scores,
    reason ``oversized_question``.  The caller's thread normalizes and
    assembles; with two workers (``_pack_workers``) each full pack runs on
    the pool.  An exception from a pack is raised once every submitted pack
    has finished.
    """
    run_pack = functools.partial(_verdict_pack, model, serving_params(model))
    workers = _pack_workers()
    cap = _PACK_ROWS // workers
    verdicts: list[Verdict | None] = []
    submitted: deque = deque()  # (pack, future), oldest first
    pack: list[tuple[int, seqbuild.InputSequence, str]] = []
    rows = 0
    try:
        for question, essay in pairs:
            normalized = qnorm.normalize(question, model.rules)
            try:
                seq = seqbuild.assemble(normalized, essay, model.vocab,
                                        max_len=model.config.max_len)
            except OversizedQuestionError:
                verdicts.append(Verdict(answered=False, scores=None, reason=OVERSIZED_QUESTION))
                continue
            if pack and rows + seq.tau > cap:
                if workers == 1:
                    _fill(verdicts, pack, run_pack(pack))
                else:
                    submitted.append((pack, _pack_pool().submit(run_pack, pack)))
                    if len(submitted) > _PACKS_QUEUED:
                        _collect(verdicts, submitted)
                pack, rows = [], 0
            pack.append((len(verdicts), seq, essay))
            verdicts.append(None)
            rows += seq.tau
        if submitted:
            submitted.append((pack, _pack_pool().submit(run_pack, pack)))
        elif pack:
            _fill(verdicts, pack, run_pack(pack))
        while submitted:
            _collect(verdicts, submitted)
    finally:
        wait([future for _, future in submitted])
    return verdicts


def _verdict_pack(model: ModelBundle, params: dict, pack) -> list[Verdict]:
    """Encode the pack's sequences in one pass on ``params``; their verdicts in pack order."""
    h = encode([seq for _, seq, _ in pack], params, model.config)
    verdicts, start = [], 0
    for _, seq, essay in pack:
        h_last = h[start:start + seq.tau]
        start += seq.tau
        dist = heads.span_probabilities(h_last, params)
        scores = heads.verify(dist, h_last[0], params,
                              beta1=model.rv_beta1, beta2=model.rv_beta2, zeta=model.zeta)
        verdicts.append(locator.locate_response(dist, seq, scores, essay))
    return verdicts


def _fill(verdicts: list, pack, pack_verdicts: list[Verdict]) -> None:
    for (i, _, _), verdict in zip(pack, pack_verdicts):
        verdicts[i] = verdict


def _collect(verdicts: list, submitted: deque) -> None:
    """Wait for the oldest submitted pack and fill in its verdicts."""
    pack, future = submitted.popleft()
    _fill(verdicts, pack, future.result())


def infer_verdict(model: ModelBundle, question: str, essay: str) -> Verdict:
    """``infer_verdicts`` for one (question, essay) pair."""
    return infer_verdicts(model, [(question, essay)])[0]


def evaluate(request: EvaluationRequest) -> list[Verdict]:
    """Verdicts for every requirement, in request order; the requirements
    share encoder packs."""
    return infer_verdicts(request.model, [(req, request.essay) for req in request.requirements])
