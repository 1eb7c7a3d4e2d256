"""Span tracer that measures the essayqa modules from outside.

Each public entry point is replaced, at the name its caller looks it up by,
with a wrapper that records a span (name, start, end, parent) and updates
counters from the call's arguments and result.  Spans stay in memory until
``write_spans``.  Nothing under ``src/`` is changed: the wrappers are
installed on the imported modules of one benchmark process only.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict

_NO_PARENT = -1


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.child_time: list[float] = []
        self._stack: list[int] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.active = False
        self.installed: defaultdict[str, int] = defaultdict(int)  # span name -> entry points
        self.missing: list[str] = []

    def install(self, owner, attr: str, label: str, span: str, count=None) -> None:
        """Wrap ``owner.attr``; ``count(counts, args, kwargs, result)`` runs
        after each traced call that returns."""
        self.installed[span] += 0
        orig = getattr(owner, attr, None)
        if orig is None:
            self.missing.append(f"{label}.{attr}")
            return
        tracer = self

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            if not tracer.active:
                return orig(*args, **kwargs)
            idx = tracer._open(span)
            try:
                result = orig(*args, **kwargs)
            finally:
                tracer._close(idx)
            if count is not None:
                count(tracer.counts, args, kwargs, result)
            return result

        setattr(owner, attr, traced)
        self.installed[span] += 1

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else _NO_PARENT)
        self.child_time.append(0.0)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        end = time.perf_counter()
        self.ends[idx] = end
        self._stack.pop()
        parent = self.parents[idx]
        if parent != _NO_PARENT:
            self.child_time[parent] += end - self.starts[idx]

    def summarize(self, first: int, last: int) -> dict[str, dict[str, float]]:
        """Per span name over spans [first, last): calls, total_ms, self_ms.
        Also the key "" with the total of top-level spans."""
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
        top = 0.0
        for i in range(first, last):
            dur = self.ends[i] - self.starts[i]
            row = out[self.names[i]]
            row["calls"] += 1
            row["total_ms"] += dur * 1e3
            row["self_ms"] += (dur - self.child_time[i]) * 1e3
            if self.parents[i] == _NO_PARENT:
                top += dur * 1e3
        out[""]["total_ms"] = top
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps({
                    "id": i, "name": name, "parent": self.parents[i],
                    "start": self.starts[i], "end": self.ends[i],
                }) + "\n")


# ------------------------------------------------------------ counters


def _count_assemble(counts, args, kwargs, seq):
    counts["seqbuild.tokens"] += seq.tau
    counts["seqbuild.truncated"] += seq.truncated


def _count_encode(counts, args, kwargs, h):
    counts["encoder.tokens"] += h.shape[0]
    counts["encoder.positions"] += h.shape[0]


def _count_forward_batch(counts, args, kwargs, result):
    ids = args[0]
    mask = args[3] if len(args) > 3 else kwargs.get("mask")
    counts["encoder.positions"] += ids.size
    counts["encoder.tokens"] += int(mask.sum()) if mask is not None else ids.size


def _count_locate(counts, args, kwargs, verdict):
    """Which locator rule decided, worked out from the Verdict and the
    InputSequence (default region rule: the essay starts at m + 3)."""
    seq = args[1]
    if verdict.answered:
        counts["locator.answered"] += 1
    elif not verdict.scores.answered:
        counts["locator.reject_verifier"] += 1
    else:
        start, end = verdict.token_span
        if min(start, end) < seq.essay_start_pos:
            counts["locator.reject_region"] += 1
        elif start > end:
            counts["locator.reject_order"] += 1


def _count_checkpoint(counts, args, kwargs, model):
    counts["checkpoint.bytes"] += os.path.getsize(args[0] if args else kwargs["path"])


def install_essayqa(tracer: Tracer) -> None:
    """Wrap every entry point the workloads reach, under its layer's name."""
    from essayqa import (checkpoint, cli, corpus, evalharness, heads, locator, pipeline,
                         qnorm, seqbuild, train)

    points = [
        (pipeline, "pipeline", "evaluate", "pipeline.evaluate", None),
        (pipeline, "pipeline", "infer_verdict", "pipeline.infer_verdict", None),
        (evalharness, "evalharness", "infer_verdict", "pipeline.infer_verdict", None),
        (qnorm, "qnorm", "normalize", "qnorm.normalize", None),
        (train, "train", "normalize", "qnorm.normalize", None),
        (seqbuild, "seqbuild", "assemble", "seqbuild.assemble", _count_assemble),
        (train, "train", "assemble", "seqbuild.assemble", _count_assemble),
        (seqbuild, "seqbuild", "build_vocab", "seqbuild.build_vocab", None),
        (pipeline, "pipeline", "encode", "encoder.forward", _count_encode),
        (train, "train", "forward_batch", "encoder.forward", _count_forward_batch),
        (train, "train", "backward_batch", "encoder.backward", None),
        (heads, "heads", "span_probabilities", "heads.span_probabilities", None),
        (heads, "heads", "verify", "heads.verify", None),
        (locator, "locator", "locate_response", "locator.locate_response", _count_locate),
        (locator, "locator", "span_to_chars", "locator.span_to_chars", None),
        (train, "train", "train_stage", "train.train_stage", None),
        (train, "train", "prepare_examples", "train.prepare_examples", None),
        (train, "train", "loss_and_grads", "train.loss_and_grads", None),
        (getattr(train, "Adam", None), "train.Adam", "step", "train.adam_step", None),
        (checkpoint, "checkpoint", "load_model", "checkpoint.load_model", _count_checkpoint),
        (cli, "cli", "load_model", "checkpoint.load_model", _count_checkpoint),
        (corpus, "corpus", "load_any", "corpus.load_any", None),
        (evalharness, "evalharness", "predict_corpus", "evalharness.predict_corpus", None),
        (cli, "cli", "cli_main", "cli.cli_main", None),
    ]
    for owner, label, attr, span, count in points:
        tracer.install(owner, attr, label, span, count)


# ------------------------------------------------------------ per-layer metrics

# name -> (unit, better, span names it reads).  A metric is reported as
# missing when none of the entry points behind one of its spans exists.
LAYER_METRICS = {
    "qnorm.calls": ("count", "lower", ["qnorm.normalize"]),
    "qnorm.self_ms": ("ms", "lower", ["qnorm.normalize"]),
    "seqbuild.assemble_calls": ("count", "lower", ["seqbuild.assemble"]),
    "seqbuild.self_ms": ("ms", "lower", ["seqbuild.assemble"]),
    "seqbuild.tokens": ("count", "lower", ["seqbuild.assemble"]),
    "seqbuild.truncated_ratio": ("ratio", "lower", ["seqbuild.assemble"]),
    "seqbuild.build_vocab_ms": ("ms", "lower", ["seqbuild.build_vocab"]),
    "encoder.forward_calls": ("count", "lower", ["encoder.forward"]),
    "encoder.forward_ms": ("ms", "lower", ["encoder.forward"]),
    "encoder.tokens": ("count", "lower", ["encoder.forward"]),
    "encoder.pad_ratio": ("ratio", "lower", ["encoder.forward"]),
    "encoder.backward_calls": ("count", "lower", ["encoder.backward"]),
    "encoder.backward_ms": ("ms", "lower", ["encoder.backward"]),
    "heads.calls": ("count", "lower", ["heads.verify"]),
    "heads.self_ms": ("ms", "lower", ["heads.span_probabilities", "heads.verify"]),
    "locator.calls": ("count", "lower", ["locator.locate_response"]),
    "locator.self_ms": ("ms", "lower", ["locator.locate_response", "locator.span_to_chars"]),
    "locator.answered_ratio": ("ratio", "higher", ["locator.locate_response"]),
    "locator.reject_verifier": ("count", "lower", ["locator.locate_response"]),
    "locator.reject_region": ("count", "lower", ["locator.locate_response"]),
    "locator.reject_order": ("count", "lower", ["locator.locate_response"]),
    "pipeline.calls": ("count", "lower", ["pipeline.infer_verdict"]),
    "pipeline.self_ms": ("ms", "lower", ["pipeline.evaluate", "pipeline.infer_verdict"]),
    "train.steps": ("count", "lower", ["train.loss_and_grads"]),
    "train.step_self_ms": ("ms", "lower", ["train.loss_and_grads"]),
    "train.adam_ms": ("ms", "lower", ["train.adam_step"]),
    "train.prepare_ms": ("ms", "lower", ["train.prepare_examples"]),
    "train.stage_self_ms": ("ms", "lower", ["train.train_stage"]),
    "checkpoint.load_ms": ("ms", "lower", ["checkpoint.load_model"]),
    "checkpoint.bytes": ("count", "lower", ["checkpoint.load_model"]),
    "corpus.load_ms": ("ms", "lower", ["corpus.load_any"]),
    "evalharness.self_ms": ("ms", "lower", ["evalharness.predict_corpus"]),
    "cli.self_ms": ("ms", "lower", ["cli.cli_main"]),
    "trace.wall_ms": ("ms", "lower", []),
    "trace.uncovered_ms": ("ms", "lower", []),
    "trace.uncovered_share": ("ratio", "lower", []),
    "trace.overhead_ratio": ("ratio", "lower", []),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def unit_metrics(spans: dict, counts: dict, wall_ms: float) -> dict[str, float]:
    """Per-layer values of one traced unit of work (overhead excluded)."""
    def calls(name):
        return spans[name]["calls"] if name in spans else 0

    def total(*names):
        return sum(spans[n]["total_ms"] for n in names if n in spans)

    def self_ms(*names):
        return sum(spans[n]["self_ms"] for n in names if n in spans)

    c = counts.get
    covered = spans[""]["total_ms"] if "" in spans else 0.0
    return {
        "qnorm.calls": calls("qnorm.normalize"),
        "qnorm.self_ms": self_ms("qnorm.normalize"),
        "seqbuild.assemble_calls": calls("seqbuild.assemble"),
        "seqbuild.self_ms": self_ms("seqbuild.assemble"),
        "seqbuild.tokens": c("seqbuild.tokens", 0),
        "seqbuild.truncated_ratio": _ratio(c("seqbuild.truncated", 0), calls("seqbuild.assemble")),
        "seqbuild.build_vocab_ms": total("seqbuild.build_vocab"),
        "encoder.forward_calls": calls("encoder.forward"),
        "encoder.forward_ms": total("encoder.forward"),
        "encoder.tokens": c("encoder.tokens", 0),
        "encoder.pad_ratio": 1.0 - _ratio(c("encoder.tokens", 0), c("encoder.positions", 0))
        if c("encoder.positions", 0) else 0.0,
        "encoder.backward_calls": calls("encoder.backward"),
        "encoder.backward_ms": total("encoder.backward"),
        "heads.calls": calls("heads.verify"),
        "heads.self_ms": self_ms("heads.span_probabilities", "heads.verify"),
        "locator.calls": calls("locator.locate_response"),
        "locator.self_ms": self_ms("locator.locate_response", "locator.span_to_chars"),
        "locator.answered_ratio": _ratio(c("locator.answered", 0), calls("locator.locate_response")),
        "locator.reject_verifier": c("locator.reject_verifier", 0),
        "locator.reject_region": c("locator.reject_region", 0),
        "locator.reject_order": c("locator.reject_order", 0),
        "pipeline.calls": calls("pipeline.infer_verdict"),
        "pipeline.self_ms": self_ms("pipeline.evaluate", "pipeline.infer_verdict"),
        "train.steps": calls("train.loss_and_grads"),
        "train.step_self_ms": self_ms("train.loss_and_grads"),
        "train.adam_ms": total("train.adam_step"),
        "train.prepare_ms": total("train.prepare_examples"),
        "train.stage_self_ms": self_ms("train.train_stage"),
        "checkpoint.load_ms": total("checkpoint.load_model"),
        "checkpoint.bytes": c("checkpoint.bytes", 0),
        "corpus.load_ms": total("corpus.load_any"),
        "evalharness.self_ms": self_ms("evalharness.predict_corpus"),
        "cli.self_ms": self_ms("cli.cli_main"),
        "trace.wall_ms": wall_ms,
        "trace.uncovered_ms": wall_ms - covered,
        "trace.uncovered_share": _ratio(wall_ms - covered, wall_ms),
    }


def missing_metrics(tracer: Tracer) -> set[str]:
    gone = {span for span, n in tracer.installed.items() if n == 0}
    return {name for name, (_, _, spans) in LAYER_METRICS.items()
            if any(s in gone for s in spans)}
