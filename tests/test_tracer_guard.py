"""The benchmark tracer (perfbench/tracer.py) measures each layer by wrapping
essayqa entry points at the names their callers look them up by.  Renaming
or deleting one of those names would silently drop a per-layer metric, so
this guard installs the tracer and requires every entry point to be found.
A second probe traces one request, so serving that stopped reaching the
encoder through ``pipeline.encode`` fails here too, and a third traces one
training step, so a training pack the tracer cannot count fails as well.

The tracer replaces module attributes, so it runs in a fresh interpreter and
no wrapper leaks into the other tests."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PROBE = """
import json
import tracer
tr = tracer.Tracer()
tracer.install_essayqa(tr)
print(json.dumps({"missing": tr.missing, "metrics": sorted(tracer.missing_metrics(tr))}))
"""


# A traced 3-requirement evaluate(): serving must reach the encoder through
# pipeline.encode, once per request, over every assembled row.
PACK_PROBE = """
import json
import tracer
from essayqa import pipeline, qnorm, seqbuild
from essayqa.model import new_model
from essayqa.synthetic import SyntheticConfig, generate_synthetic
tr = tracer.Tracer()
tracer.install_essayqa(tr)
examples = generate_synthetic(SyntheticConfig(count=3, answerable_ratio=0.5, seed=5))
vocab = seqbuild.build_vocab([t for ex in examples for t in (ex.question, ex.context)])
model = new_model(vocab, layers=1, d_model=16, heads=2, ffn_inner=32)
essay = examples[0].context
questions = tuple(ex.question for ex in examples)
taus = [seqbuild.assemble(qnorm.normalize(q, model.rules), essay, vocab).tau for q in questions]
tr.active = True
pipeline.evaluate(pipeline.EvaluationRequest(essay=essay, requirements=questions, model=model))
tr.active = False
print(json.dumps({"forward_spans": tr.names.count("encoder.forward"),
                  "encoder_tokens": tr.counts["encoder.tokens"], "taus": taus}))
"""


# A traced training step on examples of mixed lengths: forward_batch must get
# its row bounds by keyword (the tracer reads a 4th positional argument as a
# padding mask), and a pack counts every position as a token.
TRAIN_PROBE = """
import json
import numpy as np
import tracer
from essayqa import train
from essayqa.encoder import EncoderConfig, init_encoder_params
from essayqa.heads import init_head_params
tr = tracer.Tracer()
tracer.install_essayqa(tr)
cfg = EncoderConfig(vocab_size=40, layers=1, d_model=16, heads=2, ffn_inner=32)
rng = np.random.default_rng(3)
params = init_encoder_params(cfg, rng)
params.update(init_head_params(cfg, rng))
taus = [9, 3, 27, 14, 5, 40, 8]
batch = [train.TrainingExample(ids=tuple(int(i) for i in rng.integers(4, 40, size=n)), m=1,
                               gold_start=n // 2, gold_end=n - 1, answerable=True)
         for n in taus]
tr.active = True
loss, _ = train.loss_and_grads(params, cfg, batch, 3)
tr.active = False
print(json.dumps({"loss": loss, "forward_spans": tr.names.count("encoder.forward"),
                  "backward_spans": tr.names.count("encoder.backward"),
                  "encoder_tokens": tr.counts["encoder.tokens"],
                  "encoder_positions": tr.counts["encoder.positions"], "taus": taus}))
"""


def run_probe(probe: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return json.loads(proc.stdout)


def test_every_traced_entry_point_exists():
    result = run_probe(PROBE)
    assert result["missing"] == []
    assert result["metrics"] == []


def test_traced_request_is_one_encoder_pass():
    result = run_probe(PACK_PROBE)
    assert len(result["taus"]) == 3
    assert result["forward_spans"] == 1
    assert result["encoder_tokens"] == sum(result["taus"])


def test_traced_training_step_packs_without_padding():
    result = run_probe(TRAIN_PROBE)
    assert result["loss"] > 0
    assert result["forward_spans"] == result["backward_spans"] == 2  # parts of 4 and 3
    assert result["encoder_tokens"] == result["encoder_positions"] == sum(result["taus"])
