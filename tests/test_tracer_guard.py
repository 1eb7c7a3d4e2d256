"""The benchmark tracer (perfbench/tracer.py) measures each layer by wrapping
essayqa entry points at the names their callers look them up by.  Renaming
or deleting one of those names would silently drop a per-layer metric, so
this guard installs the tracer and requires every entry point to be found.
A second probe traces one request, so serving that stopped reaching the
encoder through ``pipeline.encode`` fails here too.

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
