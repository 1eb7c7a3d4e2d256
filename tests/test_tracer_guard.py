"""The benchmark tracer (perfbench/tracer.py) measures each layer by wrapping
essayqa entry points at the names their callers look them up by.  Renaming
or deleting one of those names would silently drop a per-layer metric, so
this guard installs the tracer and requires every entry point to be found.

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


def test_every_traced_entry_point_exists():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    proc = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    result = json.loads(proc.stdout)
    assert result["missing"] == []
    assert result["metrics"] == []
