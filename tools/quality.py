"""Quality study over several training seeds.  It reports; it gates nothing.

    python3 tools/quality.py

Run from the root of a checkout; essayqa is imported from its ``src/`` and
the recipes from ``tests/recipes.py``, the module the gates train with.  Each
recipe is retrained for ``TrainConfig.seed`` 0-4 (the shuffle order; data,
vocabulary and initial weights stay fixed), and one JSON object per recipe
is printed:

* ``criterion8``: the recipe of acceptance criterion 8
  (tests/test_acceptance.py), scored on its 1000-example test set;
* ``fixture``: the recipe of the ``trained`` fixture in
  tests/test_pipeline.py, scored on the 200-example held-out set of its
  quality smoke test, plus the probe hits of
  ``test_detects_matching_requirement`` (answered in-sample probes of 30).

Per seed: acc, F1, zeta and the answered share of the scored set; per recipe:
the median, minimum and interquartile range of acc and F1.  One Tier-1 test
follows one training run, whose score moves with rounding; this spreads the
same recipe over several runs so a change to the trained bits can be judged
on more than one draw.  BLAS is pinned to one thread, so a run repeats
bit for bit.  Cost: about 100 s per criterion8 seed and 50 s per fixture
seed on one core.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(_ROOT, "src"), os.path.join(_ROOT, "tests")]

from essayqa.evalharness import evaluate_verdicts, predict_corpus  # noqa: E402
from essayqa.pipeline import infer_verdicts  # noqa: E402
from recipes import CRITERION8, FIXTURE, PROBES, synthetic  # noqa: E402

RECIPES = {"criterion8": CRITERION8, "fixture": FIXTURE}
SEEDS = range(5)


def run_seed(recipe: str, seed: int) -> dict:
    t0 = time.perf_counter()
    model, train_set = RECIPES[recipe].fit(seed)
    test = synthetic(*RECIPES[recipe].test)
    verdicts = predict_corpus(model, test)
    result = evaluate_verdicts(verdicts, test)
    row = {
        "seed": seed,
        "acc": result.accuracy,
        "f1": result.mean_overlap_f1,
        "zeta": model.zeta,
        "answered_ratio": sum(v.answered for v in verdicts.values()) / len(verdicts),
    }
    if recipe == "fixture":
        probes = [ex for ex in train_set if ex.answerable][:PROBES]
        row["probe_hits"] = sum(v.answered for v in infer_verdicts(
            model, [(ex.question, ex.context) for ex in probes]))
    row["seconds"] = round(time.perf_counter() - t0, 1)
    return row


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "min": min(values), "iqr": q3 - q1}


def main() -> int:
    for recipe in RECIPES:
        rows = []
        for seed in SEEDS:
            rows.append(run_seed(recipe, seed))
            print(json.dumps({"recipe": recipe, **rows[-1]}), file=sys.stderr, flush=True)
        report = {"recipe": recipe, "seeds": rows,
                  "acc": summary([r["acc"] for r in rows]),
                  "f1": summary([r["f1"] for r in rows])}
        print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
