"""essayqa benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Builds the workload's inputs from the
seed, runs its calls into essayqa for S seconds of timed work, checks every
output, and prints a human-readable report followed, as the last line, by
one JSON object {correct, attempted, failed, metrics}.

--trace 0 reports the end-to-end metrics listed in BENCHMARK.json;
--trace 1 wraps each essayqa entry point in a span recorder and reports the
per-layer metrics.  See perfbench/README.md for the definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("tr_short", "corpus_long", "train_domain")

SETUP_MIN_REPEATS = 5
SETUP_BUDGET_S = 6.0  # set up again until this much wall time, reference kernel included
TRAFFIC_CHUNKS = 4
WALL_LIMIT_S = 150.0  # stop early rather than overrun the 180 s a run may take
MAX_PROBLEMS_SHOWN = 20
BLAS_THREADS = 1
REFERENCE_SHARE = 0.1  # reference kernel time after each chunk, as a share of the chunk


def _pin_blas_threads() -> None:
    """One BLAS thread: the encoder's matrices are at most 512 x 256, too
    small to gain from a second thread, and a second thread that spin-waits
    for a busy CPU made tr_short 2.6 times slower when one other process
    was busy on a 2-CPU machine.  Must run before numpy is imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def _git_commit() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=False)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(seed: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name, blas_version = blas.get("name"), blas.get("version")
    except (KeyError, TypeError, ValueError):
        blas_name = blas_version = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_version": blas_version,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "git_commit": _git_commit(),
        "seed": seed,
    }


def traffic(wl, chunks) -> dict:
    """Input properties of the first chunks: tau spread, truncated share,
    requirements per distinct essay, and the zeta in use."""
    examples = [ex for chunk in chunks for ex in wl.examples(chunk)]
    seqs = [wl.sequence(ex) for ex in examples]
    taus = [s.tau for s in seqs]
    return {
        "examples": len(examples),
        "tau_mean": statistics.fmean(taus),
        "tau_min": min(taus),
        "tau_max": max(taus),
        "truncated_share": sum(s.truncated for s in seqs) / len(seqs),
        "requirements_per_essay": len(examples) / len({ex.context for ex in examples}),
        "zeta": getattr(wl, "zeta", None),
    }


class Tally:
    """Operations attempted and failed, with the first failures kept."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, attempted: int, failed: int, problems: list[str]) -> None:
        self.attempted += attempted
        self.failed += failed
        self.problems.extend(problems[:MAX_PROBLEMS_SHOWN - len(self.problems)])

    def call(self, wl, chunk):
        """``wl.run(chunk)``; a call that raises fails every operation of the
        chunk instead of ending the run."""
        try:
            return wl.run(chunk)
        except Exception:  # recorded with its traceback and counted as failed
            n = len(wl.examples(chunk))
            self.add(n, n, [f"chunk {chunk.index}: {traceback.format_exc(limit=3)}"])
            return None

    def check(self, wl, chunk, run, digest: str | None = None) -> None:
        """Check one chunk's outputs; with ``digest``, also that they equal
        an earlier pass over the same inputs."""
        failed, problems = wl.check(chunk, run)
        if digest is not None and wl.digest(run) != digest:
            failed = run.items
            problems = problems + [f"chunk {chunk.index}: second pass gave different outputs"]
        self.add(run.items, failed, problems)

    def finish(self, wl) -> None:
        """Run-level checks; a violation fails one operation."""
        problems = wl.finish()
        self.add(0, 1 if problems else 0, problems)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_run(wl, seconds: float, tally: Tally) -> tuple[dict, dict]:
    import reference

    ref = reference.Reference()
    ref.seconds_per_call(0.05)

    def slowdown(elapsed: float) -> float:
        """How much slower than nominal the machine runs right now."""
        return ref.seconds_per_call(REFERENCE_SHARE * elapsed) / reference.NOMINAL_S

    setup_times, norm_setup_times = [], []
    setup_started = time.perf_counter()
    while len(setup_times) < SETUP_MIN_REPEATS or \
            time.perf_counter() - setup_started < SETUP_BUDGET_S:
        t0 = time.perf_counter()
        wl.setup()
        elapsed = time.perf_counter() - t0
        setup_times.append(elapsed)
        norm_setup_times.append(elapsed / slowdown(elapsed))

    chunks = [wl.chunk(k) for k in range(TRAFFIC_CHUNKS)]
    report = {"traffic": traffic(wl, chunks)}
    rates, latencies, norm_rates, norm_latencies, slowdowns = [], [], [], [], []
    timed = answered = items = 0
    first = None
    started = time.perf_counter()
    k = 0
    while True:
        chunk = chunks[k] if k < len(chunks) else wl.chunk(k)
        t0 = time.perf_counter()
        run = tally.call(wl, chunk)
        elapsed = time.perf_counter() - t0
        timed += elapsed
        if run is not None:
            factor = slowdown(elapsed)
            tally.check(wl, chunk, run)
            rates.append(run.items / elapsed)
            latencies.extend(run.latencies)
            slowdowns.append(factor)
            norm_rates.append(run.items * factor / elapsed)
            norm_latencies.extend(x / factor for x in run.latencies)
            answered += wl.answered(run)
            items += run.items
            if first is None:
                first = (chunk, wl.digest(run))
        k += 1
        if timed >= seconds and len(latencies) >= wl.min_calls:
            break
        if time.perf_counter() - started > WALL_LIMIT_S:
            report["stopped_at_wall_limit"] = True
            break
    if first is not None:
        again = tally.call(wl, first[0])
        if again is not None:
            tally.check(wl, first[0], again, digest=first[1])
    tally.finish(wl)

    if not rates:
        rates = latencies = norm_rates = norm_latencies = slowdowns = [float("nan")]
    metrics = {
        "norm_items_per_s": (statistics.median(norm_rates), "items/s"),
        "norm_request_p50_ms": (statistics.median(norm_latencies) * 1e3, "ms"),
        "setup_s": (statistics.median(norm_setup_times), "s"),
        "peak_rss_mb": (_peak_rss_mb(), "MiB"),
    }
    wall_rate = statistics.median(rates)
    rate_name = "train_examples_per_s" if wl.item_name == "train examples" else "verdicts_per_s"
    named = {
        "items_per_s": (wall_rate, "items/s"),
        "request_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "setup_wall_s": (statistics.median(setup_times), "s"),
        rate_name: (wall_rate, wl.item_name.replace(" ", "_") + "/s"),
        "fail_ratio": (tally.failed / max(tally.attempted, 1), "failed/attempted"),
        "machine_slowdown": (statistics.median(slowdowns), "ratio"),
    }
    if wl.min_calls >= 1000:
        p99 = statistics.quantiles(latencies, n=100)[98]
        named["request_p99_ms"] = (p99 * 1e3, "ms")
        report["request_samples"] = len(latencies)
        report["request_samples_beyond_p99"] = sum(x > p99 for x in latencies)
    report.update({
        "named_metrics": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
        "chunks": len(rates),
        "chunk_rates": rates,
        "chunk_slowdowns": slowdowns,
        "calls": len(latencies),
        "items": items,
        "timed_s": timed,
        "items_per_s_overall": items / timed if timed else None,
        "answered_share": answered / items if items and wl.item_name == "verdicts" else None,
        "setup_repeats": len(setup_times),
    })
    return metrics, report


def traced_run(wl, seconds: float, tally: Tally, spans_path: str) -> tuple[dict, dict]:
    """Alternate untraced and traced units of the same fixed work (one setup
    plus the first chunk) until ``seconds`` have passed; per-layer values are
    medians over the traced units."""
    import tracer as tracing

    tr = tracing.Tracer()
    tracing.install_essayqa(tr)
    chunk = wl.chunk(0)
    walls = {False: [], True: []}
    per_unit: list[dict] = []
    digest = None
    started = time.perf_counter()
    pair = 0
    while (time.perf_counter() - started < seconds or pair < 2) and \
            time.perf_counter() - started < WALL_LIMIT_S:
        for traced in ((False, True) if pair % 2 == 0 else (True, False)):
            first_span = len(tr.names)
            tr.counts.clear()
            tr.active = traced
            t0 = time.perf_counter()
            wl.setup()
            run = tally.call(wl, chunk)
            wall = time.perf_counter() - t0
            tr.active = False
            if run is None:
                continue
            tally.check(wl, chunk, run, digest)
            digest = digest or wl.digest(run)
            walls[traced].append(wall)
            if traced:
                per_unit.append(tracing.unit_metrics(
                    tr.summarize(first_span, len(tr.names)), dict(tr.counts), wall * 1e3))
        pair += 1
    tally.finish(wl)
    tr.write_spans(spans_path)

    missing = tracing.missing_metrics(tr)
    metrics = {}
    for name, (unit, _, _) in tracing.LAYER_METRICS.items():
        if name in missing:
            metrics[name] = (None, unit)
        elif name == "trace.overhead_ratio":
            metrics[name] = (statistics.median(walls[True]) / statistics.median(walls[False]) - 1.0
                             if walls[True] and walls[False] else None, unit)
        else:
            values = [u[name] for u in per_unit]
            metrics[name] = (statistics.median(values) if values else None, unit)
    report = {
        "traffic": traffic(wl, [chunk]),
        "traced_units": len(walls[True]),
        "untraced_units": len(walls[False]),
        "missing_entry_points": tr.missing,
        "spans": len(tr.names),
        "spans_file": os.path.relpath(spans_path, ROOT),
    }
    return metrics, report


def _print_report(workload: str, metrics: dict, report: dict, tally: Tally) -> None:
    print(f"essayqa benchmark: workload {workload}")
    for name, (value, unit) in metrics.items():
        shown = "missing" if value is None else f"{value:.6g}"
        print(f"  {name:28s} {shown:>14s} {unit}")
    for name, entry in report.get("named_metrics", {}).items():
        print(f"  {name:28s} {entry['value']:>14.6g} {entry['unit']}")
    print(f"  attempted {tally.attempted}, failed {tally.failed}")
    print("report " + json.dumps(report, sort_keys=True))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    _pin_blas_threads()
    if not os.path.isfile(os.path.join(SRC, "essayqa", "__init__.py")):
        print(f"perfbench: no essayqa sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import essayqa

    if not os.path.abspath(essayqa.__file__).startswith(SRC + os.sep):
        print(f"perfbench: imported essayqa from {essayqa.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    import workloads

    results = os.path.join(HERE, "results")
    os.makedirs(results, exist_ok=True)
    os.makedirs(os.path.join(HERE, "_work"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=os.path.join(HERE, "_work"))
    tally = Tally()
    stem = os.path.join(results, f"{args.workload}-seed{args.seed}")
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        if args.trace:
            metrics, report = traced_run(wl, args.seconds, tally, stem + "-spans.jsonl")
        else:
            metrics, report = timed_run(wl, args.seconds, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    report.update({
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": environment(args.seed),
        "problems": tally.problems,
    })
    correct = tally.failed == 0 and tally.attempted > 0
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": unit, **({"missing": True} if value is None else {})}
            for name, (value, unit) in metrics.items()
        },
    }
    with open(f"{stem}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump({"result": result, "report": report}, fh, indent=2, sort_keys=True)
    _print_report(args.workload, metrics, report, tally)
    if not correct:
        print(f"perfbench: {tally.failed} of {tally.attempted} operations failed a check:",
              file=sys.stderr)
        for problem in tally.problems:
            print("  " + problem, file=sys.stderr)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
