"""Measurement loops of the benchmark: end-to-end runs, the traced run,
and the result line.  Imported by run.py once prolite is importable."""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import prolite.cli
from prolite.errors import LexError
from prolite.reader import tokenize

import checks
import speed
import workloads
from spans import LAYERS, READER_LAYERS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 7
TRACE_ROUNDS = 2        # solve-search rounds in one traced repetition
MIN_TRACE_REPS = 2


# --- set-up ------------------------------------------------------------

def measure_setup(workload, seed, work):
    """(probe seconds, reference duration) per set-up probe: a fresh
    process times its own import and input generation; the reference
    work runs in this warm process just before each probe."""
    times = []
    for i in range(SETUP_PROBES):
        probe_dir = work / f"probe{i}"
        probe_dir.mkdir(parents=True, exist_ok=True)
        reference = speed.reference_median()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-probe",
             "--workload", workload, "--seed", str(seed),
             "--work", str(probe_dir)],
            capture_output=True, text=True, timeout=120, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr}")
        times.append((float(proc.stdout.split()[-1]), reference))
    return times


def call_cli(argv):
    """(exit code, captured stdout) of one in-process CLI call; an
    exception counts as exit code 2 and is reported on stderr."""
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink):
            code = prolite.cli.main(argv)
    except Exception:  # a crash is a failed run, never a lost one
        traceback.print_exc(file=sys.stderr)
        code = 2
    return code, sink.getvalue()


# --- eval workloads ----------------------------------------------------

class EvalPasses:
    """Successive `prolite eval` passes, each over fresh generated
    problems; the fixtures join the first pass only."""

    def __init__(self, workload, seed, work):
        self.seed = seed
        self.work = work
        self.seen = set()
        self.outputs = 0
        self.fixture_golds = checks.certified_fixture_golds()
        self.flaky = workload == "eval-flaky"
        self.repeats = workloads.FLAKY_REPEATS if self.flaky else 1

    def prepare(self, index):
        """(argv, expected) for pass `index`; expected maps (problem id,
        repeat) to (oracle answer or None, exact attempt count)."""
        records, golds = workloads.navigate_pass(self.seed, index, self.seen)
        if index == 0:
            golds = {**self.fixture_golds, **golds}
        dataset = self.work / f"dataset{index}.json"
        workloads.write_dataset(dataset, records)
        expected = {}
        for problem_id, gold in golds.items():
            for repeat in range(self.repeats):
                if self.flaky:
                    attempts, ok = workloads.flaky_attempts(
                        self.seed, problem_id, repeat)
                    expected[problem_id, repeat] = \
                        (gold if ok else None, attempts)
                else:
                    expected[problem_id, repeat] = (gold, 1)
        provider = (f"flaky:{workloads.FLAKY_P}:{self.seed}"
                    if self.flaky else "scripted:reference")
        argv = ["eval", "--dataset", str(dataset), "--provider", provider,
                "--repeats", str(self.repeats), "--workers", "1"]
        if index > 0:
            argv.append("--no-fixtures")
        return argv, expected

    def run(self, argv, expected):
        """Run one pass into a fresh output directory; (wall seconds,
        runs, failed runs).  Old outputs stay until the run ends:
        deleting thousands of files between passes slows the file
        creation that the next pass times."""
        self.outputs += 1
        out = self.work / f"out{self.outputs}"
        started = time.perf_counter()
        code = call_cli([*argv, "--out", str(out)])[0]
        wall = time.perf_counter() - started
        runs = len(expected)
        if code != 0:
            return wall, runs, runs
        try:
            failed = checks.check_eval_pass(out, expected)
        except (OSError, ValueError, KeyError) as exc:
            print(f"check failed: {exc!r}", file=sys.stderr)
            failed = runs
        return wall, runs, min(failed, runs)


def run_timer(samples):
    """Wrap the retry loop where evaluate calls it.  Each run appends
    (latency, reference duration): the latency covers prompt assembly,
    every attempt and the transcript writes; the reference work runs
    just before it, outside the timed span."""
    # the package re-exports evaluate() under the submodule's name
    evaluate_module = importlib.import_module("prolite.harness.evaluate")
    original = evaluate_module.multiple_try

    def timed(*args, **kwargs):
        reference = speed.calibrate()
        started = time.perf_counter()
        outcome = original(*args, **kwargs)
        samples.append((time.perf_counter() - started, reference))
        return outcome

    evaluate_module.multiple_try = timed
    return lambda: setattr(evaluate_module, "multiple_try", original)


def eval_end_to_end(workload, seed, seconds, work):
    """Passes until `seconds` have gone.  blocks holds, per pass, the
    range of its samples and its wall time without the reference work."""
    passes = EvalPasses(workload, seed, work)
    samples, blocks = [], []
    restore = run_timer(samples)
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    try:
        while not blocks or time.perf_counter() < deadline:
            before = len(samples)
            wall, runs, bad = passes.run(*passes.prepare(len(blocks)))
            wall -= sum(ref for _, ref in samples[before:])
            blocks.append((before, len(samples), wall))
            attempted += runs
            failed += bad
    finally:
        restore()
    if len(samples) != attempted:
        failed = max(failed, abs(attempted - len(samples)))
    return {"samples": samples, "blocks": blocks, "attempted": attempted,
            "failed": failed, "extra": {"passes": len(blocks)}}


# --- solve-search ------------------------------------------------------

def run_item(item, path):
    """(seconds, passed) for one program through the `prolite run` path."""
    started = time.perf_counter()
    code, out = call_cli(["run", str(path), "-q", item.query,
                          "--max-solutions", "1"])
    elapsed = time.perf_counter() - started
    return elapsed, checks.check_run_output(item, code, out)


def search_end_to_end(seed, seconds, work):
    """Rounds until `seconds` have gone; each item is timed alone, with
    the reference work run just before it."""
    samples, blocks, items_run = [], [], []
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    while not blocks or time.perf_counter() < deadline:
        items = workloads.search_round(seed, len(blocks))
        before = len(samples)
        for item, path in zip(items, workloads.write_programs(items, work)):
            reference = speed.calibrate()
            elapsed, ok = run_item(item, path)
            samples.append((elapsed, reference))
            items_run.append(item)
            attempted += 1
            failed += not ok
        blocks.append((before, len(samples),
                       sum(t for t, _ in samples[before:])))
    return {"samples": samples, "blocks": blocks, "attempted": attempted,
            "failed": failed, "items": items_run,
            "extra": {"rounds": len(blocks)}}


def family_rows(scaled_ms, items):
    """Per-family median latency, with nrev logical inferences per
    second, so a change to one program family shows on its own."""
    by_family = {}
    for ms, item in zip(scaled_ms, items):
        by_family.setdefault(item.family, []).append((ms, item))
    rows = {}
    for family, runs in by_family.items():
        row = {"runs": len(runs),
               "run_ms_p50": statistics.median(ms for ms, _ in runs)}
        if family == "nrev":
            row["lips_p50"] = statistics.median(
                item.inferences / (ms / 1000.0) for ms, item in runs)
        rows[family] = row
    return rows


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end_metrics(result):
    """Scaled throughput (median over passes or rounds) and latency
    percentiles, plus the raw figures and sample counts."""
    samples, blocks = result["samples"], result["blocks"]
    raw = [t * 1000.0 for t, _ in samples]
    factors = speed.scale_factors([ref for _, ref in samples])
    scaled = [t * f for t, f in zip(raw, factors)]
    rates, raw_rates = [], []
    for start, stop, wall in blocks:
        factor = statistics.median(factors[start:stop])
        rates.append((stop - start) / (wall * factor))
        raw_rates.append((stop - start) / wall)
    p95 = percentile(scaled, 95)
    metrics = {
        "throughput_runs_per_s": {"value": statistics.median(rates),
                                  "unit": "1/s"},
        "run_ms_p50": {"value": statistics.median(scaled), "unit": "ms"},
        "run_ms_p95": {"value": p95, "unit": "ms"},
    }
    raw_figures = {"throughput_runs_per_s": statistics.median(raw_rates),
                   "run_ms_p50": statistics.median(raw),
                   "run_ms_p95": percentile(raw, 95),
                   "reference_ms_p50": statistics.median(
                       ref * 1000.0 for _, ref in samples)}
    counts = {"throughput_runs_per_s": len(blocks), "run_ms": len(scaled),
              "run_ms_beyond_p95": sum(1 for v in scaled if v > p95)}
    extra = {"raw": raw_figures}
    if "items" in result:
        extra["families"] = family_rows(scaled, result["items"])
    return metrics, counts, extra


# --- traced run --------------------------------------------------------

class TraceSet:
    """A fixed set of inputs, run once untraced and once traced per
    repetition, so the two wall times compare like with like."""

    def __init__(self, workload, seed, work):
        self.search = workload == "solve-search"
        if self.search:
            self.items = [item for index in range(TRACE_ROUNDS)
                          for item in workloads.search_round(seed, index)]
            self.paths = workloads.write_programs(self.items, work)
        else:
            self.passes = EvalPasses(workload, seed, work)
            self.pass0 = self.passes.prepare(0)

    def run(self, tracer=None):
        """(wall seconds, runs, failed runs)."""
        if not self.search:
            return self.passes.run(*self.pass0)
        wall = failed = 0
        for index, (item, path) in enumerate(zip(self.items, self.paths)):
            if tracer is not None:
                tracer.run_id = index
            elapsed, ok = run_item(item, path)
            wall += elapsed
            failed += not ok
        return wall, len(self.items), failed

    def nrev(self):
        """{run id: inferences} of the nrev items."""
        if not self.search:
            return {}
        return {i: item.inferences for i, item in enumerate(self.items)
                if item.family == "nrev"}


PER_LAYER_UNITS = {"calls": "count", "ms": "ms", "self_ms": "ms",
                   "attempts": "count", "useful_ratio": "ratio",
                   "tokens_per_s": "1/s", "lips": "1/s", "wall_ms": "ms",
                   "untraced_wall_ms": "ms", "overhead": "x",
                   "accounted_frac": "ratio", "front_end_frac": "ratio"}


def unit_of(name):
    return PER_LAYER_UNITS[name.rsplit(".", 1)[1]]


def layer_metrics(tracer, wall, untraced_wall, nrev):
    """Per-layer figures of one traced repetition, at raw speed."""
    times = tracer.layer_times()
    metrics = {}
    for name, has_children in LAYERS:
        total, own = times.get(name, (0.0, 0.0))
        metrics[f"{name}.calls"] = tracer.calls[name]
        metrics[f"{name}.ms"] = total
        if has_children:
            metrics[f"{name}.self_ms"] = own
    metrics["orchestrator.attempts"] = tracer.attempts
    metrics["orchestrator.useful_ratio"] = (
        tracer.ok_attempts / tracer.attempts if tracer.attempts else 0.0)
    tokens = 0
    for text in tracer.sources:
        try:
            tokens += len(tokenize(text))
        except LexError:
            pass
    reader_ms = sum(times.get(name, (0.0, 0.0))[0] for name in READER_LAYERS)
    metrics["reader.tokens_per_s"] = (tokens / (reader_ms / 1000.0)
                                      if reader_ms else 0.0)
    nrev_ms = tracer.run_ms("engine.solve", set(nrev))
    metrics["engine.lips"] = (sum(nrev.values()) / (nrev_ms / 1000.0)
                              if nrev_ms else 0.0)
    wall_ms = wall * 1000.0
    front_ms = reader_ms + times.get("engine.consult", (0.0, 0.0))[0]
    metrics["trace.wall_ms"] = wall_ms
    metrics["trace.untraced_wall_ms"] = untraced_wall * 1000.0
    metrics["trace.accounted_frac"] = tracer.root_ms() / wall_ms
    metrics["trace.front_end_frac"] = front_ms / wall_ms
    return metrics


def scaled_segment(run):
    """(run(), factor): the factor scales the segment's times to the
    reference speed, from reference runs just before and after it."""
    before = [speed.calibrate() for _ in range(5)]
    result = run()
    after = [speed.calibrate() for _ in range(5)]
    return result, speed.REFERENCE_S / statistics.median(before + after)


def scale_layers(metrics, factor, untraced_factor):
    """Times at the reference speed, like the end-to-end metrics, and
    the tracing overhead from the two scaled wall times."""
    out = {}
    for name, value in metrics.items():
        unit = unit_of(name)
        if name == "trace.untraced_wall_ms":
            value *= untraced_factor
        elif unit == "ms":
            value *= factor
        elif unit == "1/s":
            value /= factor
        out[name] = value
    out["trace.overhead"] = out["trace.wall_ms"] / out["trace.untraced_wall_ms"]
    return out


def traced_run(workload, seed, seconds, work, trace_dir):
    """Repeat the trace set untraced, then traced, until `seconds` have
    gone; per-layer figures are medians over the repetitions."""
    trace_set = TraceSet(workload, seed, work)
    reps = []
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    while len(reps) < MIN_TRACE_REPS or time.perf_counter() < deadline:
        (untraced_wall, runs, bad), untraced_factor = \
            scaled_segment(trace_set.run)
        attempted += runs
        failed += bad
        tracer = Tracer()
        tracer.install()
        try:
            (wall, runs, bad), factor = \
                scaled_segment(lambda: trace_set.run(tracer))
        finally:
            tracer.uninstall()
        attempted += runs
        failed += bad
        reps.append(scale_layers(
            layer_metrics(tracer, wall, untraced_wall, trace_set.nrev()),
            factor, untraced_factor))
    trace_dir.mkdir(parents=True, exist_ok=True)
    tracer.write(trace_dir / f"{workload}-seed{seed}.jsonl")
    metrics = {name: {"value": statistics.median(rep[name] for rep in reps),
                      "unit": unit_of(name)}
               for name in reps[0]}
    return metrics, attempted, failed, {"trace_reps": len(reps)}


# --- result ------------------------------------------------------------

def metadata(args, samples, extra):
    src_lines = sum(len(f.read_text("utf-8").splitlines())
                    for f in sorted((ROOT / "src").rglob("*.py")))
    git_sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        git_sha = proc.stdout.strip() or None
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "git_sha": git_sha, "python": platform.python_version(),
            "nproc": os.cpu_count(), "src_lines": src_lines,
            "samples": samples, **extra}


def run(args, work, trace_dir):
    """Measure one workload and print the metadata and result lines."""
    if args.trace:
        metrics, attempted, failed, extra = traced_run(
            args.workload, args.seed, args.seconds, work, trace_dir)
        samples = {"trace_reps": extra["trace_reps"]}
    else:
        setup = measure_setup(args.workload, args.seed, work)
        if args.workload == "solve-search":
            result = search_end_to_end(args.seed, args.seconds, work)
        else:
            result = eval_end_to_end(args.workload, args.seed, args.seconds,
                                     work)
        attempted, failed = result["attempted"], result["failed"]
        metrics, samples, extra = end_to_end_metrics(result)
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics["setup_s"] = {"value": statistics.median(
            t * speed.REFERENCE_S / ref for t, ref in setup), "unit": "s"}
        metrics["peak_rss_mb"] = {"value": peak_kb / 1024.0, "unit": "MB"}
        extra["raw"]["setup_s"] = statistics.median(t for t, _ in setup)
        samples["setup_s"] = len(setup)
        extra.update(result["extra"])
    meta = metadata(args, samples, extra)
    meta["failed_frac"] = failed / attempted if attempted else 1.0
    print(json.dumps({"meta": meta}, sort_keys=True))
    print(json.dumps({"correct": failed == 0 and attempted > 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0
