"""Record the benchmark's three workloads into one BENCH_<LABEL>.json.

    python3 tools/bench_record.py LABEL [--seed N] [--seconds S] [--out DIR]
                                        [--parent DIR]

Runs `perfbench/run.py` of this checkout, unchanged, once per workload
with `--trace 0` and once with `--trace 1`, each in a fresh process and
one after another, and writes `BENCH_<LABEL>.json` (into the checkout's
root unless `--out` names a directory).  The file holds, per run, the
workload, the trace flag and the two JSON lines the benchmark prints
last: its metadata line and its result line.  Exit status 1 when a run
fails or prints no result; no file is then written.

With `--parent DIR`, DIR's `perfbench/run.py` runs too, in DIR, beside
each run of this checkout: the two sides of each (workload, trace) run
back to back with the same seed, and which side goes first alternates
from one pair to the next.  The parent's runs go to
`BENCH_<LABEL>-parent.json`.  Host speed drifts, so only runs made this
way, or at least on the same machine in one session, compare.
"""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("eval-reference", "eval-flaky", "solve-search")
PLAN = [(workload, trace) for trace in (0, 1) for workload in WORKLOADS]


def run_workload(root, workload, seed, seconds, trace):
    """{"workload", "trace", "meta", "result"} of one benchmark run of
    the checkout at root."""
    argv = [sys.executable, str(root / "perfbench" / "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=root, capture_output=True, text=True,
                          check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{root}: {workload} --trace {trace} exited "
                           f"{done.returncode}: {done.stderr.strip()[-500:]}")
    return {"workload": workload, "trace": trace,
            "meta": json.loads(lines[-2])["meta"],
            "result": json.loads(lines[-1])}


def record(label, seed, seconds, parent=None):
    """{label: BENCH record} of this checkout, every workload untraced,
    then traced, and with a parent checkout also {label-parent: record}
    of it, each of its runs paired with the same run here."""
    roots = {label: ROOT}
    if parent is not None:
        roots[f"{label}-parent"] = parent
    runs = {name: [] for name in roots}
    for k, (workload, trace) in enumerate(PLAN):
        order = list(roots) if k % 2 == 0 else list(reversed(roots))
        for name in order:
            runs[name].append(run_workload(roots[name], workload, seed,
                                           seconds, trace))
    return {name: {"label": name, "seed": seed, "seconds": seconds,
                   "runs": runs[name]} for name in roots}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("label", help="names the file BENCH_<LABEL>.json")
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--out", default=str(ROOT),
                        help="directory to write into (default: the "
                             "checkout's root)")
    parser.add_argument("--parent", metavar="DIR",
                        help="a second checkout to run in alternation "
                             "with this one")
    args = parser.parse_args(argv)
    if not re.fullmatch(r"[A-Za-z0-9._-]+", args.label):
        parser.error("LABEL may hold only letters, digits, '.', '_', '-'")
    parent = None
    if args.parent is not None:
        parent = Path(args.parent).resolve()
        if not (parent / "perfbench" / "run.py").is_file():
            parser.error(f"{parent} holds no perfbench/run.py")
    try:
        benches = record(args.label, args.seed, args.seconds, parent)
    except (RuntimeError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for name, bench in benches.items():
        path = Path(args.out) / f"BENCH_{name}.json"
        path.write_text(json.dumps(bench, indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")
        print(f"wrote {path}")
        for run in bench["runs"]:
            result = run["result"]
            shown = "" if run["trace"] else "; " + ", ".join(
                f"{metric} {m['value']:.4g}"
                for metric, m in sorted(result["metrics"].items()))
            print(f"  {run['workload']} trace {run['trace']}: failed "
                  f"{result['failed']}/{result['attempted']}{shown}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
