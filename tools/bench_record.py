"""Record the benchmark's three workloads into one BENCH_<LABEL>.json.

    python3 tools/bench_record.py LABEL [--seed N] [--seconds S] [--out DIR]

Runs `perfbench/run.py` of this checkout, unchanged, once per workload
with `--trace 0` and once with `--trace 1`, each in a fresh process and
one after another, and writes `BENCH_<LABEL>.json` (into the checkout's
root unless `--out` names a directory).  The file holds, per run, the
workload, the trace flag and the two JSON lines the benchmark prints
last: its metadata line and its result line.  Exit status 1 when a run
fails or prints no result; the file is then not written.

Host speed drifts, so two files compare only when they were recorded on
the same machine in one session.
"""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
WORKLOADS = ("eval-reference", "eval-flaky", "solve-search")


def run_workload(workload, seed, seconds, trace):
    """{"workload", "trace", "meta", "result"} of one benchmark run."""
    argv = [sys.executable, str(RUN), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} --trace {trace} exited "
                           f"{done.returncode}: {done.stderr.strip()[-500:]}")
    return {"workload": workload, "trace": trace,
            "meta": json.loads(lines[-2])["meta"],
            "result": json.loads(lines[-1])}


def record(label, seed, seconds):
    """The BENCH record: every workload untraced, then traced."""
    runs = [run_workload(workload, seed, seconds, trace)
            for trace in (0, 1) for workload in WORKLOADS]
    return {"label": label, "seed": seed, "seconds": seconds, "runs": runs}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("label", help="names the file BENCH_<LABEL>.json")
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--out", default=str(ROOT),
                        help="directory to write into (default: the "
                             "checkout's root)")
    args = parser.parse_args(argv)
    if not re.fullmatch(r"[A-Za-z0-9._-]+", args.label):
        parser.error("LABEL may hold only letters, digits, '.', '_', '-'")
    try:
        bench = record(args.label, args.seed, args.seconds)
    except (RuntimeError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    path = Path(args.out) / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(bench, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")
    print(f"wrote {path}")
    for run in bench["runs"]:
        result = run["result"]
        shown = "" if run["trace"] else "; " + ", ".join(
            f"{name} {m['value']:.4g}"
            for name, m in sorted(result["metrics"].items()))
        print(f"  {run['workload']} trace {run['trace']}: failed "
              f"{result['failed']}/{result['attempted']}{shown}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
