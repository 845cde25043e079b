"""prolite benchmark: drives prolite through its public entry points.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see perfbench/README.md): eval-reference, eval-flaky,
solve-search.  With --trace 0 it prints the end-to-end metrics, with
--trace 1 the per-layer metrics of a traced run.  Every output is
checked against an oracle.  The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics; the line before
it holds run metadata and per-family rows.

The program is imported from src/ next to this directory; without it
the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE / ".work"
WORKLOADS = ("eval-reference", "eval-flaky", "solve-search")


def import_prolite():
    """Import prolite from this checkout's src/, and nowhere else."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import prolite.cli
    found = Path(prolite.__file__).resolve().parent
    if found != SRC / "prolite":
        raise ImportError(f"prolite imported from {found}, not {SRC}")


def setup_probe(workload, seed, work):
    """Seconds this fresh process spends importing prolite and
    generating the workload's first inputs (eval: gen-navigate and the
    dataset load)."""
    started = time.perf_counter()
    import_prolite()
    import workloads
    from prolite.harness.problems import load_problems
    if workload == "solve-search":
        workloads.write_programs(workloads.search_round(seed, 0), work)
    else:
        records, _ = workloads.navigate_pass(seed, 0, set())
        path = work / "dataset.json"
        workloads.write_dataset(path, records)
        load_problems(path, include_fixtures=True)
    return time.perf_counter() - started


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--work", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    work = Path(args.work) if args.work else \
        WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_probe:
            print(setup_probe(args.workload, args.seed, work))
            return 0
        try:
            import_prolite()
        except ImportError as exc:
            print(f"error: cannot import prolite: {exc}", file=sys.stderr)
            return 2
        import bench
        return bench.run(args, work, WORK / "traces")
    finally:
        if args.work is None:
            shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
