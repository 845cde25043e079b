"""Command-line interface.

Subcommands: run (execute a query against a program file), eval (score
a provider over a problem set), gen-navigate (emit generated grid-walk
problems), oracle (print an oracle's answer for an instance).

Exit codes: 0 success (run: at least one solution), 1 run found no
solution, 2 any error.  Provider credentials are read from the
environment only, never from flags or config files.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from pathlib import Path

from .engine import (DEFAULT_MAX_STEPS, DEFAULT_WALL_TIMEOUT, Budget,
                     consult, solve)
from .errors import ProliteError
from .harness.evaluate import evaluate
from .harness.navigate import navigate_oracle, gen_navigate
from .harness.oracles import (cinema_oracle, csp_brute_oracle,
                              linear_gold_oracle, sum_it_up_oracle)
from .harness.problems import load_problems
from .harness.report import FORMATS, emit_report
from .orchestrator import RetryPolicy
from .providers import LiveProvider, ReferenceProvider, ReplayProvider
from .reader import parse_program, parse_term_text
from .writer import term_to_text

_CONFIG_KEYS = ("max_attempts", "temp_start", "temp_end",
                "max_inference_steps", "wall_timeout")


def _load_config(path):
    if path is None:
        return {}
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    unknown = set(data) - set(_CONFIG_KEYS)
    if unknown:
        raise ProliteError(f"unknown config keys: {sorted(unknown)}")
    return data


def _setting(args, config, key, default):
    value = getattr(args, key, None)
    if value is not None:
        return value
    if key in config:
        return config[key]
    return default


def _budget_from(args, config):
    return Budget(
        max_inference_steps=int(_setting(args, config, "max_inference_steps",
                                         DEFAULT_MAX_STEPS)),
        wall_timeout=float(_setting(args, config, "wall_timeout",
                                    DEFAULT_WALL_TIMEOUT)))


def _policy_from(args, config):
    return RetryPolicy(
        max_attempts=int(_setting(args, config, "max_attempts",
                                  RetryPolicy.max_attempts)),
        temp_start=float(_setting(args, config, "temp_start",
                                  RetryPolicy.temp_start)),
        temp_end=float(_setting(args, config, "temp_end",
                                RetryPolicy.temp_end)),
        per_attempt_budget=_budget_from(args, config))


def cmd_run(args):
    source = Path(args.file).read_text(encoding="utf-8")
    program = parse_program(source)
    db = consult(program)
    query = parse_term_text(args.query)
    budget = _budget_from(args, {})
    # the answers are written within the query's wall budget
    deadline = time.monotonic() + budget.wall_timeout
    count = 0
    for solution in solve(query, db, budget):
        count += 1
        if solution.bindings:
            line = ", ".join(
                f"{name} = {term_to_text(value, deadline=deadline)}"
                for name, value in solution.bindings.items())
        else:
            line = "true"
        print(line)
        if args.max_solutions and count >= args.max_solutions:
            break
    if count == 0:
        print("no solutions")
        return 1
    return 0


def _make_provider(spec, args, problems):
    if spec == "scripted:reference":
        return ReferenceProvider(problems)
    if spec.startswith("replay:"):
        return ReplayProvider(spec.split(":", 1)[1])
    if spec.startswith("flaky:"):
        parts = spec.split(":")
        p = float(parts[1]) if len(parts) > 1 and parts[1] else 0.5
        seed = int(parts[2]) if len(parts) > 2 else 0
        return ReferenceProvider(problems, p, seed)
    if spec == "live":
        if not args.base_url or not args.model:
            raise ProliteError("live provider needs --base-url and --model")
        return LiveProvider(base_url=args.base_url, model=args.model)
    raise ProliteError(f"unknown provider spec {spec!r}")


def cmd_eval(args):
    config = _load_config(args.config)
    policy = _policy_from(args, config)
    if args.dataset == "fixtures":
        problems = load_problems(None, include_fixtures=True)
    else:
        problems = load_problems(args.dataset,
                                 include_fixtures=not args.no_fixtures)
    provider = _make_provider(args.provider, args, problems)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    report = evaluate(problems, provider, policy, repeats=args.repeats,
                      transcript_dir=out / "transcripts",
                      workers=args.workers, check_references=args.check_refs)
    formats = [f.strip() for f in args.formats.split(",") if f.strip()]
    ext = {"json": "json", "csv": "csv", "markdown": "md"}
    for fmt in formats:
        if fmt not in FORMATS:
            raise ProliteError(f"unknown report format {fmt!r}")
        (out / f"report.{ext[fmt]}").write_text(emit_report(report, fmt),
                                                encoding="utf-8")
    for name in sorted(report.categories):
        bucket = report.categories[name]
        print(f"{name}: accuracy {bucket['accuracy']:.3f} "
              f"over {bucket['total_runs']} runs, "
              f"mean attempts {bucket['mean_attempts']:.2f}")
    return 0


def cmd_gen_navigate(args, parser):
    if args.count < 1:
        parser.error("-n must be a positive integer")
    problems = gen_navigate(args.seed, args.count)
    records = [{
        "id": p.id,
        "category": p.category,
        "statement": p.statement,
        "answer": p.gold,
        "entanglement": p.entanglement,
        "entry": p.entry,
        "reference_program": p.reference_program,
    } for p in problems]
    text = json.dumps(records, indent=2, sort_keys=True) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def _parse_ints(text):
    return [int(part) for part in text.split(",") if part.strip()]


def _parse_plan(text):
    """Plan syntax: semicolon-separated 'step N DIR', 'turn WAY', or
    'face_step N DIR' instructions."""
    plan = []
    for chunk in text.split(";"):
        words = chunk.split()
        if not words:
            continue
        kind = words[0]
        if kind == "turn" and len(words) == 2:
            plan.append(("turn", words[1]))
        elif kind in ("step", "face_step") and len(words) == 3:
            plan.append((kind, int(words[1]), words[2]))
        else:
            raise ProliteError(f"bad plan instruction {chunk.strip()!r}")
    return plan


def cmd_oracle(args):
    if args.kind == "sumitup":
        print(sum_it_up_oracle(_parse_ints(args.squares),
                               _parse_ints(args.waitlist), args.rule))
    elif args.kind == "cinema":
        pre = []
        if args.pre:
            for pair in args.pre.split(";"):
                row, col = pair.split(":")
                pre.append((int(row), int(col)))
        print(cinema_oracle(args.rows, args.cols, pre, args.order))
    elif args.kind == "navigate":
        print(navigate_oracle(_parse_plan(args.plan)))
    elif args.kind == "linear":
        with open(args.file, encoding="utf-8") as fh:
            system = json.load(fh)
        values = linear_gold_oracle(system["coefficients"],
                                    system["constants"])
        names = system.get("names") or [f"x{i}" for i in range(len(values))]
        for name, value in zip(names, values):
            rendered = int(value) if value.denominator == 1 else float(value)
            print(f"{name} = {rendered}")
    elif args.kind == "csp":
        with open(args.file, encoding="utf-8") as fh:
            instance = json.load(fh)
        domains = [range(lo, hi + 1) for lo, hi in instance["domains"]]
        constraints = instance["constraints"]

        def satisfied(*combo):
            for con in constraints:
                total = sum(c * v for c, v in zip(con["coeffs"], combo))
                rel, const = con["rel"], con["const"]
                ok = {"=": total == const, "!=": total != const,
                      "<=": total <= const, ">=": total >= const}[rel]
                if not ok:
                    return False
            return True

        solutions = csp_brute_oracle(domains, satisfied)
        weights = instance.get("value")
        for combo in solutions:
            if weights:
                print(sum(w * v for w, v in zip(weights, combo)))
            else:
                print(",".join(str(v) for v in combo))
    return 0


@functools.cache
def build_parser():
    """The one parser of this process, built at its first call.

    Building it costs more than a small `run` does, so every in-process
    call of main reuses it: parse_args leaves a parser as it was, and
    help is formatted to the terminal width of the moment it prints."""
    parser = argparse.ArgumentParser(
        prog="prolite",
        description="Logic-programming engine with constraint solving "
                    "and an LLM-to-logic evaluation pipeline.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a query against a program file")
    p_run.add_argument("file")
    p_run.add_argument("-q", "--query", required=True)
    p_run.add_argument("--max-solutions", type=int, default=0)
    p_run.add_argument("--max-inference-steps", type=int, default=None,
                       dest="max_inference_steps")
    p_run.add_argument("--wall-timeout", type=float, default=None,
                       dest="wall_timeout")

    p_eval = sub.add_parser("eval", help="evaluate a provider on problems")
    p_eval.add_argument("--dataset", default="fixtures",
                        help="'fixtures' or a problems JSON file")
    p_eval.add_argument("--provider", required=True,
                        help="scripted:reference | replay:DIR | "
                             "flaky:P[:SEED] | live")
    p_eval.add_argument("--repeats", type=int, default=1)
    p_eval.add_argument("--out", required=True)
    p_eval.add_argument("--formats", default="json,csv,markdown")
    p_eval.add_argument("--workers", type=int, default=1)
    p_eval.add_argument("--config", default=None,
                        help="JSON file with retry/budget settings")
    p_eval.add_argument("--no-fixtures", action="store_true")
    p_eval.add_argument("--check-refs", action="store_true",
                        help="also verify reference programs directly")
    p_eval.add_argument("--base-url", default=None)
    p_eval.add_argument("--model", default=None)
    p_eval.add_argument("--max-attempts", type=int, default=None,
                        dest="max_attempts")
    p_eval.add_argument("--temp-start", type=float, default=None,
                        dest="temp_start")
    p_eval.add_argument("--temp-end", type=float, default=None,
                        dest="temp_end")
    p_eval.add_argument("--max-inference-steps", type=int, default=None,
                        dest="max_inference_steps")
    p_eval.add_argument("--wall-timeout", type=float, default=None,
                        dest="wall_timeout")

    p_gen = sub.add_parser("gen-navigate",
                           help="generate grid-walk problems")
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("-n", "--count", type=int, required=True)
    p_gen.add_argument("--out", default=None)

    p_oracle = sub.add_parser("oracle", help="print an oracle answer")
    oracle_sub = p_oracle.add_subparsers(dest="kind", required=True)
    o_sum = oracle_sub.add_parser("sumitup")
    o_sum.add_argument("--squares", required=True)
    o_sum.add_argument("--waitlist", required=True)
    o_sum.add_argument("--rule", default="plain")
    o_cin = oracle_sub.add_parser("cinema")
    o_cin.add_argument("--rows", type=int, required=True)
    o_cin.add_argument("--cols", type=int, required=True)
    o_cin.add_argument("--pre", default="",
                       help="pre-seated as 'row:col;row:col'")
    o_cin.add_argument("--order", default="row-major")
    o_nav = oracle_sub.add_parser("navigate")
    o_nav.add_argument("--plan", required=True)
    o_lin = oracle_sub.add_parser("linear")
    o_lin.add_argument("--file", required=True)
    o_csp = oracle_sub.add_parser("csp")
    o_csp.add_argument("--file", required=True)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args)
        if args.command == "eval":
            return cmd_eval(args)
        if args.command == "gen-navigate":
            return cmd_gen_navigate(args, parser)
        if args.command == "oracle":
            return cmd_oracle(args)
    except ProliteError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
