"""The benchmark's oracle gate.

Every output the benchmark times is compared here with an answer that
the engine did not compute: the grid-walk simulator, the brute-force
and Gaussian oracles, Python's own list reversal and queens/SEND+MORE
validity checks, and a replay of the flaky provider's coin flips.  A
check returns the number of runs that failed; nothing is dropped.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from prolite.harness.oracles import (cinema_oracle, csp_brute_oracle,
                                     linear_gold_oracle, sum_it_up_oracle)
from prolite.harness.problems import FIXTURES
from prolite.providers import transcript_filename

REL_TOLERANCE = 1e-6


def fixture_golds():
    """Gold answer of each fixture, recomputed from the oracles."""
    (a, b, c, d), = csp_brute_oracle(
        [range(1, 10), range(10), range(10), range(10)],
        lambda a, b, c, d: (a + b + c + d == 20 and a == b + 1
                            and b == c + 6 and c == d + 1))
    line = csp_brute_oracle(
        [range(1, 13)] * 4,
        lambda alex, chad, frank, sam: (
            abs(7 - alex) == 5 and chad == 8 and frank == alex + 1
            and sam == 6 and abs(sam - frank) == 3
            and len({7, alex, chad, frank, sam}) == 5))
    alex, = {sol[0] for sol in line}
    squares = [1, -2, 3, 0, 4, 0, -1, -1, 0, 0]
    age, = linear_gold_oracle([[3]], [54])
    return {
        "four-digit-number": a * 1000 + b * 100 + c * 10 + d,
        "birds-two-trees": int(sum(linear_gold_oracle(
            [[1, -2], [-1, 1]], [-9, -3]))),
        "age-sum-116": int(age),
        "line-of-twelve": alex,
        "cinema-3x4": cinema_oracle(3, 4, [(1, 2)]),
        "sum-it-up-plain": sum_it_up_oracle(squares, [7, 3, -4, -2]),
        "sum-it-up-prev-equal": sum_it_up_oracle(
            squares, [3, -2, 4, -1], "prev_equal_clears"),
        "sum-it-up-neighbor-sum": sum_it_up_oracle(
            squares, [7, 3, -4, -4, 3], "neighbor_sum_zeroes"),
    }


def certified_fixture_golds():
    """Oracle golds, after checking the frozen fixture golds agree."""
    golds = fixture_golds()
    frozen = {p.id: p.gold for p in FIXTURES}
    if frozen != golds:
        raise ValueError(f"fixture golds {frozen} differ from the oracles "
                         f"{golds}")
    return golds


def answer_matches(answer, gold):
    if answer is None or gold is None:
        return answer is None and gold is None
    if isinstance(gold, int):
        return answer == gold
    return abs(answer - gold) <= REL_TOLERANCE * max(1.0, abs(gold))


def check_eval_pass(out_dir, expected):
    """Failed runs of one `prolite eval` pass.

    expected maps (problem id, repeat) to (gold answer, attempts): the
    oracle answer, or None when the retry cap must be hit, and the
    exact number of attempts the run must take.  A run fails when its
    transcript or the report disagrees with either.
    """
    report = json.loads((out_dir / "report.json").read_text("utf-8"))
    rows = {row["id"]: row for row in report["problems"]}
    failed = 0
    per_problem = {}
    for (problem_id, repeat), (gold, attempts) in expected.items():
        per_problem.setdefault(problem_id, []).append((gold, attempts))
        path = out_dir / "transcripts" / transcript_filename(problem_id,
                                                             repeat)
        if not _run_ok(path, gold, attempts):
            failed += 1
    for problem_id, runs in per_problem.items():
        row = rows.get(problem_id)
        correct = sum(1 for gold, _ in runs if gold is not None)
        mean = sum(attempts for _, attempts in runs) / len(runs)
        if (row is None or row["total_runs"] != len(runs)
                or row["correct_runs"] != correct
                or abs(row["mean_attempts"] - mean) > 1e-9):
            failed += len(runs)
    if len(rows) != len(per_problem):
        failed += 1
    return failed


def _run_ok(path, gold, attempts):
    try:
        lines = path.read_text("utf-8").splitlines()
    except OSError:
        return False
    records = [json.loads(line) for line in lines if line.strip()]
    if len(records) != attempts:
        return False
    if any(r["exec_status"] == "ok" for r in records[:-1]):
        return False
    last = records[-1]
    if gold is None:
        return last["exec_status"] != "ok"
    return last["exec_status"] == "ok" and \
        answer_matches(last.get("answer"), gold)


# --- `prolite run` output ---------------------------------------------

_TOKEN = re.compile(r"\s*(?:(-?\d+)\s+rdiv\s+(\d+)|(-?\d+)|(\[)|(\])|(,))")


def parse_answer(line):
    """Value printed for the single answer variable `A`, as Python ints,
    Fractions and lists; True for `true`; None when unparsable."""
    line = line.strip()
    if line == "true":
        return True
    if not line.startswith("A = "):
        return None
    text = line[4:]
    try:
        value, pos = _parse_value(text, 0)
    except (ValueError, IndexError):
        return None
    return value if text[pos:].strip() == "" else None


def _parse_value(text, pos):
    m = _TOKEN.match(text, pos)
    if m is None:
        raise ValueError(f"unexpected text at {pos}")
    num, den, integer, lbrack = m.group(1), m.group(2), m.group(3), m.group(4)
    if num is not None:
        return Fraction(int(num), int(den)), m.end()
    if integer is not None:
        return int(integer), m.end()
    if lbrack is None:
        raise ValueError(f"unexpected token at {pos}")
    items, pos = [], m.end()
    m = _TOKEN.match(text, pos)
    if m is not None and m.group(5):
        return items, m.end()
    while True:
        value, pos = _parse_value(text, pos)
        items.append(value)
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ValueError(f"unterminated list at {pos}")
        if m.group(5):
            return items, m.end()
        if not m.group(6):
            raise ValueError(f"expected , at {pos}")
        pos = m.end()


def check_run_output(item, exit_code, stdout):
    """True when one `prolite run` printed exactly one accepted answer."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if exit_code != 0 or len(lines) != 1:
        return False
    value = parse_answer(lines[0])
    return value is not None and bool(item.accepts(value))
