"""Harness: oracle values, fixture certification, problem loading,
navigate generation, evaluation math, and report rendering."""

import dataclasses
import json
import random
from fractions import Fraction

import pytest

from helpers import complex_walk
from prolite.errors import (DuplicateId, Inconsistent, NoZeroSquare,
                            SchemaError, SearchSpaceTooLarge, Singular)
from prolite.harness import (FIXTURES, evaluate, emit_report, gen_navigate,
                             load_problems, mirror_to_origin,
                             navigate_oracle)
from prolite.harness.evaluate import (DEFAULT_SHOTS, EvalReport,
                                      check_reference, is_correct)
from prolite.harness.navigate import final_position, render_statement
from prolite.harness.oracles import (cinema_oracle, csp_brute_oracle,
                                     linear_gold_oracle, sum_it_up_oracle)
from prolite.orchestrator import RetryPolicy, _judge
from prolite.providers import ReferenceProvider, ScriptedProvider


# --- oracles ----------------------------------------------------------

def test_csp_brute_enumerates_the_digit_puzzle():
    solutions = csp_brute_oracle(
        [range(1, 10), range(10), range(10), range(10)],
        lambda a, b, c, d: (a + b + c + d == 20 and a == b + 1
                            and b == c + 6 and c == d + 1))
    assert solutions == [(9, 8, 2, 1)]


def test_csp_brute_empty_on_contradiction():
    assert csp_brute_oracle([range(3)], lambda x: x > 5) == []


def test_csp_brute_caps_search_space():
    with pytest.raises(SearchSpaceTooLarge):
        csp_brute_oracle([range(10_000)] * 3, lambda *a: True)


def test_linear_oracle_exact():
    assert linear_gold_oracle([[1]], [1]) == [Fraction(1)]
    xs = linear_gold_oracle([[1, -2], [-1, 1]], [-9, -3])
    assert xs == [Fraction(15), Fraction(12)]


def test_linear_oracle_singular_and_inconsistent():
    with pytest.raises(Singular):
        linear_gold_oracle([[1, 1], [2, 2]], [3, 6])
    with pytest.raises(Inconsistent):
        linear_gold_oracle([[1, 1], [2, 2]], [3, 7])


def test_cinema_oracle_value():
    assert cinema_oracle(3, 4, [(1, 2)]) == 6
    assert cinema_oracle(1, 1, []) == 1
    assert cinema_oracle(1, 3, [(1, 2)]) == 1


def test_sum_it_up_rules():
    squares = [1, -2, 3, 0, 4, 0, -1, -1, 0, 0]
    assert sum_it_up_oracle(squares, [7, 3, -4, -2]) == 8
    assert sum_it_up_oracle(squares, [3, -2, 4, -1],
                            "prev_equal_clears") == 1
    assert sum_it_up_oracle(squares, [7, 3, -4, -4, 3],
                            "neighbor_sum_zeroes") == -3


def test_sum_it_up_empty_waitlist_is_initial_sum():
    assert sum_it_up_oracle([1, 2, 0], []) == 3


def test_sum_it_up_no_zero_square():
    with pytest.raises(NoZeroSquare):
        sum_it_up_oracle([1, 2], [5])


# --- fixtures ---------------------------------------------------------

def test_fixture_golds_frozen():
    golds = {p.id: p.gold for p in FIXTURES}
    assert golds == {
        "four-digit-number": 9821,
        "birds-two-trees": 27,
        "age-sum-116": 18,
        "line-of-twelve": 2,
        "cinema-3x4": 6,
        "sum-it-up-plain": 8,
        "sum-it-up-prev-equal": 1,
        "sum-it-up-neighbor-sum": -3,
    }


def test_fixture_golds_match_independent_oracles():
    by_id = {p.id: p for p in FIXTURES}
    # digits puzzle by brute force
    (a, b, c, d), = csp_brute_oracle(
        [range(1, 10), range(10), range(10), range(10)],
        lambda a, b, c, d: (a + b + c + d == 20 and a == b + 1
                            and b == c + 6 and c == d + 1))
    assert a * 1000 + b * 100 + c * 10 + d == \
        by_id["four-digit-number"].gold
    # birds and age by exact Gaussian elimination
    birds = linear_gold_oracle([[1, -2], [-1, 1]], [-9, -3])
    assert sum(birds) == by_id["birds-two-trees"].gold
    assert linear_gold_oracle([[3]], [54]) == [by_id["age-sum-116"].gold]
    # line puzzle by brute force over positions
    line = csp_brute_oracle(
        [range(1, 13)] * 4,
        lambda alex, chad, frank, sam: (
            abs(7 - alex) == 5 and chad == 8 and frank == alex + 1
            and sam == 6 and abs(sam - frank) == 3
            and len({7, alex, chad, frank, sam}) == 5))
    assert {sol[0] for sol in line} == {by_id["line-of-twelve"].gold}
    # simulation oracles
    assert cinema_oracle(3, 4, [(1, 2)]) == by_id["cinema-3x4"].gold
    squares = [1, -2, 3, 0, 4, 0, -1, -1, 0, 0]
    assert sum_it_up_oracle(squares, [7, 3, -4, -2]) == \
        by_id["sum-it-up-plain"].gold
    assert sum_it_up_oracle(squares, [3, -2, 4, -1],
                            "prev_equal_clears") == \
        by_id["sum-it-up-prev-equal"].gold
    assert sum_it_up_oracle(squares, [7, 3, -4, -4, 3],
                            "neighbor_sum_zeroes") == \
        by_id["sum-it-up-neighbor-sum"].gold


def test_every_fixture_reference_program_reproduces_gold():
    for problem in FIXTURES:
        assert check_reference(problem), problem.id


# --- loading ----------------------------------------------------------

def test_load_problems_fixtures_only():
    problems = load_problems()
    assert [p.id for p in problems] == [p.id for p in FIXTURES]


def test_load_problems_merges_and_validates(tmp_path):
    path = tmp_path / "extra.json"
    path.write_text(json.dumps([
        {"id": "x1", "statement": "what is 2+2?", "answer": 4},
        {"id": "x2", "question": "2*3?", "gold": 6,
         "category": "math_word", "entanglement": 1},
    ]))
    problems = load_problems(path)
    assert len(problems) == len(FIXTURES) + 2
    by_id = {p.id: p for p in problems}
    assert by_id["x1"].category == "external"
    assert by_id["x2"].gold == 6


def test_load_problems_schema_errors(tmp_path):
    bad = tmp_path / "bad.json"
    for payload in (
        [{"id": "a"}],                                   # no statement
        [{"id": "a", "statement": "s", "answer": "4"}],  # non-numeric gold
        [{"id": "", "statement": "s", "answer": 4}],     # empty id
        [{"id": "a", "statement": "s", "answer": 4,
          "category": "nope"}],                          # bad category
        {"not": "a list"},
    ):
        bad.write_text(json.dumps(payload))
        with pytest.raises(SchemaError):
            load_problems(bad)


def test_load_problems_duplicate_ids(tmp_path):
    path = tmp_path / "dup.json"
    path.write_text(json.dumps([
        {"id": "same", "statement": "s", "answer": 1},
        {"id": "same", "statement": "s", "answer": 2},
    ]))
    with pytest.raises(DuplicateId):
        load_problems(path)
    path.write_text(json.dumps(
        [{"id": "four-digit-number", "statement": "s", "answer": 1}]))
    with pytest.raises(DuplicateId):
        load_problems(path)


# --- navigate ---------------------------------------------------------

def test_gen_navigate_deterministic_and_bounded():
    a = gen_navigate(3, 25)
    b = gen_navigate(3, 25)
    assert [(p.id, p.statement, p.gold) for p in a] == \
        [(p.id, p.statement, p.gold) for p in b]
    assert all(2 <= len(p.instructions) <= 8 for p in a)
    assert all(p.statement.endswith("how far are you from the starting "
                                    "point?") for p in a)


def test_navigate_gold_matches_second_simulator():
    for problem in gen_navigate(11, 100):
        x, y = complex_walk(problem.instructions)
        assert (x, y) == final_position(problem.instructions)
        dist = (x * x + y * y) ** 0.5
        assert problem.gold == pytest.approx(dist)


def test_navigate_integer_distances_are_ints():
    assert navigate_oracle([("step", 5, "forward")]) == 5
    assert isinstance(navigate_oracle([("step", 3, "forward"),
                                       ("step", 4, "right")]), int)
    val = navigate_oracle([("step", 1, "forward"), ("step", 1, "right")])
    assert isinstance(val, float) and val == pytest.approx(2 ** 0.5)


def test_mirror_returns_to_origin():
    rng = random.Random(5)
    from prolite.harness.navigate import _random_instruction
    for _ in range(100):
        plan = [_random_instruction(rng)
                for _ in range(rng.randint(1, 8))]
        assert navigate_oracle(mirror_to_origin(plan)) == 0


def test_statement_rendering_grammar():
    text = render_statement([("step", 1, "forward"), ("turn", "around"),
                             ("step", 2, "left"),
                             ("face_step", 1, "backward")])
    assert "Take 1 step forward." in text
    assert "Turn around." in text
    assert "Take 2 steps to the left." in text
    assert "Always face forward. Take 1 step backward." in text


# --- evaluation + reports --------------------------------------------

def reference_provider(problems=FIXTURES):
    return ScriptedProvider(["no code here"], {
        p.id: ["thinking aloud first", f"```\n{p.reference_program}\n```"]
        for p in problems})


def test_is_correct_tolerances():
    assert is_correct(5, 5) and not is_correct(5.0000001, 5)
    assert is_correct(2.0000001, 2.0)
    assert not is_correct(2.1, 2.0)
    assert not is_correct(None, 2)


def test_evaluate_scores_and_aggregates(tmp_path):
    report = evaluate(FIXTURES, reference_provider(), repeats=2,
                      transcript_dir=tmp_path / "t")
    assert all(row["accuracy"] == 1.0 for row in report.problems)
    assert all(row["total_runs"] == 2 for row in report.problems)
    assert all(row["mean_attempts"] == 2.0 for row in report.problems)
    assert set(report.categories) == {"math_word",
                                      "constraint_satisfaction",
                                      "algorithmic_instructions"}
    files = list((tmp_path / "t").iterdir())
    assert len(files) == len(FIXTURES) * 2


def test_evaluate_accuracy_recomputable_from_runs():
    report = evaluate(FIXTURES[:3], reference_provider(), repeats=3)
    for row in report.problems:
        runs = [r for r in report.runs if r.problem_id == row["id"]]
        assert row["accuracy"] == \
            sum(1 for r in runs if r.correct) / len(runs)


def test_evaluate_workers_deterministic():
    serial = evaluate(FIXTURES, reference_provider(), repeats=2)
    parallel = evaluate(FIXTURES, reference_provider(), repeats=2,
                        workers=4)
    assert serial.problems == parallel.problems
    assert serial.categories == parallel.categories


def transcript_records(directory):
    """Every transcript line under directory, without its wall time."""
    records = {}
    for path in sorted(directory.iterdir()):
        lines = path.read_text(encoding="utf-8").splitlines()
        records[path.name] = [
            {k: v for k, v in json.loads(line).items() if k != "wall_ms"}
            for line in lines]
    return records


def test_evaluate_workers_deterministic_when_texts_recur(tmp_path):
    # half the attempts get the same junk text and every repeat the same
    # program, so most candidates meet the front-end cache; the serial
    # run starts from a cold cache and the threaded one from a warm one
    problems = list(FIXTURES) + gen_navigate(3, 10)
    provider = ReferenceProvider(problems, p=0.5, seed=7)
    _judge.cache_clear()
    serial = evaluate(problems, provider, repeats=3,
                      transcript_dir=tmp_path / "serial")
    parallel = evaluate(problems, provider, repeats=3,
                        transcript_dir=tmp_path / "parallel", workers=4)
    assert serial.runs == parallel.runs
    assert any(len(set(r.statuses)) > 1 for r in serial.runs)
    for fmt in ("json", "csv", "markdown"):
        assert emit_report(serial, fmt) == emit_report(parallel, fmt)
    assert transcript_records(tmp_path / "serial") == \
        transcript_records(tmp_path / "parallel")


def test_ids_that_share_a_transcript_file_are_rejected_before_any_run(
        tmp_path):
    # 'q/1' and 'q_1' both map to q_1__r0.jsonl: the second run would
    # overwrite the first's transcript, and a replay would then hand
    # 'q/1' the completions of 'q_1'
    problems = [dataclasses.replace(FIXTURES[0], id=i)
                for i in ("q/1", "q_1")]
    started = []

    class Recording(ReferenceProvider):
        def start_run(self, problem_id, repeat):
            started.append(problem_id)
            return super().start_run(problem_id, repeat)

    with pytest.raises(DuplicateId, match="'q/1' and 'q_1'"):
        evaluate(problems, Recording(problems), transcript_dir=tmp_path / "t")
    assert started == []
    assert not (tmp_path / "t").exists()
    # without transcripts the two runs do not meet
    report = evaluate(problems, Recording(problems))
    assert [row["accuracy"] for row in report.problems] == [1.0, 1.0]


def test_evaluate_counts_wrong_answers():
    wrong = ScriptedProvider(["```\nproblem(X) :- X = 999999.\n```"])
    report = evaluate(FIXTURES, wrong, RetryPolicy(max_attempts=1))
    assert all(row["accuracy"] == 0.0 for row in report.problems)


def test_report_formats_deterministic():
    report = evaluate(FIXTURES[:2], reference_provider(), repeats=1)
    for fmt in ("json", "csv", "markdown"):
        assert emit_report(report, fmt) == emit_report(report, fmt)
    with pytest.raises(ValueError):
        emit_report(report, "xml")


def test_report_empty():
    parsed = json.loads(emit_report(EvalReport(), "json"))
    assert parsed == {"problems": [], "categories": {}}


def test_report_csv_and_markdown_contents():
    report = evaluate(FIXTURES[:1], reference_provider(), repeats=1)
    csv_text = emit_report(report, "csv")
    assert csv_text.splitlines()[0].startswith("id,category,gold")
    assert "four-digit-number" in csv_text
    md = emit_report(report, "markdown")
    assert "| four-digit-number |" in md and "## Categories" in md


def test_default_shots_are_usable():
    (statement, program), = DEFAULT_SHOTS
    assert "digits" in statement
    assert program.strip().endswith(".")
