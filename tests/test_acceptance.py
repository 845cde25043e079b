"""Acceptance gate: the eight end-to-end criteria for the engine,
solvers, retry pipeline, and evaluation harness, each at its stated
tolerance and time budget."""

import math
import os
import random
import time

import pytest

from helpers import (brute_solution_set, complex_walk, fd_solution_set,
                     random_csp, random_linear_system, run_query,
                     solve_linear_via_engine)
from prolite import consult, parse_program, parse_term_text, solve
from prolite.harness import (FIXTURES, evaluate, gen_navigate,
                             mirror_to_origin, navigate_oracle)
from prolite.harness.evaluate import check_reference
from prolite.harness.navigate import render_program
from prolite.harness.oracles import linear_gold_oracle, sum_it_up_oracle
from prolite.orchestrator import (RetryPolicy, multiple_try, run_candidate,
                                  temperature_at)
from prolite.providers import (ReplayProvider, ScriptedProvider,
                               transcript_filename)

# The digit-puzzle program reproduced character-for-character from the
# published worked example.
PUBLISHED_PROGRAM = """\
problem(Number):-
Number #= 1000 * Digit4 + 100 * Digit3 + 10 * Digit2 + Digit1,
Digit1 #>= 0, Digit1 #< 10,
Digit2 #>= 0, Digit2 #< 10,
Digit3 #>= 0, Digit3 #< 10,
Digit4 #> 0, Digit4 #< 10,
Digit1 mod 2 #\\= 0,
Digit1 + Digit2 + Digit3 + Digit4 #= 20,
Digit4 #> Digit3,
Digit3 #> Digit2,
Digit2 #> Digit1,
(4 * Digit1 #= Digit2; 4 * Digit1 #= Digit3; 4 * Digit1 #= Digit4;4 * Digit2 #= Digit1;4 * Digit2 #= Digit3; 4 * Digit2 #= Digit4; 4 * Digit3 #= Digit1; 4 * Digit3 #= Digit2;4 * Digit3 #= Digit4;4 * Digit4 #= Digit1; 4 * Digit4 #= Digit2; 4 * Digit4 #= Digit3),
abs(Digit3 - Digit2) #> 3.
"""


def test_criterion_1_published_program_reproduction():
    """Consulting the published digit puzzle and querying problem(N)
    yields exactly N = 9821, in under one second."""
    started = time.monotonic()
    db = consult(parse_program(PUBLISHED_PROGRAM))
    solutions = list(solve(parse_term_text("problem(N)"), db))
    elapsed = time.monotonic() - started
    answers = sorted({s.bindings["N"] for s in solutions})
    assert answers == [9821]
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    print(f"\ncriterion 1 PASS: N = 9821, {elapsed * 1000:.0f} ms")


def test_criterion_2_fd_oracle_equivalence():
    """200 seeded random finite-domain CSPs: labelled solution set equals
    brute-force enumeration exactly; under 60 s."""
    started = time.monotonic()
    rng = random.Random(1_000_003)
    for i in range(200):
        goal, names, domains, predicate = random_csp(rng)
        engine_set = fd_solution_set(goal, names)
        brute_set = brute_solution_set(domains, predicate)
        assert engine_set == brute_set, f"instance {i}: {goal}"
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    print(f"\ncriterion 2 PASS: 200 CSPs equivalent, {elapsed:.1f} s")


def test_criterion_3_rational_solver_equivalence():
    """200 seeded random nonsingular systems (n <= 6, coefficients
    -9..9): engine solutions equal Gaussian elimination exactly;
    under 10 s."""
    started = time.monotonic()
    rng = random.Random(2_000_003)
    for i in range(200):
        a, b, expected = random_linear_system(rng)
        got = solve_linear_via_engine(a, b)
        assert got == expected, f"system {i}: {a} {b}"
    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    print(f"\ncriterion 3 PASS: 200 systems exact, {elapsed:.1f} s")


def test_criterion_4_fixture_gold_certification():
    """Word-problem and simulation fixtures solve to independently
    computed oracle values, through the full engine."""
    # birds: totals from the exact linear oracle
    birds = linear_gold_oracle([[1, -2], [-1, 1]], [-9, -3])
    sols = run_query("", "{A + 3 = 2 * (B - 3)}, {B + 2 = (A - 2) + 1}")
    assert [sols[0].bindings["A"], sols[0].bindings["B"]] == birds
    # age: oracle derivation gives 18
    age, = linear_gold_oracle([[3]], [54])
    assert age == 18
    result = run_candidate(
        next(p.reference_program for p in FIXTURES
             if p.id == "age-sum-116"), "problem(MyAge)")
    assert result.status == "ok" and result.answer == age
    # sum-it-up plain: simulator gives 8
    assert sum_it_up_oracle([1, -2, 3, 0, 4, 0, -1, -1, 0, 0],
                            [7, 3, -4, -2]) == 8
    # every fixture reference program reproduces its oracle-certified gold
    for problem in FIXTURES:
        assert check_reference(problem), problem.id
    print("\ncriterion 4 PASS: all fixture golds certified end to end")


def test_criterion_5_navigate_correctness():
    """1,000 generated grid-walk problems: engine-run reference programs
    match the simulator distance exactly; mirrored plans measure 0."""
    problems = gen_navigate(seed=31337, count=1000)
    for problem in problems:
        result = run_candidate(problem.reference_program, problem.entry)
        assert result.status == "ok"
        assert result.answer == problem.gold, problem.id
        # the second, independently written simulator agrees
        x, y = complex_walk(problem.instructions)
        squared = x * x + y * y
        second = math.isqrt(squared) if math.isqrt(squared) ** 2 == squared \
            else math.sqrt(squared)
        assert problem.gold == second
    rng = random.Random(909)
    from prolite.harness.navigate import _random_instruction
    for _ in range(250):
        plan = [_random_instruction(rng) for _ in range(rng.randint(1, 8))]
        assert navigate_oracle(mirror_to_origin(plan)) == 0
        mirrored = run_candidate(render_program(mirror_to_origin(plan)),
                                 "problem(Distance)")
        assert mirrored.status == "ok" and mirrored.answer == 0
    print("\ncriterion 5 PASS: 1000 programs exact, mirrors return to 0")


GOOD_COMPLETION = "```\nproblem(Answer) :- Answer is 2 + 2.\n```"


class _Problem:
    id = "acceptance-toy"
    statement = "What is two plus two?"
    entry = "problem(Answer)"


def test_criterion_6_multiple_try_semantics(tmp_path):
    """(a) first executable answer wins; (b) cap at exactly 50;
    (c) schedule 0 -> 0.3, monotone; (d) replay determinism."""
    # (a)
    provider = ScriptedProvider(["prose only", GOOD_COMPLETION,
                                 "```\nnever_runs(1).\n```"])
    outcome = multiple_try(_Problem(), provider)
    assert outcome.final_answer == 4 and outcome.attempts_used == 2
    # (b)
    capped = multiple_try(_Problem(), ScriptedProvider(["prose only"]))
    assert capped.final_answer is None and capped.attempts_used == 50
    # (c)
    policy = RetryPolicy()
    temps = [temperature_at(k, policy) for k in range(50)]
    assert temps[0] == 0.0 and temps[49] == pytest.approx(0.3)
    assert all(a < b for a, b in zip(temps, temps[1:]))
    # (d)
    with open(tmp_path / transcript_filename(_Problem.id, 0), "w") as fh:
        multiple_try(_Problem(), provider, transcript=fh)
    replays = []
    for _ in range(2):
        replay = multiple_try(_Problem(), ReplayProvider(tmp_path))
        replays.append([(a.index, a.temperature, a.completion,
                         a.exec_status, a.answer) for a in replay.attempts])
    assert replays[0] == replays[1]
    assert replays[0][-1][4] == 4
    print("\ncriterion 6 PASS: retry semantics and replay determinism")


def test_criterion_7_truncated_geometric_attempts():
    """Stochastic provider failing with p=0.5 per attempt: pooled
    per-problem mean attempts over 25 repeats x 20 seeds within 5% of
    the truncated-geometric expectation."""
    p = 0.5
    expectation = (1 - p ** 50) / (1 - p)
    problems = FIXTURES
    totals = {problem.id: 0.0 for problem in problems}
    runs = {problem.id: 0 for problem in problems}

    class FlakySession:
        """Junk with probability p per attempt, else the program; one
        seeded coin per attempt."""

        def __init__(self, program, rng):
            self.good = f"```\n{program}\n```"
            self.rng = rng

        def complete(self, prompt, temperature, seed, attempt_index):
            return "cannot say" if self.rng.random() < p else self.good

    class PerProblemFlaky:
        def __init__(self, seed):
            self.seed = seed

        def start_run(self, problem_id, repeat):
            program = next(q.reference_program for q in problems
                           if q.id == problem_id)
            return FlakySession(program, random.Random(
                f"{self.seed}|{problem_id}|{repeat}"))

    started = time.monotonic()
    for seed in range(20):
        report = evaluate(problems, PerProblemFlaky(seed), repeats=25)
        for row in report.problems:
            totals[row["id"]] += row["mean_attempts"] * row["total_runs"]
            runs[row["id"]] += row["total_runs"]
    elapsed = time.monotonic() - started
    worst = 0.0
    for problem in problems:
        mean = totals[problem.id] / runs[problem.id]
        rel = abs(mean - expectation) / expectation
        worst = max(worst, rel)
        assert rel <= 0.05, \
            f"{problem.id}: mean {mean:.3f} vs {expectation:.3f}"
    print(f"\ncriterion 7 PASS: worst relative error {worst:.3%} "
          f"({elapsed:.1f} s)")


def test_criterion_8_live_results_not_desk_reproducible():
    """Hosted-model accuracy figures cannot be reproduced offline; the
    deterministic criteria above stand in for them, and the live-mode
    smoke test below is opt-in via environment variables."""
    from prolite.errors import ProviderError
    from prolite.providers import LiveProvider

    # without a credential in the environment, live mode is unavailable,
    # so nothing in the offline suite can depend on a hosted model
    provider = LiveProvider(base_url="http://localhost:9", model="none",
                            auth_env="PROLITE_ACCEPTANCE_UNSET")
    with pytest.raises(ProviderError, match="missing credential"):
        provider.start_run("p", 0)
    print("\ncriterion 8 PASS: live accuracy replaced by criteria 1-7; "
          "live smoke test is opt-in")


@pytest.mark.skipif(
    not (os.environ.get("PROLITE_LIVE_BASE_URL")
         and os.environ.get("PROLITE_LIVE_MODEL")
         and os.environ.get("PROLITE_API_KEY")),
    reason="live smoke test is opt-in: set PROLITE_LIVE_BASE_URL, "
           "PROLITE_LIVE_MODEL and PROLITE_API_KEY")
def test_live_smoke_single_problem():
    from prolite.providers import LiveProvider

    provider = LiveProvider(base_url=os.environ["PROLITE_LIVE_BASE_URL"],
                            model=os.environ["PROLITE_LIVE_MODEL"])
    outcome = multiple_try(FIXTURES[0], provider,
                           RetryPolicy(max_attempts=3))
    assert outcome.attempts_used >= 1
