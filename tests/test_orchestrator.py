"""Retry pipeline: temperature schedule, prompt assembly, program
extraction, candidate execution, and the full multiple-try loop with
scripted, flaky, and replay providers."""

import io
import json
import random
import time
from types import SimpleNamespace

import pytest

from prolite.errors import ProliteError, ProviderError, TranscriptExhausted
from prolite.orchestrator import (Attempt, ExtractionFailure, RetryPolicy,
                                  assemble_prompt, extract_program,
                                  multiple_try, run_candidate,
                                  temperature_at)
from prolite.providers import (LiveProvider, ReferenceProvider,
                               ReplayProvider, ScriptedProvider,
                               transcript_filename)

GOOD_PROGRAM = """\
problem(Answer) :-
    X #>= 0, X #=< 9,
    X + 3 #= 7,
    Answer #= X * 10,
    label([X]).
"""


class Problem:
    id = "toy"
    statement = "A number plus three is seven; answer is ten times it."
    entry = "problem(Answer)"


def test_temperature_schedule_endpoints_and_monotonicity():
    policy = RetryPolicy()
    temps = [temperature_at(k, policy) for k in range(50)]
    assert temps[0] == 0.0
    assert temps[-1] == pytest.approx(0.3)
    assert all(a < b for a, b in zip(temps, temps[1:]))
    assert temps[7] == pytest.approx(0.3 * 7 / 49)


def test_temperature_schedule_bounds_checked():
    with pytest.raises(ValueError):
        temperature_at(50, RetryPolicy())
    with pytest.raises(ValueError):
        temperature_at(-1, RetryPolicy())


def test_single_attempt_schedule():
    assert temperature_at(0, RetryPolicy(max_attempts=1)) == 0.0


def test_prompt_is_deterministic_and_needs_shots():
    shots = (("two plus two?", "problem(X) :- X is 2 + 2."),)
    p1 = assemble_prompt("three plus three?", shots)
    p2 = assemble_prompt("three plus three?", shots)
    assert p1 == p2
    assert "two plus two?" in p1 and p1.endswith("Solution:\n")
    with pytest.raises(ValueError):
        assemble_prompt("q", ())


def test_extract_prefers_last_fenced_block():
    completion = ("Here is a first try:\n```\nbad(1).\n```\n"
                  "Actually, better:\n```prolog\ngood(2).\n```\ndone")
    assert extract_program(completion).strip() == "good(2)."


def test_extract_falls_back_to_code_suffix():
    completion = "Let me reason about it.\np(1).\nq(X) :- p(X)."
    assert "q(X) :- p(X)." in extract_program(completion)


def test_extract_failure_on_prose():
    with pytest.raises(ExtractionFailure):
        extract_program("I cannot solve this one, sorry")


@pytest.mark.parametrize("completion, status, answer", [
    ("```\n```", "extraction-failure", None),
    ("Answer:\n```\n```\nproblem(1).", "ok", 1),
    ("```\nproblem(2).\n```\n```\n  \n```", "ok", 2),
])
def test_a_blank_fenced_block_is_not_a_program(completion, status, answer):
    outcome = multiple_try(Problem(), ScriptedProvider([completion]),
                           RetryPolicy(max_attempts=1))
    [attempt] = outcome.attempts
    assert (attempt.exec_status, attempt.answer) == (status, answer)


def test_run_candidate_ok():
    result = run_candidate(GOOD_PROGRAM)
    assert result.status == "ok" and result.answer == 40 and result.exact


def test_run_candidate_statuses():
    assert run_candidate("p(1").status == "parse-error"
    assert run_candidate("p(1).", "q(X)").status == "runtime-error"
    assert run_candidate("q(X) :- member(X, [1, 2]), X > 5.",
                         "q(X)").status == "no-solution"
    assert run_candidate("p(1).", "p(2)").status == "runtime-error"
    assert run_candidate("p(a).", "p(X)").status == "non-numeric"
    assert run_candidate("p(X) :- {X + Y = 3}.", "p(X)").status == \
        "underdetermined"


def test_run_candidate_takes_first_solution():
    result = run_candidate("p(1). p(2).", "p(X)")
    assert result.status == "ok" and result.answer == 1


@pytest.mark.parametrize("source, answer", [
    ("problem(A) :- A = 1.\n"
     "problem(A) :- loop(A).\n"
     "loop(A) :- loop(A).", 1),
    ("problem(A) :- between(1, 100000000, X),"
     " (X =:= 1 ; X =:= 100000000), A = 7.", 7),
    ("problem(A) :- A = 1.\nproblem(A) :- A is 1 / 0.", 1),
    ("problem(A) :- X #>= 0, X #=< 1, A = 1.", 1),
], ids=["then-loop", "then-long-search", "then-error", "fd-choices"])
def test_run_candidate_judges_the_first_answer_alone(source, answer):
    # each program has more to search after its first answer, and in
    # the first three that search loops, runs long or raises
    from prolite import Budget
    started = time.monotonic()
    result = run_candidate(source, budget=Budget(10**6, 2.0))
    assert time.monotonic() - started < 0.5
    assert (result.status, result.answer) == ("ok", answer)


def test_run_candidate_budget():
    from prolite import Budget
    result = run_candidate("loop(X) :- loop(X).", "loop(X)",
                           budget=Budget(max_inference_steps=5000))
    assert result.status == "budget-exceeded"


def test_multiple_try_first_success_wins():
    provider = ScriptedProvider([
        "no code in this one",
        "```\nbroken(\n```",
        f"```\n{GOOD_PROGRAM}\n```",
        "```\nshould_never_run(0).\n```",
    ])
    outcome = multiple_try(Problem(), provider)
    assert outcome.final_answer == 40
    assert outcome.attempts_used == 3
    assert [a.exec_status for a in outcome.attempts] == \
        ["extraction-failure", "parse-error", "ok"]


def test_multiple_try_cap_at_max_attempts():
    outcome = multiple_try(Problem(), ScriptedProvider(["just prose"]))
    assert outcome.final_answer is None
    assert outcome.attempts_used == 50


def test_multiple_try_writes_transcript_lines():
    stream = io.StringIO()
    provider = ScriptedProvider(["prose", f"```\n{GOOD_PROGRAM}\n```"])
    outcome = multiple_try(Problem(), provider, transcript=stream)
    lines = [json.loads(line) for line in
             stream.getvalue().strip().splitlines()]
    assert len(lines) == outcome.attempts_used == 2
    assert lines[0]["exec_status"] == "extraction-failure"
    assert lines[1]["exec_status"] == "ok" and lines[1]["answer"] == 40
    assert lines[0]["prompt_sha256"] == lines[1]["prompt_sha256"]
    assert lines[0]["temperature"] == 0.0


def test_each_transcript_line_is_its_record_dumped_with_sorted_keys():
    stream = io.StringIO()
    runs = [
        ["Je ne sais pas « \"réponse\" » — désolé",
         "```\nproblem(A) :- A = café.\n```",
         "```\n% l'énoncé dit \"sept\"\nproblem(7).\n```"],
        ["```\nproblem(A) :- A is sqrt(2).\n```"],
    ]
    attempts = []
    for completions in runs:
        outcome = multiple_try(Problem(), ScriptedProvider(completions),
                               transcript=stream)
        attempts += outcome.attempts
    assert [a.answer for a in attempts] == [None, None, 7, 2 ** 0.5]
    lines = stream.getvalue().splitlines(keepends=True)
    assert lines == [json.dumps(a.record(Problem.id), sort_keys=True) + "\n"
                     for a in attempts]
    assert "\\u00e9" in lines[0] and '\\"' in lines[0]


def test_answer_too_large_to_print_is_a_runtime_error():
    stream = io.StringIO()
    huge = "```\nproblem(Answer) :- Answer is 10 ^ 5000.\n```"
    provider = ScriptedProvider([huge, f"```\n{GOOD_PROGRAM}\n```"])
    outcome = multiple_try(Problem(), provider, transcript=stream)
    lines = [json.loads(line) for line in stream.getvalue().splitlines()]
    assert [line["exec_status"] for line in lines] == ["runtime-error", "ok"]
    assert outcome.final_answer == 40
    assert outcome.attempts[0].detail == "Answer is too large to print"
    # a rational beyond the float range cannot be reported either
    assert run_candidate("problem(A) :- A is 10 ^ 400 / 3.").status == \
        "runtime-error"


def test_provider_error_counts_as_attempt():
    class Breaking:
        def start_run(self, problem_id, repeat):
            return self

        def complete(self, prompt, temperature, seed, attempt_index):
            raise ProviderError("boom")

    outcome = multiple_try(Problem(), Breaking(),
                           RetryPolicy(max_attempts=3))
    assert outcome.final_answer is None
    assert [a.exec_status for a in outcome.attempts] == ["provider-error"] * 3


def test_flaky_provider_is_reproducible():
    problems = [SimpleNamespace(id="p", reference_program="good.")]
    provider = ReferenceProvider(problems, 0.5, seed=5)
    runs1 = [provider.start_run("p", r).complete("", 0, 0, 0)
             for r in range(10)]
    runs2 = [provider.start_run("p", r).complete("", 0, 0, 0)
             for r in range(10)]
    assert runs1 == runs2
    assert set(runs1) == {"```\ngood.\n```", ReferenceProvider.JUNK}


def test_reference_provider_replays_the_seeded_coin_flips():
    problems = [SimpleNamespace(id="p", reference_program="p(1)."),
                SimpleNamespace(id="q", reference_program=None)]
    good = "```\np(1).\n```"
    assert ReferenceProvider(problems).start_run("p", 0).complete(
        "", 0, 0, 0) == good
    session = ReferenceProvider(problems, 0.5, 7).start_run("p", 3)
    rng = random.Random("7|p|3")
    for k in range(20):
        expected = ReferenceProvider.JUNK if rng.random() < 0.5 else good
        assert session.complete("", 0, 0, k) == expected
    with pytest.raises(ProliteError, match="no reference program for q"):
        ReferenceProvider(problems).start_run("q", 0)


def test_replay_round_trip(tmp_path):
    provider = ScriptedProvider(["prose", f"```\n{GOOD_PROGRAM}\n```"])
    path = tmp_path / transcript_filename("toy", 0)
    with open(path, "w", encoding="utf-8") as fh:
        live = multiple_try(Problem(), provider, transcript=fh)
    replayed1 = multiple_try(Problem(), ReplayProvider(tmp_path))
    replayed2 = multiple_try(Problem(), ReplayProvider(tmp_path))
    assert replayed1.final_answer == live.final_answer == 40
    assert [a.completion for a in replayed1.attempts] == \
        [a.completion for a in live.attempts]
    def stable(outcome):
        records = [a.record("toy") for a in outcome.attempts]
        for rec in records:
            rec.pop("wall_ms")
        return records

    assert stable(replayed1) == stable(replayed2)


def test_replay_missing_transcript(tmp_path):
    with pytest.raises(TranscriptExhausted):
        multiple_try(Problem(), ReplayProvider(tmp_path))


def test_live_provider_requires_env_credential(monkeypatch):
    monkeypatch.delenv("PROLITE_API_KEY", raising=False)
    provider = LiveProvider(base_url="http://localhost:9", model="m")
    with pytest.raises(ProviderError, match="missing credential"):
        provider.start_run("p", 0)


def test_a_live_completion_that_is_not_text_is_a_provider_error(
        monkeypatch):
    import requests

    contents = iter([None, [{"type": "text", "text": "problem(1)."}]])

    class Response:
        def raise_for_status(self):
            pass

        def json(self):
            return {"choices": [{"message": {"content": next(contents)}}]}

    monkeypatch.setattr(requests, "post", lambda *args, **kw: Response())
    monkeypatch.setenv("PROLITE_API_KEY", "token")
    provider = LiveProvider(base_url="http://localhost:9", model="m")
    outcome = multiple_try(Problem(), provider, RetryPolicy(max_attempts=2))
    assert [a.exec_status for a in outcome.attempts] == ["provider-error"] * 2
    assert [a.detail for a in outcome.attempts] == [
        "completion content is NoneType, not text",
        "completion content is list, not text"]
    assert outcome.final_answer is None


def test_transcript_filename_sanitises():
    assert transcript_filename("a/b c", 3) == "a_b_c__r3.jsonl"


def test_unreadable_character_is_a_parse_error_not_a_crash():
    # '²' passes str.isdigit() but int() cannot read it
    result = run_candidate("problem(X) :- X = ².")
    assert result.status == "parse-error"
    assert "illegal character '²' at 1:19" in result.detail
    assert extract_program("junk ²\nproblem(1).") == "problem(1)."
