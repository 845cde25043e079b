"""The verdict cache of `run_candidate`: a text met again under the same
entry, budget and memory bound is neither parsed, consulted nor solved
again, and gives the verdict a cold run gives, unless the wall clock
ended it.  Beside it, `extract_program` keeps the program of each
completion it extracted, and redoes a completion that held none."""

from __future__ import annotations

import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from prolite import engine, orchestrator
from prolite.engine import Budget
from prolite.harness import FIXTURES, emit_report, evaluate, gen_navigate
from prolite.orchestrator import (FRONT_END_ENTRIES, ExtractionFailure,
                                  RetryPolicy, _judge, extract_program,
                                  multiple_try, run_candidate)
from prolite.providers import ReferenceProvider, ScriptedProvider
from test_harness import transcript_records
from test_orchestrator import Problem


@pytest.fixture(autouse=True)
def cold_cache():
    _judge.cache_clear()
    extract_program.cache_clear()
    yield
    _judge.cache_clear()
    extract_program.cache_clear()


def cold_and_warm(source, entry="problem(Answer)"):
    _judge.cache_clear()
    cold = run_candidate(source, entry)
    hits = _judge.cache_info().hits
    warm = run_candidate(source, entry)
    assert _judge.cache_info().hits == hits + 1
    return cold, warm


PROGRAMS = [(p.reference_program, p.entry) for p in FIXTURES]
PROGRAMS += [(p.reference_program, p.entry) for p in gen_navigate(7, 12)]


@pytest.mark.parametrize("source, entry", PROGRAMS)
def test_a_hit_on_a_program_gives_the_cold_result(source, entry):
    cold, warm = cold_and_warm(source, entry)
    assert cold.status == "ok"
    assert warm == cold


@pytest.mark.parametrize("source, entry, status, detail", [
    ("problem(A) :- A = 'open.", "problem(A)", "parse-error",
     "unterminated quoted token"),
    ("problem(A :- A = 1.", "problem(A)", "parse-error", ""),
    ("member(X, [X]).\nproblem(1).", "problem(A)", "runtime-error",
     "cannot redefine member/2"),
    ("problem(1).", "problem(1)", "runtime-error",
     "entry query has no answer variable"),
    ("problem(1).", "problem(", "parse-error", ""),
    ("I am not sure about this one.", "problem(A)", "parse-error", ""),
    ("problem(A) :- A #> 0.", "problem(A)", "underdetermined", ""),
    ("problem(A) :- p(A).", "problem(A)", "runtime-error",
     "unknown predicate p/1"),
])
def test_a_hit_on_a_failing_text_gives_the_cold_result(source, entry,
                                                        status, detail):
    cold, warm = cold_and_warm(source, entry)
    assert cold.status == status and detail in cold.detail
    assert warm == cold


def test_one_database_answers_two_entries_like_fresh_ones():
    source = ("p(1).\np(2).\np(3).\n"
              "count(A) :- findall(X, p(X), L), length(L, A).\n"
              "big(A) :- p(X), X > 1, A is X * 10.\n"
              "fd(A) :- A #> 2, A #< 4.\n")
    entries = ["count(A)", "big(A)", "fd(A)", "p(A)"]
    fresh = {}
    for entry in entries:
        _judge.cache_clear()
        fresh[entry] = run_candidate(source, entry)
    assert [fresh[e].answer for e in entries] == [3, 20, 3, 1]
    _judge.cache_clear()
    for entry in entries * 2:
        assert run_candidate(source, entry) == fresh[entry]
    assert _judge.cache_info().misses == len(entries)


def counting(monkeypatch, *names):
    """{name: first arguments} of the calls that reach each of the
    orchestrator's functions named."""
    calls = {name: [] for name in names}
    for name in names:
        original = getattr(orchestrator, name)

        def counted(arg, *rest, _original=original, _name=name):
            calls[_name].append(arg)
            return _original(arg, *rest)

        monkeypatch.setattr(orchestrator, name, counted)
    return calls


def test_each_distinct_text_is_parsed_and_consulted_once(monkeypatch):
    calls = counting(monkeypatch, "parse_program", "consult")
    a = "problem(1)."
    b = "problem(2)."
    junk = "I am not sure about this one."
    for source in (a, b, a, junk, a, b, junk, junk):
        run_candidate(source, "problem(A)")
    assert calls["parse_program"] == [a, b, junk]
    assert len(calls["consult"]) == 2


def test_the_cache_holds_at_most_its_bound(monkeypatch):
    calls = counting(monkeypatch, "parse_program", "consult")
    sources = [f"problem({k})." for k in range(FRONT_END_ENTRIES + 5)]
    for k, source in enumerate(sources):
        assert run_candidate(source).answer == k
        assert _judge.cache_info().currsize <= FRONT_END_ENTRIES
    assert _judge.cache_info().maxsize == FRONT_END_ENTRIES
    # the latest texts are kept, the oldest were evicted
    run_candidate(sources[-1])
    assert len(calls["parse_program"]) == len(sources)
    run_candidate(sources[0])
    assert len(calls["parse_program"]) == len(sources) + 1


def test_threads_sharing_cached_databases_answer_like_cold_runs():
    # more threads than cores, switching often, on a few texts that all
    # the threads judge at once
    texts = [(p.reference_program, p.entry) for p in FIXTURES[:3]]
    texts += [(p.reference_program, p.entry) for p in gen_navigate(11, 3)]
    expected = []
    for source, entry in texts:
        _judge.cache_clear()
        expected.append(run_candidate(source, entry))
    _judge.cache_clear()
    jobs = [k % len(texts) for k in range(8 * len(texts))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(run_candidate, *texts[k]) for k in jobs]
            results = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert results == [expected[k] for k in jobs]
    assert _judge.cache_info().currsize == len(texts)


# --- extraction kept beside the verdict ----------------------------------

def test_each_distinct_completion_is_extracted_once(monkeypatch):
    calls = counting(monkeypatch, "_fenced_blocks", "lexes_to_end")
    fenced = "Here:\n```prolog\nproblem(A) :- A = a.\n```\n"
    suffix = "Let's see:\nproblem(A) :- A = b."
    provider = ScriptedProvider([fenced, suffix, fenced, suffix, fenced])
    for repeat in range(2):
        outcome = multiple_try(Problem(), provider,
                               RetryPolicy(max_attempts=6), repeat=repeat)
        assert [a.exec_status for a in outcome.attempts] == \
            ["non-numeric"] * 6
    assert calls["_fenced_blocks"] == [fenced, suffix]
    assert calls["lexes_to_end"] == [suffix]
    info = extract_program.cache_info()
    assert (info.hits, info.misses) == (10, 2)
    assert info.maxsize == FRONT_END_ENTRIES


def test_a_completion_without_a_program_is_extracted_every_time(
        monkeypatch):
    calls = counting(monkeypatch, "_fenced_blocks", "lexes_to_end")
    prose = "I cannot solve this one, sorry"
    for _ in range(2):
        with pytest.raises(ExtractionFailure):
            extract_program(prose)
    outcome = multiple_try(Problem(), ScriptedProvider([prose]),
                           RetryPolicy(max_attempts=2))
    assert [a.exec_status for a in outcome.attempts] == \
        ["extraction-failure"] * 2
    assert calls["_fenced_blocks"] == [prose] * 4
    assert extract_program.cache_info().currsize == 0


def test_threads_sharing_kept_programs_extract_like_cold_calls():
    completions = [f"```\n{p.reference_program}\n```" for p in FIXTURES[:3]]
    completions += ["Let's see:\nproblem(1).", "I cannot solve this one"]

    def extracted(text):
        try:
            return extract_program(text)
        except ExtractionFailure:
            return None

    expected = []
    for text in completions:
        extract_program.cache_clear()
        expected.append(extracted(text))
    extract_program.cache_clear()
    jobs = [k % len(completions) for k in range(40 * len(completions))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(extracted, completions[k]) for k in jobs]
            results = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert results == [expected[k] for k in jobs]
    assert expected[-1] is None
    assert extract_program.cache_info().currsize == len(completions) - 1


# --- verdicts kept per entry, budget and memory bound -------------------

def counting_solves(monkeypatch):
    calls = []
    original = orchestrator.solve

    def counted(query, db, budget=None):
        calls.append(budget)
        return original(query, db, budget)

    monkeypatch.setattr(orchestrator, "solve", counted)
    return calls


LOOP = "loop :- loop.\nproblem(A) :- loop, A = 1.\n"
DOWN = ("down(0).\ndown(N) :- N > 0, M is N - 1, down(M).\n"
        "problem(A) :- down(500), A = 500.\n")
FINDALL = ("problem(A) :- findall(X, between(1, 2000, X), L), "
           "length(L, A).\n")


@pytest.mark.parametrize("source, budget, memory, status, detail", [
    ("problem(1).", None, None, "ok", ""),
    ("problem(A) :- A = 1, A > 2.", None, None, "no-solution", ""),
    ("problem(A) :- A #> 0.", None, None, "underdetermined", ""),
    ("problem(A) :- {A + B = 3}.", None, None, "underdetermined",
     "not determined"),
    ("problem(a).", None, None, "non-numeric", ""),
    ("problem(A) :- p(A).", None, None, "runtime-error",
     "unknown predicate p/1"),
    (LOOP, Budget(1000, 60.0), None, "budget-exceeded", "steps"),
    (FINDALL, None, 1000, "budget-exceeded", "memory"),
])
def test_a_hit_on_a_kept_verdict_solves_nothing(source, budget, memory,
                                               status, detail,
                                               monkeypatch):
    if memory is not None:
        monkeypatch.setattr(engine, "DEFAULT_MAX_MEMORY", memory)
    calls = counting_solves(monkeypatch)
    cold = run_candidate(source, budget=budget)
    assert cold.status == status and detail in cold.detail
    assert len(calls) == 1
    for _ in range(3):
        assert run_candidate(source, budget=budget) is cold
    assert len(calls) == 1


def test_a_run_that_ended_on_the_clock_is_run_again(monkeypatch):
    calls = counting_solves(monkeypatch)
    budget = Budget(10**9, 0.05)
    for k in range(3):
        result = run_candidate(LOOP, budget=budget)
        assert result.status == "budget-exceeded"
        assert "time" in result.detail
        assert len(calls) == k + 1


def test_another_entry_gets_its_own_verdict(monkeypatch):
    calls = counting_solves(monkeypatch)
    source = "p(1).\nq(2).\n"
    assert run_candidate(source, "p(A)").answer == 1
    assert run_candidate(source, "q(A)").answer == 2
    assert run_candidate(source, "p(A)").answer == 1
    assert len(calls) == 2


def test_another_budget_gets_its_own_verdict(monkeypatch):
    calls = counting_solves(monkeypatch)
    few = Budget(100, 60.0)
    assert run_candidate(DOWN, budget=few).status == "budget-exceeded"
    assert run_candidate(DOWN).answer == 500
    assert "steps" in run_candidate(DOWN, budget=few).detail
    assert run_candidate(DOWN, budget=Budget(10**6, 60.0)).answer == 500
    assert len(calls) == 3


def test_another_memory_bound_gets_its_own_verdict(monkeypatch):
    calls = counting_solves(monkeypatch)
    bound = engine.DEFAULT_MAX_MEMORY
    assert run_candidate(FINDALL).answer == 2000
    monkeypatch.setattr(engine, "DEFAULT_MAX_MEMORY", 1000)
    assert "memory" in run_candidate(FINDALL).detail
    monkeypatch.setattr(engine, "DEFAULT_MAX_MEMORY", bound)
    assert run_candidate(FINDALL).answer == 2000
    assert len(calls) == 2


def test_no_budget_and_the_default_budget_share_a_verdict(monkeypatch):
    calls = counting_solves(monkeypatch)
    first = run_candidate("problem(1).")
    assert run_candidate("problem(1).", budget=Budget()) is first
    assert calls == [Budget()]


def test_evaluate_reports_the_same_from_a_cold_and_a_warm_cache(tmp_path):
    problems = list(FIXTURES) + gen_navigate(5, 8)
    provider = ReferenceProvider(problems, p=0.5, seed=3)
    runs = {}
    for name in ("cold", "warm"):
        runs[name] = evaluate(problems, provider, repeats=3,
                              transcript_dir=tmp_path / name)
    cold, warm = runs["cold"], runs["warm"]
    assert cold.runs == warm.runs
    for fmt in ("json", "csv", "markdown"):
        assert emit_report(cold, fmt) == emit_report(warm, fmt)
    assert transcript_records(tmp_path / "cold") == \
        transcript_records(tmp_path / "warm")
