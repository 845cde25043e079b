"""Multiple-try inference pipeline.

Assemble the prompt, call the completion provider, extract the logic
program from the completion, execute it, and retry at linearly rising
temperature until the first candidate that yields a numeric answer or
the attempt cap is reached.  The prompt is identical across retries;
only the temperature changes.
"""

from __future__ import annotations

import functools
import hashlib
import json
import time
from dataclasses import dataclass, field
from fractions import Fraction

from . import engine
from .engine import Budget, consult, solve
from .errors import (BudgetExceeded, LexError, ParseError, ProliteError,
                     ProviderError, TranscriptExhausted, UnboundedDomain)
from .reader import lexes_to_end, parse_program, parse_term_text
from .terms import term_vars

# Distinct texts kept by each front-end cache: completion -> extracted
# program, and (source, entry, budget, memory bound) -> ExecResult.
# `evaluate` runs a problem's repeats back to back, so texts recur within
# one problem: a couple of live texts per worker.  Only the verdict is
# kept, not the consulted Database.
FRONT_END_ENTRIES = 32
# one encoder for every transcript line: json.dumps(..., sort_keys=True)
# builds a new one per call, and writes the same bytes
_TRANSCRIPT_ENCODER = json.JSONEncoder(sort_keys=True)


@dataclass(frozen=True)
class RetryPolicy:
    max_attempts: int = 50
    temp_start: float = 0.0
    temp_end: float = 0.3
    per_attempt_budget: Budget = field(default_factory=Budget)

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.temp_start > self.temp_end:
            raise ValueError("temperature schedule must be nondecreasing")


def temperature_at(k, policy=RetryPolicy()):
    """Linear schedule from temp_start to temp_end across the attempts."""
    if not 0 <= k < policy.max_attempts:
        raise ValueError(f"attempt index {k} outside "
                         f"[0, {policy.max_attempts})")
    if policy.max_attempts == 1:
        return policy.temp_start
    span = policy.temp_end - policy.temp_start
    return policy.temp_start + span * k / (policy.max_attempts - 1)


PREAMBLE = (
    "Solve the problem by encoding its constraints and relationships "
    "as logic-program clauses. Walk through the implicit reasoning in "
    "% comments, and define a single entry predicate whose last "
    "argument is the numeric answer.\n")
PROBLEM_HEADER = "Problem: "
SOLUTION_HEADER = "Solution:\n"  # before each shot's program, and last


def assemble_prompt(problem_text, shots):
    """Deterministic few-shot prompt; byte-identical for equal inputs."""
    if not shots:
        raise ValueError("at least one few-shot exemplar is required")
    parts = [PREAMBLE]
    for shot_problem, shot_program in shots:
        parts.append(f"{PROBLEM_HEADER}{shot_problem}\n")
        parts.append(f"{SOLUTION_HEADER}{shot_program}\n\n")
    parts.append(f"{PROBLEM_HEADER}{problem_text}\n")
    parts.append(SOLUTION_HEADER)
    return "".join(parts)


class ExtractionFailure(ProliteError):
    pass


@functools.lru_cache(maxsize=FRONT_END_ENTRIES)
def extract_program(completion):
    """Program source from a completion: the last fenced code block that
    holds a non-blank line, else the longest suffix of its lines that
    holds a '.' and tokenizes cleanly, stripped of surrounding
    whitespace.

    The program of each of the last FRONT_END_ENTRIES completions is
    kept, so a completion met again is not scanned again; a completion
    that holds no program is not kept, and raises ExtractionFailure on
    every call."""
    blocks = _fenced_blocks(completion)
    if blocks:
        return blocks[-1]
    lines = completion.splitlines()
    text = "\n".join(lines).rstrip()
    last_dot = text.rfind(".")
    # where each line's suffix starts once stripped; a blank line's
    # suffix is the next line's, so it is skipped
    starts = []
    offset = 0
    for line in lines:
        content = line.lstrip()
        if content:
            start = offset + len(line) - len(content)
            if start > last_dot:
                break
            starts.append(start)
        offset += len(line) + 1
    for start, ok in zip(starts, lexes_to_end(text, starts)):
        if ok:
            return text[start:]
    raise ExtractionFailure("no logic-program source found in completion")


def _fenced_blocks(text):
    blocks = []
    lines = text.splitlines()
    i = 0
    while i < len(lines):
        if lines[i].lstrip().startswith("```"):
            j = i + 1
            body = []
            while j < len(lines) and not lines[j].lstrip().startswith("```"):
                body.append(lines[j])
                j += 1
            if j < len(lines):
                block = "\n".join(body)
                if block.strip():
                    blocks.append(block)
                i = j + 1
                continue
        i += 1
    return blocks


@dataclass(frozen=True)
class ExecResult:
    status: str                 # exec_status taxonomy
    answer: object = None       # int or float when status == "ok"
    exact: bool = True
    detail: str = ""


def _render_answer(value):
    """(reported number, exactness flag) at the reporting boundary.

    Raises ValueError or OverflowError for a number too large to print
    or to convert to a float."""
    if isinstance(value, bool):
        return None, True
    if isinstance(value, int):
        str(value)  # over the interpreter's digit limit this raises
        return value, True
    if isinstance(value, Fraction):
        return float(value), float(value) == value
    if isinstance(value, float):
        return value, False
    return None, True


def run_candidate(source, entry="problem(Answer)", budget=None):
    """Consult source and run the entry query; never raises, all failure
    modes are folded into the exec-status taxonomy.

    The verdict is the first answer's, as with once/1: the search stops
    there, and whatever the rest of it would do, run out of budget or
    raise, cannot change the verdict.

    Each verdict is kept in a bounded LRU of FRONT_END_ENTRIES
    judgments, keyed by the source text, the entry, the budget (None is
    Budget()) and the engine's memory bound: a call that meets the key
    again returns the kept ExecResult without parsing, consulting or
    solving.  Steps and memory are counted the same on every run and
    the wall clock is not, so a run that ended on the clock is never
    kept and runs again."""
    try:
        return _judge(source, entry, budget or Budget(),
                      engine.DEFAULT_MAX_MEMORY)
    except BudgetExceeded as exc:  # ended on the clock
        return ExecResult("budget-exceeded", detail=str(exc))


@functools.lru_cache(maxsize=FRONT_END_ENTRIES)
def _judge(source, entry, budget, memory):
    """The ExecResult of the entry query's first answer on the program
    source under budget; the query's generator is closed once that
    answer is in.  memory, the engine's memory bound, is only a key.  A
    run that ends on the wall clock raises BudgetExceeded("time")."""
    try:
        db = consult(parse_program(source))
    except (LexError, ParseError) as exc:
        return ExecResult("parse-error", detail=str(exc))
    except ProliteError as exc:  # a clause redefines a builtin
        return ExecResult("runtime-error", detail=str(exc))
    try:
        query = parse_term_text(entry)
    except (LexError, ParseError) as exc:
        return ExecResult("parse-error", detail=str(exc))
    answer_vars = term_vars(query)
    if not answer_vars:
        return ExecResult("runtime-error",
                          detail="entry query has no answer variable")
    answer_var = answer_vars[-1]
    try:
        gen = solve(query, db, budget)
        first = next(gen, None)
        gen.close()
    except BudgetExceeded as exc:
        if exc.kind == "time":
            raise
        return ExecResult("budget-exceeded", detail=str(exc))
    except UnboundedDomain as exc:
        return ExecResult("underdetermined", detail=str(exc))
    except ProliteError as exc:
        return ExecResult("runtime-error", detail=str(exc))
    if first is None:
        return ExecResult("no-solution")
    if answer_var.name in first.underdetermined:
        return ExecResult("underdetermined",
                          detail=f"{answer_var.name} not determined")
    value = first.bindings[answer_var.name]
    try:
        answer, exact = _render_answer(value)
    except (ValueError, OverflowError):
        return ExecResult("runtime-error",
                          detail=f"{answer_var.name} is too large to print")
    if answer is None:
        return ExecResult("non-numeric",
                          detail=f"{answer_var.name} bound to non-number")
    return ExecResult("ok", answer=answer, exact=exact)


@dataclass
class Attempt:
    index: int
    temperature: float
    prompt_sha256: str
    completion: str
    exec_status: str
    answer: object = None
    wall_ms: float = 0.0
    detail: str = ""

    def record(self, problem_id):
        rec = {
            "problem_id": problem_id,
            "attempt": self.index,
            "temperature": self.temperature,
            "prompt_sha256": self.prompt_sha256,
            "completion": self.completion,
            "exec_status": self.exec_status,
            "wall_ms": round(self.wall_ms, 3),
        }
        if self.answer is not None:
            rec["answer"] = self.answer
        return rec


@dataclass
class Outcome:
    problem_id: str
    final_answer: object
    attempts: list
    attempts_used: int


def _attempt_seed(problem_id, k):
    digest = hashlib.sha256(f"{problem_id}:{k}".encode()).hexdigest()
    return int(digest[:8], 16)


def multiple_try(problem, provider, policy=RetryPolicy(), shots=(("", ""),),
                 transcript=None, repeat=0):
    """Run the retry loop for one problem.

    problem needs .id, .statement and .entry attributes.  transcript, when
    given, is a writable text stream receiving one JSON line per attempt,
    keys sorted, flushed before the next provider call.  A completion met
    again among the last FRONT_END_ENTRIES is not extracted again, nor
    judged again under the same entry and budget; its attempt's wall_ms
    then covers the provider call and two lookups.
    """
    prompt = assemble_prompt(problem.statement, shots)
    prompt_hash = hashlib.sha256(prompt.encode()).hexdigest()
    session = provider.start_run(problem.id, repeat)
    attempts = []
    final_answer = None
    for k in range(policy.max_attempts):
        temp = temperature_at(k, policy)
        started = time.monotonic()
        status, answer, detail, extracted, completion = \
            "ok", None, "", None, ""
        try:
            completion = session.complete(
                prompt, temp, _attempt_seed(problem.id, k), k)
        except TranscriptExhausted:
            raise
        except ProviderError as exc:
            status, detail = "provider-error", str(exc)
        if status == "ok":
            try:
                extracted = extract_program(completion)
            except ExtractionFailure as exc:
                status, detail = "extraction-failure", str(exc)
        if status == "ok":
            result = run_candidate(extracted, problem.entry,
                                   policy.per_attempt_budget)
            status, answer, detail = result.status, result.answer, result.detail
        wall_ms = (time.monotonic() - started) * 1000.0
        attempt = Attempt(k, temp, prompt_hash, completion, status, answer,
                          wall_ms, detail)
        attempts.append(attempt)
        if transcript is not None:
            transcript.write(
                _TRANSCRIPT_ENCODER.encode(attempt.record(problem.id)) + "\n")
            transcript.flush()
        if status == "ok":
            final_answer = answer
            break
    return Outcome(str(problem.id), final_answer, attempts, len(attempts))
