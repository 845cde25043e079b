"""Completion providers: live HTTP endpoint, transcript replay, two doubles.

All but the live provider are fully deterministic.  The live
provider speaks the chat-completions JSON shape against any compatible
base URL and records every exchange so a run can be replayed.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ProliteError, ProviderError, TranscriptExhausted


def transcript_filename(problem_id, repeat):
    safe = "".join(c if c.isalnum() or c in "-_" else "_" for c in str(problem_id))
    return f"{safe}__r{repeat}.jsonl"


class ScriptedProvider:
    """Canned completions, from by_problem for the ids it maps and else
    default; call k past the end of a list repeats its last one."""

    def __init__(self, default, by_problem=()):
        if not default:
            raise ValueError("scripted provider needs at least one completion")
        self.default = list(default)
        self.by_problem = {str(i): list(completions)
                           for i, completions in dict(by_problem).items()}

    def start_run(self, problem_id, repeat):
        return _ScriptedSession(
            self.by_problem.get(str(problem_id), self.default))


class _ScriptedSession:
    def __init__(self, completions):
        self.completions = completions

    def complete(self, prompt, temperature, seed, attempt_index):
        k = min(attempt_index, len(self.completions) - 1)
        return self.completions[k]


class ReferenceProvider:
    """Per-attempt coin flip between junk, with probability p, and each
    problem's own reference program, fenced; one draw per attempt, seeded
    per (seed, problem, repeat).  With p=0 every attempt gets the program."""

    JUNK = "I am not sure about this one."

    def __init__(self, problems, p=0.0, seed=0):
        self.programs = {problem.id: problem.reference_program
                         for problem in problems if problem.reference_program}
        self.p = p
        self.seed = seed

    def start_run(self, problem_id, repeat):
        program = self.programs.get(str(problem_id))
        if program is None:
            raise ProliteError(f"no reference program for {problem_id}")
        rng = random.Random(f"{self.seed}|{problem_id}|{repeat}")
        return _CoinSession(f"```\n{program}\n```", self.JUNK, self.p, rng)


class _CoinSession:
    def __init__(self, good, bad, p, rng):
        self.good = good
        self.bad = bad
        self.p = p
        self.rng = rng

    def complete(self, prompt, temperature, seed, attempt_index):
        return self.bad if self.rng.random() < self.p else self.good


class ReplayProvider:
    """Replays recorded transcripts from a directory of per-run files."""

    def __init__(self, directory):
        self.directory = Path(directory)
        if not self.directory.is_dir():
            raise ProviderError(f"no transcript directory {directory}")

    def start_run(self, problem_id, repeat):
        path = self.directory / transcript_filename(problem_id, repeat)
        if not path.exists():
            raise TranscriptExhausted(f"no transcript for {problem_id} "
                                      f"repeat {repeat}")
        completions = []
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if line:
                    completions.append(json.loads(line)["completion"])
        return _ReplaySession(completions, problem_id, repeat)


class _ReplaySession:
    def __init__(self, completions, problem_id, repeat):
        self.completions = completions
        self.problem_id = problem_id
        self.repeat = repeat

    def complete(self, prompt, temperature, seed, attempt_index):
        if attempt_index >= len(self.completions):
            raise TranscriptExhausted(
                f"transcript for {self.problem_id} repeat {self.repeat} "
                f"has only {len(self.completions)} attempts")
        return self.completions[attempt_index]


@dataclass
class LiveProvider:
    """OpenAI-style chat-completions client.

    The bearer token is read from the environment variable named by
    auth_env; it is never taken as a flag or stored in config files.
    """

    base_url: str
    model: str
    auth_env: str = "PROLITE_API_KEY"
    timeout: float = 60.0
    extra_headers: dict = field(default_factory=dict)

    def start_run(self, problem_id, repeat):
        token = os.environ.get(self.auth_env)
        if not token:
            raise ProviderError(f"missing credential: set {self.auth_env}")
        return _LiveSession(self, token)


class _LiveSession:
    def __init__(self, provider, token):
        self.provider = provider
        self.token = token

    def complete(self, prompt, temperature, seed, attempt_index):
        import requests

        url = self.provider.base_url.rstrip("/") + "/chat/completions"
        payload = {
            "model": self.provider.model,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": temperature,
        }
        if seed is not None:
            payload["seed"] = seed
        headers = {"Authorization": f"Bearer {self.token}"}
        headers.update(self.provider.extra_headers)
        try:
            resp = requests.post(url, json=payload, headers=headers,
                                 timeout=self.provider.timeout)
            resp.raise_for_status()
            data = resp.json()
            content = data["choices"][0]["message"]["content"]
            if not isinstance(content, str):
                raise TypeError(f"completion content is "
                                f"{type(content).__name__}, not text")
            return content
        except Exception as exc:  # network/auth/shape errors alike
            raise ProviderError(str(exc)) from exc
