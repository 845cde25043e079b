"""Span tracing from outside the program.

`Tracer.install()` replaces prolite's public functions at the sites
where the calling module imported them (``prolite.orchestrator.solve``,
``prolite.engine.fd_label``, ...) and a few store methods on their
classes, with wrappers that record one span per call: name, start, end,
parent span and run id.  `uninstall()` puts the originals back; nothing
under ``src/`` changes.  A function that returns a generator gets one
span for the call and one per resumption, so a span never covers the
caller's own work between two answers.

Spans stay in memory until the traced run ends.  Self time is a span's
duration minus the time its direct children cover.
"""

from __future__ import annotations

import importlib
import json
from collections import Counter
from time import perf_counter

import prolite.cli
import prolite.clpfd
import prolite.clpr
import prolite.engine
import prolite.orchestrator

# The package re-exports evaluate() under the submodule's name.
EVALUATE_MODULE = importlib.import_module("prolite.harness.evaluate")

# (module or class, attribute, layer name, returns a generator)
SITES = (
    (prolite.cli, "evaluate", "harness.evaluate", False),
    (prolite.cli, "emit_report", "harness.emit_report", False),
    (prolite.cli, "parse_program", "reader.parse_program", False),
    (prolite.cli, "consult", "engine.consult", False),
    (prolite.cli, "parse_term_text", "reader.parse_term_text", False),
    (prolite.cli, "solve", "engine.solve", True),
    (prolite.cli, "term_to_text", "writer.term_to_text", False),
    (prolite.orchestrator, "extract_program",
     "orchestrator.extract_program", False),
    (prolite.orchestrator, "parse_program", "reader.parse_program", False),
    (prolite.orchestrator, "consult", "engine.consult", False),
    (prolite.orchestrator, "parse_term_text", "reader.parse_term_text",
     False),
    (prolite.orchestrator, "solve", "engine.solve", True),
    (prolite.engine, "fd_label", "clpfd.label", True),
    (prolite.clpfd.FdStore, "post", "clpfd.post", False),
    (prolite.clpr.RStore, "post", "clpr.post", False),
    (prolite.clpr.RStore, "mark", "clpr.mark", False),
)

# Layers reported; those marked True have child spans and a self time.
LAYERS = (
    ("harness.evaluate", True),
    ("harness.emit_report", False),
    ("orchestrator.multiple_try", True),
    ("orchestrator.extract_program", False),
    ("providers.complete", False),
    ("reader.parse_program", False),
    ("reader.parse_term_text", False),
    ("engine.consult", False),
    ("engine.solve", True),
    ("clpfd.post", False),
    ("clpfd.label", True),
    ("clpr.post", False),
    ("clpr.mark", False),
    ("writer.term_to_text", False),
)

READER_LAYERS = ("reader.parse_program", "reader.parse_term_text")


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index, run id]
        self.stack = []
        self.calls = Counter()
        self.run_id = None
        self.sources = []        # texts handed to the reader
        self.attempts = 0
        self.ok_attempts = 0
        self._saved = []

    # --- spans ---------------------------------------------------------

    def _open(self, name):
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.run_id])
        self.stack.append(index)
        return index

    def _close(self, index):
        self.spans[index][2] = perf_counter()
        while self.stack and self.stack.pop() != index:
            pass

    def wrap(self, name, fn, generator=False):
        tracer = self
        reader = name in READER_LAYERS

        def traced(*args, **kwargs):
            tracer.calls[name] += 1
            if reader:
                tracer.sources.append(args[0])
            index = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            return tracer._resumes(name, result) if generator else result

        return traced

    def _resumes(self, name, gen):
        try:
            while True:
                index = self._open(name)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self._close(index)
                yield item
        finally:
            index = self._open(name)
            try:
                gen.close()
            finally:
                self._close(index)

    # --- installation --------------------------------------------------

    def install(self):
        for owner, attr, name, generator in SITES:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, generator))
        original = EVALUATE_MODULE.multiple_try
        self._saved.append((EVALUATE_MODULE, "multiple_try", original))
        EVALUATE_MODULE.multiple_try = self._traced_multiple_try(original)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _traced_multiple_try(self, original):
        tracer = self
        complete = "providers.complete"

        class Provider:
            """Times each completion of the sessions it hands out."""

            def __init__(self, inner):
                self.inner = inner

            def start_run(self, problem_id, repeat):
                session = self.inner.start_run(problem_id, repeat)
                session.complete = tracer.wrap(complete, session.complete)
                return session

        def traced(problem, provider, *args, **kwargs):
            tracer.run_id = f"{problem.id}|{kwargs.get('repeat', 0)}"
            tracer.calls["orchestrator.multiple_try"] += 1
            index = tracer._open("orchestrator.multiple_try")
            try:
                outcome = original(problem, Provider(provider), *args,
                                   **kwargs)
            finally:
                tracer._close(index)
                tracer.run_id = None
            tracer.attempts += outcome.attempts_used
            tracer.ok_attempts += sum(1 for a in outcome.attempts
                                      if a.exec_status == "ok")
            return outcome

        return traced

    # --- results -------------------------------------------------------

    def layer_times(self):
        """{layer: (total ms, self ms)}; a span nested in a span of the
        same layer counts toward the outer one only."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals = {}
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            total, own = totals.get(name, (0.0, 0.0))
            own += end - start - child_time[i]
            if not self._inside(parent, name):
                total += end - start
            totals[name] = (total, own)
        return {name: (t * 1000.0, s * 1000.0)
                for name, (t, s) in totals.items()}

    def _inside(self, index, name):
        while index >= 0:
            if self.spans[index][0] == name:
                return True
            index = self.spans[index][3]
        return False

    def root_ms(self):
        return sum(end - start for _, start, end, parent, _ in self.spans
                   if parent < 0) * 1000.0

    def run_ms(self, name, run_ids):
        """Total ms of `name` spans belonging to the given runs."""
        return sum(end - start for n, start, end, parent, run in self.spans
                   if n == name and run in run_ids
                   and not self._inside(parent, name)) * 1000.0

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, run) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "run": run}) + "\n")
