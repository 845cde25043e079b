"""prolite: a Prolog-subset engine with finite-domain and exact-rational
constraint solving, a multiple-try code-generation pipeline, and an
evaluation harness with independent answer oracles."""

from .engine import Budget, Database, Solution, consult, solve
from .reader import parse_program, parse_term_text
from .writer import term_to_text
from .orchestrator import (RetryPolicy, assemble_prompt, extract_program,
                           multiple_try, run_candidate, temperature_at)

__version__ = "0.1.0"

__all__ = [
    "Budget", "Database", "Solution", "consult", "solve",
    "parse_program", "parse_term_text", "term_to_text",
    "RetryPolicy", "assemble_prompt", "extract_program",
    "multiple_try", "run_candidate", "temperature_at",
    "__version__",
]
