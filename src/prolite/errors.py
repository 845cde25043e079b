"""Exception hierarchy shared by every subsystem."""


class ProliteError(Exception):
    """Base class for all errors raised by this package."""


# --- reader ---

class LexError(ProliteError):
    def __init__(self, message, line, col):
        super().__init__(f"{message} at {line}:{col}")
        self.line = line
        self.col = col


class ParseError(ProliteError):
    def __init__(self, message, line=0, col=0, expected=None):
        super().__init__(f"{message} at {line}:{col}")
        self.line = line
        self.col = col
        self.expected = expected


class OperatorClash(ParseError):
    pass


# --- engine ---

class PrologRuntimeError(ProliteError):
    """Base for errors that terminate one query (one orchestrator attempt)."""


class ExistenceError(PrologRuntimeError):
    def __init__(self, functor, arity):
        super().__init__(f"unknown predicate {functor}/{arity}")
        self.functor = functor
        self.arity = arity


class InstantiationError(PrologRuntimeError):
    pass


class PlTypeError(PrologRuntimeError):
    pass


class ZeroDivisor(PrologRuntimeError):
    pass


class EvaluationError(PrologRuntimeError):
    """Arithmetic with no result: overflow or an undefined operation."""


class BudgetExceeded(PrologRuntimeError):
    def __init__(self, kind):
        super().__init__(f"budget exceeded ({kind})")
        self.kind = kind  # "steps", "time" or "memory"


class BuiltinRedefinition(ProliteError):
    pass


# --- constraint solvers ---

class NonLinearUnsupported(PrologRuntimeError):
    pass


class UnboundedDomain(PrologRuntimeError):
    pass


class TypeMix(PrologRuntimeError):
    """A variable was used in both the FD and the rational store."""


# --- orchestrator / providers ---

class ProviderError(ProliteError):
    pass


class TranscriptExhausted(ProviderError):
    pass


# --- harness ---

class SchemaError(ProliteError):
    def __init__(self, message, field=None):
        super().__init__(message if field is None else f"{field}: {message}")
        self.field = field


class DuplicateId(ProliteError):
    pass


class SearchSpaceTooLarge(ProliteError):
    pass


class Singular(ProliteError):
    pass


class Inconsistent(ProliteError):
    pass


class NoZeroSquare(ProliteError):
    pass
