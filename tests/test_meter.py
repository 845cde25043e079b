"""The query's meter at each site that charges it: the machine loop, the
FD fixpoint, and a mod propagator's walk (a charge of more than one step
at a time).  The clock and memory are read once per multiple of 1,024
steps reached, a step cap is refused at exactly one step past it, and
the memory check counts the goals pending at the goal being run."""

import sys

import pytest

from prolite import Budget, consult, solve
from prolite.engine import SolveState
from prolite.errors import BudgetExceeded
from prolite.reader import parse_program, parse_term_text

# frames that only pass a charge on to check_limits
_METER = {"tick", "checkpoint"}

COUNT = """\
count(N, N).
count(I, N) :- I < N, I1 is I + 1, count(I1, N).
"""

QUEENS = """\
queens(N, Qs) :- length(Qs, N), doms(Qs, N), safe(Qs), label(Qs).
doms([], _).
doms([Q|Qs], N) :- Q #>= 1, Q #=< N, doms(Qs, N).
safe([]).
safe([Q|Qs]) :- noattack(Q, Qs, 1), safe(Qs).
noattack(_, [], _).
noattack(Q, [Q1|Qs], D) :-
    Q #\\= Q1, Q #\\= Q1 + D, Q #\\= Q1 - D,
    D1 is D + 1, noattack(Q, Qs, D1).
"""

# each X #\= I removes a value of X, which wakes X mod 7 #= M, and the
# propagator charges a step per 64 values it walks
MODS = """\
cut(I, N, _) :- I > N.
cut(I, N, X) :- I =< N, X #\\= I, I1 is I + 1, cut(I1, N, X).
"""

# every level posts three FD constraints, so about half the checks are
# reached inside the FD store and not in the machine loop
DEEP = """\
d(N) :- N > 0, X #>= 0, X #=< 3, X #\\= N mod 4, N1 is N - 1, d(N1), true.
"""


def _site(frame):
    """Name of the nearest code that charged the meter, above frame."""
    while frame.f_code.co_name in _METER:
        frame = frame.f_back
    return frame.f_code.co_name


@pytest.fixture
def checks(monkeypatch):
    """(states, steps, sites): the SolveState, step count and charging
    site of each check_limits call."""
    states, steps, sites = [], [], []
    real = SolveState.check_limits

    def _counting(self):
        states.append(self)
        steps.append(self.steps)
        sites.append(_site(sys._getframe(1)))
        return real(self)

    monkeypatch.setattr(SolveState, "check_limits", _counting)
    return states, steps, sites


def _exhaust(program, query, budget=None):
    return list(solve(parse_term_text(query),
                      consult(parse_program(program)), budget=budget))


@pytest.mark.parametrize("program, query, site, exact", [
    (COUNT, "count(0, 3000), fail", "_run", True),
    (QUEENS, "queens(8, Qs)", "propagate_fixpoint", True),
    (MODS, "X #>= 0, X #=< 4000, X mod 7 #= M, cut(1, 300, X)",
     "propagate", False),
], ids=["resolution", "fd-fixpoint", "mod-walk"])
def test_one_check_per_multiple_of_1024_steps(checks, program, query, site,
                                              exact):
    states, steps, sites = checks
    _exhaust(program, query)
    state = states[0]
    assert all(s is state for s in states)
    # one check in each 1,024-step band the run reaches, the first time
    # the count reaches it
    assert [s >> 10 for s in steps] == list(range(1, (state.steps >> 10) + 1))
    assert site in sites
    # a charge of one step lands on the multiple itself; a larger charge
    # may pass it
    assert all(s % 1024 == 0 for s in steps) is exact


@pytest.mark.parametrize("program, query, cap, site", [
    (COUNT, "count(0, 100000)", 2500, "_run"),
    (QUEENS, "queens(8, Qs), fail", 3001, "propagate_fixpoint"),
], ids=["resolution", "fd-fixpoint"])
def test_a_step_cap_off_the_cadence_ends_one_step_past_it(checks, program,
                                                          query, cap, site):
    states, steps, _ = checks
    with pytest.raises(BudgetExceeded) as info:
        _exhaust(program, query, Budget(max_inference_steps=cap))
    assert str(info.value) == "budget exceeded (steps)"
    assert states[0].steps == cap + 1
    assert steps == [1024, 2048]
    tb = info.tb
    while tb.tb_next is not None:
        tb = tb.tb_next
    assert _site(tb.tb_frame) == site


def test_the_memory_check_counts_the_goals_pending_now(monkeypatch):
    depths = []
    real = SolveState.check_limits

    def _recording(self):
        depths.append(self.depth)
        return real(self)

    monkeypatch.setattr(SolveState, "check_limits", _recording)
    _exhaust(DEEP, "d(3000)")
    # the true after the recursive call leaves one more goal pending at
    # each level, whichever site checks
    first = depths[:12]
    assert len(first) == 12 and first[0] > 0
    assert all(a < b for a, b in zip(first, first[1:]))
