"""Grid-walk problems: simulator, English renderer, program renderer,
and a seeded generator.

Instructions are tuples:

    ("step", n, d)       take n steps in direction d relative to the
                         current heading; d is one of forward,
                         backward, left, right (left/right are
                         sideways steps, the heading does not change)
    ("turn", w)          rotate in place; w is left, right or around
    ("face_step", n, d)  face forward (due north) first, then take n
                         steps forward or backward

Headings are 0=north, 1=east, 2=south, 3=west; north is +y, east +x.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

STEP_DIRS = ("forward", "backward", "left", "right")
TURN_WAYS = ("left", "right", "around")
FACE_DIRS = ("forward", "backward")

_HEADING_DELTA = {0: (0, 1), 1: (1, 0), 2: (0, -1), 3: (-1, 0)}
_REL_OFFSET = {"forward": 0, "right": 1, "backward": 2, "left": 3}
_TURN_OFFSET = {"right": 1, "around": 2, "left": 3}


@dataclass
class NavState:
    x: int = 0
    y: int = 0
    heading: int = 0

    def apply(self, instruction):
        kind = instruction[0]
        if kind == "step":
            _, n, d = instruction
            direction = (self.heading + _REL_OFFSET[d]) % 4
            dx, dy = _HEADING_DELTA[direction]
            self.x += n * dx
            self.y += n * dy
        elif kind == "turn":
            _, w = instruction
            self.heading = (self.heading + _TURN_OFFSET[w]) % 4
        elif kind == "face_step":
            _, n, d = instruction
            self.heading = 0
            dx, dy = _HEADING_DELTA[0 if d == "forward" else 2]
            self.x += n * dx
            self.y += n * dy
        else:
            raise ValueError(f"unknown instruction {instruction!r}")

    def distance(self):
        """Euclidean distance from the origin; an int when exact."""
        squared = self.x * self.x + self.y * self.y
        root = math.isqrt(squared)
        if root * root == squared:
            return root
        return math.sqrt(squared)


def navigate_oracle(instructions):
    state = NavState()
    for instruction in instructions:
        state.apply(instruction)
    return state.distance()


def final_position(instructions):
    state = NavState()
    for instruction in instructions:
        state.apply(instruction)
    return state.x, state.y


def mirror_to_origin(instructions):
    """Extend the plan with instructions that walk straight back to the
    start: face north, undo the north-south displacement, then sidestep
    the east-west displacement away."""
    x, y = final_position(instructions)
    back = [("face_step", abs(y), "backward" if y > 0 else "forward"),
            ("step", abs(x), "left" if x > 0 else "right")]
    return list(instructions) + back


def render_statement(instructions):
    """English text for a plan, ending with the distance question."""
    sentences = []
    for instruction in instructions:
        kind = instruction[0]
        if kind == "step":
            _, n, d = instruction
            noun = "step" if n == 1 else "steps"
            if d in ("left", "right"):
                sentences.append(f"Take {n} {noun} to the {d}.")
            else:
                sentences.append(f"Take {n} {noun} {d}.")
        elif kind == "turn":
            _, w = instruction
            sentences.append("Turn around." if w == "around"
                             else f"Turn {w}.")
        else:
            _, n, d = instruction
            noun = "step" if n == 1 else "steps"
            sentences.append(f"Always face forward. Take {n} {noun} {d}.")
    sentences.append("If you follow these instructions, how far are you "
                     "from the starting point?")
    return " ".join(sentences)


def render_program(instructions):
    """A logic program computing the distance for a plan, written the
    way a worked example would encode it: direction-delta facts plus a
    chain of arithmetic goals threading position and heading."""
    lines = [
        "% heading: 0 north, 1 east, 2 south, 3 west",
        "dx(0, 0). dx(1, 1). dx(2, 0). dx(3, -1).",
        "dy(0, 1). dy(1, 0). dy(2, -1). dy(3, 0).",
        "",
        "problem(Distance) :-",
        "    X0 = 0, Y0 = 0, H0 = 0,",
    ]
    i = 0
    for instruction in instructions:
        kind = instruction[0]
        j = i + 1
        if kind == "turn":
            _, w = instruction
            lines.append(f"    H{j} is (H{i} + {_TURN_OFFSET[w]}) mod 4,")
            lines.append(f"    X{j} = X{i}, Y{j} = Y{i},")
        elif kind == "step":
            _, n, d = instruction
            lines.append(f"    D{j} is (H{i} + {_REL_OFFSET[d]}) mod 4,")
            lines.append(f"    dx(D{j}, DX{j}), dy(D{j}, DY{j}),")
            lines.append(f"    X{j} is X{i} + {n} * DX{j}, "
                         f"Y{j} is Y{i} + {n} * DY{j},")
            lines.append(f"    H{j} = H{i},")
        else:
            _, n, d = instruction
            direction = 0 if d == "forward" else 2
            lines.append(f"    H{j} = 0, D{j} = {direction},")
            lines.append(f"    dx(D{j}, DX{j}), dy(D{j}, DY{j}),")
            lines.append(f"    X{j} is X{i} + {n} * DX{j}, "
                         f"Y{j} is Y{i} + {n} * DY{j},")
        i = j
    lines.append(f"    Distance is sqrt(X{i} * X{i} + Y{i} * Y{i}).")
    return "\n".join(lines) + "\n"


def _random_instruction(rng):
    template = rng.randrange(9)
    if template < 4:
        return ("step", rng.randint(1, 10), STEP_DIRS[template])
    if template < 7:
        return ("turn", TURN_WAYS[template - 4])
    return ("face_step", rng.randint(1, 10), FACE_DIRS[template - 7])


@dataclass
class NavigateProblem:
    id: str
    statement: str
    gold: object
    instructions: list
    reference_program: str
    entry: str = "problem(Distance)"
    category: str = "navigate"
    entanglement: int = 0

    def __post_init__(self):
        if not self.entanglement:
            self.entanglement = len(self.instructions)


def gen_navigate(seed, count):
    """Deterministically generate grid-walk problems, 2 to 8 instructions
    each, with oracle-computed answers and worked reference programs."""
    rng = random.Random(f"navigate-{seed}")
    problems = []
    for index in range(count):
        length = rng.randint(2, 8)
        instructions = [_random_instruction(rng) for _ in range(length)]
        problems.append(NavigateProblem(
            id=f"navigate-{seed}-{index:03d}",
            statement=render_statement(instructions),
            gold=navigate_oracle(instructions),
            instructions=instructions,
            reference_program=render_program(instructions),
        ))
    return problems
