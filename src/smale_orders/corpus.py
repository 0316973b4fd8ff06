"""Ready-made orders and cycle assignments used in tests and the seed corpus.

The diamond order (one repeller over two saddles over one attractor) carries
two hand-picked cycle assignments: the minimal length-2 cycles
whose realization closes up into a sphere, and the length-4 cycles whose
band gluing cannot be drawn in the plane and yields a torus.
"""

from __future__ import annotations

from .cycles import CycleAssignment, Transition
from .order import FiniteOrder, load_order

# One repeller A over saddles s1, s2 over one attractor w.
DIAMOND = {
    "elements": ["A", "s1", "s2", "w"],
    "relations": [["A", "s1"], ["A", "s2"], ["s1", "w"], ["s2", "w"]],
}

# Three-level order: the saddle A has 3 ancestors and 3 children, the saddle
# B has one of each.
FAN_ORDER = {
    "elements": ["r1", "r2", "r3", "A", "B", "w1", "w2", "w3"],
    "relations": [
        ["r1", "A"], ["r2", "A"], ["r3", "A"],
        ["A", "w1"], ["A", "w2"], ["A", "w3"],
        ["r1", "B"], ["B", "w1"],
    ],
}

# Connectivity fails at A: the two branches below A share no element.
IMPOSSIBLE_ORDER = {
    "elements": ["A", "s1", "s2", "w1", "w2"],
    "relations": [["A", "s1"], ["A", "s2"], ["s1", "w1"], ["s2", "w2"]],
}

# Connectivity fails at A, and a saddle chain hangs below A, so everything
# two or more steps below A would have to be an attracting periodic point.
FIG_LEFT = {
    "elements": ["A", "b1", "b2", "c1", "w1", "w2"],
    "relations": [
        ["A", "b1"], ["b1", "b2"], ["b2", "w1"],
        ["A", "c1"], ["c1", "w2"],
    ],
}

# Connectivity fails at A and at the minimal element B below it.
FIG_MIDDLE = {
    "elements": ["A", "A2", "s1", "s2", "s3", "B", "w2"],
    "relations": [
        ["A", "s1"], ["s1", "B"],
        ["A", "s2"], ["s2", "w2"],
        ["A2", "s3"], ["s3", "B"],
    ],
}

# Connectivity fails at A and the saddle B below it is related to three
# distinct attractors.
FIG_RIGHT = {
    "elements": ["A", "B", "w1", "w2", "w3", "s4", "w4"],
    "relations": [
        ["A", "B"], ["B", "w1"], ["B", "w2"], ["B", "w3"],
        ["A", "s4"], ["s4", "w4"],
    ],
}

SEED_ORDERS = {
    "order": FAN_ORDER,
    "impossibleorder": IMPOSSIBLE_ORDER,
    "example1": DIAMOND,
    "example": DIAMOND,
    "fig-left": FIG_LEFT,
    "fig-middle": FIG_MIDDLE,
    "fig-right": FIG_RIGHT,
}


def diamond_order() -> FiniteOrder:
    return load_order(DIAMOND)


def _cycle(mediator: str, pattern: list[tuple[str, str]]):
    return tuple(Transition(a, mediator, b) for a, b in pattern)


def example1_cycles() -> CycleAssignment:
    """Minimal length-2 cycles around w and A; realizes on the sphere."""
    ab = [("s1", "s2"), ("s2", "s1")]
    return CycleAssignment(
        cycles={"w": _cycle("A", ab), "A": _cycle("w", ab)}
    )


def example_cycles() -> CycleAssignment:
    """Length-4 cycles around w and A; realizes on the torus."""
    abab = [("s1", "s2"), ("s2", "s1")] * 2
    return CycleAssignment(
        cycles={"w": _cycle("A", abab), "A": _cycle("w", abab)}
    )


SEED_CYCLES = {
    "example1": example1_cycles,
    "example": example_cycles,
}
