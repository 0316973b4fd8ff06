"""Cycles of bands around extremal elements.

Around every attractor the saddle domains related to it appear in a cyclic
order, consecutive domains being separated by a translation band coming down
from a repeller; symmetrically around every repeller.  Combinatorially a
cycle is a cyclic word of transitions ``left --mediator--> right`` chained so
that the right saddle of each position is the left saddle of the next.  A
transition is a plain ``(left, mediator, right)`` triple: the owner is the
key its cycle is stored under, so the triple is also its type, and it hashes,
compares, sorts and prints as that tuple.

A collection of cycles is usable for gluing when every band type
(attractor, repeller, ordered saddle pair) holds as many bands on the
attractor side as on the repeller side; ``_band_type`` names the type, which
:func:`balance_cycles` equalizes by splicing and ``glue_bands`` matches on.
"""

from __future__ import annotations

from itertools import compress
from typing import NamedTuple

from .errors import (
    ConnectivityFailure,
    MalformedCycles,
    NoMediator,
    NotExtremal,
    PreconditionViolated,
)
from .order import FiniteOrder, _flags, check_connectivity


class Transition(NamedTuple):
    """One band slot in an extremal element's cycle.

    For an attractor-owned cycle the mediator is a repeller above both
    saddles; for a repeller-owned cycle it is an attractor below both.
    """

    left: str
    mediator: str
    right: str

    __repr__ = tuple.__repr__  # messages print the bare triple

    def reversed(self) -> "Transition":
        return Transition(self.right, self.mediator, self.left)


class CycleAssignment(NamedTuple):
    """A cyclic word of transitions per extremal element (index origin 0)."""

    cycles: dict

    def owners(self) -> tuple[str, ...]:
        return tuple(sorted(self.cycles))

    def cycle(self, owner: str) -> tuple[Transition, ...]:
        return tuple(self.cycles[owner])

    def total_bands(self) -> int:
        return sum(len(c) for c in self.cycles.values())

    def to_dict(self) -> dict:
        return {owner: [list(t) for t in self.cycles[owner]] for owner in self.owners()}

    @staticmethod
    def from_dict(data: dict) -> "CycleAssignment":
        """Read the JSON form; a wrong shape raises ``MalformedCycles``."""
        if not isinstance(data, dict):
            raise MalformedCycles("top level: expected an object")
        cycles = {}
        for owner, word in data.items():
            if not isinstance(word, (list, tuple)):
                raise MalformedCycles(f"{owner}: expected an array of transitions")
            for i, item in enumerate(word):
                if not (
                    isinstance(item, (list, tuple))
                    and len(item) == 3
                    and all(isinstance(x, str) for x in item)
                ):
                    raise MalformedCycles(
                        f"{owner}[{i}]: expected a [left, mediator, right] triple"
                    )
            cycles[owner] = tuple(Transition(a, m, b) for a, m, b in word)
        return CycleAssignment(cycles=cycles)


# --------------------------------------------------------------------------
# admissibility
# --------------------------------------------------------------------------


def admissible_transitions(order: FiniteOrder, owner: str) -> frozenset[Transition]:
    """All transition types an extremal element's cycle may use.

    Around an attractor, ``k --m--> l`` is admissible for saddles ``k`` and
    ``l`` above it and every maximal ``m`` above both, the mask ``up[k] &
    up[l] & maximal``; such an ``m`` lies above the owner too.  Around a
    repeller it is the same with down masks and minimal elements.
    Self-transitions (same saddle on both sides) are included; they are
    always admissible because every related saddle shares some opposite
    extremal with itself.
    """
    i = order._index[owner]
    up, down = order._up[i], order._down[i]
    if up and down:
        raise NotExtremal(f"{owner!r} is a saddle, not an extremal element")
    if not up and not down:
        raise NotExtremal(f"{owner!r} is isolated")
    # attractor: saddles above, repellers mediate; repeller: the mirror image
    far = order._up if not down else order._down
    maxes, saddle_mask, mins = order._role_masks()
    ends = maxes if not down else mins
    names, related = order.elements, _flags(far[i] & saddle_mask)
    saddles = list(zip(compress(names, related), compress(far, related)))
    return frozenset(
        Transition(k, m, l)
        for k, far_k in saddles
        for l, far_l in saddles
        for m in compress(names, _flags(far_k & far_l & ends))
    )


# --------------------------------------------------------------------------
# validation of assignments
# --------------------------------------------------------------------------


def assignment_problems(assignment: CycleAssignment, order: FiniteOrder) -> list[str]:
    """All violations of the cycle typing rules and conditions 1 and 2.

    Condition 1 requires every admissible transition type between two
    distinct saddles to appear; self-transition types are optional (the
    minimal hand-picked assignments omit them).  Condition 2 requires the
    two directions between distinct saddles to appear equally often within
    each cycle.  Coverage requires every related saddle and every related
    opposite extremal to show up at least once.
    """
    problems = []
    for owner in assignment.owners():
        word = assignment.cycle(owner)
        if not word:
            problems.append(f"{owner}: empty cycle")
            continue
        try:
            admissible = admissible_transitions(order, owner)
        except NotExtremal as exc:
            problems.append(str(exc))
            continue
        for i, t in enumerate(word):
            if t not in admissible:
                problems.append(f"{owner}[{i}]: inadmissible transition {t}")
        n = len(word)
        for i, t in enumerate(word):
            nxt = word[(i + 1) % n]
            if t.right != nxt.left:
                problems.append(
                    f"{owner}[{i}]: chain break, right={t.right} next-left={nxt.left}"
                )
        seen_saddles = {t.left for t in word} | {t.right for t in word}
        seen_mediators = {t.mediator for t in word}
        related = order.up_set(owner) or order.down_set(owner)
        for e in sorted(related):
            is_saddle = bool(order.up_set(e)) and bool(order.down_set(e))
            if is_saddle and e not in seen_saddles:
                problems.append(f"{owner}: related saddle {e} never appears")
            if not is_saddle and e not in seen_mediators:
                problems.append(f"{owner}: related extremal {e} never mediates")
        counts: dict = {}
        for t in word:
            counts[t] = counts.get(t, 0) + 1
        for t in sorted(admissible):
            if t.left != t.right and t not in counts:
                problems.append(f"{owner}: admissible type {t} missing (condition 1)")
        for (k, m, l), c in sorted(counts.items()):
            if k < l and c != counts.get((l, m, k), 0):
                problems.append(
                    f"{owner}: {k}->{l} via {m} appears {c} times but the"
                    f" reverse appears {counts.get((l, m, k), 0)} (condition 2)"
                )
    return problems


def validate_assignment(assignment: CycleAssignment, order: FiniteOrder) -> None:
    problems = assignment_problems(assignment, order)
    if problems:
        raise PreconditionViolated("; ".join(problems))


# --------------------------------------------------------------------------
# construction
# --------------------------------------------------------------------------


def _euler_circuit(vertices, edges):
    """Deterministic directed Euler circuit; edges are Transition objects."""
    out: dict = {v: [] for v in vertices}
    for t in edges:
        out[t.left].append(t)
    for v in out:
        out[v].sort(key=lambda t: (t.mediator, t.right))
    start = min(v for v in vertices if out[v])
    ptr = {v: 0 for v in vertices}
    vstack, estack, circuit = [start], [], []
    while vstack:
        v = vstack[-1]
        if ptr[v] < len(out[v]):
            t = out[v][ptr[v]]
            ptr[v] += 1
            vstack.append(t.right)
            estack.append(t)
        else:
            vstack.pop()
            if estack:
                circuit.append(estack.pop())
    circuit.reverse()
    return circuit


def build_initial_cycles(order: FiniteOrder) -> CycleAssignment:
    """Construct cycles satisfying conditions 1 and 2 for every extremal.

    The cycle around an element is an Euler circuit of the directed
    multigraph whose vertices are the related saddles and whose edges are the
    admissible transition types, each taken together with its reverse.  The
    doubling makes in- and out-degrees equal and the two directions equally
    frequent.  The connectivity condition makes the multigraph connected, so
    the circuit exists: along a path through the comparability graph around
    the element, two comparable saddles, or two saddles comparable to one
    opposite extremal, make an admissible transition.  Every type then
    appears exactly twice, so the resulting assignment is already balanced
    across sides.
    """
    report = check_connectivity(order)
    if not report.passed:
        raise ConnectivityFailure(report)
    return _doubled_euler_cycles(order)


def _doubled_euler_cycles(order: FiniteOrder) -> CycleAssignment:
    """``build_initial_cycles`` on an order whose connectivity condition is
    known to hold.  Every owner gets a type: a related saddle s lies under
    a repeller (over an attractor) m, so s -m-> s is admissible; an owner
    without one has a related extremal that mediates nothing, and raises.
    """
    cycles = {}
    for owner in sorted(order.maximal_elements + order.minimal_elements):
        related = order.up_set(owner) or order.down_set(owner)
        types = sorted(admissible_transitions(order, owner))
        mediated = {t.mediator for t in types}
        for e in sorted(related):
            extremal = not (order.up_set(e) and order.down_set(e))
            if extremal and e not in mediated:
                raise NoMediator(
                    f"extremal {e} related to {owner} mediates no transition"
                )
        vertices = sorted({t.left for t in types})
        edges = []
        for t in types:
            edges.append(t)
            edges.append(t.reversed())
        cycles[owner] = tuple(_euler_circuit(vertices, edges))
    return CycleAssignment(cycles=cycles)


# --------------------------------------------------------------------------
# band types and balancing
# --------------------------------------------------------------------------


def _band_type(owner: str, t: Transition, attractor_side: bool) -> tuple:
    """``(attractor, repeller, left, right)`` of the band at a slot: an
    attractor-side band glues only to a repeller-side band of its type."""
    if attractor_side:
        return (owner, t.mediator, t.left, t.right)
    return (t.mediator, owner, t.left, t.right)


def _canonical_start(word) -> int:
    """Index starting the lexicographically least rotation of the cycle."""
    n = len(word)
    best, best_rot = 0, word
    for i in range(1, n):
        rot = word[i:] + word[:i]
        if rot < best_rot:
            best, best_rot = i, rot
    return best


def _anchor_position(word, saddle: str) -> int:
    """First position whose right endpoint is the anchor saddle, scanning
    from the canonical rotation start (rotation invariant)."""
    n = len(word)
    start = _canonical_start(word)
    for i in range(n):
        pos = (start + i) % n
        if word[pos].right == saddle:
            return pos
    raise PreconditionViolated(f"anchor saddle {saddle} does not occur")


def balance_cycles(assignment: CycleAssignment, order: FiniteOrder) -> CycleAssignment:
    """Give every band type as many attractor-side as repeller-side bands.

    The assignment must hold one cycle per extremal element outside the
    north-south pairs, and no other; then the cycle conditions are checked.
    Only the types with ``left <= right`` are counted: condition 2, checked
    first, makes each cycle hold as many ``l -> k`` bands as ``k -> l``
    ones, so the reverse types have the same gaps.  Gaps are resolved in
    sorted type order.  For distinct saddles k, l the deficient cycle
    receives the chained pair ``k -> l -> k`` (through its own mediator)
    right after an occurrence of k; for k = l a single self-transition is
    spliced in.  Each splice preserves chaining and conditions 1 and 2 and
    closes one unit of one gap, so the loop inserts exactly the initial
    gaps.  The result is not re-checked here: ``glue_bands`` finds a perfect
    matching only for a balanced assignment, and ``realize`` re-checks that
    matching.
    """
    ns_elements = {e for pair in order.north_south_pairs for e in pair}
    expected = set(order.maximal_elements + order.minimal_elements) - ns_elements
    if set(assignment.owners()) != expected:
        raise PreconditionViolated(
            f"assignment owners {sorted(assignment.owners())} do not"
            f" match the extremal elements {sorted(expected)}"
        )
    validate_assignment(assignment, order)
    cycles = {owner: list(assignment.cycle(owner)) for owner in assignment.owners()}
    gaps: dict = {}  # band type -> attractor-side minus repeller-side bands
    for owner, word in cycles.items():
        attractor = not order.down_set(owner)
        for t in word:
            if t.left <= t.right:
                key = _band_type(owner, t, attractor)
                gaps[key] = gaps.get(key, 0) + (1 if attractor else -1)
    for (om, al, k, l), gap in sorted(gaps.items()):
        target, mediator = (al, om) if gap > 0 else (om, al)
        for _ in range(abs(gap)):
            word = cycles[target]
            pos = _anchor_position(word, k)
            if k == l:
                insert = [Transition(k, mediator, k)]
            else:
                insert = [Transition(k, mediator, l), Transition(l, mediator, k)]
            word[pos + 1 : pos + 1] = insert
    return CycleAssignment(cycles={owner: tuple(word) for owner, word in cycles.items()})
