"""Band gluing and boundary cycles.

Every transition slot in an extremal element's cycle is a band: one half of
a translation band running from a repeller down to an attractor.  A band is
named by its key ``(owner, index)`` and is the cycle's own ``Transition`` at
that slot.  The results are plain tuples too: the gluing is the sorted tuple
of ``(attractor band key, repeller band key)`` pairs, and a boundary cycle is
the tuple of the band keys its walk visits, its first key repeated at the
end.  Gluing matches each attractor-side band with a repeller-side
band of the same type (same ordered saddle pair, mediators crossed).  For
cycles satisfying conditions 1 and 2 such a perfect matching exists exactly
when the star balance holds, so the matching itself detects an unbalanced
assignment: a band left without a partner raises ``StarViolated``.

The boundary of a saddle's domain is then read off by one walk, ``_walk``,
in four-step blocks from an attractor-side beginning band (saddle on the
right): glue, advance to index+1 (an end band, saddle on the left), glue,
advance to index-1, until the walk is back at its start.  In both advances
the end band sits at the beginning band's index plus one, the single
indexation axiom.  ``glue_bands`` chooses partners lazily during the walk,
first available in index order, which is what makes the length-4 cycle
example close into one long boundary component instead of two short ones;
it returns the gluing and the cycles that walk traced.
``verify_boundary_cycles`` checks a gluing and, unless it is handed those
cycles, walks it again: ``realize`` walks each boundary once, inside
``glue_bands``, and both verifiers re-walk the stored gluing from scratch.
Every walk closes without repeating a band: a band gets its
partner once and advancing is a bijection, so the block map is injective
and its orbits are disjoint cycles; the sides alternate because a partner
is always on the other side.  Unchained cycles can only break the
adjacency: an advance onto a band not mentioning the saddle raises
``PreconditionViolated``.
"""

from __future__ import annotations

from collections import Counter
from itertools import compress

from .errors import PreconditionViolated, StarViolated
from .order import FiniteOrder, _flags
from .cycles import CycleAssignment, _band_type

BandKey = tuple[str, int]


def bands_of(assignment: CycleAssignment) -> dict:
    """The transition in each band slot, keyed ``(owner, index)``, in key order.

    A dict, not a list per owner: a key from an untrusted certificate such
    as ``("w", -1)`` is an unknown band, not the last one.
    """
    return {
        (owner, i): t
        for owner in assignment.owners()
        for i, t in enumerate(assignment.cycle(owner))
    }


def glue_bands(assignment: CycleAssignment, order: FiniteOrder) -> tuple:
    """Match bands across sides in the order the boundary walks need them.

    A band is matched when ``_walk`` first needs its partner, to the first
    not-yet-matched compatible band in index order.  Returns the complete
    gluing and every core saddle's boundary cycles as that walk traced
    them (see ``_walk``); raises ``StarViolated`` when some band finds no
    partner and ``PreconditionViolated`` when a four-step walk drifts off
    the saddle.
    """
    bands = bands_of(assignment)
    is_attractor = {owner: not order.down_set(owner) for owner in assignment.owners()}
    cycle_len = {owner: len(assignment.cycle(owner)) for owner in assignment.owners()}

    # the bands of each type and side waiting for a partner, in key order;
    # an iterator per queue drops already matched bands from its front
    queues: dict = {}
    for key, t in bands.items():
        attr = is_attractor[key[0]]
        gid = _band_type(key[0], t, attr)
        queues.setdefault((gid, 0 if attr else 1), []).append(key)
    queues = {q: iter(keys) for q, keys in queues.items()}

    partner: dict = {}

    def partner_of(key: BandKey) -> BandKey:
        if key in partner:
            return partner[key]
        t = bands[key]
        attr = is_attractor[key[0]]
        gid = _band_type(key[0], t, attr)
        for cand in queues.get((gid, 1 if attr else 0), ()):
            if cand not in partner:
                partner[key] = cand
                partner[cand] = key
                return cand
        raise StarViolated(f"no compatible partner left for band {key} of type {t}")

    cycles = _walk(order, bands, is_attractor, cycle_len, partner_of)

    unmatched = sorted(k for k in bands if k not in partner)
    if unmatched:
        raise StarViolated(f"bands left unmatched: {unmatched}")

    return tuple(sorted((a, partner[a]) for a in bands if is_attractor[a[0]])), cycles


def _walk(order: FiniteOrder, bands: dict, is_attractor: dict, cycle_len: dict, partner_of):
    """Every core saddle's boundary cycles under ``partner_of``, a dict from
    saddle to a tuple of cycles.  The walks start on the saddle's unwalked
    attractor-side beginning bands in key order; a drift off the saddle
    raises ``PreconditionViolated``."""
    starts: dict = {}  # saddle -> attractor-side bands beginning at it
    for key, t in bands.items():
        if is_attractor[key[0]]:
            starts.setdefault(t.right, []).append(key)
    _, saddle_mask, _ = order._role_masks()
    walked: set = set()
    cycles: dict = {}
    for saddle in sorted(compress(order.elements, _flags(saddle_mask))):
        found = []
        for start in starts.get(saddle, ()):
            if start in walked:
                continue
            cur, seq = start, [start]
            while True:
                walked.add(cur)
                for step in (1, -1):  # onto an end band, then a beginning band
                    glued = partner_of(cur)
                    owner, idx = glued
                    cur = (owner, (idx + step) % cycle_len[owner])
                    t = bands[cur]
                    if (t.left if step == 1 else t.right) != saddle:
                        raise PreconditionViolated(
                            f"boundary walk for {saddle} drifted to band {cur}:"
                            " the cycles are not chained"
                        )
                    seq += [glued, cur]
                if cur == start:
                    break
            found.append(tuple(seq))
        cycles[saddle] = tuple(found)
    return cycles


def _length(cycle: tuple) -> int:
    """Glued pairs per circuit of a boundary cycle: its band keys after
    identifying the repeated endpoint, divided by two (glue and advance
    steps alternate)."""
    return (len(cycle) - 1) // 2


def boundary_profile(cycles) -> tuple[int, ...]:
    """Multiset of boundary cycle lengths, largest first."""
    return tuple(sorted(map(_length, cycles), reverse=True))


def verify_boundary_cycles(
    gluing: tuple,
    assignment: CycleAssignment,
    order: FiniteOrder,
    walked: dict | None = None,
) -> tuple[list[str], dict | None]:
    """Independently re-check the gluing and re-trace the boundary cycles.

    Returns the list of violations (empty means pass) and every core
    saddle's boundary cycles, which are None on a violation.  The matching
    must be perfect and type compatible: every pair joins two known bands of
    the same saddle pair on opposite sides with crossed mediators, and every
    band is in exactly one pair; if it is not, those problems are returned.
    Otherwise ``_walk`` re-traces every saddle's boundary from the gluing
    (on a perfect matching every walk closes; a walk that drifts off its
    saddle is the one problem returned), unless ``walked`` holds the cycles
    that ``glue_bands`` traced while choosing this gluing: those are
    returned as they are (``pipeline._rederive`` says why they are the
    re-trace).
    """
    problems = []
    bands = bands_of(assignment)
    is_attractor = {o: not order.down_set(o) for o in assignment.owners()}

    partner: dict = {}  # a key in several pairs: the last pair wins
    paired = []  # the keys of the pairs of two known bands
    for a, b in gluing:
        partner[a], partner[b] = b, a
        if a not in bands or b not in bands:
            problems += [
                f"matching references unknown band {k}" for k in (a, b) if k not in bands
            ]
            continue
        if not is_attractor.get(a[0], False) or is_attractor.get(b[0], True):
            problems.append(f"pair {a}~{b} does not join the two sides")
        ta, tb = bands[a], bands[b]
        if (ta.left, ta.right) != (tb.left, tb.right):
            problems.append(f"pair {a}~{b} joins incompatible types {ta} / {tb}")
        if ta.mediator != b[0] or tb.mediator != a[0]:
            problems.append(f"pair {a}~{b} crosses the wrong extremal pair")
        paired += a, b
    seen_in_pairs = Counter(paired)
    for k in bands:
        if seen_in_pairs[k] != 1:
            problems.append(f"band {k} is in {seen_in_pairs[k]} pairs, not 1")
    if problems:
        return problems, None
    if walked is not None:
        return [], walked

    cycle_len = {o: len(assignment.cycle(o)) for o in assignment.owners()}
    try:
        return [], _walk(order, bands, is_attractor, cycle_len, partner.__getitem__)
    except PreconditionViolated as exc:
        return [str(exc)], None
