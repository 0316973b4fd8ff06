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

The boundary of a saddle's domain is then read off by a walk in four-step
blocks from an attractor-side beginning band (saddle on the right): glue,
advance to index+1 (an end band, saddle on the left), glue, advance to
index-1, until the walk is back at its start.  In both advances the end band
sits at the beginning band's index plus one, the single indexation axiom.
Partners are chosen lazily during the walk, first available in index order,
which is what makes the length-4 cycle example close into one long boundary
component instead of two short ones.  Every walk closes without repeating a
band: a band gets its partner once and advancing is a bijection, so the
block map is injective and its orbits are disjoint cycles; the sides
alternate because the queues match attractor-side bands with repeller-side
bands only.  Unchained cycles can only break the adjacency: an advance onto
a band not mentioning the saddle raises ``PreconditionViolated``.

The match queues and each saddle's starting bands are built in one pass over
the bands, so no step rescans all bands per saddle.
"""

from __future__ import annotations

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


def glue_bands(assignment: CycleAssignment, order: FiniteOrder):
    """Match bands across sides and walk out every saddle's boundary cycles.

    Saddles are processed in canonical order; bands mentioning the current
    saddle are matched on demand while its boundary is walked, taking the
    first not-yet-matched compatible band in index order.  Returns the
    complete gluing and a map from saddle to its boundary cycles; raises
    ``StarViolated`` when some band finds no partner and
    ``PreconditionViolated`` when a four-step walk drifts off the saddle.
    """
    _, saddle_mask, _ = order._role_masks()
    saddles = sorted(compress(order.elements, _flags(saddle_mask)))
    bands = bands_of(assignment)
    is_attractor = {owner: not order.down_set(owner) for owner in assignment.owners()}
    cycle_len = {owner: len(assignment.cycle(owner)) for owner in assignment.owners()}

    # one pass in key order: the bands of each type and side waiting for a
    # partner, and each saddle's attractor-side bands that begin at it
    queues: dict = {}
    starts: dict = {}
    for key, t in bands.items():
        attr = is_attractor[key[0]]
        gid = _band_type(key[0], t, attr)
        queues.setdefault((gid, 0 if attr else 1), []).append(key)
        if attr:
            starts.setdefault(t.right, []).append(key)
    # an iterator per queue drops already matched bands from its front
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

    walked: set = set()  # attractor-side beginning bands already walked
    cycles: dict = {s: [] for s in saddles}

    for saddle in saddles:
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
            cycles[saddle].append(tuple(seq))

    unmatched = sorted(k for k in bands if k not in partner)
    if unmatched:
        raise StarViolated(f"bands left unmatched: {unmatched}")

    gluing = tuple(sorted((a, partner[a]) for a in bands if is_attractor[a[0]]))
    return gluing, {s: tuple(cs) for s, cs in cycles.items()}


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
    cycles: dict,
    assignment: CycleAssignment,
    order: FiniteOrder,
) -> list[str]:
    """Independently re-check the gluing and the boundary cycle axioms.

    Returns a list of violations (empty means pass): type compatibility and
    perfectness of the matching, membership of every listed band, the
    index+1 adjacency of every advance step, the partition of every
    saddle's bands by its cycles (each related band appears once, a self
    band twice, which also caps its appearances), and the global identity
    between the total boundary length and the band count.
    """
    problems = []
    bands = bands_of(assignment)
    is_attractor = {o: not order.down_set(o) for o in assignment.owners()}
    cycle_len = {o: len(assignment.cycle(o)) for o in assignment.owners()}
    related: dict = {}  # saddle -> keys of the bands that mention it, in key order
    for key, t in bands.items():
        for s in {t.left, t.right}:
            related.setdefault(s, []).append(key)

    partner: dict = {}  # a key in several pairs: the last pair wins
    seen_in_pairs: dict = {}
    for a, b in gluing:
        partner[a], partner[b] = b, a
        unknown = [k for k in (a, b) if k not in bands]
        problems += [f"matching references unknown band {k}" for k in unknown]
        if unknown:
            continue
        if not is_attractor.get(a[0], False) or is_attractor.get(b[0], True):
            problems.append(f"pair {a}~{b} does not join the two sides")
        ta, tb = bands[a], bands[b]
        if (ta.left, ta.right) != (tb.left, tb.right):
            problems.append(f"pair {a}~{b} joins incompatible types {ta} / {tb}")
        if ta.mediator != b[0] or tb.mediator != a[0]:
            problems.append(f"pair {a}~{b} crosses the wrong extremal pair")
        for k in (a, b):
            seen_in_pairs[k] = seen_in_pairs.get(k, 0) + 1
    for k in bands:
        if seen_in_pairs.get(k, 0) != 1:
            problems.append(f"band {k} is in {seen_in_pairs.get(k, 0)} pairs, not 1")

    total_len = 0
    for saddle in sorted(cycles):
        appearances: dict = {}
        for seq in cycles[saddle]:
            if len(seq) < 3 or seq[0] != seq[-1]:
                problems.append(f"{saddle}: cycle does not close on its first band")
                continue
            if len(seq) % 2 == 0:
                problems.append(f"{saddle}: cycle body has an odd band count {len(seq) - 1}")
            length = _length(seq)
            if length % 2 != 0:
                problems.append(f"{saddle}: odd boundary length {length}")
            total_len += length
            body = seq[:-1]
            for key in body:
                if key not in bands:
                    problems.append(f"{saddle}: unknown band {key} in cycle")
                    break
                t = bands[key]
                if saddle not in (t.left, t.right):
                    problems.append(f"{saddle}: band {key} of type {t} unrelated")
                appearances[key] = appearances.get(key, 0) + 1
            else:
                for i in range(len(seq) - 1):
                    cur, nxt = seq[i], seq[i + 1]
                    if i % 2 == 0:  # glue step
                        if partner.get(cur) != nxt:
                            problems.append(
                                f"{saddle}: step {cur}->{nxt} is not a glued pair"
                            )
                    else:  # advance step at one extremal point
                        if cur[0] != nxt[0]:
                            problems.append(
                                f"{saddle}: advance {cur}->{nxt} changes extremal point"
                            )
                            continue
                        n = cycle_len[cur[0]]
                        # the walk starts on a beginning band, so positions
                        # 0,1 mod 4 are beginning kind and 2,3 are end kind
                        end_first = i % 4 == 3
                        beg_key, end_key = (nxt, cur) if end_first else (cur, nxt)
                        if (beg_key[1] + 1) % n != end_key[1] % n:
                            problems.append(
                                f"{saddle}: advance {cur}->{nxt} breaks the"
                                " end = beginning + 1 rule"
                            )
        for key in related.get(saddle, ()):
            t = bands[key]
            expected = 2 if t.left == t.right else 1
            if appearances.get(key, 0) != expected:
                problems.append(
                    f"{saddle}: band {key} appears {appearances.get(key, 0)}"
                    f" times across its cycles, expected {expected}"
                )

    if total_len != assignment.total_bands():
        problems.append(
            f"total boundary length {total_len} differs from band count"
            f" {assignment.total_bands()}"
        )
    return problems
