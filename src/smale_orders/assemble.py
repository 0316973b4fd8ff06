"""Certificate assembly: Euler characteristic, genus, handles, plug plans.

The glued closed surface decomposes into the extremal points (vertices),
the glued band pairs (edges joining a repeller point to an attractor point)
and the saddle domains (faces carrying genus).  Hence

    chi = sum(2 - 2*genus_i - s_i) + V - E - 2*H

over the saddle domains with s_i boundary circles, where H counts the
handles added for saddle-saddle cover relations.  Domain repairs add glued
pairs that the executed gluing does not carry, so the chi computation uses
the edge count plus the repair surplus; the raw matched-pair count E is kept
as its own field.  ``assemble`` is the one place this summary is derived,
for ``realize`` and for ``verify_certificate`` alike.

A cover pair joining a maximal directly to a minimal element is realized as
a separate sphere with a north-south map; such pairs always form their own
two-element component of the order, so they simply contribute sphere
components to the assembly.
"""

from __future__ import annotations

from typing import NamedTuple

from .cycles import CycleAssignment
from .domains import DomainSpec, RepairLog
from .order import FiniteOrder, Role, RoleMap, _linked_components, classify

TOOL_VERSION = "0.1.0"
SCHEMA_VERSION = 1


class ComponentSummary(NamedTuple):
    elements: tuple[str, ...]
    chi: int
    genus: int

    def to_dict(self) -> dict:
        return {"elements": list(self.elements), "chi": self.chi, "genus": self.genus}


class RealizationCertificate(NamedTuple):
    order: FiniteOrder
    roles: RoleMap
    assignment: CycleAssignment
    gluing: tuple  # sorted ((attractor band key, repeller band key), ...)
    boundary: dict  # saddle -> boundary cycles, band-key tuples closing on their first key
    domains: dict  # saddle -> DomainSpec
    repairs: dict  # saddle -> RepairLog
    north_south: tuple
    handle_pairs: tuple
    vertex_count: int
    edge_count: int
    handle_count: int
    repair_extra_pairs: int
    chi: int
    connected: bool
    genus: int | None
    components: tuple
    notes: tuple

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "tool_version": TOOL_VERSION,
            # the one band matching rule: first unmatched compatible band
            "matching_strategy": "first-compatible",
            "order": self.order.to_dict(),
            "roles": {e: r.value for e, r in sorted(self.roles.roles.items())},
            "generations": dict(sorted(self.roles.generations.items())),
            "cycles": self.assignment.to_dict(),
            "gluing": [[list(a), list(b)] for a, b in self.gluing],
            "boundary_cycles": {
                s: [[list(k) for k in c] for c in cs] for s, cs in sorted(self.boundary.items())
            },
            "profiles": {
                s: list(spec.profile.lengths) for s, spec in sorted(self.domains.items())
            },
            "domains": {s: spec.to_dict() for s, spec in sorted(self.domains.items())},
            "repairs": {s: log.to_list() for s, log in sorted(self.repairs.items())},
            "north_south": [list(p) for p in self.north_south],
            "handles": [list(p) for p in self.handle_pairs],
            "vertex_count": self.vertex_count,
            "edge_count": self.edge_count,
            "handle_count": self.handle_count,
            "repair_extra_pairs": self.repair_extra_pairs,
            "chi": self.chi,
            "connected": self.connected,
            "genus": self.genus,
            "components": [c.to_dict() for c in self.components],
            "notes": list(self.notes),
        }


def _incidence_components(order, assignment, north_south):
    """Connected pieces of the assembled surface.

    Nodes are extremal points and saddle domains; a saddle is tied to every
    extremal whose cycle mentions it, and a north-south pair ties its two
    points directly.
    """
    links = [
        (owner, s)
        for owner in assignment.owners()
        for t in assignment.cycle(owner)
        for s in (t.left, t.right)
    ]
    comps = _linked_components(order.elements, links + list(north_south))
    return tuple(sorted(tuple(sorted(c)) for c in comps))


def _chi_of(domains, repairs, vertex_count, edge_count, handle_count):
    total = vertex_count - edge_count - 2 * handle_count
    for s in domains:
        spec = domains[s]
        total += 2 - 2 * spec.genus - spec.profile.s
    total -= sum(log.extra_band_pairs for log in repairs.values())
    return total


def assemble(
    order: FiniteOrder,
    assignment: CycleAssignment,
    gluing: tuple,
    boundary: dict,
    domains: dict,
    repairs: dict,
) -> RealizationCertificate:
    """Derive the whole certificate summary from the stage data.

    Counts, handles, chi, genus, components and notes are computed here and
    nowhere else, from the boundary cycles re-traced from the gluing;
    ``realize``, ``verify_certificate`` and ``verify_document`` all reach
    it through the same re-derivation, ``pipeline._rederive``.

    One handle is added per saddle-saddle cover pair (relations between
    non-cover saddle pairs follow from transitivity), dropping chi by two.
    It stands for an attracting perturbation at the greater saddle, a
    repelling one at the lesser, and a regluing along the freed annulus that
    makes their invariant manifolds cross.
    """
    roles = classify(order)
    repairs = {s: log for s, log in repairs.items() if log.steps}
    north_south = order.north_south_pairs
    handle_pairs = order.saddle_cover_pairs
    vertex_count = len(roles.extremals())
    edge_count = len(gluing)
    extra = sum(log.extra_band_pairs for log in repairs.values())
    chi = _chi_of(domains, repairs, vertex_count, edge_count, len(handle_pairs))

    comps = _incidence_components(order, assignment, north_south)
    summaries = []
    for comp in comps:
        comp_set = set(comp)
        v = sum(1 for e in comp if roles.roles[e] is not Role.SADDLE)
        e_cnt = sum(1 for a, b in gluing if a[0] in comp_set)
        h = sum(1 for a, b in handle_pairs if a in comp_set)
        comp_domains = {s: domains[s] for s in domains if s in comp_set}
        comp_repairs = {s: repairs[s] for s in repairs if s in comp_set}
        c = _chi_of(comp_domains, comp_repairs, v, e_cnt, h)
        summaries.append(ComponentSummary(elements=comp, chi=c, genus=(2 - c) // 2))
    connected = len(comps) <= 1

    notes = []
    for a, b in north_south:
        notes.append(
            f"cover pair {a} > {b} has no mediating saddle; realized as a"
            " separate sphere with a north-south map"
        )
    if extra:
        notes.append(
            f"profile repairs add {extra} glued band pairs beyond the executed"
            " gluing; the edge count field keeps the executed matching size"
        )
    if not connected:
        notes.append(
            f"assembly is disconnected ({len(comps)} surface components);"
            " per-component characteristics listed"
        )
    for a, b in handle_pairs:
        notes.append(
            f"handle for {a} > {b}: attracting perturbation at {a}, repelling"
            f" at {b}, glued along the freed annulus"
        )

    return RealizationCertificate(
        order=order,
        roles=roles,
        assignment=assignment,
        gluing=gluing,
        boundary=boundary,
        domains=domains,
        repairs=repairs,
        north_south=north_south,
        handle_pairs=handle_pairs,
        vertex_count=vertex_count,
        edge_count=edge_count,
        handle_count=len(handle_pairs),
        repair_extra_pairs=extra,
        chi=chi,
        connected=connected,
        genus=(2 - chi) // 2 if connected else None,
        components=tuple(summaries),
        notes=tuple(notes),
    )


# --------------------------------------------------------------------------
# plug plans
# --------------------------------------------------------------------------


class PlugPlan(NamedTuple):
    """Per-element plug sizes and the gluing schedule over cover pairs.

    Saddle-saddle gluings can be made transverse; gluings touching an
    attractor or repeller only promise that unstable meets stable manifolds
    somewhere (the weaker crossing axiom).  The same plan drives the flow
    construction unchanged.
    """

    plugs: dict  # element -> (entry count, exit count)
    schedule: tuple  # ((parent, exit index), (child, entry index), flag)

    def to_dict(self) -> dict:
        return {
            "plugs": {
                e: {"entries": n, "exits": m} for e, (n, m) in sorted(self.plugs.items())
            },
            "schedule": [
                {
                    "exit": [a, i],
                    "entry": [b, j],
                    "transversality": flag,
                }
                for (a, i), (b, j), flag in self.schedule
            ],
            "flow_compatible": True,
        }


def plan_plugs(order: FiniteOrder) -> PlugPlan:
    """Size one plug per element by its cover degree and schedule gluings.

    Every element gets a plug with one useful entrance per cover parent and
    one useful exit per cover child; every cover pair consumes exactly one
    exit of the parent and one entrance of the child.
    """
    roles = classify(order)
    plugs = {
        e: (len(order.cover_parents(e)), len(order.cover_children(e)))
        for e in order.elements
    }
    next_exit = {e: 0 for e in order.elements}
    next_entry = {e: 0 for e in order.elements}
    schedule = []
    for a, b in sorted(order.covers):
        flag = (
            "transverse"
            if roles.roles[a] is Role.SADDLE and roles.roles[b] is Role.SADDLE
            else "axiom-b"
        )
        schedule.append(((a, next_exit[a]), (b, next_entry[b]), flag))
        next_exit[a] += 1
        next_entry[b] += 1
    return PlugPlan(plugs=plugs, schedule=tuple(schedule))
