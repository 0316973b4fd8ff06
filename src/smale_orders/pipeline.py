"""End-to-end realization pipeline and certificate re-verification.

``realize`` runs connectivity -> cycles -> balancing (external cycles
only) -> band gluing -> profile repair -> domain selection -> assembly and
returns a certificate.  ``verify_certificate`` recomputes the domains from
the stored boundary cycles, re-assembles the certificate from its stored
stage data with the same ``assemble`` and reports every field that differs,
so certificates can be re-checked after serialization by an independent
process.

The stages validate their inputs and build; none re-checks its own output.
The invariants every correct construction satisfies (cycle conditions,
boundary-cycle axioms, even chi at most 2) are checked in one place,
``_invariant_problems``, on a certificate that ``assemble`` built; star
balance, 2E = band count and the band appearance cap follow from the first
two.  ``realize`` runs the check once and raises ``BrokenInvariant``,
an ``AssertionError`` that names the stage, on any problem, and
``verify_certificate`` runs it on the re-assembled certificate.  ``_domain``
turns one saddle's boundary cycles into its domain spec and repair log for
both.  A stored order is not reloaded: every ``FiniteOrder`` comes from
``load_order``, ``from_down_sets`` or ``restrict``, so its relation is
closed and its covers derived.
"""

from __future__ import annotations

from .assemble import RealizationCertificate, assemble
from .bands import boundary_profile, glue_bands, verify_boundary_cycles
from .cycles import CycleAssignment, _doubled_euler_cycles, assignment_problems, balance_cycles
from .domains import (
    DomainSpec,
    LengthProfile,
    RepairLog,
    check_constructible,
    repair_profile,
)
from .errors import (
    BrokenInvariant,
    ConnectivityFailure,
    MalformedCertificate,
    MalformedCycles,
    MalformedOrder,
)
from .order import FiniteOrder, check_connectivity, load_order


def realize(
    order: FiniteOrder, assignment: CycleAssignment | None = None
) -> RealizationCertificate:
    """Realize the order, or raise ConnectivityFailure naming the obstacle.

    An externally supplied cycle assignment must cover exactly the extremal
    elements outside north-south pairs and satisfy the cycle conditions; it
    is balanced before gluing.  By default the doubled Euler-circuit cycles
    are built, which are balanced by construction.

    Connectivity is checked once, on the whole order, and that covers the
    core.  In an order that passes, a north-south pair ``a > b`` is a
    two-element component: anything else below ``a`` would be incomparable
    to ``b``, which is minimal and covered by ``a``, and so leave ``b``
    unconnected in the down-set of ``a``; likewise above ``b``.  Removing
    the pair leaves every other extremal element with the same up- or
    down-set.
    """
    report = check_connectivity(order)
    if not report.passed:
        raise ConnectivityFailure(
            f"connectivity condition fails at {', '.join(report.failures())}",
            report=report,
        )

    core = _core(order)
    if assignment is None:
        assignment = _doubled_euler_cycles(core)
    else:
        assignment = balance_cycles(assignment, core)
    gluing, boundary = glue_bands(assignment, core)

    domains, repairs = {}, {}
    for saddle in sorted(boundary):
        domains[saddle], repairs[saddle] = _domain(boundary[saddle])

    certificate = assemble(order, assignment, gluing, boundary, domains, repairs)
    problems = _invariant_problems(certificate, core)
    if problems:
        raise BrokenInvariant(
            "invariants", "construction invariants broken: " + "; ".join(problems)
        )
    return certificate


def _core(order: FiniteOrder) -> FiniteOrder:
    """The order without its north-south pairs; the cycles live on it."""
    ns_elements = {e for pair in order.north_south_pairs for e in pair}
    return order.restrict(set(order.elements) - ns_elements) if ns_elements else order


def _domain(cycles) -> tuple[DomainSpec, RepairLog]:
    """Domain spec and repair log for one saddle's boundary cycles; the
    repaired profile is always constructible."""
    repaired, log = repair_profile(LengthProfile(boundary_profile(cycles)))
    return check_constructible(repaired)[1], log


def _invariant_problems(cert: RealizationCertificate, core: FiniteOrder) -> list[str]:
    """Every invariant a correct construction satisfies, each checked once,
    on a certificate that ``assemble`` built, with or without cycles.

    Three more follow when the cycle and boundary checks pass.  Star
    balance: each attractor band (om, mediator al, k -> l) is paired one to
    one with a repeller band (al, mediator om, k -> l), so a_kl = r_kl, and
    conditions 1 and 2 give a_kl = a_lk.  2E = band count: every band is in
    exactly one pair of two known bands, and ``edge_count`` counts pairs.
    Appearance cap: a band related to a saddle appears exactly its cap in
    the re-traced walk, which visits only bands related to the saddle, and
    the stored cycles must equal that walk.  The chi checks stay: nothing
    above gives them, nor do the components give the total, as a boundary
    entry named outside the order counts in the total chi but in no
    component's.
    """
    problems = assignment_problems(cert.assignment, core)
    problems += verify_boundary_cycles(cert.gluing, cert.boundary, cert.assignment, core)
    if cert.chi % 2:
        problems.append(f"odd Euler characteristic {cert.chi}")
    if cert.connected and cert.chi > 2:
        problems.append(f"Euler characteristic {cert.chi} exceeds 2")
    for comp in cert.components:
        if comp.chi % 2:
            problems.append(f"component {comp.elements} has odd chi")
        if comp.chi > 2:
            problems.append(f"component {comp.elements} chi {comp.chi} exceeds 2")
    return problems


# --------------------------------------------------------------------------
# re-verification and (de)serialization
# --------------------------------------------------------------------------


def verify_certificate(cert: RealizationCertificate) -> list[str]:
    """Re-derive the certificate from its own stage data and list every
    difference and every broken invariant.

    The domains and repair logs are recomputed from the stored boundary
    cycles; ``assemble`` then rebuilds the summary from the stored order,
    cycles, gluing and boundary cycles, and each field of the stored
    certificate is compared with the rebuilt one.  Stored summary values are
    only compared, never computed with.
    """
    problems = []
    order = cert.order
    report = check_connectivity(order)
    if not report.passed:
        problems.append(f"order fails connectivity at {report.failures()}")

    domains, repairs = {}, {}
    for saddle in sorted(cert.boundary):
        try:
            domains[saddle], repairs[saddle] = _domain(cert.boundary[saddle])
        except ValueError as exc:  # no valid length profile
            problems.append(f"boundary cycles of {saddle} give no domain: {exc}")

    # the invariants look up every owner in the core order and the assembly
    # every element a transition names; an owner in the core that is not
    # extremal is reported by the invariants, an extremal one without a
    # cycle here
    core = _core(order)
    owners, elements = set(cert.assignment.owners()), set(core.elements)
    missing = sorted(set(core.maximal_elements + core.minimal_elements) - owners)
    if missing:
        problems.append(f"extremal elements {', '.join(missing)} have no cycle")
    strays = sorted(owners - elements)
    if strays:
        return problems + [
            f"cycle owners {', '.join(strays)} are not elements of the core order"
        ]
    named = {e for owner in owners for t in cert.assignment.cycle(owner) for e in t}
    strays = sorted(named - elements)
    if strays:
        return problems + [
            f"cycle transitions name {', '.join(strays)}, which are not elements"
            " of the core order"
        ]

    rebuilt = assemble(order, cert.assignment, cert.gluing, cert.boundary, domains, repairs)
    problems += [
        f"stored field {name} differs from the re-assembled certificate"
        for name, stored, derived in zip(cert._fields, cert, rebuilt)
        if stored != derived
    ]
    return problems + _invariant_problems(rebuilt, core)


_KIND_NAMES = {dict: "an object", list: "an array", int: "an integer", bool: "a boolean"}


def _field(doc: dict, key: str, kind: type | None = None, path: str = ""):
    """doc[key], which must exist and, given a kind, be of that JSON type
    (dict, list, int or bool); otherwise MalformedCertificate names the path."""
    where = f"{path}.{key}" if path else key
    if key not in doc:
        raise MalformedCertificate(f"{where}: missing")
    return _of_kind(doc[key], kind, where)


def _of_kind(value, kind: type | None, where: str):
    if kind is not None and type(value) is not kind:  # True is no integer here
        raise MalformedCertificate(f"{where}: expected {_KIND_NAMES[kind]}")
    return value


def _items(doc: dict, key: str, kind: type, path: str = "") -> list:
    """The array doc[key], every item of which must be of the given kind;
    the path is formatted only for a wrong item, as repair logs are long."""
    items = _field(doc, key, list, path)
    for i, item in enumerate(items):
        if type(item) is not kind:
            _of_kind(item, kind, f"{path}.{key}[{i}]" if path else f"{key}[{i}]")
    return items


def _read(read, value, where: str):
    """read(value) by a nested reader or an enum, its errors naming the JSON
    path from the top of the certificate."""
    try:
        return read(value)
    except (MalformedOrder, MalformedCycles) as exc:  # from a path inside value
        raise type(exc)(f"{where}.{exc}") from None
    except ValueError as exc:  # "'x' is not a valid Role"
        raise MalformedCertificate(f"{where}: {exc}") from None


def _band_key(value, where: str) -> tuple[str, int]:
    """A band key, stored as an [owner, index] array."""
    if not (isinstance(value, list) and len(value) == 2 and isinstance(value[0], str)):
        raise MalformedCertificate(f"{where}: expected an [owner, index] array")
    return value[0], _of_kind(value[1], int, f"{where}[1]")


def certificate_from_dict(data: dict) -> RealizationCertificate:
    """Rebuild a certificate from its serialized form.  A key that is
    missing or holds a value of the wrong JSON type raises
    ``MalformedCertificate`` (or, inside ``order`` and ``cycles``,
    ``MalformedOrder`` and ``MalformedCycles``) naming the JSON path."""
    from .domains import Recipe, RecipeKind, RepairOp, RepairStep
    from .assemble import ComponentSummary
    from .order import RoleMap, Role

    _of_kind(data, dict, "top level")
    # only type-checked: the CLI's re-serialization check compares the value
    _of_kind(data.get("schema_version", 0), int, "schema_version")
    order_doc = _field(data, "order", dict)
    order = _read(
        load_order,
        {
            "elements": _field(order_doc, "elements", path="order"),
            "relations": _field(order_doc, "relations", path="order"),
        },
        "order",
    )
    roles = RoleMap(
        roles={
            e: _read(Role, v, f"roles.{e}") for e, v in _field(data, "roles", dict).items()
        },
        generations={
            e: _of_kind(g, int, f"generations.{e}")
            for e, g in _field(data, "generations", dict).items()
        },
    )
    assignment = _read(CycleAssignment.from_dict, _field(data, "cycles", dict), "cycles")
    pairs = []
    for i, pair in enumerate(_items(data, "gluing", list)):
        if len(pair) != 2:
            raise MalformedCertificate(f"gluing[{i}]: expected a pair of band keys")
        pairs.append(tuple(_band_key(k, f"gluing[{i}][{j}]") for j, k in enumerate(pair)))
    gluing = tuple(sorted(pairs))
    boundary_docs = _field(data, "boundary_cycles", dict)
    boundary = {
        s: tuple(
            tuple(_band_key(k, f"boundary_cycles.{s}[{i}][{j}]") for j, k in enumerate(seq))
            for i, seq in enumerate(_items(boundary_docs, s, list, "boundary_cycles"))
        )
        for s in boundary_docs
    }
    domains = {}
    for s, d in _field(data, "domains", dict).items():
        where = f"domains.{s}"
        recipe_doc = _field(_of_kind(d, dict, where), "recipe", dict, where)
        at = f"{where}.recipe"
        recipe = Recipe(
            kind=_read(RecipeKind, _field(recipe_doc, "kind", path=at), f"{at}.kind"),
            prongs=tuple(_items(recipe_doc, "prongs", int, at)),
            saddle_openings=_field(recipe_doc, "saddle_openings", int, at),
        )
        domains[s] = DomainSpec(
            profile=LengthProfile(tuple(_items(d, "profile", int, where))),
            genus=_field(d, "genus", int, where),
            recipe=recipe,
        )
    repairs = {}
    repair_docs = _field(data, "repairs", dict)
    for s in repair_docs:
        steps = []
        for i, step in enumerate(_items(repair_docs, s, dict, "repairs")):
            where = f"repairs.{s}[{i}]"
            steps.append(
                RepairStep(
                    op=_read(RepairOp, _field(step, "op", path=where), f"{where}.op"),
                    before=tuple(_items(step, "before", int, where)),
                    after=tuple(_items(step, "after", int, where)),
                )
            )
        if steps:
            repairs[s] = RepairLog(steps=tuple(steps))
    genus = _field(data, "genus")  # null for a disconnected assembly
    return RealizationCertificate(
        order=order,
        roles=roles,
        assignment=assignment,
        gluing=gluing,
        boundary=boundary,
        domains=domains,
        repairs=repairs,
        north_south=tuple(tuple(p) for p in _items(data, "north_south", list)),
        handle_pairs=tuple(tuple(p) for p in _items(data, "handles", list)),
        vertex_count=_field(data, "vertex_count", int),
        edge_count=_field(data, "edge_count", int),
        handle_count=_field(data, "handle_count", int),
        repair_extra_pairs=_field(data, "repair_extra_pairs", int),
        chi=_field(data, "chi", int),
        connected=_field(data, "connected", bool),
        genus=None if genus is None else _of_kind(genus, int, "genus"),
        components=tuple(
            ComponentSummary(
                elements=tuple(_field(c, "elements", list, f"components[{i}]")),
                chi=_field(c, "chi", int, f"components[{i}]"),
                genus=_field(c, "genus", int, f"components[{i}]"),
            )
            for i, c in enumerate(_items(data, "components", dict))
        ),
        notes=tuple(_field(data, "notes", list)),
    )
