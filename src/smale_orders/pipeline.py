"""End-to-end realization pipeline and certificate re-verification.

``realize`` runs connectivity -> cycles -> balancing (external cycles
only) -> band gluing -> profile repair -> domain selection -> assembly and
returns a certificate.  Its order, cycles and gluing are its stage data;
every other field, the boundary cycles included, is derived from them by
one re-derivation, ``_rederive``: the cycle conditions, the matching check
and boundary walk of ``verify_boundary_cycles``, ``_domain`` per saddle,
``assemble`` and the chi checks.  ``realize`` builds the stage data and
builds the certificate through ``_rederive``; ``verify_certificate``
re-derives an in-memory certificate and compares it field by field;
``verify_document`` reads only the stage data of a serialized one and
compares the whole document with the re-derived JSON, so only the writers
(``to_dict``) know the derived fields' format.

The stages validate their inputs and build; none re-checks its own output.
The invariants every correct construction satisfies are checked in one
place, ``_rederive``; ``realize`` raises ``BrokenInvariant``, an
``AssertionError`` that names the stage, on any problem, and both checkers
report them.  A stored order is not reloaded: every ``FiniteOrder`` comes
from ``load_order``, ``from_down_sets`` or ``restrict``, so its relation is
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
        raise ConnectivityFailure(report)

    core = _core(order)
    if assignment is None:
        assignment = _doubled_euler_cycles(core)
    else:
        assignment = balance_cycles(assignment, core)
    problems, certificate = _rederive(order, assignment, glue_bands(assignment, core))
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


def _invariant_problems(cert: RealizationCertificate) -> list[str]:
    """The chi checks on a certificate that ``assemble`` built from cycles
    and a gluing that ``_rederive`` has checked.

    The cycle conditions (``assignment_problems``) and the matching check
    and walk of ``verify_boundary_cycles`` give every other invariant.  Star
    balance: each attractor band (om, mediator al, k -> l) is paired one to
    one with a repeller band (al, mediator om, k -> l), so a_kl = r_kl, and
    conditions 1 and 2 give a_kl = a_lk.  2E = band count: every band is in
    exactly one pair of two known bands, and ``edge_count`` counts pairs.
    Band appearances and total length: on a perfect, type-compatible
    matching and chained cycles the walk never drifts, and a block (glue,
    +1, glue, -1) from an attractor band ending at saddle s visits a
    repeller band ending at s, the repeller band beginning at s after it, an
    attractor band beginning at s and the attractor band ending at s before
    it.  Matching within a type and advancing along a chained cycle are
    bijections between these four classes, so the block map is a permutation
    of the attractor bands ending at s and the blocks visit each class once:
    a band related to s appears once in s's cycles, a self band (s -> s)
    twice, and the total length, two per block, is 2 * |attractor bands| =
    band count.  The chi checks stay, as nothing above gives them.
    """
    problems = []
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
# re-verification
# --------------------------------------------------------------------------


def verify_certificate(cert: RealizationCertificate) -> list[str]:
    """Re-derive an in-memory certificate from its own stage data and list
    every broken invariant and every stored field that differs from the
    re-derived one.  Stored summary values are only compared, never computed
    with; ``verify_document`` checks a serialized certificate."""
    problems, rebuilt = _rederive(cert.order, cert.assignment, cert.gluing)
    problems = _connectivity_problems(cert.order) + problems
    if rebuilt is not None:
        problems += [
            f"stored field {name} differs from the re-assembled certificate"
            for name, stored, derived in zip(cert._fields, cert, rebuilt)
            if stored != derived
        ]
    return problems


def verify_document(data) -> list[str]:
    """Re-derive a serialized certificate from its stage data alone (see
    ``_stage_data``) and list every broken invariant, then any difference
    between the document and the re-derived one's ``to_dict``, as the one
    problem ``re-serialization differs from the input document at ...``
    naming up to five paths.  JSON types are compared exactly, so ``1``,
    ``1.0`` and ``true`` differ: unreadable stage data raises
    ``MalformedCertificate``, and so does a missing key or a value of
    another JSON type (``_compare``) unless the re-derivation found
    problems, when its path is one more difference."""
    order, assignment, gluing = _stage_data(data)
    problems, rebuilt = _rederive(order, assignment, gluing)
    problems = _connectivity_problems(order) + problems
    if rebuilt is None:
        return problems
    derived = rebuilt.to_dict()
    for key in ("cycles", "gluing"):  # typed by _stage_data, so == is exact
        if derived[key] == data[key]:
            derived[key] = data[key]
    stored = data.get("boundary_cycles")
    # == would take 1.0 or true for an index 1; the equal keys are arrays
    if derived["boundary_cycles"] == stored and all(
        type(key[1]) is int for cycles in stored.values() for c in cycles for key in c
    ):
        derived["boundary_cycles"] = stored
    paths, malformed = [], []
    _compare(derived, data, "", paths, malformed)
    if malformed and not problems:
        raise MalformedCertificate(malformed[0])
    if paths:
        where = ", ".join(paths[:5]) + (", ..." if len(paths) > 5 else "")
        problems.append(f"re-serialization differs from the input document at {where}")
    return problems


def _connectivity_problems(order: FiniteOrder) -> list[str]:
    report = check_connectivity(order)
    return [] if report.passed else [f"order fails connectivity at {report.failures()}"]


def _rederive(order, assignment, gluing):
    """The problems found in re-deriving a certificate from its order, cycle
    assignment and gluing, broken invariants included, and the re-assembled
    certificate.  The certificate is None when the cycles name elements
    outside the core order or the gluing fails the matching check or its
    walk, as it then has no boundary.  Connectivity is the caller's."""
    # the invariants look up every owner in the core order and the assembly
    # every element a transition names; an owner in the core that is not
    # extremal is reported by the cycle conditions, an extremal one without
    # a cycle here
    core = _core(order)
    owners, elements = set(assignment.owners()), set(core.elements)
    problems = []
    missing = sorted(set(core.maximal_elements + core.minimal_elements) - owners)
    if missing:
        problems.append(f"extremal elements {', '.join(missing)} have no cycle")
    strays = sorted(owners - elements)
    if strays:
        return problems + [
            f"cycle owners {', '.join(strays)} are not elements of the core order"
        ], None
    named = {e for owner in owners for t in assignment.cycle(owner) for e in t}
    strays = sorted(named - elements)
    if strays:
        return problems + [
            f"cycle transitions name {', '.join(strays)}, which are not elements"
            " of the core order"
        ], None

    problems += assignment_problems(assignment, core)
    walk_problems, boundary = verify_boundary_cycles(gluing, assignment, core)
    if boundary is None:
        return problems + walk_problems, None
    domains, repairs = {}, {}
    for saddle in sorted(boundary):
        try:
            domains[saddle], repairs[saddle] = _domain(boundary[saddle])
        except ValueError as exc:  # no boundary cycle: no valid length profile
            problems.append(f"boundary cycles of {saddle} give no domain: {exc}")
    rebuilt = assemble(order, assignment, gluing, boundary, domains, repairs)
    return problems + _invariant_problems(rebuilt), rebuilt


_KIND_NAMES = {
    dict: "an object", list: "an array", int: "an integer", bool: "a boolean",
    str: "a string", type(None): "null",
}
_NESTED = {dict, list}


def _compare(derived, stored, where: str, paths: list | None, malformed: list) -> None:
    """Walk the stored document along the derived one and append each path
    where they differ to ``paths``, unless it is None: a key only one of
    them has, an array of another length, another scalar or a value of
    another JSON type.  A value of another JSON type, and a key the stored
    object lacks once its other keys are walked, is also named in
    ``malformed`` (``chi: expected an integer``, ``roles.A: missing``)."""
    if derived is stored:
        return
    kind = derived.__class__
    if stored.__class__ is not kind:  # True is no integer, 1.0 none either
        malformed.append(f"{where}: expected {_KIND_NAMES[kind]}")
        if paths is not None:
            paths.append(where)
        return
    if kind is dict:
        missing = []
        for key in sorted(derived.keys() | stored.keys()):
            at = f"{where}.{key}" if where else key
            if key not in stored:
                missing.append(f"{at}: missing")
            if key not in stored or key not in derived:
                if paths is not None:
                    paths.append(at)
            else:
                _compare(derived[key], stored[key], at, paths, malformed)
        malformed += missing
    elif kind is list:
        kinds = list(map(type, derived))
        if derived == stored and kinds == list(map(type, stored)) and not _NESTED & set(kinds):
            return  # equal scalars of the same JSON types: most of a repair log
        if len(derived) != len(stored):
            if paths is not None:
                paths.append(where)
            paths = None  # the common items are only type-checked
        for i, (d, s) in enumerate(zip(derived, stored)):
            _compare(d, s, f"{where}[{i}]", paths, malformed)
    elif derived != stored and paths is not None:
        paths.append(where)


def _field(doc: dict, key: str, kind: type | None = None, path: str = ""):
    """doc[key], which must exist and, given a kind, be of that JSON type;
    otherwise MalformedCertificate names the path."""
    where = f"{path}.{key}" if path else key
    if key not in doc:
        raise MalformedCertificate(f"{where}: missing")
    return _of_kind(doc[key], kind, where)


def _of_kind(value, kind: type | None, where: str):
    if kind is not None and type(value) is not kind:  # True is no integer here
        raise MalformedCertificate(f"{where}: expected {_KIND_NAMES[kind]}")
    return value


def _read(read, value, where: str):
    """read(value), its errors naming the JSON path from the top level."""
    try:
        return read(value)
    except (MalformedOrder, MalformedCycles) as exc:  # from a path inside value
        raise type(exc)(f"{where}.{exc}") from None


def _band_keys(seq: list, where: str) -> tuple:
    """The band keys in an array, each stored as an [owner, index] array."""
    for j, k in enumerate(seq):
        if not (isinstance(k, list) and len(k) == 2 and isinstance(k[0], str)):
            raise MalformedCertificate(f"{where}[{j}]: expected an [owner, index] array")
        if type(k[1]) is not int:  # True is no integer here
            raise MalformedCertificate(f"{where}[{j}][1]: expected an integer")
    return tuple(map(tuple, seq))


def _stage_data(data) -> tuple:
    """The order, cycle assignment and gluing a serialized certificate
    stores, the inputs every other field is derived from.  A key that is
    missing or holds a value of the wrong JSON type raises
    ``MalformedCertificate`` (or, inside ``order`` and ``cycles``,
    ``MalformedOrder`` and ``MalformedCycles``) naming the JSON path."""
    _of_kind(data, dict, "top level")
    order_doc = _field(data, "order", dict)
    spec = {key: _field(order_doc, key, path="order") for key in ("elements", "relations")}
    order = _read(load_order, spec, "order")
    assignment = _read(CycleAssignment.from_dict, _field(data, "cycles", dict), "cycles")
    pairs = []
    for i, pair in enumerate(_field(data, "gluing", list)):
        where = f"gluing[{i}]"
        if len(_of_kind(pair, list, where)) != 2:
            raise MalformedCertificate(f"{where}: expected a pair of band keys")
        pairs.append(_band_keys(pair, where))
    return order, assignment, tuple(sorted(pairs))
