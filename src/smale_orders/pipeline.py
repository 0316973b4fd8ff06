"""End-to-end realization pipeline and certificate re-verification.

``realize`` runs connectivity -> cycles -> balancing (external cycles
only) -> band gluing -> profile repair -> domain selection -> assembly and
returns a certificate.  Its order, cycles, gluing and boundary cycles are
its stage data; both checkers re-derive every other field from them with
``_domain`` and ``assemble``.  ``verify_certificate`` compares an in-memory
certificate field by field; ``verify_document`` reads only the stage data
of a serialized one and compares the whole document with the re-derived
JSON, so only the writers (``to_dict``) know the derived fields' format.

The stages validate their inputs and build; none re-checks its own output.
The invariants every correct construction satisfies (cycle conditions,
boundary-cycle axioms, even chi at most 2) are checked in one place,
``_invariant_problems``, on a certificate that ``assemble`` built; star
balance, 2E = band count and the band appearance cap follow from the first
two.  ``realize`` runs the check once and raises ``BrokenInvariant``,
an ``AssertionError`` that names the stage, on any problem, and both
checkers run it on the re-assembled certificate.  ``_domain``
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
        raise ConnectivityFailure(report)

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
# re-verification
# --------------------------------------------------------------------------


def verify_certificate(cert: RealizationCertificate) -> list[str]:
    """Re-derive an in-memory certificate from its own stage data and list
    every broken invariant and every stored field that differs from the
    re-derived one.  Stored summary values are only compared, never computed
    with; ``verify_document`` checks a serialized certificate."""
    problems, rebuilt = _rederive(cert.order, cert.assignment, cert.gluing, cert.boundary)
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
    ``1.0`` and ``true`` differ: unreadable stage data, a missing key or a
    value of another JSON type raises ``MalformedCertificate`` (``_compare``)."""
    problems, rebuilt = _rederive(*_stage_data(data))
    if rebuilt is None:
        return problems
    derived = rebuilt.to_dict()
    for key in ("cycles", "gluing", "boundary_cycles"):  # typed, so == is exact
        if derived[key] == data[key]:
            derived[key] = data[key]
    paths = []
    _compare(derived, data, "", paths)
    if paths:
        where = ", ".join(paths[:5]) + (", ..." if len(paths) > 5 else "")
        problems.append(f"re-serialization differs from the input document at {where}")
    return problems


def _rederive(order, assignment, gluing, boundary):
    """The problems found in re-deriving a certificate from its stage data,
    broken invariants last, and the re-assembled certificate, which is None
    when the cycles name elements outside the core order."""
    problems = []
    report = check_connectivity(order)
    if not report.passed:
        problems.append(f"order fails connectivity at {report.failures()}")

    domains, repairs = {}, {}
    for saddle in sorted(boundary):
        try:
            domains[saddle], repairs[saddle] = _domain(boundary[saddle])
        except ValueError as exc:  # no valid length profile
            problems.append(f"boundary cycles of {saddle} give no domain: {exc}")

    # the invariants look up every owner in the core order and the assembly
    # every element a transition names; an owner in the core that is not
    # extremal is reported by the invariants, an extremal one without a
    # cycle here
    core = _core(order)
    owners, elements = set(assignment.owners()), set(core.elements)
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
    rebuilt = assemble(order, assignment, gluing, boundary, domains, repairs)
    return problems + _invariant_problems(rebuilt, core), rebuilt


_KIND_NAMES = {
    dict: "an object", list: "an array", int: "an integer", bool: "a boolean",
    str: "a string", type(None): "null",
}
_NESTED = {dict, list}


def _compare(derived, stored, where: str, paths: list | None) -> None:
    """Walk the stored document along the derived one and append each path
    where they differ (a key only the stored object has, an array of another
    length, another scalar) to ``paths``, unless it is None.  A value of
    another JSON type, or a key the stored object lacks once its other keys
    are walked, raises ``MalformedCertificate``."""
    if derived is stored:
        return
    kind = derived.__class__
    if stored.__class__ is not kind:  # True is no integer, 1.0 none either
        raise MalformedCertificate(f"{where}: expected {_KIND_NAMES[kind]}")
    if kind is dict:
        missing = None
        for key in sorted(derived.keys() | stored.keys()):
            at = f"{where}.{key}" if where else key
            if key not in stored:
                missing = missing or at
            elif key not in derived:
                if paths is not None:
                    paths.append(at)
            else:
                _compare(derived[key], stored[key], at, paths)
        if missing:
            raise MalformedCertificate(f"{missing}: missing")
    elif kind is list:
        kinds = list(map(type, derived))
        if derived == stored and kinds == list(map(type, stored)) and not _NESTED & set(kinds):
            return  # equal scalars of the same JSON types: most of a repair log
        if len(derived) != len(stored):
            if paths is not None:
                paths.append(where)
            paths = None  # the common items are only type-checked
        for i, (d, s) in enumerate(zip(derived, stored)):
            _compare(d, s, f"{where}[{i}]", paths)
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


def _arrays(doc: dict, key: str, path: str = "") -> list:
    """The array doc[key], every item of which must be an array."""
    items = _field(doc, key, list, path)
    for i, item in enumerate(items):
        if type(item) is not list:
            _of_kind(item, list, f"{path}.{key}[{i}]" if path else f"{key}[{i}]")
    return items


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
    """The order, cycle assignment, gluing and boundary cycles a serialized
    certificate stores, the inputs every other field is derived from.  A key
    that is missing or holds a value of the wrong JSON type raises
    ``MalformedCertificate`` (or, inside ``order`` and ``cycles``,
    ``MalformedOrder`` and ``MalformedCycles``) naming the JSON path."""
    _of_kind(data, dict, "top level")
    order_doc = _field(data, "order", dict)
    spec = {key: _field(order_doc, key, path="order") for key in ("elements", "relations")}
    order = _read(load_order, spec, "order")
    assignment = _read(CycleAssignment.from_dict, _field(data, "cycles", dict), "cycles")
    pairs = []
    for i, pair in enumerate(_arrays(data, "gluing")):
        if len(pair) != 2:
            raise MalformedCertificate(f"gluing[{i}]: expected a pair of band keys")
        pairs.append(_band_keys(pair, f"gluing[{i}]"))
    boundary_docs = _field(data, "boundary_cycles", dict)
    boundary = {
        s: tuple(
            _band_keys(seq, f"boundary_cycles.{s}[{i}]")
            for i, seq in enumerate(_arrays(boundary_docs, s, "boundary_cycles"))
        )
        for s in boundary_docs
    }
    return order, assignment, tuple(sorted(pairs)), boundary
