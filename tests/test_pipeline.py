import json
import random

import pytest

import smale_orders.pipeline as pipeline
from smale_orders.assemble import assemble
from smale_orders.bands import glue_bands
from smale_orders.cli import main
from smale_orders.corpus import IMPOSSIBLE_ORDER, diamond_order, example1_cycles, example_cycles
from smale_orders.cycles import CycleAssignment, balance_cycles, build_initial_cycles
from smale_orders.errors import ConnectivityFailure, PreconditionViolated
from smale_orders.order import check_connectivity, from_down_sets, load_order
from smale_orders.pipeline import _stage_data, realize, verify_certificate, verify_document

from helpers import injected_assignment, usable_orders, verify_star


def test_round_trip_serialization_is_bit_exact():
    """A certificate's JSON reads back as its own stage data, and the
    document re-derived from those equals it, JSON types included."""
    for order in usable_orders(4):
        cert = realize(order)
        doc = json.loads(json.dumps(cert.to_dict()))
        assert _stage_data(doc) == (cert.order, cert.assignment, cert.gluing)
        assert verify_document(doc) == []
        assert verify_certificate(cert) == []


def test_realize_rejects_wrong_assignment_owners():
    order = diamond_order()
    partial = CycleAssignment(cycles={"w": example1_cycles().cycle("w")})
    with pytest.raises(PreconditionViolated):
        realize(order, partial)


def test_realize_mixed_north_south_and_core():
    order = load_order(
        {
            "elements": ["A", "s", "w", "p", "q"],
            "relations": [["A", "s"], ["s", "w"], ["p", "q"]],
        }
    )
    cert = realize(order)
    assert cert.north_south == (("p", "q"),)
    assert set(cert.assignment.owners()) == {"A", "w"}
    assert cert.vertex_count == 4  # p and q still count as extremal points
    assert verify_certificate(cert) == []


def random_down_sets(rng: random.Random, n: int):
    downs = []
    for i in range(n):
        seed_mask = rng.getrandbits(i)
        mask = seed_mask
        for j in range(i):
            if seed_mask >> j & 1:
                mask |= downs[j]
        downs.append(mask)
    return tuple(downs)


def test_build_and_realize_on_random_larger_orders():
    """Orders with 7 and 8 elements, sampled: connectivity suffices."""
    rng = random.Random(11)
    names8 = tuple(f"e{i}" for i in range(8))
    found = 0
    attempts = 0
    while found < 40 and attempts < 4000:
        attempts += 1
        n = rng.choice((7, 8))
        downs = random_down_sets(rng, n)
        up_union = 0
        for m in downs:
            up_union |= m
        if any(downs[i] == 0 and not up_union >> i & 1 for i in range(n)):
            continue
        order = from_down_sets(names8[:n], downs)
        if order.north_south_pairs or not check_connectivity(order).passed:
            continue
        built = build_initial_cycles(order)
        _, ok = verify_star(built, order)
        assert ok
        cert = realize(order)
        assert verify_certificate(cert) == []
        found += 1
    assert found == 40


def test_realize_balances_injected_assignments():
    """``realize`` glues exactly what ``balance_cycles`` returns, and that is
    balanced by the independent ledger."""
    rng = random.Random(14)
    orders = usable_orders(5)
    for _ in range(100):
        order = rng.choice(orders)
        assignment = injected_assignment(order, rng)
        cert = realize(order, assignment)
        assert verify_certificate(cert) == []
        assert cert.assignment == balance_cycles(assignment, order)
        assert verify_star(cert.assignment, order)[1]


def test_verify_certificate_flags_tampered_fields():
    cert = realize(diamond_order(), example1_cycles())
    assert verify_certificate(cert._replace(genus=5)) == [
        "stored field genus differs from the re-assembled certificate"
    ]
    doc = cert.to_dict()
    doc["genus"] = 5
    assert verify_document(doc) == [
        "re-serialization differs from the input document at genus"
    ]


def test_verify_certificate_reports_saddle_owned_cycle():
    doc = realize(diamond_order(), example1_cycles()).to_dict()
    doc["cycles"]["s1"] = [["A", "w", "A"]]
    problems = verify_document(doc)
    assert "'s1' is a saddle, not an extremal element" in problems
    assert "band ('s1', 0) is in 0 pairs, not 1" in problems


def test_verify_cert_names_extremal_elements_without_cycles(tmp_path):
    """The diamond's certificate with its cycles, gluing and boundary cycles
    emptied and every summary field re-derived.  The re-traced boundary has
    no cycle for either saddle, so the stored ``{}`` lacks two derived keys,
    which are listed as differences once the re-derivation found problems."""
    empty = CycleAssignment(cycles={})
    emptied = assemble(diamond_order(), empty, (), {}, {}, {})
    cert_path, out = tmp_path / "cert.json", tmp_path / "verify.json"
    cert_path.write_text(json.dumps(emptied.to_dict()))
    assert main(["verify-cert", str(cert_path), "-o", str(out)]) == 2
    assert json.loads(out.read_text())["problems"] == [
        "extremal elements A, w have no cycle",
        "boundary cycles of s1 give no domain: a profile needs at least one boundary circle",
        "boundary cycles of s2 give no domain: a profile needs at least one boundary circle",
        "component ('A',) has odd chi",
        "component ('w',) has odd chi",
        "re-serialization differs from the input document at boundary_cycles.s1,"
        " boundary_cycles.s2",
    ]


def test_certificates_carry_attribution_fields():
    doc = realize(diamond_order(), example1_cycles()).to_dict()
    assert doc["tool_version"] == "0.1.0"
    assert doc["schema_version"] == 1
    assert doc["matching_strategy"] == "first-compatible"


def test_realize_rejects_broken_boundary(monkeypatch):
    """A gluing with the repeller ends of two pairs of different types
    swapped fails the invariant pass."""

    def swapped_glue(assignment, order):
        (a, b), (c, d), *rest = glue_bands(assignment, order)
        return tuple(sorted([(a, d), (c, b), *rest]))

    monkeypatch.setattr(pipeline, "glue_bands", swapped_glue)
    with pytest.raises(AssertionError) as exc:
        realize(diamond_order(), example_cycles())
    assert str(exc.value) == (
        "construction invariants broken: pair ('w', 0)~('A', 1) joins incompatible"
        " types ('s1', 'A', 's2') / ('s2', 'w', 's1'); pair ('w', 1)~('A', 2) joins"
        " incompatible types ('s2', 'A', 's1') / ('s1', 'w', 's2')"
    )


def test_realize_balances_only_external_cycles(monkeypatch):
    """The doubled Euler circuits are balanced by construction; the invariant
    pass checks them, so only supplied cycles go through balance_cycles."""
    expected = realize(diamond_order()).to_dict()

    def refuse(assignment, order):
        raise RuntimeError("balance_cycles called")

    monkeypatch.setattr(pipeline, "balance_cycles", refuse)
    assert realize(diamond_order()).to_dict() == expected
    with pytest.raises(RuntimeError, match="balance_cycles called"):
        realize(diamond_order(), example1_cycles())


def test_realize_checks_connectivity_once(monkeypatch):
    """realize checks the whole order and hands the checked core to the
    cycle builder, which does not check it again."""
    import smale_orders.cycles as cycles
    import smale_orders.order as order_module

    calls = []

    def counted(order):
        calls.append(order)
        return order_module.check_connectivity(order)

    for module in (pipeline, cycles):
        monkeypatch.setattr(module, "check_connectivity", counted)
    realize(diamond_order())
    assert len(calls) == 1
    with pytest.raises(ConnectivityFailure):  # the public builder still checks
        build_initial_cycles(load_order(IMPOSSIBLE_ORDER))
    assert len(calls) == 2

