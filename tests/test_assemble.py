import pytest

from smale_orders.assemble import plan_plugs
from smale_orders.corpus import (
    DIAMOND,
    FAN_ORDER,
    diamond_order,
    example1_cycles,
    example_cycles,
)
from smale_orders.errors import ConnectivityFailure
from smale_orders.order import load_order
from smale_orders.pipeline import realize, verify_certificate

from helpers import usable_orders

CHAIN3 = load_order({"elements": ["A", "s", "w"], "relations": [["A", "s"], ["s", "w"]]})


def test_sphere_certificate():
    cert = realize(diamond_order(), example1_cycles())
    assert (cert.chi, cert.genus) == (2, 0)
    assert (cert.vertex_count, cert.edge_count, cert.handle_count) == (2, 2, 0)
    assert {s: spec.profile.lengths for s, spec in cert.domains.items()} == {
        "s1": (2,),
        "s2": (2,),
    }
    assert cert.connected
    assert cert.repair_extra_pairs == 0


def test_torus_certificate():
    cert = realize(diamond_order(), example_cycles())
    assert (cert.chi, cert.genus) == (0, 1)
    assert cert.edge_count == 4
    assert {s: spec.profile.lengths for s, spec in cert.domains.items()} == {
        "s1": (4,),
        "s2": (4,),
    }


def test_torus_plus_saddle_handle():
    order = load_order(
        {
            "elements": ["A", "s1", "s2", "w"],
            "relations": DIAMOND["relations"] + [["s1", "s2"]],
        }
    )
    cert = realize(order, example_cycles())
    assert cert.handle_count == 1
    assert cert.handle_pairs == (("s1", "s2"),)
    assert (cert.chi, cert.genus) == (-2, 2)


def test_handles_count_cover_pairs_only():
    order = load_order(
        {
            "elements": ["A", "s1", "s2", "s3", "w"],
            "relations": [
                ["A", "s1"], ["s1", "s2"], ["s2", "s3"], ["s3", "w"],
                ["A", "s2"], ["A", "s3"], ["s1", "w"], ["s2", "w"],
            ],
        }
    )
    cert = realize(order)
    assert cert.handle_pairs == (("s1", "s2"), ("s2", "s3"))
    assert cert.handle_count == 2  # transitive pair s1 > s3 adds no handle


def test_no_saddle_relations_no_handles():
    cert = realize(diamond_order(), example1_cycles())
    assert cert.handle_count == 0
    assert cert.handle_pairs == ()


def test_north_south_pair_is_a_sphere():
    order = load_order({"elements": ["a", "b"], "relations": [["a", "b"]]})
    cert = realize(order)
    assert (cert.chi, cert.genus, cert.connected) == (2, 0, True)
    assert cert.north_south == (("a", "b"),)
    assert cert.domains == {}


def test_disconnected_assembly_reports_components():
    order = load_order(
        {
            "elements": ["A", "s", "w", "p", "q"],
            "relations": [["A", "s"], ["s", "w"], ["p", "q"]],
        }
    )
    cert = realize(order)
    assert not cert.connected
    assert cert.genus is None
    assert len(cert.components) == 2
    ns_comp = next(c for c in cert.components if c.elements == ("p", "q"))
    assert (ns_comp.chi, ns_comp.genus) == (2, 0)
    assert sum(c.chi for c in cert.components) == cert.chi
    assert verify_certificate(cert) == []


def test_chi_even_and_bounded_on_corpus():
    for order in usable_orders(5):
        cert = realize(order)
        assert cert.chi % 2 == 0
        for comp in cert.components:
            assert comp.chi <= 2
        if cert.connected:
            assert cert.chi <= 2
        assert 2 * cert.edge_count == cert.assignment.total_bands()


def test_two_north_south_pairs_make_two_spheres():
    order = load_order(
        {"elements": ["a", "b", "p", "q"], "relations": [["a", "b"], ["p", "q"]]}
    )
    cert = realize(order)
    assert cert.chi == 4  # two sphere components
    assert not cert.connected and cert.genus is None
    assert [c.chi for c in cert.components] == [2, 2]
    assert verify_certificate(cert) == []


def test_chi_monotone_under_extra_balanced_pairs():
    """Growing both sides by a symmetric spliced pair never raises chi."""
    order = diamond_order()
    base = realize(order, example1_cycles())
    bigger = realize(order, example_cycles())
    assert bigger.chi <= base.chi
    delta_e = bigger.edge_count - base.edge_count
    delta_domains = sum(
        (2 - 2 * spec.genus - spec.profile.s) for spec in bigger.domains.values()
    ) - sum((2 - 2 * spec.genus - spec.profile.s) for spec in base.domains.values())
    assert bigger.chi - base.chi == delta_domains - delta_e


def test_refusal_on_connectivity_failure():
    from smale_orders.corpus import IMPOSSIBLE_ORDER

    with pytest.raises(ConnectivityFailure):
        realize(load_order(IMPOSSIBLE_ORDER))


def test_certificate_chi_formula_recomputation():
    for order in usable_orders(4):
        cert = realize(order)
        chi = (
            sum(2 - 2 * spec.genus - spec.profile.s for spec in cert.domains.values())
            + cert.vertex_count
            - cert.edge_count
            - cert.repair_extra_pairs
            - 2 * cert.handle_count
        )
        assert cert.chi == chi
        assert verify_certificate(cert) == []


# ------------------------------------------------------------------ plug plans


def test_plan_plugs_fan_order():
    plan = plan_plugs(load_order(FAN_ORDER))
    assert plan.plugs["A"] == (3, 3)
    assert plan.plugs["B"] == (1, 1)


def test_plan_plugs_three_chain():
    plan = plan_plugs(CHAIN3)
    assert plan.plugs == {"A": (0, 1), "s": (1, 1), "w": (1, 0)}
    assert len(plan.schedule) == 2


def test_plan_plugs_diamond():
    plan = plan_plugs(diamond_order())
    assert plan.plugs == {"A": (0, 2), "s1": (1, 1), "s2": (1, 1), "w": (2, 0)}
    assert len(plan.schedule) == 4


def test_plan_plugs_flags_and_degree_identity():
    order = load_order(
        {
            "elements": ["A", "s1", "s2", "w"],
            "relations": DIAMOND["relations"] + [["s1", "s2"]],
        }
    )
    plan = plan_plugs(order)
    flags = {(a, b): flag for (a, _), (b, _), flag in plan.schedule}
    assert flags[("s1", "s2")] == "transverse"
    assert flags[("A", "s1")] == "axiom-b"
    for target in usable_orders(5):
        p = plan_plugs(target)
        entries = sum(n for n, _ in p.plugs.values())
        exits = sum(m for _, m in p.plugs.values())
        assert entries == exits == len(target.covers)
        # every entry and exit component used exactly once
        used_exits = {(a, i) for (a, i), _, _ in p.schedule}
        used_entries = {(b, j) for _, (b, j), _ in p.schedule}
        assert len(used_exits) == len(p.schedule)
        assert len(used_entries) == len(p.schedule)
