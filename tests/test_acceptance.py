"""Acceptance suite: one test per criterion, exact tolerances, one summary
line printed per criterion."""

import functools
import random

import pytest

from smale_orders.bands import glue_bands, verify_boundary_cycles
from smale_orders.corpus import (
    FIG_LEFT,
    FIG_MIDDLE,
    FIG_RIGHT,
    IMPOSSIBLE_ORDER,
    diamond_order,
    example1_cycles,
    example_cycles,
)
from smale_orders.cycles import (
    CycleAssignment,
    Transition,
    assignment_problems,
    balance_cycles,
    build_initial_cycles,
)
from smale_orders.domains import (
    LengthProfile,
    RepairOp,
    Verdict,
    check_constructible,
    repair_profile,
)
from smale_orders.errors import ConnectivityFailure, DisconnectedGraph
from smale_orders.gradient import (
    check_gradient_like,
    check_necessary,
    level_graphs,
)
from smale_orders.order import load_order
from smale_orders.pipeline import realize, verify_certificate

from helpers import (
    dual_map,
    enumerate_embeddings,
    enumerate_type_matchings,
    graph_of_map,
    injected_assignment,
    multigraphs_isomorphic,
    oracle_axiom_counts,
    star_ledger,
    usable_orders,
    verify_star,
    walk_boundaries,
)

CHAIN3 = load_order({"elements": ["A", "s", "w"], "relations": [["A", "s"], ["s", "w"]]})


def criterion(number, description):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number}: FAIL  {description}")
                raise
            print(f"criterion {number}: PASS  {description}")

        return wrapper

    return decorate


@criterion(1, "sphere example reproduced exactly")
def test_criterion_1_sphere():
    cert = realize(diamond_order(), example1_cycles())
    assert cert.chi == 2
    assert cert.genus == 0
    assert cert.vertex_count == 2
    assert cert.edge_count == 2
    assert {s: spec.profile.lengths for s, spec in cert.domains.items()} == {
        "s1": (2,),
        "s2": (2,),
    }


@criterion(2, "torus example reproduced exactly")
def test_criterion_2_torus():
    cert = realize(diamond_order(), example_cycles())
    assert cert.chi == 0
    assert cert.genus == 1
    assert cert.edge_count == 4
    assert {s: spec.profile.lengths for s, spec in cert.domains.items()} == {
        "s1": (4,),
        "s2": (4,),
    }


@criterion(3, "connectivity necessity and obstruction rules fire exactly")
def test_criterion_3_refusals():
    with pytest.raises(ConnectivityFailure) as exc:
        realize(load_order(IMPOSSIBLE_ORDER))
    assert exc.value.report.failures() == ("A",)

    middle = check_necessary(load_order(FIG_MIDDLE))
    assert "R2" in middle.rules() and "R1" not in middle.rules()
    right = check_necessary(load_order(FIG_RIGHT))
    assert "R1" in right.rules() and "R2" not in right.rules()
    left = check_necessary(load_order(FIG_LEFT))
    assert left.rules() == ("Connectivity",)
    assert not left.empty  # refused: a non-trivial repeller is forced


@criterion(4, "every connectivity-passing order with <= 6 elements realizes")
def test_criterion_4_sufficiency_sweep():
    corpus = usable_orders(6)
    assert len(corpus) >= 400  # non-vacuous exhaustive sweep
    for order in corpus:
        cert = realize(order)
        assert assignment_problems(cert.assignment, order) == []
        _, ok = verify_star(cert.assignment, order)
        assert ok
        assert verify_boundary_cycles(cert.gluing, cert.assignment, order) == ([], cert.boundary)
        assert 2 * cert.edge_count == cert.assignment.total_bands()
        assert cert.chi % 2 == 0
        assert verify_certificate(cert) == []


@criterion(5, "constructibility arithmetic and repair bounds")
def test_criterion_5_constructibility():
    verdict, _ = check_constructible(LengthProfile((6, 10)))
    assert verdict is Verdict.EXCLUDED
    for tail in range(7):
        verdict, _ = check_constructible(LengthProfile((10, 6) + (4,) * tail))
        assert verdict is Verdict.EXCLUDED

    rng = random.Random(20240817)

    def random_profile(entries):
        size = rng.randrange(1, 7)
        return LengthProfile(tuple(rng.choice(entries) for _ in range(size)))

    accepted = 0
    while accepted < 1000:
        profile = random_profile([4, 6, 8, 10, 12, 14, 16])
        if not profile.congruent() or profile.is_excluded_family():
            continue
        verdict, spec = check_constructible(profile)
        assert verdict is Verdict.CONSTRUCTIBLE, profile.lengths
        assert spec.genus >= 0
        accepted += 1

    repaired_count = 0
    while repaired_count < 1000:
        profile = random_profile([2, 4, 6, 8, 10, 12, 14, 16])
        normalized = LengthProfile(
            tuple(10 if n == 2 else n for n in profile.lengths)
        )
        if normalized.congruent() and normalized.is_excluded_family():
            continue  # exceptional family: genuinely outside the repair bound
        repaired, log = repair_profile(profile)
        verdict, _ = check_constructible(repaired)
        assert verdict is Verdict.CONSTRUCTIBLE
        assert log.split_count <= 3, (profile.lengths, log.to_list())
        ops = [s.op for s in log.steps]
        if RepairOp.SPLIT_CYCLE in ops:  # single lengthening pass up front
            first = ops.index(RepairOp.SPLIT_CYCLE)
            assert RepairOp.LENGTHEN_2_TO_10 not in ops[first:]
        repaired_count += 1


@criterion(6, "balancing terminates with splice count equal to the deficit")
def test_criterion_6_balancing():
    rng = random.Random(97)
    orders = list(usable_orders(5))
    runs = 0
    while runs < 500:
        order = rng.choice(orders)
        assignment = injected_assignment(order, rng)
        if assignment_problems(assignment, order):
            continue
        before = star_ledger(assignment, order)
        deficit = before.deficit()
        balanced = balance_cycles(assignment, order)
        ledger, ok = verify_star(balanced, order)
        assert ok
        # exactly one splice per unit of deficit: every group lands on the
        # larger of its two initial counts
        splices = 0
        for key, (a_kl, a_lk, r_kl, r_lk) in before.groups.items():
            target = max(a_kl, r_kl)
            assert ledger.groups[key] == (target,) * 4
            splices += abs(a_kl - r_kl)
        assert splices == deficit
        added = balanced.total_bands() - assignment.total_bands()
        expected_added = sum(
            (2 if k != l else 1) * abs(a - r)
            for (om, al, k, l), (a, _, r, _) in before.groups.items()
        )
        assert added == expected_added
        runs += 1
    assert runs == 500


@criterion(7, "band gluing agrees with the exhaustive matching oracle")
def test_criterion_7_band_oracle():
    instances = []
    for order in usable_orders(5):
        built = build_initial_cycles(order)
        if built.total_bands() <= 10:
            instances.append((order, built))
    instances.append((diamond_order(), example1_cycles()))
    instances.append((diamond_order(), example_cycles()))
    instances.append(
        (
            CHAIN3,
            CycleAssignment(
                cycles={
                    "w": (Transition("s", "A", "s"),),
                    "A": (Transition("s", "w", "s"),),
                }
            ),
        )
    )
    assert len(instances) >= 5
    for order, assignment in instances:
        gluing, _ = glue_bands(assignment, order)
        ours = {}
        for a, b in gluing:
            ours[a] = b
            ours[b] = a
        all_matchings = list(enumerate_type_matchings(assignment, order))
        assert ours in all_matchings
        for matching in all_matchings:
            walked = walk_boundaries(assignment, order, matching)
            assert oracle_axiom_counts(assignment, order, walked)
        assert verify_boundary_cycles(gluing, assignment, order)[0] == []


@criterion(8, "gradient-like verdicts exact, duality involution holds")
def test_criterion_8_gradient():
    diamond = diamond_order()
    verdict = check_gradient_like(diamond)
    assert verdict.realizable and verdict.genus == 1

    highest, _ = level_graphs(diamond)
    for emb in enumerate_embeddings(highest, len(highest.edges)):
        double_dual = dual_map(dual_map(emb, highest), highest)
        assert multigraphs_isomorphic(graph_of_map(double_dual, highest), highest)

    for order in (
        CHAIN3,
        load_order(
            {
                "elements": ["a", "b", "s", "w1", "w2"],
                "relations": [["a", "s"], ["b", "s"], ["s", "w1"], ["s", "w2"]],
            }
        ),
    ):
        hi, _ = level_graphs(order)
        bound = len(hi.edges)
        verdict = check_gradient_like(order, max_genus=bound)
        assert not verdict.realizable
        assert verdict.max_genus_searched == bound


@criterion(9, "Euler consistency of embeddings and certificates")
def test_criterion_9_euler_consistency():
    graphs = []
    for order in usable_orders(6):
        try:
            highest, lowest = level_graphs(order)
        except Exception:
            continue
        graphs += [highest, lowest]
    assert graphs
    checked = 0
    for graph in graphs:
        if len(graph.edges) > 3:
            continue  # keep the enumeration exhaustive but quick
        try:
            embeddings = enumerate_embeddings(graph, len(graph.edges))
        except DisconnectedGraph:
            continue  # disconnected orders give disconnected level graphs
        for emb in embeddings:
            chi = len(graph.vertices) - len(graph.edges) + emb.face_count
            assert chi == 2 - 2 * emb.genus
            assert emb.genus >= 0
            checked += 1
    assert checked > 100

    certificates = [
        realize(diamond_order(), example1_cycles()),
        realize(diamond_order(), example_cycles()),
    ] + [realize(order) for order in usable_orders(5)]
    for cert in certificates:
        assert cert.chi % 2 == 0
        if cert.connected:
            assert cert.chi <= 2
        for comp in cert.components:
            assert comp.chi % 2 == 0 and comp.chi <= 2
