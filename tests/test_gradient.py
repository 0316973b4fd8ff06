import itertools
import math
import re
import tracemalloc

import pytest

from smale_orders.census import iter_orders
from smale_orders.corpus import (
    FIG_LEFT,
    FIG_MIDDLE,
    FIG_RIGHT,
    IMPOSSIBLE_ORDER,
    diamond_order,
)
from smale_orders import gradient
from smale_orders.errors import DisconnectedGraph, NotGradientShape
from smale_orders.gradient import (
    LevelGraph,
    check_gradient_like,
    check_necessary,
    level_graphs,
)
from smale_orders.order import load_order

from helpers import (
    dual_map,
    enumerate_embeddings,
    graph_of_map,
    multigraphs_isomorphic,
    reference_gradient_verdict,
    reference_level_graphs,
    renamed,
    usable_orders,
)

CHAIN3 = load_order({"elements": ["A", "s", "w"], "relations": [["A", "s"], ["s", "w"]]})
TWO_REPELLERS = load_order(
    {
        "elements": ["a", "b", "s", "w1", "w2"],
        "relations": [["a", "s"], ["b", "s"], ["s", "w1"], ["s", "w2"]],
    }
)
# one repeller over six saddles, two attractors under every saddle
SIX_LOOPS = load_order(
    {
        "elements": ["A", "w1", "w2"] + [f"s{i}" for i in range(6)],
        "relations": [[x, y] for i in range(6) for x, y in
                      (("A", f"s{i}"), (f"s{i}", "w1"), (f"s{i}", "w2"))],
    }
)


# ----------------------------------------------------------- necessary checks


def test_fig_middle_fires_r2():
    report = check_necessary(load_order(FIG_MIDDLE))
    assert "R2" in report.rules()
    r2 = [v for v in report.violations if v.rule == "R2"]
    assert any(set(v.witnesses) == {"A", "B"} for v in r2)
    assert "R1" not in report.rules()


def test_fig_right_fires_r1():
    report = check_necessary(load_order(FIG_RIGHT))
    assert "R1" in report.rules()
    r1 = [v for v in report.violations if v.rule == "R1"]
    assert any(set(v.witnesses) == {"A", "B"} for v in r1)
    assert "R2" not in report.rules()


def test_fig_left_fires_connectivity_with_consequence():
    report = check_necessary(load_order(FIG_LEFT))
    assert report.rules() == ("Connectivity",)
    conn = [v for v in report.violations if v.rule == "Connectivity"]
    assert any("b2" in v.detail for v in conn)  # the forced periodic point


def test_impossibleorder_plain_connectivity_context():
    report = check_necessary(load_order(IMPOSSIBLE_ORDER))
    assert report.rules() == ("Connectivity",)


def test_clean_orders_have_empty_reports():
    assert check_necessary(diamond_order()).empty
    for order in usable_orders(5):
        assert check_necessary(order).empty


# -------------------------------------------------------------- level graphs


def test_level_graphs_diamond_two_loops_each():
    highest, lowest = level_graphs(diamond_order())
    assert highest.vertices == ("A",)
    assert highest.endpoint_pairs() == (("A", "A"), ("A", "A"))
    assert lowest.vertices == ("w",)
    assert lowest.endpoint_pairs() == (("w", "w"), ("w", "w"))


def test_level_graphs_three_chain_loops():
    highest, lowest = level_graphs(CHAIN3)
    assert highest.endpoint_pairs() == (("A", "A"),)
    assert lowest.endpoint_pairs() == (("w", "w"),)


def test_level_graphs_two_repellers_edge():
    highest, lowest = level_graphs(TWO_REPELLERS)
    assert highest.endpoint_pairs() == (("a", "b"),)
    assert lowest.endpoint_pairs() == (("w1", "w2"),)


def test_level_graphs_reject_deep_saddles():
    order = load_order(
        {
            "elements": ["A", "s1", "s2", "w"],
            "relations": [["A", "s1"], ["s1", "s2"], ["s2", "w"], ["s1", "w"], ["A", "s2"]],
        }
    )
    with pytest.raises(NotGradientShape):
        level_graphs(order)


def test_level_graphs_reject_three_attractor_saddle():
    with pytest.raises(NotGradientShape):
        level_graphs(load_order(FIG_RIGHT))


# ----------------------------------------------------------------- embeddings


def test_single_loop_embeds_only_in_the_sphere():
    g = LevelGraph(vertices=("a",), edges=(("s", ("a", "a")),))
    embs = enumerate_embeddings(g, 5)
    assert [(e.genus, e.face_count) for e in embs] == [(0, 2)]


def test_two_loops_include_a_genus_one_single_face_system():
    g = LevelGraph(vertices=("a",), edges=(("s1", ("a", "a")), ("s2", ("a", "a"))))
    embs = enumerate_embeddings(g, 5)
    assert len(embs) == 6
    assert (1, 1) in {(e.genus, e.face_count) for e in embs}


def test_single_edge_tree_embeds_in_the_sphere_with_one_face():
    g = LevelGraph(vertices=("a", "b"), edges=(("s", ("a", "b")),))
    embs = enumerate_embeddings(g, 5)
    assert [(e.genus, e.face_count) for e in embs] == [(0, 1)]


def test_embeddings_reject_disconnected_graphs():
    g = LevelGraph(vertices=("a", "b"), edges=())
    with pytest.raises(DisconnectedGraph):
        enumerate_embeddings(g, 1)


def test_rotation_system_count_without_loops():
    # theta graph: two vertices joined by three parallel edges
    g = LevelGraph(
        vertices=("a", "b"),
        edges=(("s1", ("a", "b")), ("s2", ("a", "b")), ("s3", ("a", "b"))),
    )
    embs = enumerate_embeddings(g, 10)
    expected = math.factorial(2) * math.factorial(2)
    assert len(embs) == expected


def test_euler_consistency_of_every_enumeration():
    graphs = [
        LevelGraph(vertices=("a",), edges=(("s1", ("a", "a")), ("s2", ("a", "a")))),
        LevelGraph(
            vertices=("a", "b"),
            edges=(("s1", ("a", "b")), ("s2", ("a", "b")), ("s3", ("b", "b"))),
        ),
    ]
    for g in graphs:
        for emb in enumerate_embeddings(g, 10):
            chi = len(g.vertices) - len(g.edges) + emb.face_count
            assert chi == 2 - 2 * emb.genus
            assert emb.genus >= 0


def test_rotation_systems_are_produced_lazily():
    """The first system of a degree-10 vertex costs no list of its 9!
    rotations (about 47 MiB when they are listed)."""
    five_loops = load_order(
        {
            "elements": ["A", "w1", "w2"] + [f"s{i}" for i in range(5)],
            "relations": [[x, y] for i in range(5) for x, y in
                          (("A", f"s{i}"), (f"s{i}", "w1"), (f"s{i}", "w2"))],
        }
    )
    highest, _ = level_graphs(five_loops)
    darts = gradient._darts_at(highest)["A"]
    tracemalloc.start()
    try:
        (first,) = next(gradient._rotation_systems([darts]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20
    assert first == tuple(sorted(first))
    assert check_gradient_like(five_loops).genus == 2


def test_rotation_systems_follow_the_product_order():
    """The first witness is the first in this order: ``itertools.product``
    over each vertex's rotations, its first dart fixed."""
    for vertices in range(1, 5):
        for degrees in itertools.product(range(5), repeat=vertices):
            darts = [tuple((v, k) for k in range(d)) for v, d in enumerate(degrees)]
            rotations = [
                [ds[:1] + perm for perm in itertools.permutations(ds[1:])] for ds in darts
            ]
            assert list(gradient._rotation_systems(darts)) == list(
                itertools.product(*rotations)
            )


def test_genus_bound_filters():
    g = LevelGraph(vertices=("a",), edges=(("s1", ("a", "a")), ("s2", ("a", "a"))))
    only_planar = enumerate_embeddings(g, 0)
    assert {e.genus for e in only_planar} == {0}


# ------------------------------------------------------------------ verdicts


def labelled_dual(verdict, highest: LevelGraph) -> LevelGraph:
    """The dual of the witness, each face renamed by its attractor."""
    dual = graph_of_map(dual_map(verdict.embedding, highest), highest)
    return renamed(dual, {f"f{i}": a for i, a in enumerate(verdict.face_attractors)})


def test_diamond_realizable_on_the_torus():
    verdict = check_gradient_like(diamond_order())
    assert verdict.realizable and verdict.genus == 1
    highest, lowest = level_graphs(diamond_order())
    assert verdict.face_attractors == ("w",)
    assert labelled_dual(verdict, highest) == lowest


def test_unlabelled_dual_witness_is_refused():
    # planar embeddings of the top graph have an unlabelled copy of the
    # bottom graph as dual, but the dual loop is e3's, where e2 must loop
    order = load_order(
        {
            "elements": ["e0", "e1", "e2", "e3", "e4", "e5"],
            "relations": [
                ["e2", "e0"], ["e3", "e0"], ["e3", "e1"], ["e4", "e3"], ["e5", "e2"],
                ["e5", "e3"],
            ],
        }
    )
    highest, lowest = level_graphs(order)
    assert any(
        multigraphs_isomorphic(graph_of_map(dual_map(emb, highest), highest), lowest)
        for emb in enumerate_embeddings(highest)
    )
    verdict = check_gradient_like(order)
    assert not verdict.realizable
    assert verdict.face_attractors is None and "face_attractors" not in verdict.to_dict()


def test_every_small_witness_has_the_lowest_graph_as_labelled_dual():
    witnesses = 0
    for n in range(2, 7):
        for order in iter_orders(n):
            try:
                highest, lowest = level_graphs(order)
                verdict = check_gradient_like(order)
            except (NotGradientShape, DisconnectedGraph):
                continue
            if verdict.realizable:
                witnesses += 1
                assert labelled_dual(verdict, highest) == lowest
    assert witnesses == 83


def test_verdicts_match_the_exhaustive_reference():
    for n in range(2, 7):
        for order in iter_orders(n):
            try:
                graphs = reference_level_graphs(order)
            except NotGradientShape as exc:
                with pytest.raises(NotGradientShape, match=f"^{re.escape(str(exc))}$"):
                    level_graphs(order)
                continue
            assert level_graphs(order) == graphs
            try:
                expected = [reference_gradient_verdict(order, g) for g in (None, 0, 1)]
            except DisconnectedGraph:
                with pytest.raises(DisconnectedGraph):
                    check_gradient_like(order)
                continue
            assert [check_gradient_like(order, g).to_dict() for g in (None, 0, 1)] == expected


def test_forced_genus_refusals_trace_no_face(monkeypatch):
    def no_tracing(rotation):
        raise AssertionError("a face was traced")

    monkeypatch.setattr(gradient, "_trace_faces", no_tracing)
    # R - S + A = 1 - 6 + 2 is odd; the search would walk 11! rotation systems
    verdict = check_gradient_like(SIX_LOOPS)
    assert not verdict.realizable and verdict.max_genus_searched == 6
    # the diamond's forced genus is 1
    verdict = check_gradient_like(diamond_order(), max_genus=0)
    assert verdict.to_dict() == {"realizable": False, "genus": None, "max_genus_searched": 0}
    # odd chi, but a disconnected highest-level graph is refused first
    apart = load_order(
        {"elements": ["a", "b", "s1", "s2", "w"],
         "relations": [["a", "s1"], ["b", "s2"], ["s1", "w"], ["s2", "w"]]}
    )
    with pytest.raises(DisconnectedGraph):
        check_gradient_like(apart)


def test_three_chain_not_realizable_at_any_genus():
    verdict = check_gradient_like(CHAIN3, max_genus=4)
    assert not verdict.realizable
    assert verdict.max_genus_searched == 4


def test_two_repellers_not_realizable():
    verdict = check_gradient_like(TWO_REPELLERS)
    assert not verdict.realizable


def test_north_south_realizable_on_the_sphere():
    order = load_order({"elements": ["a", "b"], "relations": [["a", "b"]]})
    verdict = check_gradient_like(order)
    assert verdict.realizable and verdict.genus == 0


def test_duality_involution_on_witnesses_and_embeddings():
    highest, _ = level_graphs(diamond_order())
    for emb in enumerate_embeddings(highest, 2):
        dd = dual_map(dual_map(emb, highest), highest)
        assert multigraphs_isomorphic(graph_of_map(dd, highest), highest)
    verdict = check_gradient_like(diamond_order())
    dd = dual_map(dual_map(verdict.embedding, highest), highest)
    assert multigraphs_isomorphic(graph_of_map(dd, highest), highest)


def test_multigraph_iso_respects_loops_and_multiplicity():
    loop = LevelGraph(vertices=("x",), edges=(("e", ("x", "x")),))
    edge = LevelGraph(vertices=("x", "y"), edges=(("e", ("x", "y")),))
    assert not multigraphs_isomorphic(loop, edge)
    double = LevelGraph(
        vertices=("x", "y"), edges=(("e1", ("x", "y")), ("e2", ("x", "y")))
    )
    single = LevelGraph(vertices=("x", "y"), edges=(("e1", ("x", "y")),))
    assert not multigraphs_isomorphic(double, single)
    relabeled = LevelGraph(
        vertices=("p", "q"), edges=(("f1", ("p", "q")), ("f2", ("q", "p")))
    )
    assert multigraphs_isomorphic(double, relabeled)
