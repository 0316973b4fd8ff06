import pytest
from hypothesis import given, strategies as st

from smale_orders.bands import (
    boundary_profile,
    glue_bands,
    verify_boundary_cycles,
)
from smale_orders.census import iter_orders
from smale_orders.corpus import diamond_order, example1_cycles, example_cycles
from smale_orders.cycles import (
    CycleAssignment,
    Transition,
    admissible_transitions,
    build_initial_cycles,
)
from smale_orders.errors import PreconditionViolated, StarViolated
from smale_orders.order import check_connectivity, classify, load_order
from smale_orders.pipeline import _core, realize, verify_document

from helpers import (
    enumerate_type_matchings,
    layered_order,
    oracle_axiom_counts,
    usable_orders,
    walk_boundaries,
)

CHAIN3 = load_order({"elements": ["A", "s", "w"], "relations": [["A", "s"], ["s", "w"]]})


T = Transition


def test_example1_boundary_cycles_have_length_two():
    order = diamond_order()
    gluing, _ = glue_bands(example1_cycles(), order)
    assert len(gluing) == 2
    problems, cycles = verify_boundary_cycles(gluing, example1_cycles(), order)
    assert problems == []
    for s in ("s1", "s2"):
        assert boundary_profile(cycles[s]) == (2,)


def test_example_boundary_cycle_matches_displayed_walk():
    order = diamond_order()
    assignment = example_cycles()
    gluing, _ = glue_bands(assignment, order)
    problems, cycles = verify_boundary_cycles(gluing, assignment, order)
    assert problems == []
    for s in ("s1", "s2"):
        assert boundary_profile(cycles[s]) == (4,)
        assert len(cycles[s]) == 1
    # the eight-band walk of s2 alternates the displayed transition types
    walk = cycles["s2"][0][:-1]
    types = [(key[0], assignment.cycle(key[0])[key[1]]) for key in walk]
    assert types == [
        ("w", ("s1", "A", "s2")),
        ("A", ("s1", "w", "s2")),
        ("A", ("s2", "w", "s1")),
        ("w", ("s2", "A", "s1")),
        ("w", ("s1", "A", "s2")),
        ("A", ("s1", "w", "s2")),
        ("A", ("s2", "w", "s1")),
        ("w", ("s2", "A", "s1")),
    ]


def test_three_chain_doubled_partitions_four_bands():
    built = build_initial_cycles(CHAIN3)
    gluing, _ = glue_bands(built, CHAIN3)
    problems, cycles = verify_boundary_cycles(gluing, built, CHAIN3)
    assert problems == []
    assert boundary_profile(cycles["s"]) == (2, 2)
    # every self band appears exactly twice across the saddle's cycles
    appearances = {}
    for cyc in cycles["s"]:
        for key in cyc[:-1]:
            appearances[key] = appearances.get(key, 0) + 1
    assert set(appearances.values()) == {2}


def test_three_chain_minimal_cycle_single_component():
    minimal = CycleAssignment(
        cycles={"w": (T("s", "A", "s"),), "A": (T("s", "w", "s"),)}
    )
    gluing, _ = glue_bands(minimal, CHAIN3)
    problems, cycles = verify_boundary_cycles(gluing, minimal, CHAIN3)
    assert problems == []
    assert boundary_profile(cycles["s"]) == (2,)


def _spliced_built_diamond():
    """The built diamond cycles with one extra s1 -> s2 -> s1 pair at A."""
    built = build_initial_cycles(diamond_order())
    word = list(built.cycle("A"))
    pos = next(i for i, t in enumerate(word) if t.right == "s1")
    word[pos + 1 : pos + 1] = [T("s1", "w", "s2"), T("s2", "w", "s1")]
    return CycleAssignment(cycles={**built.cycles, "A": tuple(word)})


@pytest.mark.parametrize(
    "unbalanced",
    [
        CycleAssignment(
            cycles={
                "w": tuple(T(a, "A", b) for a, b in [("s1", "s2"), ("s2", "s1")] * 2),
                "A": tuple(T(a, "w", b) for a, b in [("s1", "s2"), ("s2", "s1")]),
            }
        ),
        _spliced_built_diamond(),
    ],
    ids=["doubled-attractor-cycle", "extra-splice"],
)
def test_glue_rejects_unbalanced_assignment(unbalanced):
    with pytest.raises(StarViolated):
        glue_bands(unbalanced, diamond_order())


def test_glue_rejects_unchained_cycles_naming_the_saddle():
    # balanced, but s1 -> s2 is followed by s1 -> s2 again on both sides
    word = [("s1", "s2"), ("s1", "s2"), ("s2", "s1"), ("s2", "s1")]
    unchained = CycleAssignment(
        cycles={
            "w": tuple(T(a, "A", b) for a, b in word),
            "A": tuple(T(a, "w", b) for a, b in word),
        }
    )
    with pytest.raises(PreconditionViolated, match="boundary walk for s1 drifted"):
        glue_bands(unchained, diamond_order())


SMALL_ORDERS = [o for o in usable_orders(5) if len(o.elements) >= 4]


@st.composite
def admissible_words(draw):
    """A census order and, per extremal, any word of admissible transitions:
    often unbalanced or unchained."""
    order = draw(st.sampled_from(SMALL_ORDERS))
    cycles = {}
    for owner in classify(order).extremals():
        types = sorted(admissible_transitions(order, owner))
        cycles[owner] = tuple(draw(st.lists(st.sampled_from(types), max_size=6)))
    return order, CycleAssignment(cycles=cycles)


@given(admissible_words())
def test_glue_on_arbitrary_words_returns_or_refuses(case):
    """The walk closes on any input: a call returns or raises one of the two
    refusals, never another error and never a hang."""
    order, assignment = case
    try:
        glue_bands(assignment, order)
    except (StarViolated, PreconditionViolated):
        pass


def test_glue_bands_deterministic():
    order = diamond_order()
    built = build_initial_cycles(order)
    assert glue_bands(built, order) == glue_bands(built, order)


def test_verify_rejects_plus_two_advance_jump():
    doc = realize(diamond_order(), example_cycles()).to_dict()
    key = doc["boundary_cycles"]["s2"][0][2]  # an advance target
    key[1] = (key[1] + 1) % len(doc["cycles"][key[0]])
    assert verify_document(doc) == [
        "re-serialization differs from the input document at boundary_cycles.s2[0][2][1]"
    ]


def test_verify_names_an_odd_band_count_in_a_cycle_body():
    doc = realize(diamond_order(), example1_cycles()).to_dict()
    seq = doc["boundary_cycles"]["s2"][0]
    doc["boundary_cycles"]["s2"] = [seq[:3] + seq[:1]]
    assert verify_document(doc) == [
        "re-serialization differs from the input document at boundary_cycles.s2[0]"
    ]


def test_verify_rejects_reversed_type_matching():
    order = diamond_order()
    assignment = example1_cycles()
    # pair (s1 -> s2 at w) with (s2 -> s1 at A): reversed direction
    bad = ((("w", 0), ("A", 1)), (("w", 1), ("A", 0)))
    problems, cycles = verify_boundary_cycles(bad, assignment, order)
    assert cycles is None
    assert any("incompatible types" in p for p in problems)


def small_instances():
    """All pipeline instances with at most ten bands: built cycles over the
    small census plus the hand-picked assignments."""
    out = []
    for order in usable_orders(5):
        built = build_initial_cycles(order)
        if built.total_bands() <= 10:
            out.append((order, built))
    out.append((diamond_order(), example1_cycles()))
    out.append((diamond_order(), example_cycles()))
    out.append(
        (
            CHAIN3,
            CycleAssignment(
                cycles={"w": (T("s", "A", "s"),), "A": (T("s", "w", "s"),)}
            ),
        )
    )
    return out


def test_small_instance_set_is_nonempty():
    assert len(small_instances()) >= 5


def test_glue_output_among_exhaustive_matchings():
    """Oracle equivalence: the lazy matching is one of the type-compatible
    perfect matchings, and verification accepts every such matching and
    re-traces the cycles of an independent re-walk, which keep the
    appearance counts and the total-length identity."""
    for order, assignment in small_instances():
        got_matching = {}
        for a, b in glue_bands(assignment, order)[0]:
            got_matching[a] = b
            got_matching[b] = a
        matchings = list(enumerate_type_matchings(assignment, order))
        assert got_matching in matchings
        for m in matchings:
            m_gluing = tuple(sorted((a, b) for a, b in m.items() if not order.down_set(a[0])))
            _assert_traced_as_the_oracle(m_gluing, assignment, order, m)


def _assert_traced_as_the_oracle(gluing, assignment, order, matching):
    problems, traced = verify_boundary_cycles(gluing, assignment, order)
    assert problems == []
    walked = walk_boundaries(assignment, order, matching)
    assert oracle_axiom_counts(assignment, order, walked)
    assert traced == {s: tuple(map(tuple, w)) for s, w in walked.items()}


def test_census_boundaries_pass_the_appearance_oracle():
    """Every realized census order with at most six elements: its gluing is
    re-traced into the cycles of the independent re-walk, which keep the
    appearance counts and the total-length identity."""
    certificates = [
        realize(order)
        for n in range(1, 7)
        for order in iter_orders(n)
        if check_connectivity(order).passed
    ]
    assert len(certificates) == 512
    for cert in certificates:
        matching = {k: v for pair in cert.gluing for k, v in (pair, pair[::-1])}
        core = _core(cert.order)
        _assert_traced_as_the_oracle(cert.gluing, cert.assignment, core, matching)


def test_glue_bands_walks_the_retrace_of_its_gluing():
    """``realize`` uses the cycles ``glue_bands`` walked in place of a
    re-trace: on every realized census order with at most six elements and
    on three layered orders they are the re-trace of the gluing returned."""
    orders = [o for n in range(1, 7) for o in iter_orders(n) if check_connectivity(o).passed]
    assert len(orders) == 512
    for order in orders + [load_order(layered_order(seed)) for seed in (1, 2, 3)]:
        cert = realize(order)
        core = _core(order)
        gluing, walked = glue_bands(cert.assignment, core)
        assert gluing == cert.gluing
        assert verify_boundary_cycles(gluing, cert.assignment, core) == ([], walked)


def test_partition_property_on_random_balanced_assignments():
    for order in usable_orders(6):
        built = build_initial_cycles(order)
        if built.total_bands() > 24:
            continue
        assert verify_boundary_cycles(glue_bands(built, order)[0], built, order)[0] == []


def test_pair_count_is_half_the_band_count():
    for order, assignment in small_instances():
        assert 2 * len(glue_bands(assignment, order)[0]) == assignment.total_bands()


def test_boundary_profile_trivia():
    assert boundary_profile([]) == ()
    cyc = (("w", 0), ("A", 0), ("A", 0), ("w", 0), ("w", 0))
    assert boundary_profile([cyc]) == (2,)
