import pytest
from hypothesis import given, settings, strategies as st

from smale_orders.census import NATURALLY_LABELED_COUNTS, iter_down_set_tuples
from smale_orders.errors import (
    CycleInRelation,
    DuplicateElement,
    IsolatedElement,
    OrderSpecError,
    UnknownElementInRelation,
)
from smale_orders.order import (
    Role,
    check_connectivity,
    classify,
    from_down_sets,
    load_order,
)

from helpers import (
    count_transitive_relations_bruteforce,
    oracle_connectivity,
    oracle_order,
    usable_orders,
)

CHAIN3 = {"elements": ["A", "s", "w"], "relations": [["A", "s"], ["s", "w"]]}


def test_load_three_chain_closure_and_covers():
    order = load_order(CHAIN3)
    assert order.covers == {("A", "s"), ("s", "w")}
    assert order.relations == {("A", "s"), ("s", "w"), ("A", "w")}


def test_load_impossibleorder_is_valid():
    from smale_orders.corpus import IMPOSSIBLE_ORDER

    order = load_order(IMPOSSIBLE_ORDER)
    assert len(order.elements) == 5
    assert ("A", "w1") in order.relations  # closure


def test_load_rejects_relation_cycle():
    with pytest.raises(CycleInRelation):
        load_order({"elements": ["a", "b"], "relations": [["a", "b"], ["b", "a"]]})


def test_load_rejects_self_pair():
    with pytest.raises(CycleInRelation):
        load_order({"elements": ["a", "b"], "relations": [["a", "a"], ["a", "b"]]})


def test_from_down_sets_rejects_self_loop():
    with pytest.raises(CycleInRelation):
        from_down_sets(("a", "b"), (0b11, 0))


def test_load_rejects_duplicates_and_unknowns():
    with pytest.raises(DuplicateElement):
        load_order({"elements": ["a", "a"], "relations": []})
    with pytest.raises(UnknownElementInRelation):
        load_order({"elements": ["a"], "relations": [["a", "zz"]]})


def test_load_rejects_isolated_element():
    with pytest.raises(IsolatedElement):
        load_order({"elements": ["a", "b", "c"], "relations": [["a", "b"]]})


def test_classify_three_chain():
    roles = classify(load_order(CHAIN3))
    assert roles.roles == {"A": Role.REPELLER, "s": Role.SADDLE, "w": Role.ATTRACTOR}
    assert roles.generations == {"s": 1}


def test_classify_two_element_north_south():
    order = load_order({"elements": ["a", "b"], "relations": [["a", "b"]]})
    roles = classify(order)
    assert roles.roles == {"a": Role.REPELLER, "b": Role.ATTRACTOR}
    assert roles.saddles() == ()
    assert order.north_south_pairs == (("a", "b"),)


def test_classify_fan_order_counts():
    from smale_orders.corpus import FAN_ORDER

    order = load_order(FAN_ORDER)
    roles = classify(order)
    assert roles.roles["A"] is Role.SADDLE
    assert len(order.cover_parents("A")) == 3
    assert len(order.cover_children("A")) == 3
    assert len(order.cover_parents("B")) == 1
    assert len(order.cover_children("B")) == 1


def test_generations_on_chain_of_saddles():
    order = load_order(
        {
            "elements": ["A", "s1", "s2", "s3", "w"],
            "relations": [["A", "s1"], ["s1", "s2"], ["s2", "s3"], ["s3", "w"]],
        }
    )
    roles = classify(order)
    assert roles.generations == {"s1": 1, "s2": 2, "s3": 3}


def test_connectivity_fails_at_impossibleorder_top():
    from smale_orders.corpus import IMPOSSIBLE_ORDER

    report = check_connectivity(load_order(IMPOSSIBLE_ORDER))
    ok_a, comps = report.entries["A"]
    assert not ok_a
    assert comps == (("s1", "w1"), ("s2", "w2"))
    assert report.entries["w1"][0] and report.entries["w2"][0]
    assert report.failures() == ("A",)


def test_connectivity_total_order_passes():
    order = load_order(
        {"elements": list("abcd"), "relations": [["a", "b"], ["b", "c"], ["c", "d"]]}
    )
    assert check_connectivity(order).passed


def test_connectivity_diamond_passes_everywhere():
    from smale_orders.corpus import DIAMOND

    report = check_connectivity(load_order(DIAMOND))
    assert report.passed
    # every maximal and minimal element listed exactly once
    assert sorted(report.entries) == ["A", "w"]


@given(st.permutations(list("abcdef")))
def test_classification_invariant_under_relabeling(perm):
    base = load_order(
        {
            "elements": list("abcdef"),
            "relations": [
                ["a", "b"], ["a", "c"], ["b", "d"], ["c", "d"], ["c", "e"], ["e", "f"],
            ],
        }
    )
    mapping = dict(zip("abcdef", perm))
    relabeled = load_order(
        {
            "elements": [mapping[e] for e in "abcdef"],
            "relations": [[mapping[a], mapping[b]] for a, b in base.relations],
        }
    )
    roles_base = classify(base)
    roles_new = classify(relabeled)
    for e in "abcdef":
        assert roles_base.roles[e] == roles_new.roles[mapping[e]]
    assert {mapping[s]: g for s, g in roles_base.generations.items()} == (
        roles_new.generations
    )
    rep_base = check_connectivity(base)
    rep_new = check_connectivity(relabeled)
    for e, (ok, _) in rep_base.entries.items():
        assert rep_new.entries[mapping[e]][0] == ok


def test_generation_one_iff_only_repellers_above():
    for order in usable_orders(6):
        roles = classify(order)
        for s in roles.saddles():
            gen1 = all(
                roles.roles[x] is Role.REPELLER for x in order.up_set(s)
            )
            assert (roles.generations[s] == 1) == gen1


def test_census_counts_match_bruteforce_and_reference():
    for n in range(1, 6):
        got = sum(1 for _ in iter_down_set_tuples(n))
        assert got == count_transitive_relations_bruteforce(n)
        assert got == NATURALLY_LABELED_COUNTS[n]


@pytest.mark.parametrize("max_n", [6, 7])
def test_connectivity_agrees_with_union_find_oracle(max_n):
    """Exhaustive agreement with an independent union-find implementation."""
    lo = 1 if max_n == 6 else 7
    checked = 0
    for n in range(lo, max_n + 1):
        names = tuple(f"e{i}" for i in range(n))
        index = {nm: i for i, nm in enumerate(names)}
        for downs in iter_down_set_tuples(n):
            up_union = 0
            for m in downs:
                up_union |= m
            if any(downs[i] == 0 and not up_union >> i & 1 for i in range(n)):
                continue  # isolated element: rejected at load time
            order = from_down_sets(names, downs)
            got = {
                index[e]: ok for e, (ok, _) in check_connectivity(order).entries.items()
            }
            assert got == oracle_connectivity(downs)
            checked += 1
    assert checked > 0


@st.composite
def generating_sets(draw):
    """Up to nine elements whose sorted order is unrelated to the order
    itself; pairs point downwards unless the draw allows cycles."""
    n = draw(st.integers(1, 9))
    names = draw(st.permutations([f"x{i}" for i in range(n)]))
    index = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(index, index), min_size=n, max_size=3 * n))
    if not draw(st.booleans()):  # acyclic: higher index above
        pairs = [(max(p), min(p)) for p in pairs if p[0] != p[1]]
    return {
        "elements": draw(st.permutations(names)),
        "relations": [[names[a], names[b]] for a, b in pairs],
    }


@settings(max_examples=400)
@given(generating_sets())
def test_load_order_agrees_with_set_oracle(spec):
    try:
        expected = oracle_order(spec)
    except OrderSpecError as exc:
        with pytest.raises(OrderSpecError) as got:
            load_order(spec)
        assert type(got.value) is type(exc) and str(got.value) == str(exc)
        return
    order = load_order(spec)
    assert order.elements == expected["elements"]
    assert order.relations == expected["relations"]
    assert order.covers == expected["covers"]
    assert check_connectivity(order).entries == expected["connectivity"]
    roles = classify(order)
    assert roles.roles == expected["roles"]
    assert roles.generations == expected["generations"]


def test_long_chain_loads():
    names = [f"c{i:03d}" for i in range(500)]
    order = load_order(
        {"elements": names, "relations": [list(p) for p in zip(names, names[1:])]}
    )
    assert len(order.relations) == 124_750
    assert len(order.covers) == 499
    assert check_connectivity(order).passed


@st.composite
def shuffled_orders(draw):
    """An acyclic generating set, its elements listed in a drawn order that
    is neither sorted nor the order's own, plus a choice of components."""
    n = draw(st.integers(2, 9))
    names = draw(st.permutations([f"x{i}" for i in range(n)]))
    index = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(index, index), min_size=1, max_size=3 * n))
    spec = {
        "elements": draw(st.permutations(names)),
        "relations": [[names[max(p)], names[min(p)]] for p in pairs if p[0] != p[1]],
    }
    return spec, draw(st.lists(st.booleans(), min_size=n, max_size=n))


def _brute_components(elements, rel):
    """Comparability components as sets, by repeated merging."""
    comps = [{e} for e in elements]
    for a, b in rel:
        ca = next(c for c in comps if a in c)
        cb = next(c for c in comps if b in c)
        if ca is not cb:
            comps.remove(cb)
            ca |= cb
    return comps


@settings(max_examples=300)
@given(shuffled_orders())
def test_mask_views_agree_with_brute_force(drawn):
    """relations, covers, north_south_pairs, restrict, equality, hashing and
    the exact to_dict output, through load_order (sorted elements) and
    from_down_sets (the drawn element order), against plain sets."""
    spec, picks = drawn
    try:
        expected = oracle_order(spec)
    except OrderSpecError:
        return
    rel, covers = expected["relations"], expected["covers"]
    elements = tuple(spec["elements"])
    position = {e: i for i, e in enumerate(elements)}
    downs = tuple(
        sum(1 << position[b] for a, b in rel if a == e) for e in elements
    )
    loaded, direct = load_order(spec), from_down_sets(elements, downs)
    maxes = {e for e in elements if not any(b == e for _, b in rel)}
    mins = {e for e in elements if not any(a == e for a, _ in rel)}
    comps = _brute_components(elements, rel)
    keep = set().union(*(c for c, pick in zip(comps, picks) if pick))
    for order in (loaded, direct):
        assert order.relations == rel
        assert order.covers == covers
        assert order.north_south_pairs == tuple(
            sorted((a, b) for a, b in covers if a in maxes and b in mins)
        )
        assert order.to_dict() == {
            "elements": list(order.elements),
            "relations": sorted([a, b] for a, b in rel),
            "covers": sorted([a, b] for a, b in covers),
        }
        part = order.restrict(keep)
        assert part.elements == tuple(e for e in order.elements if e in keep)
        assert part.relations == {(a, b) for a, b in rel if a in keep}
        assert part.covers == {(a, b) for a, b in covers if a in keep}
        for e in part.elements:
            assert part.up_set(e) == order.up_set(e)
            assert part.cover_children(e) == order.cover_children(e)
        if part.elements:
            assert part == from_down_sets(part.elements, part._down)
    assert loaded == from_down_sets(loaded.elements, loaded._down)
    assert hash(loaded) == hash(from_down_sets(loaded.elements, loaded._down))
    assert (direct == loaded) == (elements == loaded.elements)
    dual = from_down_sets(elements, tuple(direct._up))
    assert dual != direct and dual.relations == {(b, a) for a, b in rel}
