import random

import pytest
from hypothesis import given, strategies as st

from smale_orders.census import iter_orders
from smale_orders.corpus import (
    IMPOSSIBLE_ORDER,
    diamond_order,
    example1_cycles,
    example_cycles,
)
from smale_orders.cycles import (
    CycleAssignment,
    Transition,
    _canonical_start,
    admissible_transitions,
    assignment_problems,
    balance_cycles,
    build_initial_cycles,
)
from smale_orders.errors import (
    ConnectivityFailure,
    NoMediator,
    NotExtremal,
    PreconditionViolated,
)
from smale_orders.order import load_order

from helpers import (
    injected_assignment,
    least_rotation_start,
    oracle_admissible,
    product_admissible,
    star_ledger,
    usable_orders,
    verify_star,
)

CHAIN3 = load_order({"elements": ["A", "s", "w"], "relations": [["A", "s"], ["s", "w"]]})


T = Transition


# ---------------------------------------------------------------- admissible


def test_admissible_diamond_owner_w():
    got = set(admissible_transitions(diamond_order(), "w"))
    assert got == {
        ("s1", "A", "s2"),
        ("s2", "A", "s1"),
        ("s1", "A", "s1"),
        ("s2", "A", "s2"),
    }


def test_admissible_three_chain_owner_w():
    got = set(admissible_transitions(CHAIN3, "w"))
    assert got == {("s", "A", "s")}


def test_admissible_impossibleorder_owner_w1():
    order = load_order(IMPOSSIBLE_ORDER)
    got = set(admissible_transitions(order, "w1"))
    assert got == {("s1", "A", "s1")}


def test_admissible_rejects_saddles():
    with pytest.raises(NotExtremal):
        admissible_transitions(diamond_order(), "s1")


def test_admissible_matches_bruteforce_oracle():
    for order in usable_orders(5):
        for owner in order.maximal_elements + order.minimal_elements:
            got = set(admissible_transitions(order, owner))
            assert got == oracle_admissible(order, owner)


def test_admissible_agrees_with_product_formula_on_census():
    """Every extremal of every census order up to six elements, connected or
    not, against the pairwise test of the relation."""
    checked = 0
    for n in range(2, 7):
        for order in iter_orders(n):
            for owner in order.maximal_elements + order.minimal_elements:
                got = set(admissible_transitions(order, owner))
                assert got == product_admissible(order, owner)
                checked += 1
    assert checked > 10_000


# -------------------------------------------------------------- construction


def test_build_diamond_doubles_every_type():
    built = build_initial_cycles(diamond_order())
    word = built.cycle("w")
    assert len(word) == 8
    counts = {}
    for t in word:
        counts[t] = counts.get(t, 0) + 1
    assert counts == {
        ("s1", "A", "s1"): 2,
        ("s1", "A", "s2"): 2,
        ("s2", "A", "s1"): 2,
        ("s2", "A", "s2"): 2,
    }
    # chaining holds cyclically
    for i, t in enumerate(word):
        assert t.right == word[(i + 1) % len(word)].left


def test_build_three_chain_is_doubled_self_transition():
    built = build_initial_cycles(CHAIN3)
    assert built.to_dict() == {
        "A": [["s", "w", "s"], ["s", "w", "s"]],
        "w": [["s", "A", "s"], ["s", "A", "s"]],
    }


def test_build_requires_connectivity():
    with pytest.raises(ConnectivityFailure):
        build_initial_cycles(load_order(IMPOSSIBLE_ORDER))


def test_build_rejects_north_south_degeneracy():
    ns = load_order({"elements": ["a", "b"], "relations": [["a", "b"]]})
    with pytest.raises(NoMediator):
        build_initial_cycles(ns)


def test_build_is_deterministic():
    a = build_initial_cycles(diamond_order()).to_dict()
    b = build_initial_cycles(diamond_order()).to_dict()
    assert a == b


def test_build_succeeds_and_balances_on_every_usable_order():
    for order in usable_orders(6):
        built = build_initial_cycles(order)
        assert assignment_problems(built, order) == []
        ledger, ok = verify_star(built, order)
        assert ok, (order.to_dict(), ledger.to_dict())


def test_example1_cycles_accepted_as_external_assignment():
    assert assignment_problems(example1_cycles(), diamond_order()) == []


# ------------------------------------------------------------------- ledger


def test_verify_star_example1_all_counts_one():
    ledger, ok = verify_star(example1_cycles(), diamond_order())
    assert ok
    assert ledger.groups[("w", "A", "s1", "s2")] == (1, 1, 1, 1)


def test_verify_star_example_all_counts_two():
    ledger, ok = verify_star(example_cycles(), diamond_order())
    assert ok
    assert ledger.groups[("w", "A", "s1", "s2")] == (2, 2, 2, 2)


def test_star_ledger_lists_only_touched_groups():
    # example1 uses no self-transition, so the admissible s1 -> s1 types of
    # either side touch no group
    ledger = star_ledger(example1_cycles(), diamond_order())
    assert ledger.balanced
    assert ("w", "A", "s1", "s1") not in ledger.groups
    assert sorted(ledger.groups) == [("w", "A", "s1", "s2")]


def unbalanced_pair_case():
    return CycleAssignment(
        cycles={
            "w": tuple(T(a, "A", b) for a, b in [("s1", "s2"), ("s2", "s1")] * 2),
            "A": tuple(T(a, "w", b) for a, b in [("s1", "s2"), ("s2", "s1")]),
        }
    )


def test_verify_star_reports_unbalanced_group():
    ledger, ok = verify_star(unbalanced_pair_case(), diamond_order())
    assert not ok
    assert ledger.unbalanced_groups() == (("w", "A", "s1", "s2"),)
    assert ledger.groups[("w", "A", "s1", "s2")] == (2, 2, 1, 1)


# ----------------------------------------------------------------- balancing


def test_balance_leaves_balanced_assignment_unchanged():
    out = balance_cycles(example1_cycles(), diamond_order())
    assert out.to_dict() == example1_cycles().to_dict()


def test_balance_splices_one_pair_into_deficient_cycle():
    order = diamond_order()
    before = star_ledger(unbalanced_pair_case(), order)
    assert before.deficit() == 1
    out = balance_cycles(unbalanced_pair_case(), order)
    ledger, ok = verify_star(out, order)
    assert ok
    assert ledger.groups[("w", "A", "s1", "s2")] == (2, 2, 2, 2)
    assert len(out.cycle("A")) == 4  # one spliced pair
    assert len(out.cycle("w")) == 4  # untouched


def test_balance_self_transition_case():
    # two self slots around w, one around A: one self splice into A's cycle
    assignment = CycleAssignment(
        cycles={
            "w": (T("s", "A", "s"), T("s", "A", "s")),
            "A": (T("s", "w", "s"),),
        }
    )
    before = star_ledger(assignment, CHAIN3)
    assert before.deficit() == 1
    out = balance_cycles(assignment, CHAIN3)
    ledger, ok = verify_star(out, CHAIN3)
    assert ok
    assert ledger.groups[("w", "A", "s", "s")] == (2, 2, 2, 2)
    assert len(out.cycle("A")) == 2


def test_balance_names_an_extremal_without_a_cycle():
    only_w = CycleAssignment(cycles={"w": example1_cycles().cycle("w")})
    with pytest.raises(PreconditionViolated) as exc:
        balance_cycles(only_w, diamond_order())
    assert str(exc.value) == (
        "assignment owners ['w'] do not match the extremal elements ['A', 'w']"
    )


def test_balance_rejects_condition_violations():
    # missing required type s2 -> s1 (condition 1 / condition 2 break)
    bad = CycleAssignment(
        cycles={
            "w": (T("s1", "A", "s2"), T("s2", "A", "s1")),
            "A": (T("s1", "w", "s2"), T("s2", "w", "s2"), T("s2", "w", "s1"), T("s1", "w", "s1")),
        }
    )
    # corrupt chaining in w
    worse = CycleAssignment(
        cycles={
            "w": (T("s1", "A", "s2"), T("s1", "A", "s2")),
            "A": bad.cycles["A"],
        }
    )
    with pytest.raises(PreconditionViolated):
        balance_cycles(worse, diamond_order())


def test_splice_count_equals_initial_deficit_with_injections():
    rng = random.Random(7)
    orders = [o for o in usable_orders(5)]
    for _ in range(60):
        order = rng.choice(orders)
        # inject symmetric pairs (preserves conditions 1 and 2, breaks balance)
        assignment = injected_assignment(order, rng)
        assert assignment_problems(assignment, order) == []
        before = star_ledger(assignment, order)
        deficit = before.deficit()
        out = balance_cycles(assignment, order)
        _, ok = verify_star(out, order)
        assert ok
        added = out.total_bands() - assignment.total_bands()
        expected_added = 0
        for (om, al, k, l), (a_kl, _, r_kl, _) in before.groups.items():
            expected_added += (2 if k != l else 1) * abs(a_kl - r_kl)
        assert added == expected_added
        assert deficit == sum(
            abs(a - r) for (a, _, r, _) in before.groups.values()
        )


@given(st.integers(0, 7), st.integers(0, 7))
def test_balance_output_equal_up_to_rotation_of_inputs(rot_w, rot_a):
    order = diamond_order()
    base = unbalanced_pair_case()

    def rotate(word, k):
        k %= len(word)
        return word[k:] + word[:k]

    rotated = CycleAssignment(
        cycles={
            "w": rotate(base.cycle("w"), rot_w),
            "A": rotate(base.cycle("A"), rot_a),
        }
    )
    out_base = balance_cycles(base, order)
    out_rot = balance_cycles(rotated, order)

    def canonical(word):
        keys = list(word)
        return min(tuple(keys[i:] + keys[:i]) for i in range(len(keys)))

    for owner in ("w", "A"):
        assert canonical(out_base.cycle(owner)) == canonical(out_rot.cycle(owner))


def test_canonical_start_matches_the_brute_force():
    """The linear least-rotation search picks the start that comparing every
    rotation picks, the first one when rotations tie, on random words and on
    periodic ones."""
    rng = random.Random(5)
    letters = [T("s1", m, "s2") for m in ("A", "B", "C")]
    for _ in range(500):
        block = rng.choices(letters[: rng.randint(1, 3)], k=rng.randint(0, 9))
        for word in (block, block * rng.randint(2, 4)):
            assert _canonical_start(word) == least_rotation_start(word)
