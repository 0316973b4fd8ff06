import pytest
from hypothesis import given, strategies as st

from smale_orders.domains import (
    LengthProfile,
    RecipeKind,
    RepairOp,
    Verdict,
    check_constructible,
    repair_profile,
)
from smale_orders.errors import NonIntegralGenus

EVEN = st.sampled_from([2, 4, 6, 8, 10, 12, 14, 16])
PROFILES = st.lists(EVEN, min_size=1, max_size=6).map(
    lambda ls: LengthProfile(tuple(ls))
)


def test_profile_normalizes_and_validates():
    assert LengthProfile((4, 10, 6)).lengths == (10, 6, 4)
    with pytest.raises(ValueError):
        LengthProfile((3,))
    with pytest.raises(ValueError):
        LengthProfile(())
    with pytest.raises(ValueError):
        LengthProfile((0,))


def test_exceptional_pair_excluded():
    verdict, spec = check_constructible(LengthProfile((6, 10)))
    assert verdict is Verdict.EXCLUDED and spec is None


@pytest.mark.parametrize("tail", [0, 1, 2, 3, 5])
def test_exceptional_family_excluded_with_any_number_of_fours(tail):
    profile = LengthProfile((10, 6) + (4,) * tail)
    verdict, _ = check_constructible(profile)
    assert verdict is Verdict.EXCLUDED


def test_twelve_constructible_genus_two():
    verdict, spec = check_constructible(LengthProfile((12,)))
    assert verdict is Verdict.CONSTRUCTIBLE
    assert spec.genus == 2
    assert spec.recipe.kind is RecipeKind.PSEUDO_ANOSOV_DA
    assert spec.recipe.prongs == (6,)
    # independent check via the singularity index sum: sum(p - 2) = 4g - 4
    assert sum(p - 2 for p in spec.recipe.prongs) == 4 * spec.genus - 4


def test_primitives():
    verdict, spec = check_constructible(LengthProfile((2,)))
    assert verdict is Verdict.CONSTRUCTIBLE
    assert spec.recipe.kind is RecipeKind.HORSESHOE and spec.genus == 0
    verdict, spec = check_constructible(LengthProfile((4,)))
    assert verdict is Verdict.CONSTRUCTIBLE
    assert spec.recipe.kind is RecipeKind.FIXED_SADDLE and spec.genus == 0


def test_six_not_covered_by_the_congruence():
    verdict, spec = check_constructible(LengthProfile((6,)))
    assert verdict is Verdict.NOT_COVERED and spec is None


def test_length_two_entries_not_claimed_beyond_primitive():
    verdict, _ = check_constructible(LengthProfile((2, 6)))
    assert verdict is Verdict.NOT_COVERED


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_all_fours_is_genus_one(k):
    verdict, spec = check_constructible(LengthProfile((4,) * k))
    assert verdict is Verdict.CONSTRUCTIBLE
    assert spec.genus == 1
    assert spec.recipe.prongs == ()
    assert spec.recipe.saddle_openings == k


@given(PROFILES)
def test_congruence_equivalence(profile):
    lhs = (profile.total - 4 * profile.s) % 8 == 0
    rhs = sum(n // 2 - 2 for n in profile.lengths) % 4 == 0
    assert lhs == rhs
    assert profile.congruent() == lhs


@given(PROFILES)
def test_genus_invariant_under_permutation(profile):
    verdict, spec = check_constructible(profile)
    if verdict is not Verdict.CONSTRUCTIBLE:
        return
    shuffled = LengthProfile(tuple(reversed(profile.lengths)))
    verdict2, spec2 = check_constructible(shuffled)
    assert verdict2 is Verdict.CONSTRUCTIBLE
    assert spec2.genus == spec.genus


def test_repair_lengthen_only_when_ambient_congruence_holds():
    # one length-2 circle in a congruent profile costs exactly one lengthening
    repaired, log = repair_profile(LengthProfile((2, 8, 8, 6)))
    assert repaired.lengths == (10, 8, 8, 6)
    assert [s.op for s in log.steps] == [RepairOp.LENGTHEN_2_TO_10]


def test_repair_six_splits_once_into_four_four():
    repaired, log = repair_profile(LengthProfile((6,)))
    assert repaired.lengths == (4, 4)
    assert [s.op for s in log.steps] == [RepairOp.SPLIT_CYCLE]
    verdict, _ = check_constructible(repaired)
    assert verdict is Verdict.CONSTRUCTIBLE


def test_repair_noop_on_constructible_profile():
    repaired, log = repair_profile(LengthProfile((12,)))
    assert repaired.lengths == (12,)
    assert log.steps == ()


def test_repair_dodges_the_excluded_family_with_the_second_split():
    # the first split of 12, (10, 4), would give the excluded (10, 6, 4)
    repaired, log = repair_profile(LengthProfile((12, 6)))
    assert repaired.lengths == (8, 6, 6)
    assert [s.to_dict() for s in log.steps] == [
        {"op": "split-cycle", "before": [12, 6], "after": [8, 6, 6]}
    ]


def test_repair_handles_excluded_family_with_four_splits():
    repaired, log = repair_profile(LengthProfile((6, 10)))
    verdict, _ = check_constructible(repaired)
    assert verdict is Verdict.CONSTRUCTIBLE
    assert log.split_count == 4


def test_repair_step_signatures():
    _, log = repair_profile(LengthProfile((2, 2)))
    for step in log.steps:
        before = LengthProfile(step.before)
        after = LengthProfile(step.after)
        residue = lambda p: (p.total - 4 * p.s) % 8
        if step.op is RepairOp.LENGTHEN_2_TO_10:
            assert after.s == before.s and after.total == before.total + 8
            assert residue(after) == residue(before)
        else:
            assert after.s == before.s + 1 and after.total == before.total + 2
            assert residue(after) == (residue(before) - 2) % 8


@given(PROFILES)
def test_repair_always_reaches_constructible(profile):
    repaired, log = repair_profile(profile)
    verdict, spec = check_constructible(repaired)
    assert verdict is Verdict.CONSTRUCTIBLE
    assert spec is not None
    # lengthen steps all precede split steps (one lengthening pass)
    ops = [s.op for s in log.steps]
    if RepairOp.SPLIT_CYCLE in ops:
        first_split = ops.index(RepairOp.SPLIT_CYCLE)
        assert RepairOp.LENGTHEN_2_TO_10 not in ops[first_split:]


def test_nonintegral_genus_is_an_internal_error():
    from smale_orders.domains import _genus_from_lengths

    with pytest.raises(NonIntegralGenus):
        _genus_from_lengths((6,))
