"""Constructibility of boundary-length profiles and domain recipes.

A saddle domain must exist with prescribed boundary circle lengths.  Two
primitive domains are planar: the horseshoe (one boundary circle of length
2) and the fixed saddle (one circle of length 4).  Everything else is built
from a pseudo-Anosov map whose singularities get opened up: a singularity
with p >= 3 prongs yields a boundary circle of length 2p, and extra length-4
circles come from opening regular saddle points.  The singularity data
(p_1, ..., p_s) is realizable iff sum(p_i - 2) is divisible by 4 and the
multiset is not exactly {3, 5}; in boundary lengths that reads
``sum(n_i) == 4*s  (mod 8)`` with the excluded family (10, 6, 4, 4, ...).

Profiles failing the congruence are reported NotCovered rather than
Excluded: the sufficient condition above is not known to be necessary.
Profiles with a length-2 entry next to other entries would need one-pronged
singularities; the recipe vocabulary can express them but the catalog does
not claim them, so they are NotCovered too and the repair step removes them.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

from .errors import NonIntegralGenus


class Verdict(enum.Enum):
    CONSTRUCTIBLE = "constructible"
    EXCLUDED = "excluded"
    NOT_COVERED = "not-covered"


class RecipeKind(enum.Enum):
    HORSESHOE = "primitive-horseshoe"
    FIXED_SADDLE = "primitive-fixed-saddle"
    PSEUDO_ANOSOV_DA = "pseudo-anosov-da"


class LengthProfile(NamedTuple("LengthProfile", [("lengths", tuple)])):
    """Multiset of boundary circle lengths, stored largest first."""

    __slots__ = ()

    def __new__(cls, lengths: tuple[int, ...]):
        lengths = tuple(sorted(lengths, reverse=True))
        for n in lengths:
            if n < 2 or n % 2:
                raise ValueError(f"boundary lengths must be even and >= 2, got {n}")
        if not lengths:
            raise ValueError("a profile needs at least one boundary circle")
        return super().__new__(cls, lengths)

    @property
    def s(self) -> int:
        return len(self.lengths)

    @property
    def total(self) -> int:
        return sum(self.lengths)

    def congruent(self) -> bool:
        return (self.total - 4 * self.s) % 8 == 0

    def is_excluded_family(self) -> bool:
        """The (10, 6, 4, 4, ...) family: prong data {3, 5} plus saddle
        openings.  Covers the bare (6, 10) case."""
        pronged = sorted((n for n in self.lengths if n >= 6), reverse=True)
        rest_all_4 = all(n == 4 for n in self.lengths if n < 6)
        return pronged == [10, 6] and rest_all_4


class Recipe(NamedTuple):
    kind: RecipeKind
    prongs: tuple[int, ...] = ()
    saddle_openings: int = 0

    def to_dict(self) -> dict:
        return {
            "kind": self.kind.value,
            "prongs": list(self.prongs),
            "saddle_openings": self.saddle_openings,
        }


class DomainSpec(NamedTuple):
    profile: LengthProfile
    genus: int
    recipe: Recipe

    def to_dict(self) -> dict:
        return {
            "profile": list(self.profile.lengths),
            "genus": self.genus,
            "recipe": self.recipe.to_dict(),
        }


class RepairOp(enum.Enum):
    LENGTHEN_2_TO_10 = "lengthen-2-to-10"
    SPLIT_CYCLE = "split-cycle"


class RepairStep(NamedTuple):
    op: RepairOp
    before: tuple[int, ...]
    after: tuple[int, ...]

    def to_dict(self) -> dict:
        return {"op": self.op.value, "before": list(self.before), "after": list(self.after)}


class RepairLog(NamedTuple):
    steps: tuple[RepairStep, ...]

    @property
    def lengthen_count(self) -> int:
        return sum(1 for s in self.steps if s.op is RepairOp.LENGTHEN_2_TO_10)

    @property
    def split_count(self) -> int:
        return sum(1 for s in self.steps if s.op is RepairOp.SPLIT_CYCLE)

    @property
    def extra_band_pairs(self) -> int:
        """Glued pairs the repairs add to the planned band structure.

        A lengthening grows one boundary circle by 8 slots, i.e. four glued
        self pairs each visited twice; a split adds one such pair.
        """
        return 4 * self.lengthen_count + self.split_count

    def to_list(self) -> list:
        return [s.to_dict() for s in self.steps]


def _genus_from_lengths(lengths: tuple[int, ...]) -> int:
    """Genus of the closed surface carrying the singularity data p_i = n_i/2.

    From the index count for foliation singularities, sum(p_i - 2) = 4g - 4
    with length-4 entries (p = 2) contributing nothing.
    """
    total = sum(n // 2 - 2 for n in lengths)
    if total % 4:
        raise NonIntegralGenus(f"profile {lengths} escaped the congruence check")
    g = 1 + total // 4
    if g < 0:
        raise NonIntegralGenus(f"profile {lengths} yields negative genus {g}")
    return g


def check_constructible(profile: LengthProfile):
    """Decide whether some basic piece realizes the profile.

    Returns ``(verdict, spec_or_none)``; a Constructible verdict carries the
    domain spec with its recipe and genus.
    """
    lengths = profile.lengths
    if lengths == (2,):
        spec = DomainSpec(profile, 0, Recipe(RecipeKind.HORSESHOE))
        return Verdict.CONSTRUCTIBLE, spec
    if lengths == (4,):
        spec = DomainSpec(profile, 0, Recipe(RecipeKind.FIXED_SADDLE))
        return Verdict.CONSTRUCTIBLE, spec
    if any(n == 2 for n in lengths):
        return Verdict.NOT_COVERED, None  # would need one-pronged singularities
    if not profile.congruent():
        return Verdict.NOT_COVERED, None
    if profile.is_excluded_family():
        return Verdict.EXCLUDED, None
    prongs = tuple(n // 2 for n in lengths if n >= 6)
    openings = sum(1 for n in lengths if n == 4)
    spec = DomainSpec(
        profile,
        _genus_from_lengths(lengths),
        Recipe(RecipeKind.PSEUDO_ANOSOV_DA, prongs=prongs, saddle_openings=openings),
    )
    return Verdict.CONSTRUCTIBLE, spec


def repair_profile(profile: LengthProfile) -> tuple[LengthProfile, RepairLog]:
    """Make a profile constructible with the two boundary-cycle tricks.

    First every length-2 circle is lengthened to 10, which keeps the
    congruence class.  Then the largest circle is split, each split raising
    the circle count by one and the total length by two, until the profile
    is constructible.  Once no 2 is left, a profile that still needs work has
    a largest circle of at least 6 (4s alone are constructible), so no split
    makes a 2.  The first split of that circle, (n - 2, 4), lands on the
    excluded family only for a 12 next to a lone 6; there the second,
    (n - 4, 6) = (8, 6), is taken.  So the result is always constructible: a
    profile off the congruence needs at most three splits, and only an input
    already in the excluded family costs four.
    """
    lengths = list(profile.lengths)
    steps = []

    def needs_work() -> bool:
        verdict, _ = check_constructible(LengthProfile(tuple(lengths)))
        return verdict is not Verdict.CONSTRUCTIBLE

    if not needs_work():
        return profile, RepairLog(steps=())

    # the twos end the sorted profile; each lengthening turns one of them
    # into a 10, which sorts among the tens, after the longer circles
    twos = lengths.count(2)
    rest = lengths[: len(lengths) - twos]
    above = tuple(n for n in rest if n > 10)
    below = tuple(n for n in rest if n < 10)
    tens = len(rest) - len(above) - len(below)
    before = profile.lengths
    for k in range(tens + 1, tens + twos + 1):
        after = above + (10,) * k + below + (2,) * (tens + twos - k)
        steps.append(RepairStep(op=RepairOp.LENGTHEN_2_TO_10, before=before, after=after))
        before = after
    lengths = list(before)

    while needs_work():
        before = tuple(sorted(lengths, reverse=True))
        n = max(lengths)
        lengths.remove(n)
        first = (n - 2, 4)
        split = LengthProfile((*lengths, *first))
        lengths += (n - 4, 6) if split.congruent() and split.is_excluded_family() else first
        after = tuple(sorted(lengths, reverse=True))
        steps.append(RepairStep(op=RepairOp.SPLIT_CYCLE, before=before, after=after))

    return LengthProfile(tuple(lengths)), RepairLog(steps=tuple(steps))
