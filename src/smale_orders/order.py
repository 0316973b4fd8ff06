"""Finite partial orders with repeller / saddle / attractor roles.

The relation convention throughout the package: a pair ``(a, b)`` means
``a > b``.  Relations are always strict and transitively closed; the Hasse
covers are derived.  Element iteration order is lexicographic wherever a
result is listed, which makes every downstream construction deterministic.

A set of elements is an int mask whose bit ``i`` stands for ``elements[i]``,
and the masks are the order: four per element, the strict down- and up-set,
the cover children and the cover parents.  ``load_order`` closes a
generating set on masks in topological order and hands the result to
``from_down_sets``, the one builder of up-sets and covers, ``down[a] &
~OR(down[c] for c in down[a])``; ``restrict`` projects the masks.  The name
pairs ``relations`` and ``covers`` are views computed from the masks on each
use, ``to_dict`` writes its sorted pairs row by row from them, connectivity
floods masks one frontier at a time, and the name sets of
``down_set``/``up_set`` are made on first use.
"""

from __future__ import annotations

import enum
from collections import Counter
from functools import lru_cache
from itertools import compress
from typing import NamedTuple

from .errors import (
    CycleInRelation,
    DuplicateElement,
    IsolatedElement,
    MalformedOrder,
    UnknownElementInRelation,
)


class Role(enum.Enum):
    REPELLER = "repeller"
    SADDLE = "saddle"
    ATTRACTOR = "attractor"


class _NameSets(dict):
    """Frozensets of element names by mask, each made on first use."""

    def __init__(self, elements):
        self.elements = elements
        self[0] = frozenset()  # every extremal element asks for it

    def __missing__(self, mask: int) -> frozenset[str]:
        names = self[mask] = frozenset(compress(self.elements, _flags(mask)))
        return names


class FiniteOrder:
    """A finite strict partial order, transitively closed, with Hasse covers.

    Instances are immutable; all operations on them are pure functions.  The
    mask tuples are the order, and two orders are equal when their elements
    and down masks are; ``from_down_sets`` and ``restrict`` build them.
    """

    __slots__ = ("elements", "_down", "_up", "_cover_down", "_cover_up", "_index", "_named")

    def __init__(self, elements, _down, _up, _cover_down, _cover_up):
        index = {e: i for i, e in enumerate(elements)}
        values = (elements, _down, _up, _cover_down, _cover_up, index, _NameSets(elements))
        for slot, value in zip(_ORDER_SLOTS, values):
            slot.__set__(self, value)  # the slot's own setter; __setattr__ refuses

    def __setattr__(self, name, value=None):
        raise AttributeError(f"a FiniteOrder is immutable; cannot change {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return FiniteOrder, (self.elements, self._down, self._up, self._cover_down, self._cover_up)

    def __eq__(self, other):
        if other.__class__ is not FiniteOrder:
            return NotImplemented
        return (self.elements, self._down) == (other.elements, other._down)

    def __hash__(self):
        return hash((self.elements, self._down))

    def __repr__(self):
        return f"FiniteOrder(elements={self.elements!r}, _down={self._down!r})"

    # -- basic queries ------------------------------------------------------

    @property
    def relations(self) -> frozenset[tuple[str, str]]:
        """The pairs ``(a, b)`` with ``a > b``, made from the down masks."""
        return _pairs(self.elements, self._down)

    @property
    def covers(self) -> frozenset[tuple[str, str]]:
        """The Hasse cover pairs ``(a, b)``, made from the cover masks."""
        return _pairs(self.elements, self._cover_down)

    def down_set(self, e: str) -> frozenset[str]:
        """Strictly smaller elements."""
        return self._named[self._down[self._index[e]]]

    def up_set(self, e: str) -> frozenset[str]:
        """Strictly greater elements."""
        return self._named[self._up[self._index[e]]]

    @property
    def maximal_elements(self) -> tuple[str, ...]:
        return tuple(e for e, up in zip(self.elements, self._up) if not up)

    @property
    def minimal_elements(self) -> tuple[str, ...]:
        return tuple(e for e, down in zip(self.elements, self._down) if not down)

    def _role_masks(self) -> tuple[int, int, int]:
        """Masks of the maximal elements, the saddles and the minimal
        elements."""
        maxes = sum(1 << i for i, up in enumerate(self._up) if not up)
        mins = sum(1 << i for i, down in enumerate(self._down) if not down)
        return maxes, (1 << len(self.elements)) - 1 & ~(maxes | mins), mins

    def _cover_pairs(self, upper: int, lower: int) -> tuple[tuple[str, str], ...]:
        """Sorted cover pairs ``(a, b)`` with ``a`` in the mask ``upper`` and
        ``b`` in the mask ``lower``."""
        names, flags = self.elements, _flags(upper)
        pairs = zip(compress(names, flags), compress(self._cover_down, flags))
        return tuple(
            sorted((a, b) for a, m in pairs for b in compress(names, _flags(m & lower)))
        )

    @property
    def north_south_pairs(self) -> tuple[tuple[str, str], ...]:
        """Cover pairs joining a maximal directly to a minimal element.

        No saddle mediates such a pair; downstream stages realize each one as
        a separate sphere carrying a north-south map.
        """
        maxes, _, mins = self._role_masks()
        return self._cover_pairs(maxes, mins)

    @property
    def saddle_cover_pairs(self) -> tuple[tuple[str, str], ...]:
        """Cover pairs between two saddles, sorted."""
        _, saddles, _ = self._role_masks()
        return self._cover_pairs(saddles, saddles)

    def cover_children(self, e: str) -> tuple[str, ...]:
        return tuple(sorted(compress(self.elements, _flags(self._cover_down[self._index[e]]))))

    def cover_parents(self, e: str) -> tuple[str, ...]:
        return tuple(sorted(compress(self.elements, _flags(self._cover_up[self._index[e]]))))

    def restrict(self, keep: set[str]) -> "FiniteOrder":
        """Induced suborder on a union of comparability components, or on
        what is left after removing extremal elements.

        Neither leaves out an element that lies between two kept ones, so
        every mask, covers included, is projected onto the kept elements.
        """
        kept = [i for i, e in enumerate(self.elements) if e in keep]

        def project(masks) -> tuple[int, ...]:
            return tuple(
                sum(1 << new for new, old in enumerate(kept) if masks[i] >> old & 1)
                for i in kept
            )

        return FiniteOrder(
            tuple(self.elements[i] for i in kept),
            *map(project, (self._down, self._up, self._cover_down, self._cover_up)),
        )

    def to_dict(self) -> dict:
        return {
            "elements": list(self.elements),
            "relations": _rows(self.elements, self._down),
            "covers": _rows(self.elements, self._cover_down),
        }


_ORDER_SLOTS = [vars(FiniteOrder)[name] for name in FiniteOrder.__slots__]


class RoleMap(NamedTuple):
    """Element roles plus saddle generations.

    A saddle has generation 1 when no saddle lies strictly above it, and
    generation k when the deepest saddle chain above it has length k - 1.
    """

    roles: dict
    generations: dict

    def saddles(self) -> tuple[str, ...]:
        return tuple(sorted(e for e, r in self.roles.items() if r is Role.SADDLE))

    def extremals(self) -> tuple[str, ...]:
        return tuple(
            sorted(e for e, r in self.roles.items() if r is not Role.SADDLE)
        )


class ConnectivityReport(NamedTuple):
    """Per-extremal connectivity verdicts.

    Every maximal and minimal element appears exactly once.  ``entries`` maps
    the extremal element to ``(passed, components)`` where ``components`` is
    the partition of the relevant induced subgraph (trivial when passed).
    """

    entries: dict

    @property
    def passed(self) -> bool:
        return all(ok for ok, _ in self.entries.values())

    def failures(self) -> tuple[str, ...]:
        return tuple(sorted(e for e, (ok, _) in self.entries.items() if not ok))

    def to_dict(self) -> dict:
        return {
            e: {"passed": ok, "components": [list(c) for c in comps]}
            for e, (ok, comps) in sorted(self.entries.items())
        }


# --------------------------------------------------------------------------
# operations
# --------------------------------------------------------------------------

_BIT_FLAGS = bytes.maketrans(b"01", b"\0\1")


@lru_cache(maxsize=1 << 12)
def _flags(mask: int) -> bytes:
    """Byte ``i`` is 1 where bit ``i`` of ``mask`` is set, else 0, so that
    ``compress(items, _flags(mask))`` yields the items of a mask in order."""
    return bin(mask)[:1:-1].encode().translate(_BIT_FLAGS)


def _masks(index: dict, pairs) -> tuple[list[int], list[int]]:
    """Per-element masks of the ``b`` with ``(a, b)`` in pairs, and of the
    ``a`` with ``(a, b)`` in pairs."""
    down, up = [0] * len(index), [0] * len(index)
    for a, b in pairs:
        i, j = index[a], index[b]
        down[i] |= 1 << j
        up[j] |= 1 << i
    return down, up


def _pairs(elements, masks) -> frozenset[tuple[str, str]]:
    """The pairs ``(a, b)`` with ``b`` in the mask of ``a``."""
    return frozenset(
        [(a, b) for a, m in zip(elements, masks) for b in compress(elements, _flags(m))]
    )


def _rows(elements, masks) -> list[list[str]]:
    """The pairs ``[a, b]`` with ``b`` in the mask of ``a``, sorted.  Read
    row by row over sorted elements they come out in order; only other
    element orders are sorted."""
    rows = [[a, b] for a, m in zip(elements, masks) for b in compress(elements, _flags(m))]
    if list(elements) != sorted(elements):
        rows.sort()
    return rows


def _components(adjacent: list[int], nodes: int) -> list[int]:
    """Components, as masks, of the graph with neighbour masks ``adjacent``
    induced on the node mask ``nodes``, ordered by lowest node."""
    comps = []
    while nodes:
        comp = frontier = nodes & -nodes
        while frontier:
            reach = 0
            for neighbours in compress(adjacent, _flags(frontier)):
                reach |= neighbours
            frontier = reach & nodes & ~comp
            comp |= frontier
        comps.append(comp)
        nodes &= ~comp
    return comps


def _linked_components(nodes, links) -> list[tuple]:
    """Components of the graph on ``nodes`` with edge list ``links``, each a
    tuple in ``nodes`` order."""
    index = {v: i for i, v in enumerate(nodes)}
    adjacent = [0] * len(nodes)
    for u, v in links:
        i, j = index[u], index[v]
        adjacent[i] |= 1 << j
        adjacent[j] |= 1 << i
    comps = _components(adjacent, (1 << len(nodes)) - 1)
    return [tuple(compress(nodes, _flags(c))) for c in comps]


def _read_spec(spec) -> tuple[list, list]:
    """The elements and relation pairs of an order description, checked for
    shape, duplicate elements and unknown relation ends."""
    if not isinstance(spec, dict):
        raise MalformedOrder("top level: expected an object")
    elements = spec.get("elements", [])
    if not isinstance(elements, (list, tuple)):
        raise MalformedOrder("elements: expected an array of strings")
    for k, e in enumerate(elements):
        if not isinstance(e, str):
            raise MalformedOrder(f"elements[{k}]: expected a string")
    if len(set(elements)) != len(elements):
        dupes = sorted(e for e, k in Counter(elements).items() if k > 1)
        raise DuplicateElement(f"duplicate elements: {dupes}")
    eset = set(elements)
    relations = spec.get("relations", [])
    if not isinstance(relations, (list, tuple)):
        raise MalformedOrder("relations: expected an array of pairs")
    for k, item in enumerate(relations):
        if not isinstance(item, (list, tuple)) or len(item) != 2:
            raise MalformedOrder(f"relations[{k}]: expected a [greater, smaller] pair")
        a, b = item
        if isinstance(a, (list, dict)) or isinstance(b, (list, dict)):
            raise MalformedOrder(f"relations[{k}]: expected a [greater, smaller] pair")
        if a not in eset or b not in eset:
            missing = [x for x in (a, b) if x not in eset]
            raise UnknownElementInRelation(f"unknown elements in relation: {missing}")
    return elements, relations


def _closure(elements, kids: list[int], parents: list[int]) -> list[int]:
    """Strict down-set masks of the relation generated by ``kids``.

    Elements are closed bottom-up in topological order (Kahn): an element's
    down-set is the union of its children and their down-sets.  Elements
    never reached lie on or above a directed cycle.
    """
    n = len(elements)
    waiting = [m.bit_count() for m in kids]
    down = [0] * n
    ready = [i for i in range(n) if not kids[i]]
    for i in ready:  # grows while it is read
        d = kids[i]
        for below in compress(down, _flags(kids[i])):
            d |= below
        down[i] = d
        for p in compress(range(n), _flags(parents[i])):
            waiting[p] -= 1
            if not waiting[p]:
                ready.append(p)
    if len(ready) < n:
        # Every cycle lies among the unreached elements; close them alone.
        stuck = [i for i in range(n) if waiting[i]]
        reach = {i: kids[i] for i in stuck}
        for k in stuck:
            for i in stuck:
                if reach[i] >> k & 1:
                    reach[i] |= reach[k]
        first = next(i for i in stuck if reach[i] >> i & 1)
        raise CycleInRelation(
            f"relation pairs induce a directed cycle through {elements[first]!r}"
        )
    return down


def from_down_sets(names: tuple[str, ...], downs: tuple[int, ...]) -> FiniteOrder:
    """Build an order from per-element bitmask down-sets (already closed).

    The census hands in its enumerated down-sets and ``load_order`` the ones
    it closed.  One pass over each down-set finds the up-sets and everything
    below some smaller element; what is below no smaller element is a cover.
    The same pass asserts that the masks are irreflexive and transitively
    closed.
    """
    n = len(names)
    up, cover_down, cover_up = [0] * n, [0] * n, [0] * n
    for i, m in enumerate(downs):
        bit, below = 1 << i, 0
        if m & bit:
            raise CycleInRelation(f"element {names[i]!r} lies below itself")
        for j in compress(range(n), _flags(m)):
            below |= downs[j]
            up[j] |= bit
        if below & ~m:
            raise CycleInRelation("down-sets are not transitively closed")
        cover_down[i] = m & ~below
        for j in compress(range(n), _flags(cover_down[i])):
            cover_up[j] |= bit
    for e, d, u in zip(names, downs, up):
        if not d and not u:
            raise IsolatedElement(f"element {e!r} is unrelated to every other element")
    return FiniteOrder(
        tuple(names), tuple(downs), tuple(up), tuple(cover_down), tuple(cover_up)
    )


def load_order(spec: dict) -> FiniteOrder:
    """Validate an order description and build a :class:`FiniteOrder`.

    ``spec`` carries ``elements`` (list of names) and ``relations`` (list of
    ``[greater, smaller]`` pairs).  Relations may be any generating set; the
    transitive closure is always computed here, so users can write only the
    Hasse covers.
    """
    elements, pairs = _read_spec(spec)
    elements = sorted(elements)
    kids, parents = _masks({e: i for i, e in enumerate(elements)}, pairs)
    return from_down_sets(elements, _closure(elements, kids, parents))


def classify(order: FiniteOrder) -> RoleMap:
    """Assign every element its role and every saddle its generation.

    The deepest saddle chain above a saddle passes through one of its cover
    parents, since whatever lies between two saddles is a saddle, so
    generations follow from the saddle cover parents, top-down.
    """
    roles, saddles = {}, []
    for i, (e, down, up) in enumerate(zip(order.elements, order._down, order._up)):
        roles[e] = Role.REPELLER if not up else Role.ATTRACTOR if not down else Role.SADDLE
        if down and up:
            saddles.append((up.bit_count(), i))
    gen = [0] * len(order.elements)  # stays 0 for the repellers
    for _, i in sorted(saddles):
        gen[i] = 1 + max(compress(gen, _flags(order._cover_up[i])), default=0)
    generations = {order.elements[i]: gen[i] for _, i in saddles}
    return RoleMap(roles=roles, generations=generations)


def check_connectivity(order: FiniteOrder) -> ConnectivityReport:
    """Decide the connectivity condition at every extremal element.

    For each maximal element the comparability graph induced on its strict
    down-set must be connected; symmetrically for minimal elements and their
    up-sets.  The empty subgraph counts as connected.
    """
    adjacent = [d | u for d, u in zip(order._down, order._up)]

    def entry(nodes: int):
        comps = _components(adjacent, nodes)
        names = (tuple(sorted(compress(order.elements, _flags(c)))) for c in comps)
        return len(comps) <= 1, tuple(sorted(names))

    masks = list(zip(order.elements, order._down, order._up))
    entries = {e: entry(down) for e, down, up in masks if not up}
    # an element can be listed only once; maximal-and-minimal cannot happen
    # here because isolated elements are rejected at load time
    entries.update((e, entry(up)) for e, down, up in masks if not down)
    return ConnectivityReport(entries=entries)
