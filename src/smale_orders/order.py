"""Finite partial orders with repeller / saddle / attractor roles.

The relation convention throughout the package: a pair ``(a, b)`` means
``a > b``.  Stored relations are always strict and transitively closed; the
Hasse covers are derived.  Element iteration order is lexicographic
everywhere, which makes every downstream construction deterministic.

Internally a set of elements is an int mask whose bit ``i`` stands for
``elements[i]``.  An order keeps four masks per element: strict down- and
up-set, cover children and cover parents.  ``load_order`` closes a generating
set on masks in topological order and hands the result to ``from_down_sets``,
the one builder of up-sets and covers, ``down[a] & ~OR(down[c] for c in
down[a])``.  Connectivity floods masks one frontier at a time, and
the name sets of ``down_set``/``up_set`` are made on first use.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import compress

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


@dataclass(frozen=True)
class FiniteOrder:
    """A finite strict partial order, transitively closed, with Hasse covers.

    Instances are immutable; all operations on them are pure functions.  The
    masks are derived from ``relations`` and ``covers`` unless the builder
    passes them in.
    """

    elements: tuple[str, ...]
    relations: frozenset[tuple[str, str]]
    covers: frozenset[tuple[str, str]]
    _down: list = field(default=None, compare=False, repr=False)
    _up: list = field(default=None, compare=False, repr=False)
    _cover_down: list = field(default=None, compare=False, repr=False)
    _cover_up: list = field(default=None, compare=False, repr=False)
    _index: dict = field(init=False, compare=False, repr=False)
    _named: dict = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        index = {e: i for i, e in enumerate(self.elements)}
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_named", _NameSets(self.elements))
        if self._down is None:
            masks = _masks(index, self.relations) + _masks(index, self.covers)
            for name, m in zip(("_down", "_up", "_cover_down", "_cover_up"), masks):
                object.__setattr__(self, name, m)

    # -- basic queries ------------------------------------------------------

    def greater(self, a: str, b: str) -> bool:
        return (a, b) in self.relations

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

    @property
    def north_south_pairs(self) -> tuple[tuple[str, str], ...]:
        """Cover pairs joining a maximal directly to a minimal element.

        No saddle mediates such a pair; downstream stages realize each one as
        a separate sphere carrying a north-south map.
        """
        maxes = set(self.maximal_elements)
        mins = set(self.minimal_elements)
        return tuple(
            sorted((a, b) for a, b in self.covers if a in maxes and b in mins)
        )

    def cover_children(self, e: str) -> tuple[str, ...]:
        return tuple(sorted(compress(self.elements, _flags(self._cover_down[self._index[e]]))))

    def cover_parents(self, e: str) -> tuple[str, ...]:
        return tuple(sorted(compress(self.elements, _flags(self._cover_up[self._index[e]]))))

    def restrict(self, keep: set[str]) -> "FiniteOrder":
        """Induced suborder on a union of comparability components."""
        elements = tuple(e for e in self.elements if e in keep)
        relations = frozenset(
            (a, b) for a, b in self.relations if a in keep and b in keep
        )
        covers = frozenset((a, b) for a, b in self.covers if a in keep and b in keep)
        return FiniteOrder(elements, relations, covers)

    def to_dict(self) -> dict:
        return {
            "elements": list(self.elements),
            "relations": sorted([a, b] for a, b in self.relations),
            "covers": sorted([a, b] for a, b in self.covers),
        }


@dataclass(frozen=True)
class RoleMap:
    """Element roles plus saddle generations.

    A saddle has generation 1 when no saddle lies strictly above it, and
    generation k when the deepest saddle chain above it has length k - 1.
    """

    roles: dict
    generations: dict

    def repellers(self) -> tuple[str, ...]:
        return tuple(sorted(e for e, r in self.roles.items() if r is Role.REPELLER))

    def attractors(self) -> tuple[str, ...]:
        return tuple(sorted(e for e, r in self.roles.items() if r is Role.ATTRACTOR))

    def saddles(self) -> tuple[str, ...]:
        return tuple(sorted(e for e, r in self.roles.items() if r is Role.SADDLE))

    def extremals(self) -> tuple[str, ...]:
        return tuple(
            sorted(e for e, r in self.roles.items() if r is not Role.SADDLE)
        )


@dataclass(frozen=True)
class ConnectivityReport:
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
        tuple(names),
        _pairs(names, downs),
        _pairs(names, cover_down),
        list(downs), up, cover_down, cover_up,
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
