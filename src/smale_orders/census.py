"""Exhaustive enumeration of small partial orders.

Orders are generated as naturally labeled posets: elements are added in a
linear-extension order, so element ``i`` may only lie above elements with
smaller index.  Every isomorphism class on ``n`` elements appears at least
once (once per natural labeling).  The state per element is its full strict
down-set as a bitmask, which keeps the generator and its consumers fast.

Counts for n = 1..7 are 1, 2, 7, 40, 357, 4824, 96428.
"""

from __future__ import annotations

from collections.abc import Iterator

from .errors import IsolatedElement
from .order import FiniteOrder, from_down_sets

NATURALLY_LABELED_COUNTS = {1: 1, 2: 2, 3: 7, 4: 40, 5: 357, 6: 4824, 7: 96428}


def iter_down_set_tuples(n: int) -> Iterator[tuple[int, ...]]:
    """Yield every naturally labeled poset on ``n`` elements.

    Element ``i`` gets a down-set mask over ``{0..i-1}`` that is down-closed
    with respect to the masks chosen so far; that invariant is exactly
    transitive closedness of the whole relation.
    """
    downs: list[int] = []

    def extend(i: int) -> Iterator[tuple[int, ...]]:
        if i == n:
            yield tuple(downs)
            return
        for mask in range(1 << i):
            m, j, ok = mask, 0, True
            while m and ok:
                if m & 1 and downs[j] & ~mask:
                    ok = False
                m >>= 1
                j += 1
            if ok:
                downs.append(mask)
                yield from extend(i + 1)
                downs.pop()

    yield from extend(0)


def iter_orders(n: int) -> Iterator[FiniteOrder]:
    """Yield FiniteOrder objects for every naturally labeled poset on ``n``.

    Orders containing an element unrelated to everything are skipped, since
    the loader rejects them.
    """
    names = tuple(f"e{i}" for i in range(n))
    for downs in iter_down_set_tuples(n):
        try:
            order = from_down_sets(names, downs)
        except IsolatedElement:
            continue
        yield order
