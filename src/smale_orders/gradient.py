"""Necessary-condition checks and gradient-like realizability.

When the connectivity condition fails at a maximal element, that element
could only be realized by a non-trivial repeller, and then everything two or
more steps below it must be a periodic point.  That forces two checkable
rules below such an element: no non-extremal element may touch more than two
maximal or two minimal elements (R1, a separatrix count), and every minimal
element below must itself satisfy the connectivity condition (R2).  The
mirrored rules apply below-to-above for minimal elements.

For orders shaped like gradient-like diffeomorphisms (only first-generation
saddles, each touching at most two extremals per side) realizability is a
pure graph embedding question: the graph of repellers joined by saddles must
embed cellularly in some closed oriented surface so that its labelled dual is
the graph of attractors joined by saddles, the dual edge across each saddle
joining that saddle's own attractors.  Rotation systems enumerate those
embeddings exhaustively; a witness names the attractor of each face.

A witness has one face per attractor (F = A), so its Euler characteristic is
forced to chi = R - S + A and its genus to (2 - chi) / 2.  The decision
refuses an odd chi, or a genus above the bound, without searching; otherwise
``check_gradient_like``, the only loop over rotation systems, walks them
lazily in ``itertools.product`` order over the vertices' rotations, skips
those with another face count and stops at the first witness.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from .errors import DisconnectedGraph, NotGradientShape
from .order import (
    FiniteOrder,
    Role,
    _flags,
    _linked_components,
    check_connectivity,
    classify,
)


class Violation(NamedTuple):
    rule: str  # "Connectivity" | "R1" | "R2"
    witnesses: tuple[str, ...]
    detail: str

    def to_dict(self) -> dict:
        return {"rule": self.rule, "witnesses": list(self.witnesses), "detail": self.detail}


class ViolationReport(NamedTuple):
    violations: tuple[Violation, ...]

    @property
    def empty(self) -> bool:
        return not self.violations

    def rules(self) -> tuple[str, ...]:
        return tuple(sorted({v.rule for v in self.violations}))

    def to_dict(self) -> dict:
        return {"violations": [v.to_dict() for v in self.violations]}


def check_necessary(order: FiniteOrder) -> ViolationReport:
    """Fire the rules forced by theory at every connectivity failure."""
    roles = classify(order)
    report = check_connectivity(order)
    failures = set(report.failures())
    found: dict = {}

    def add(rule, witnesses, detail):
        key = (rule, tuple(sorted(set(witnesses))))
        if key not in found:
            found[key] = Violation(rule=rule, witnesses=key[1], detail=detail)

    maxes = set(order.maximal_elements)
    mins = set(order.minimal_elements)

    for e in sorted(failures):
        is_max = e in maxes
        side = order.down_set(e) if is_max else order.up_set(e)
        _, comps = report.entries[e]
        detail = (
            f"the comparability graph {'below' if is_max else 'above'} {e} splits"
            f" into {len(comps)} components"
        )
        opposite = mins if is_max else maxes
        beyond = order.up_set if is_max else order.down_set
        deep = sorted(x for x in side if x not in opposite and beyond(x) & side)
        if deep:
            which = "attracting" if is_max else "repelling"
            detail += (
                f"; {e} would have to be a non-trivial piece, forcing"
                f" {', '.join(deep)} to be {which} periodic points, which"
                " their further relations forbid"
            )
        add("Connectivity", (e,), detail)

        for x in sorted(side):
            if roles.roles[x] is not Role.SADDLE:
                continue
            max_anc = sorted(m for m in order.up_set(x) if m in maxes)
            min_desc = sorted(m for m in order.down_set(x) if m in mins)
            if len(max_anc) > 2 or len(min_desc) > 2:
                add(
                    "R1",
                    (e, x),
                    f"{x} below a forced non-trivial piece must be a periodic"
                    f" point with two separatrices per side, but it touches"
                    f" {len(max_anc)} maximal and {len(min_desc)} minimal elements",
                )
        for b in sorted(side & opposite):
            if b in failures:
                add(
                    "R2",
                    (e, b),
                    f"{b} must be a periodic point under a non-trivial {e},"
                    " but it fails the connectivity condition itself",
                )

    ordered = tuple(found[k] for k in sorted(found))
    return ViolationReport(violations=ordered)


# --------------------------------------------------------------------------
# level graphs
# --------------------------------------------------------------------------


class LevelGraph(NamedTuple):
    """Multigraph with loops: vertices are extremals of one side, one edge
    per first-generation saddle joining its (at most two) neighbors."""

    vertices: tuple[str, ...]
    edges: tuple  # ((label, (u, v)), ...) loops as (u, u)

    def endpoint_pairs(self) -> tuple:
        return tuple(pair for _, pair in self.edges)


def level_graphs(order: FiniteOrder) -> tuple[LevelGraph, LevelGraph]:
    """The graphs of the two highest and two lowest levels.

    Read off the order's masks: a saddle is first generation on both sides
    exactly when no saddle lies above or below it.
    """
    names = order.elements

    def named(mask: int) -> list[str]:
        return sorted(itertools.compress(names, _flags(mask)))

    maxes, saddles, mins = order._role_masks()
    top_edges, bottom_edges = [], []
    for s in named(saddles):
        i = order._index[s]
        if (order._up[i] | order._down[i]) & saddles:
            raise NotGradientShape(f"saddle {s} is not first generation on both sides")
        ups, downs = named(order._up[i] & maxes), named(order._down[i] & mins)
        if not 1 <= len(ups) <= 2 or not 1 <= len(downs) <= 2:
            raise NotGradientShape(
                f"saddle {s} touches {len(ups)} maximal and {len(downs)} minimal"
                " elements; gradient-like saddles allow at most two per side"
            )
        top_edges.append((s, (ups[0], ups[-1])))
        bottom_edges.append((s, (downs[0], downs[-1])))
    highest = LevelGraph(vertices=tuple(named(maxes)), edges=tuple(top_edges))
    lowest = LevelGraph(vertices=tuple(named(mins)), edges=tuple(bottom_edges))
    return highest, lowest


# --------------------------------------------------------------------------
# rotation systems and cellular embeddings
# --------------------------------------------------------------------------

Dart = tuple[int, int]  # (edge index, end)


class Embedding(NamedTuple):
    rotation: dict  # vertex -> tuple[Dart, ...], counterclockwise
    faces: tuple  # tuple of dart tuples


def _darts_at(graph: LevelGraph) -> dict:
    at: dict = {v: [] for v in graph.vertices}
    for idx, (_, (u, v)) in enumerate(graph.edges):
        at[u].append((idx, 0))
        at[v].append((idx, 1))
    return {v: tuple(sorted(ds)) for v, ds in at.items()}


def _trace_faces(rotation: dict):
    """Orbits of the face permutation: from a dart, flip to the other end of
    its edge, then take the next dart counterclockwise there."""
    succ = {}
    for darts in rotation.values():
        for i, d in enumerate(darts):
            succ[d] = darts[(i + 1) % len(darts)]

    def alpha(d: Dart) -> Dart:
        return (d[0], 1 - d[1])

    faces = []
    seen = set()
    for start in sorted(succ):
        if start in seen:
            continue
        face = []
        d = start
        while d not in seen:
            seen.add(d)
            face.append(d)
            d = succ[alpha(d)]
        faces.append(tuple(face))
    return tuple(faces)


def _rotation_systems(darts: list):
    """One rotation per vertex, each starting at the vertex's first dart, in
    the order of ``itertools.product`` over the vertices' permutations.  An
    odometer of one permutation iterator per vertex: a vertex's
    (degree - 1)! rotations are produced lazily, never listed."""
    if not darts:
        yield ()
        return
    last = len(darts) - 1
    combo = [()] * last
    wheels = [itertools.permutations(darts[0][1:])]
    while wheels:
        i = len(wheels) - 1
        if i == last:  # the fastest wheel turns in a plain loop
            prefix, head = tuple(combo), darts[last][:1]
            for perm in wheels.pop():
                yield prefix + (head + perm,)
            continue
        perm = next(wheels[i], None)
        if perm is None:
            wheels.pop()
            continue
        combo[i] = darts[i][:1] + perm
        wheels.append(itertools.permutations(darts[i + 1][1:]))


# --------------------------------------------------------------------------
# the gradient-like decision
# --------------------------------------------------------------------------


class GradientVerdict(NamedTuple):
    realizable: bool
    genus: int | None
    max_genus_searched: int
    embedding: Embedding | None
    face_attractors: tuple[str, ...] | None  # the attractor of face i

    def to_dict(self) -> dict:
        out = {
            "realizable": self.realizable,
            "genus": self.genus,
            "max_genus_searched": self.max_genus_searched,
        }
        if self.embedding is not None:
            out["rotation_system"] = {
                v: [list(d) for d in darts]
                for v, darts in sorted(self.embedding.rotation.items())
            }
            out["faces"] = [[list(d) for d in f] for f in self.embedding.faces]
        if self.face_attractors is not None:
            out["face_attractors"] = list(self.face_attractors)
        return out


def check_gradient_like(order: FiniteOrder, max_genus: int | None = None) -> GradientVerdict:
    """Search cellular embeddings of the highest-level graph whose labelled
    dual is the lowest-level graph; first witness wins, else exhaustion up to
    the genus bound.

    The dual edge across saddle s is s's unstable manifold, so it must join
    s's own attractors.  The signature of a face is the sorted tuple of the
    saddles on its walk, that of an attractor the sorted tuple of its
    saddles in the lowest-level graph, a loop counting twice on both sides.
    An embedding is a witness exactly when the two sorted lists of
    signatures are equal: pairing them maps every face to an attractor, and
    each saddle's two sides (or its one side, twice) to its own attractors.

    A witness therefore has one face per attractor, F = A, which fixes its
    Euler characteristic at chi = R - S + A (repellers, saddles,
    attractors) and its genus at (2 - chi) / 2 before any search.  An odd
    chi, or a genus above the bound, is refused at once; otherwise the
    rotation systems are walked lazily in the order of ``_rotation_systems``,
    a system with another face count is skipped before any signature is
    built, and the search stops at the first witness.  Every rotation system
    of a connected graph is a cellular embedding in a closed oriented surface
    (Heffter-Edmonds), so a system with A faces has the forced genus.  A
    graph without edges has one empty face.  A disconnected highest-level
    graph raises ``DisconnectedGraph`` first.
    """
    highest, lowest = level_graphs(order)
    if len(_linked_components(highest.vertices, highest.endpoint_pairs())) > 1:
        raise DisconnectedGraph(f"level graph on {highest.vertices} is disconnected")
    if max_genus is None:
        max_genus = len(highest.edges)
    refused = GradientVerdict(
        realizable=False,
        genus=None,
        max_genus_searched=max_genus,
        embedding=None,
        face_attractors=None,
    )
    face_count = len(lowest.vertices)
    chi = len(highest.vertices) - len(highest.edges) + face_count
    genus = (2 - chi) // 2
    if chi % 2 or genus > max_genus:
        return refused
    around: dict = {a: [] for a in lowest.vertices}
    for label, (u, v) in lowest.edges:
        around[u].append(label)
        around[v].append(label)
    attractors = sorted(lowest.vertices, key=lambda a: sorted(around[a]))
    wanted = [sorted(around[a]) for a in attractors]
    labels = [label for label, _ in highest.edges]
    darts_at = _darts_at(highest)
    for combo in _rotation_systems([darts_at[v] for v in highest.vertices]):
        rotation = dict(zip(highest.vertices, combo))
        faces = _trace_faces(rotation) or ((),)
        if len(faces) != face_count:
            continue
        signatures = [sorted(labels[e] for e, _ in face) for face in faces]
        by_signature = sorted(range(len(signatures)), key=signatures.__getitem__)
        if [signatures[i] for i in by_signature] == wanted:
            attractor_of = dict(zip(by_signature, attractors))
            return GradientVerdict(
                realizable=True,
                genus=genus,
                max_genus_searched=max_genus,
                embedding=Embedding(rotation=rotation, faces=faces),
                face_attractors=tuple(attractor_of[i] for i in range(len(signatures))),
            )
    return refused
