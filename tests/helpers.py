"""Shared test utilities: independent oracles and corpus enumeration.

Everything here deliberately re-derives results from first principles
(union-find, brute-force enumeration, fresh traversal code) so the library
is checked against a second, independent path.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import lru_cache

from smale_orders.bands import glue_bands
from smale_orders.census import iter_orders
from smale_orders.cycles import (
    CycleAssignment,
    Transition,
    admissible_transitions,
    build_initial_cycles,
)
from smale_orders.errors import (
    CycleInRelation,
    DisconnectedGraph,
    IsolatedElement,
    NotGradientShape,
)
from smale_orders.gradient import GradientVerdict, LevelGraph, _trace_faces
from smale_orders.order import FiniteOrder, Role, check_connectivity, classify, load_order


@lru_cache(maxsize=None)
def usable_orders(max_n: int) -> tuple[FiniteOrder, ...]:
    """All census orders up to max_n elements that the realization pipeline
    accepts: no isolated elements, connectivity holds, no north-south pairs."""
    out = []
    for n in range(2, max_n + 1):
        for order in iter_orders(n):
            if order.north_south_pairs:
                continue
            if not check_connectivity(order).passed:
                continue
            out.append(order)
    return tuple(out)


def layered_order(seed: int) -> dict:
    """A seeded random order file: 6 repellers over 12 saddles over 6
    attractors, each saddle below a repeller and above an attractor with
    probability 1/2 (and at least one of each), redrawn until every element
    is related and connectivity holds: about 1 500 to 2 200 bands."""
    rng = random.Random(seed)
    repellers, saddles, attractors = (
        [f"{c}{i:02d}" for i in range(k)] for c, k in (("r", 6), ("s", 12), ("w", 6))
    )
    elements = repellers + saddles + attractors
    while True:
        relations = []
        for s in saddles:
            ups = [r for r in repellers if rng.random() < 0.5] or [rng.choice(repellers)]
            downs = [w for w in attractors if rng.random() < 0.5] or [rng.choice(attractors)]
            relations += [[r, s] for r in ups] + [[s, w] for w in downs]
        if {x for pair in relations for x in pair} != set(elements):
            continue
        spec = {"elements": elements, "relations": relations}
        if check_connectivity(load_order(spec)).passed:
            return spec


def oracle_connectivity(downs: tuple[int, ...]) -> dict:
    """Union-find over the induced comparability subgraphs (bitmask input)."""
    n = len(downs)
    up = [0] * n
    for i in range(n):
        for j in range(n):
            if downs[i] >> j & 1:
                up[j] |= 1 << i
    verdicts = {}
    for e in range(n):
        if up[e] and downs[e]:
            continue  # saddle
        mask = downs[e] if not up[e] else up[e]
        members = [i for i in range(n) if mask >> i & 1]
        parent = {i: i for i in members}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for a in members:
            for b in members:
                if a < b and (downs[a] >> b & 1 or downs[b] >> a & 1):
                    ra, rb = find(a), find(b)
                    if ra != rb:
                        parent[ra] = rb
        verdicts[e] = len({find(m) for m in members}) <= 1
    return verdicts


def count_transitive_relations_bruteforce(n: int) -> int:
    """Independent count of upper-triangular transitive relations.

    Brute force over all subsets of the strictly upper-triangular pairs;
    only usable for n <= 5.  Serves as an oracle for the generator.
    """
    pairs = [(i, j) for i in range(n) for j in range(i)]
    total = 0
    for mask in range(1 << len(pairs)):
        rel = {pairs[k] for k in range(len(pairs)) if mask >> k & 1}
        if all(
            (a, c) in rel
            for a, b in rel
            for b2, c in rel
            if b == b2
        ):
            total += 1
    return total


def oracle_order(spec: dict) -> dict:
    """What ``load_order`` and its consumers should report, from plain sets.

    The closure joins pairs until nothing changes, a cover is a pair with no
    element between, components come from a fresh search, and generations
    from their recursive definition.  An invalid generating set raises the
    error ``load_order`` raises, with the same message.
    """
    elements = sorted(spec["elements"])
    rel = {tuple(p) for p in spec["relations"]}
    while True:
        new = {(a, d) for a, b in rel for c, d in rel if b == c} - rel
        if not new:
            break
        rel |= new
    for e in elements:
        if (e, e) in rel:
            raise CycleInRelation(f"relation pairs induce a directed cycle through {e!r}")
    for e in elements:
        if not any(e in pair for pair in rel):
            raise IsolatedElement(f"element {e!r} is unrelated to every other element")
    covers = {
        (a, b) for a, b in rel if not any((a, z) in rel and (z, b) in rel for z in elements)
    }
    below = {e: {b for a, b in rel if a == e} for e in elements}
    above = {e: {a for a, b in rel if b == e} for e in elements}
    roles = {
        e: Role.REPELLER if not above[e] else Role.ATTRACTOR if not below[e] else Role.SADDLE
        for e in elements
    }

    def generation(s):
        over = [t for t in above[s] if roles[t] is Role.SADDLE]
        return 1 + max((generation(t) for t in over), default=0)

    def components(nodes):
        comps, left = [], set(nodes)
        while left:
            comp, todo = set(), [min(left)]
            while todo:
                x = todo.pop()
                if x not in comp:
                    comp.add(x)
                    todo += [y for y in left if (x, y) in rel or (y, x) in rel]
            left -= comp
            comps.append(tuple(sorted(comp)))
        return tuple(sorted(comps))

    connectivity = {}
    for e in elements:
        side = below[e] if not above[e] else above[e] if not below[e] else None
        if side is not None:
            comps = components(side)
            connectivity[e] = (len(comps) <= 1, comps)
    return {
        "elements": tuple(elements),
        "relations": rel,
        "covers": covers,
        "roles": roles,
        "generations": {s: generation(s) for s in elements if roles[s] is Role.SADDLE},
        "connectivity": connectivity,
    }


def oracle_admissible(order: FiniteOrder, owner: str) -> set:
    """Brute-force triple loop over all elements, testing the relation."""
    rel = order.relations
    elements = order.elements
    maxes = {e for e in elements if not any((x, e) in rel for x in elements)}
    mins = {e for e in elements if not any((e, x) in rel for x in elements)}
    saddles = {e for e in elements if e not in maxes and e not in mins}
    out = set()
    for k in elements:
        for m in elements:
            for l in elements:
                if owner in mins:
                    ok = (
                        k in saddles
                        and l in saddles
                        and m in maxes
                        and (k, owner) in rel
                        and (l, owner) in rel
                        and (m, k) in rel
                        and (m, l) in rel
                    )
                else:
                    ok = (
                        k in saddles
                        and l in saddles
                        and m in mins
                        and (owner, k) in rel
                        and (owner, l) in rel
                        and (k, m) in rel
                        and (l, m) in rel
                    )
                if ok:
                    out.add((k, m, l))
    return out


def product_admissible(order: FiniteOrder, owner: str) -> set:
    """The admissible transitions by the old product formula: every pair of
    related saddles and every related opposite extremal, tested against the
    relation pair by pair."""
    rel = order.relations
    up, down = order.up_set(owner), order.down_set(owner)
    if not down:  # attractor: saddles above, repellers mediate
        saddles = [s for s in sorted(up) if order.up_set(s)]
        mediators = [a for a in sorted(up) if not order.up_set(a)]
        return {
            (k, m, l)
            for k, l in itertools.product(saddles, repeat=2)
            for m in mediators
            if (m, k) in rel and (m, l) in rel
        }
    saddles = [s for s in sorted(down) if order.down_set(s)]
    mediators = [w for w in sorted(down) if not order.down_set(w)]
    return {
        (k, m, l)
        for k, l in itertools.product(saddles, repeat=2)
        for m in mediators
        if (k, m) in rel and (l, m) in rel
    }


# ---------------------------------------------------------------------------
# independent star ledger
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StarLedger:
    """Transition counts per (attractor, repeller, saddle pair) quadruple.

    Each group holds four counts: both directions on the attractor side and
    both directions on the repeller side.  A balanced assignment has all four
    equal within every group.
    """

    groups: dict

    @property
    def balanced(self) -> bool:
        return all(len(set(counts)) == 1 for counts in self.groups.values())

    def unbalanced_groups(self) -> tuple:
        return tuple(
            sorted(k for k, counts in self.groups.items() if len(set(counts)) > 1)
        )

    def deficit(self) -> int:
        """Total splice work: per group, the gap between the two sides."""
        return sum(abs(a_kl - r_kl) for a_kl, _, r_kl, _ in self.groups.values())

    def to_dict(self) -> dict:
        return {
            f"{om}|{al}|{k}|{l}": list(counts)
            for (om, al, k, l), counts in sorted(self.groups.items())
        }


def star_ledger(assignment, order) -> StarLedger:
    """Count transitions per quadruple, on both sides and in both directions.

    The ledger lists only the quadruples that some transition of the
    assignment touches; one that neither side touches would carry four zero
    counts.  A self transition counts in both directions of its side.
    """
    groups: dict = {}
    for owner in assignment.owners():
        attractor = not order.down_set(owner)
        for t in assignment.cycle(owner):
            k, l = sorted((t.left, t.right))
            key = (owner, t.mediator, k, l) if attractor else (t.mediator, owner, k, l)
            counts = groups.setdefault(key, [0, 0, 0, 0])
            side = 0 if attractor else 2
            if k == l:
                counts[side] += 1
                counts[side + 1] = counts[side]
            else:
                counts[side + (t.left != k)] += 1
    return StarLedger(groups={k: tuple(v) for k, v in groups.items()})


def swapped_glue(assignment, order):
    """``glue_bands`` with the repeller ends of its first two pairs swapped:
    on the diamond with the example cycles the two pairs have different
    types, so ``realize`` fails its invariant pass."""
    ((a, b), (c, d), *rest), walked = glue_bands(assignment, order)
    return tuple(sorted([(a, d), (c, b), *rest])), walked


def least_rotation_start(word) -> int:
    """The first index starting the lexicographically least rotation, by
    comparing every rotation: the reference for ``cycles._canonical_start``."""
    best, best_rot = 0, word
    for i in range(1, len(word)):
        rot = word[i:] + word[:i]
        if rot < best_rot:
            best, best_rot = i, rot
    return best


def injected_assignment(order, rng: random.Random):
    """The built cycles of ``order`` with 1-3 chained pairs (or single self
    transitions) spliced in at random: conditions 1 and 2 still hold, the
    star balance in general does not."""
    built = build_initial_cycles(order)
    cycles = {o: list(built.cycle(o)) for o in built.owners()}
    for _ in range(rng.randrange(1, 4)):
        owner = rng.choice(sorted(cycles))
        word = cycles[owner]
        pos = rng.randrange(len(word))
        anchor = word[pos].right
        partners = sorted(
            {t for t in admissible_transitions(order, owner) if t.left == anchor}
        )
        _, mediator, right = rng.choice(partners)
        pair = [
            Transition(anchor, mediator, right),
            Transition(right, mediator, anchor),
        ]
        if anchor == right:
            pair = pair[:1]
        word[pos + 1 : pos + 1] = pair
    return CycleAssignment(cycles={o: tuple(w) for o, w in cycles.items()})


def verify_star(assignment, order):
    """The star ledger of an assignment and whether it is balanced."""
    ledger = star_ledger(assignment, order)
    return ledger, ledger.balanced


# ---------------------------------------------------------------------------
# independent band-gluing oracle
# ---------------------------------------------------------------------------


def _band_tables(assignment, order):
    is_attr = {o: not order.down_set(o) for o in assignment.owners()}
    bands = {}
    by_group: dict = {}
    for owner in assignment.owners():
        for i, t in enumerate(assignment.cycle(owner)):
            key = (owner, i)
            bands[key] = t
            gid = (
                (owner, t.mediator, t.left, t.right)
                if is_attr[owner]
                else (t.mediator, owner, t.left, t.right)
            )
            by_group.setdefault(gid, ([], []))[0 if is_attr[owner] else 1].append(key)
    return bands, by_group, is_attr


def enumerate_type_matchings(assignment, order):
    """Every type-compatible perfect matching, as a symmetric dict."""
    bands, by_group, _ = _band_tables(assignment, order)
    gids = sorted(by_group)
    options = []
    for gid in gids:
        a_side, r_side = (sorted(x) for x in by_group[gid])
        assert len(a_side) == len(r_side), f"group {gid} is unbalanced"
        options.append(
            [tuple(zip(a_side, perm)) for perm in itertools.permutations(r_side)]
        )
    for combo in itertools.product(*options):
        m = {}
        for pairs in combo:
            for x, y in pairs:
                m[x] = y
                m[y] = x
        yield m


def walk_boundaries(assignment, order, matching):
    """Boundary cycles under a fixed matching: an independent re-walk.

    Returns a dict saddle -> list of band-key sequences (first repeated at
    the end), or raises AssertionError if the walk drifts or revisits slots.
    """
    bands, _, is_attr = _band_tables(assignment, order)
    n_of = {o: len(assignment.cycle(o)) for o in assignment.owners()}
    saddles = sorted(
        {t.left for t in bands.values()} | {t.right for t in bands.values()}
    )
    visited = set()
    cycles: dict = {s: [] for s in saddles}
    for s in saddles:
        starts = sorted(
            k for k, t in bands.items() if is_attr[k[0]] and t.right == s
        )
        for start in starts:
            if (start, "beg") in visited:
                continue
            visited.add((start, "beg"))
            seq = [start]
            cur, kind = start, "beg"
            while True:
                p = matching[cur]
                assert (p, kind) not in visited, "revisit during walk"
                visited.add((p, kind))
                seq.append(p)
                step = 1 if kind == "beg" else -1
                nxt = (p[0], (p[1] + step) % n_of[p[0]])
                nkind = "end" if kind == "beg" else "beg"
                t = bands[nxt]
                assert (t.left if nkind == "end" else t.right) == s, "walk drifted"
                if nxt == start and nkind == "beg":
                    seq.append(start)
                    break
                assert (nxt, nkind) not in visited, "revisit during walk"
                visited.add((nxt, nkind))
                seq.append(nxt)
                cur, kind = nxt, nkind
            cycles[s].append(tuple(seq))
    return cycles


def oracle_axiom_counts(assignment, order, cycles) -> bool:
    """Appearance bounds: once per non-self band per incident saddle, twice
    for self bands; plus the total-length identity."""
    bands, _, _ = _band_tables(assignment, order)
    total_len = 0
    for s, seqs in cycles.items():
        counts: dict = {}
        for seq in seqs:
            assert seq[0] == seq[-1]
            assert (len(seq) - 1) % 2 == 0
            total_len += (len(seq) - 1) // 2
            for k in seq[:-1]:
                counts[k] = counts.get(k, 0) + 1
        for k, c in counts.items():
            t = bands[k]
            expected = 2 if t.left == t.right else 1
            if c != expected:
                return False
    return total_len == sum(len(assignment.cycle(o)) for o in assignment.owners())


# ---------------------------------------------------------------------------
# gradient-like decision, the exhaustive way
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CombinatorialMap:
    """A rotation system with its traced faces and the genus they give."""

    rotation: dict  # vertex -> tuple of darts (edge index, end)
    faces: tuple  # tuple of dart tuples
    genus: int

    @property
    def face_count(self) -> int:
        return len(self.faces)


def enumerate_embeddings(graph: LevelGraph, max_genus: int | None = None) -> list:
    """Every rotation system of a connected graph with genus at most the
    bound (default: the edge count), listed by ``itertools.product`` over
    each vertex's rotations, its first dart fixed.  A graph without edges
    has one empty face; a disconnected graph raises ``DisconnectedGraph``."""
    reached, todo = set(), list(graph.vertices[:1])
    while todo:
        v = todo.pop()
        if v not in reached:
            reached.add(v)
            todo += [b if a == v else a for _, (a, b) in graph.edges if v in (a, b)]
    if len(reached) < len(graph.vertices):
        raise DisconnectedGraph(f"level graph on {graph.vertices} is disconnected")
    if max_genus is None:
        max_genus = len(graph.edges)
    darts: dict = {v: [] for v in graph.vertices}
    for idx, (_, (u, v)) in enumerate(graph.edges):
        darts[u].append((idx, 0))
        darts[v].append((idx, 1))
    rotations = [
        [tuple(ds[:1]) + perm for perm in itertools.permutations(ds[1:])]
        for ds in (sorted(darts[v]) for v in graph.vertices)
    ]
    maps = []
    for combo in itertools.product(*rotations):
        rotation = dict(zip(graph.vertices, combo))
        faces = _trace_faces(rotation) or ((),)
        genus = (2 - len(graph.vertices) + len(graph.edges) - len(faces)) // 2
        if genus <= max_genus:
            maps.append(CombinatorialMap(rotation, faces, genus))
    return maps


def reference_level_graphs(order: FiniteOrder) -> tuple[LevelGraph, LevelGraph]:
    """The level graphs from roles, generations and name sets."""
    roles = classify(order)
    maxes = set(order.maximal_elements)
    mins = set(order.minimal_elements)
    top_edges, bottom_edges = [], []
    for s in roles.saddles():
        if roles.generations[s] != 1 or any(
            roles.roles[x] is Role.SADDLE for x in order.down_set(s)
        ):
            raise NotGradientShape(f"saddle {s} is not first generation on both sides")
        ups = sorted(order.up_set(s) & maxes)
        downs = sorted(order.down_set(s) & mins)
        if not 1 <= len(ups) <= 2 or not 1 <= len(downs) <= 2:
            raise NotGradientShape(
                f"saddle {s} touches {len(ups)} maximal and {len(downs)} minimal"
                " elements; gradient-like saddles allow at most two per side"
            )
        top_edges.append((s, (ups[0], ups[-1])))
        bottom_edges.append((s, (downs[0], downs[-1])))
    return (
        LevelGraph(vertices=tuple(sorted(maxes)), edges=tuple(sorted(top_edges))),
        LevelGraph(vertices=tuple(sorted(mins)), edges=tuple(sorted(bottom_edges))),
    )


def reference_gradient_verdict(order: FiniteOrder, max_genus: int | None = None) -> dict:
    """The verdict as a dict, from the full list of embeddings up to the
    genus bound, each matched by face and attractor signatures, first
    match wins; no forced genus and no face-count filter."""
    highest, lowest = reference_level_graphs(order)
    if max_genus is None:
        max_genus = len(highest.edges)
    around: dict = {a: [] for a in lowest.vertices}
    for label, (u, v) in lowest.edges:
        around[u].append(label)
        around[v].append(label)
    attractors = sorted(lowest.vertices, key=lambda a: sorted(around[a]))
    wanted = [sorted(around[a]) for a in attractors]
    labels = [label for label, _ in highest.edges]
    verdict = GradientVerdict(False, None, max_genus, None, None)
    for emb in enumerate_embeddings(highest, max_genus):
        signatures = [sorted(labels[e] for e, _ in face) for face in emb.faces]
        by_signature = sorted(range(len(signatures)), key=signatures.__getitem__)
        if [signatures[i] for i in by_signature] == wanted:
            attractor_of = dict(zip(by_signature, attractors))
            faces = tuple(attractor_of[i] for i in range(len(signatures)))
            verdict = GradientVerdict(True, emb.genus, max_genus, emb, faces)
            break
    return verdict.to_dict()


# ---------------------------------------------------------------------------
# combinatorial maps: the dual map and the graph under a map
# ---------------------------------------------------------------------------


def dual_map(embedding, graph: LevelGraph) -> CombinatorialMap:
    """The dual combinatorial map: faces become vertices, rotation given by
    the face traversal, and the dual's faces are traced the same way."""
    rotation = {f"f{i}": face for i, face in enumerate(embedding.faces) if face}
    if not rotation:
        rotation = {"f0": ()}
    faces = _trace_faces({k: v for k, v in rotation.items() if v})
    v_count = len(embedding.faces)
    e_count = len(graph.edges)
    f_count = len(faces) if e_count else 1
    genus = (2 - (v_count - e_count + f_count)) // 2
    return CombinatorialMap(rotation=rotation, faces=faces or ((),), genus=genus)


def graph_of_map(embedding, graph: LevelGraph) -> LevelGraph:
    """Underlying multigraph of a combinatorial map (edge labels kept)."""
    vertex_of: dict = {}
    for v, darts in embedding.rotation.items():
        for d in darts:
            vertex_of[d] = v
    edges = []
    for idx, (label, _) in enumerate(graph.edges):
        u = vertex_of[(idx, 0)]
        v = vertex_of[(idx, 1)]
        a, b = sorted((u, v))
        edges.append((label, (a, b)))
    vertices = tuple(sorted(embedding.rotation))
    return LevelGraph(vertices=vertices, edges=tuple(sorted(edges)))


def renamed(graph: LevelGraph, names: dict) -> LevelGraph:
    """The same multigraph with every vertex v renamed names[v]."""
    edges = tuple(
        sorted((label, tuple(sorted((names[u], names[v])))) for label, (u, v) in graph.edges)
    )
    return LevelGraph(vertices=tuple(sorted(names[v] for v in graph.vertices)), edges=edges)


# ---------------------------------------------------------------------------
# multigraph isomorphism (small instances, backtracking)
# ---------------------------------------------------------------------------


def multigraphs_isomorphic(a: LevelGraph, b: LevelGraph) -> bool:
    """Vertex bijection preserving edge multiplicities and loops; edge
    labels are ignored."""
    if len(a.vertices) != len(b.vertices) or len(a.edges) != len(b.edges):
        return False

    def signature(g: LevelGraph, v: str):
        degree = sum(pair.count(v) for _, pair in g.edges)
        loops = sum(1 for _, (x, y) in g.edges if x == y == v)
        return (degree, loops)

    sig_a = {v: signature(a, v) for v in a.vertices}
    sig_b = {v: signature(b, v) for v in b.vertices}
    if sorted(sig_a.values()) != sorted(sig_b.values()):
        return False

    b_edges = sorted(tuple(sorted(pair)) for _, pair in b.edges)
    avs = sorted(a.vertices, key=lambda v: (sig_a[v], v))

    def backtrack(i: int, mapping: dict, used: set) -> bool:
        if i == len(avs):
            mapped = (tuple(sorted((mapping[u], mapping[v]))) for _, (u, v) in a.edges)
            return sorted(mapped) == b_edges
        v = avs[i]
        for w in b.vertices:
            if w in used or sig_b[w] != sig_a[v]:
                continue
            mapping[v] = w
            if backtrack(i + 1, mapping, used | {w}):
                return True
            del mapping[v]
        return False

    return backtrack(0, {}, set())
