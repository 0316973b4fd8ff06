"""Output checks computed apart from the program.

Nothing here imports ``smale_orders``: orders are handled as bitmask
down-sets, certificates and verdicts as the JSON documents the program wrote,
and every figure is derived again from first principles (union-find, bitset
closure, face tracing, brute-force isomorphism).  Each check returns a list
of problems; an empty list means the output passed.
"""

from __future__ import annotations

import itertools

# OEIS A006455: naturally labelled posets on n elements.
A006455 = {1: 1, 2: 2, 3: 7, 4: 40, 5: 357, 6: 4824, 7: 96428}


# --------------------------------------------------------------------------
# orders as bitmasks
# --------------------------------------------------------------------------


class Poset:
    """Strict order on elements 0..n-1 given by closed down-set bitmasks."""

    def __init__(self, names, downs):
        self.names = list(names)
        self.n = len(self.names)
        self.down = list(downs)
        self.up = [0] * self.n
        for i in range(self.n):
            for j in self.members(self.down[i]):
                self.up[j] |= 1 << i

    @staticmethod
    def members(mask: int) -> list[int]:
        out, j = [], 0
        while mask:
            if mask & 1:
                out.append(j)
            mask >>= 1
            j += 1
        return out

    def is_max(self, i: int) -> bool:
        return not self.up[i]

    def is_min(self, i: int) -> bool:
        return not self.down[i]

    def is_saddle(self, i: int) -> bool:
        return bool(self.up[i]) and bool(self.down[i])

    def relations(self) -> set:
        return {(self.names[a], self.names[b])
                for a in range(self.n) for b in self.members(self.down[a])}

    def covers(self) -> set:
        out = set()
        for a in range(self.n):
            below = 0
            for c in self.members(self.down[a]):
                below |= self.down[c]
            for b in self.members(self.down[a] & ~below):
                out.add((self.names[a], self.names[b]))
        return out

    def connectivity(self) -> dict:
        """Per extremal element: is the comparability graph on its strict
        down-set (maximal) or up-set (minimal) connected?  Union-find."""
        verdicts = {}
        for e in range(self.n):
            if self.is_saddle(e):
                continue
            nodes = self.members(self.down[e] or self.up[e])
            parent = {x: x for x in nodes}

            def find(x):
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                return x

            for a, b in itertools.combinations(nodes, 2):
                if self.down[a] >> b & 1 or self.down[b] >> a & 1:
                    parent[find(a)] = find(b)
            verdicts[self.names[e]] = len({find(x) for x in nodes}) <= 1
        return verdicts

    def between(self, top: int, bottom: int) -> int:
        """Saddles strictly between a maximal and a minimal element."""
        return bin(self.down[top] & self.up[bottom]).count("1")

    def band_count(self) -> int:
        """Bands of the doubled Euler-circuit cycles: each admissible
        transition (k, m, l) appears twice in its owner's cycle and once per
        side, so the count is 4 * sum over (max, min) of between(max, min)^2."""
        maxes = [i for i in range(self.n) if self.is_max(i)]
        mins = [i for i in range(self.n) if self.is_min(i)]
        return 4 * sum(self.between(r, w) ** 2 for r in maxes for w in mins)

    def saddle_covers(self) -> set:
        idx = {name: i for i, name in enumerate(self.names)}
        return {(a, b) for a, b in self.covers()
                if self.is_saddle(idx[a]) and self.is_saddle(idx[b])}


def closure(names, pairs) -> Poset:
    """Bitset transitive closure of ``[greater, smaller]`` pairs: each
    element's down-set is its direct successors and their down-sets, taken
    in depth-first post-order so successors are settled first."""
    idx = {name: i for i, name in enumerate(names)}
    succ = [[] for _ in names]
    for a, b in pairs:
        succ[idx[a]].append(idx[b])
    down = [None] * len(names)
    for root in range(len(names)):
        stack = [root]
        while stack:
            i = stack[-1]
            pending = [j for j in succ[i] if down[j] is None]
            if pending:
                stack += pending
                continue
            stack.pop()
            if down[i] is None:
                acc = 0
                for j in succ[i]:
                    acc |= 1 << j | down[j]
                down[i] = acc
    return Poset(names, down)


# --------------------------------------------------------------------------
# certificates
# --------------------------------------------------------------------------


def _genus_of_profile(profile, kind) -> int:
    if kind in ("primitive-horseshoe", "primitive-fixed-saddle"):
        return 0
    return 1 + sum(n // 2 - 2 for n in profile) // 4


def certificate_problems(cert: dict, poset: Poset) -> list[str]:
    """Recompute a certificate's arithmetic from its JSON and the input."""
    problems = []
    order = cert["order"]
    if {tuple(p) for p in order["relations"]} != poset.relations():
        problems.append("stored relations differ from the bitset closure")
    if {tuple(p) for p in order["covers"]} != poset.covers():
        problems.append("stored covers differ from the bitset covers")

    cycles = cert["cycles"]
    bands = {(owner, i): tuple(t) for owner, word in cycles.items()
             for i, t in enumerate(word)}
    if len(bands) != poset.band_count():
        problems.append(f"{len(bands)} bands, expected {poset.band_count()}")
    if 2 * cert["edge_count"] != len(bands):
        problems.append("2E differs from the band count")
    if cert["edge_count"] != len(cert["gluing"]):
        problems.append("edge count differs from the gluing")

    minimal = {poset.names[i] for i in range(poset.n) if poset.is_min(i)}
    matched: dict = {}
    for a, b in cert["gluing"]:
        a, b = tuple(a), tuple(b)
        for key in (a, b):
            matched[key] = matched.get(key, 0) + 1
        ta, tb = bands.get(a), bands.get(b)
        if ta is None or tb is None or a[0] not in minimal or b[0] in minimal:
            problems.append(f"pair {a}~{b} does not join the two sides")
        elif (ta[0], ta[2]) != (tb[0], tb[2]) or ta[1] != b[0] or tb[1] != a[0]:
            problems.append(f"pair {a}~{b} joins incompatible bands")
    if any(matched.get(k, 0) != 1 for k in bands) or len(matched) != len(bands):
        problems.append("the gluing is not a perfect matching of the bands")

    extra = 0
    for saddle, seqs in cert["boundary_cycles"].items():
        seen: dict = {}
        lengths = []
        for seq in seqs:
            body = [tuple(k) for k in seq[:-1]]
            if len(seq) < 3 or seq[0] != seq[-1] or len(body) % 2:
                problems.append(f"{saddle}: boundary cycle does not close")
                continue
            lengths.append(len(body) // 2)
            for key in body:
                seen[key] = seen.get(key, 0) + 1
        if any(n % 2 for n in lengths):
            problems.append(f"{saddle}: odd boundary cycle length in {lengths}")
        for key, t in bands.items():
            if saddle in (t[0], t[2]):
                want = 2 if t[0] == t[2] else 1
                if seen.pop(key, 0) != want:
                    problems.append(f"{saddle}: band {key} not seen {want} times")
        if seen:
            problems.append(f"{saddle}: cycles hold unrelated bands")

        raw = sorted(lengths, reverse=True)
        domain = cert["domains"][saddle]
        final = domain["profile"]
        steps = cert["repairs"].get(saddle, [])
        if steps:
            if steps[0]["before"] != raw or steps[-1]["after"] != final:
                problems.append(f"{saddle}: repair log does not lead raw to final")
            for step in steps:
                extra += 4 if step["op"] == "lengthen-2-to-10" else 1
        elif final != raw:
            problems.append(f"{saddle}: unrepaired profile differs from its cycles")
        kind = domain["recipe"]["kind"]
        if kind == "primitive-horseshoe":
            if final != [2]:
                problems.append(f"{saddle}: horseshoe with profile {final}")
        elif (sum(final) - 4 * len(final)) % 8:
            problems.append(f"{saddle}: profile {final} breaks sum = 4s mod 8")
        if domain["genus"] != _genus_of_profile(final, kind):
            problems.append(f"{saddle}: domain genus differs from its profile")

    saddles = {poset.names[i] for i in range(poset.n) if poset.is_saddle(i)}
    realized = {s for s in saddles if any(s in (t[0], t[2]) for t in bands.values())}
    if set(cert["boundary_cycles"]) != realized:
        problems.append("boundary cycles cover the wrong saddles")

    vertices = sum(1 for i in range(poset.n) if not poset.is_saddle(i))
    handles = len(poset.saddle_covers())
    chi = (sum(2 - 2 * d["genus"] - len(d["profile"]) for d in cert["domains"].values())
           + vertices - len(cert["gluing"]) - extra - 2 * handles)
    if (cert["vertex_count"], cert["handle_count"], cert["repair_extra_pairs"]) != (
            vertices, handles, extra):
        problems.append("vertex, handle or repair counts differ from recomputation")
    if cert["chi"] != chi:
        problems.append(f"chi {cert['chi']} differs from recomputed {chi}")
    if cert["connected"] and cert["genus"] != (2 - chi) // 2:
        problems.append("genus differs from (2 - chi) / 2")
    return problems


# --------------------------------------------------------------------------
# gradient-like verdicts
# --------------------------------------------------------------------------


def level_graphs(poset: Poset):
    """(highest, lowest) as (vertex names, [(saddle, (u, v))]) or None when
    the order is not gradient-shaped."""
    top, bottom = [], []
    maxes = sorted(poset.names[i] for i in range(poset.n) if poset.is_max(i))
    mins = sorted(poset.names[i] for i in range(poset.n) if poset.is_min(i))
    for s in sorted(range(poset.n), key=lambda i: poset.names[i]):
        if not poset.is_saddle(s):
            continue
        if any(poset.is_saddle(x) for x in poset.members(poset.up[s] | poset.down[s])):
            return None
        ups = sorted(poset.names[x] for x in poset.members(poset.up[s]))
        downs = sorted(poset.names[x] for x in poset.members(poset.down[s]))
        if len(ups) > 2 or len(downs) > 2:
            return None
        top.append((poset.names[s], (ups[0], ups[-1])))
        bottom.append((poset.names[s], (downs[0], downs[-1])))
    return (maxes, top), (mins, bottom)


def connected(vertices, edges) -> bool:
    parent = {v: v for v in vertices}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for _, (u, v) in edges:
        parent[find(u)] = find(v)
    return len({find(v) for v in vertices}) <= 1


def trace_faces(rotation: dict) -> list[list[tuple[int, int]]]:
    """Face orbits: from dart (e, end) cross to (e, 1 - end), then turn to
    the next dart in the rotation there."""
    nxt = {}
    for darts in rotation.values():
        for i, d in enumerate(darts):
            nxt[d] = darts[(i + 1) % len(darts)]
    faces, seen = [], set()
    for d0 in sorted(nxt):
        if d0 in seen:
            continue
        face, d = [], d0
        while d not in seen:
            seen.add(d)
            face.append(d)
            d = nxt[(d[0], 1 - d[1])]
        faces.append(face)
    return faces


def isomorphic(n_a, edges_a, vertices_b, edges_b) -> bool:
    """Brute force over vertex bijections: vertices 0..n_a-1 on side a,
    edges as unordered vertex pairs (loops allowed)."""
    if n_a != len(vertices_b) or len(edges_a) != len(edges_b):
        return False
    target = sorted(tuple(sorted(e)) for e in edges_b)
    for perm in itertools.permutations(vertices_b):
        if sorted(tuple(sorted((perm[u], perm[v]))) for u, v in edges_a) == target:
            return True
    return False


def _dual_edges(faces, n_edges):
    face_of = {d: i for i, f in enumerate(faces) for d in f}
    return [(face_of[(e, 0)], face_of[(e, 1)]) for e in range(n_edges)]


def labelled_isomorphic(dual_edges, vertices_b, edges_b) -> bool:
    """Brute force over face-to-vertex bijections that send the dual edge
    of every saddle to that same saddle's edge: edge i on both sides."""
    if len(dual_edges) != len(edges_b):
        return False
    target = [sorted(e) for e in edges_b]
    for perm in itertools.permutations(vertices_b):
        if all(sorted((perm[u], perm[v])) == t for (u, v), t in zip(dual_edges, target)):
            return True
    return False


def gradient_problems(verdict: dict, poset: Poset, graphs) -> tuple[list[str], bool]:
    """Check a realizable verdict's witness from scratch.  The dual is
    compared with the lowest-level graph as an unlabelled multigraph, as the
    program compares them; the second value tells whether the dual edge of
    every saddle is also that saddle's own edge."""
    (maxes, top), (mins, bottom) = graphs
    problems = []
    rotation = {v: [tuple(d) for d in ds] for v, ds in verdict["rotation_system"].items()}
    expected = {v: sorted((e, end) for e, (_, ends) in enumerate(top)
                          for end, w in enumerate(ends) if w == v) for v in maxes}
    if {v: sorted(ds) for v, ds in rotation.items() if ds} != {
            v: ds for v, ds in expected.items() if ds}:
        problems.append("rotation system does not list each dart at its vertex")
        return problems, False
    faces = trace_faces({v: ds for v, ds in rotation.items() if ds})
    f_count = len(faces) if top else 1
    genus = verdict["genus"]
    if len(maxes) - len(top) + f_count != 2 - 2 * genus:
        problems.append(f"V - E + F = {len(maxes) - len(top) + f_count} for genus {genus}")
    stored = [sorted(tuple(d) for d in f) for f in verdict["faces"] if f]
    if sorted(map(sorted, faces)) != sorted(stored):
        problems.append("stored faces differ from the retraced ones")
    dual = _dual_edges(faces, len(top))
    lowest = [ends for _, ends in bottom]
    if not isomorphic(f_count, dual, mins, lowest):
        problems.append("dual of the witness is not the lowest-level graph")
    forced = 2 - len(maxes) + len(top) - len(mins)
    if forced % 2 or genus != forced // 2:
        problems.append(f"genus {genus} differs from the forced (2 - R + S - A) / 2")
    labelled = f_count == len(mins) and (not top or labelled_isomorphic(dual, mins, lowest))
    return problems, labelled


def has_dual_embedding(graphs) -> bool:
    """Independent exhaustive search: does any rotation system of the
    highest-level graph have the lowest-level graph as its dual, with the
    dual edge of every saddle on that saddle's own edge?  A labelled witness
    is an unlabelled one too, so a NotRealizable verdict passes this search
    whether the decision keeps the saddles' labels or not."""
    (maxes, top), (mins, bottom) = graphs
    at = {v: [] for v in maxes}
    for e, (_, (u, v)) in enumerate(top):
        at[u].append((e, 0))
        at[v].append((e, 1))
    choices = []
    for v in maxes:
        ds = at[v]
        choices.append([[ds[0], *rest] for rest in itertools.permutations(ds[1:])]
                       if ds else [[]])
    lowest = [ends for _, ends in bottom]
    if not top:  # a lone vertex on the sphere: one face, no dual edges
        return len(mins) == 1
    for combo in itertools.product(*choices):
        faces = trace_faces({v: ds for v, ds in zip(maxes, combo) if ds})
        if len(faces) == len(mins) and labelled_isomorphic(
                _dual_edges(faces, len(top)), mins, lowest):
            return True
    return False
