"""The four workloads.

Each workload makes its inputs and the data of its checks from the seed
(``prepare``, done once and not timed: none of it is the program's work) and
then runs whole rounds of the same items (``run_round``).  Every round
relabels its inputs with a fresh fixed-length tag, so a cache kept across
calls cannot make later rounds free, while the relative order of names, and
with it every construction and every output size, stays the same.

Only program calls sit inside an item's timer: writing input files and the
independent checks of :mod:`oracles` run between items.  An item whose call
raises or whose output fails a check is counted as failed.
"""

from __future__ import annotations

import collections
import json
import random
import time
import traceback
from pathlib import Path

import oracles

perf = time.perf_counter


def dump(obj) -> str:
    """The program's JSON layout (``cli._dump``): indented, sorted keys."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


class Recorder:
    """Item latencies, failures and output bytes of one phase."""

    def __init__(self):
        self.latencies: list[float] = []
        self.failed = 0
        self.output_bytes = 0
        self.rounds = 0
        self.problems: list[str] = []  # round-level, not tied to one item
        self.examples: list[str] = []
        self.notes: collections.Counter = collections.Counter()  # not failures

    def item(self, latency: float, problems) -> None:
        self.latencies.append(latency)
        if problems:
            self.failed += 1
            if len(self.examples) < 5:
                self.examples.append("; ".join(map(str, problems))[:500])


def round_tag(seed: int, r: int) -> str:
    """Four lowercase letters, distinct for every round of one run."""
    x = random.Random(seed).randrange(26 ** 4 // 2) + r
    return "".join(chr(97 + x // 26 ** k % 26) for k in (3, 2, 1, 0))


def _call(fn):
    """Run ``fn``; return (result, problems) with a raised error as problem."""
    try:
        return fn(), []
    except Exception:  # one failing item must not end the run
        return None, [traceback.format_exc(limit=3)]


def _isolated(downs) -> bool:
    """The census's own filter: an element unrelated to every other one."""
    up = 0
    for m in downs:
        up |= m
    return any(downs[i] == 0 and not up >> i & 1 for i in range(len(downs)))


# --------------------------------------------------------------------------
# census and gradient: orders straight from the census enumeration
# --------------------------------------------------------------------------


class _Enumerated:
    """Rounds over every naturally labelled order on first_n..max_n elements.

    Orders come from ``census.iter_down_set_tuples`` and are built by
    ``order.from_down_sets``, as ``census.iter_orders`` builds them, but with
    the round's own names.  ``run`` returns None for an order that is not an
    item; its time then joins the next item's latency, so enumeration and
    skipped orders are paid for by the items that follow them.
    """

    first_n = 1
    max_n = 6
    min_rounds = 1
    via_cli = False

    def prepare(self, seed: int, workdir: Path):
        return {"seed": seed}

    def start_round(self, state, r: int) -> None:
        pass

    def run_round(self, mods, state, r: int, rec: Recorder) -> None:
        self.start_round(state, r)
        tag = round_tag(state["seed"], r)
        for n in range(self.first_n, self.max_n + 1):
            names = tuple(f"{tag}{i}" for i in range(n))
            count = 0
            t0 = perf()
            for downs in mods.census.iter_down_set_tuples(n):
                count += 1
                if _isolated(downs):
                    continue
                out, problems = _call(lambda: self.run(mods, names, downs))
                t1 = perf()
                is_item = out is not None or bool(problems)
                if not problems:
                    problems = self.check(state, oracles.Poset(names, downs), out, rec)
                t2 = perf()
                if is_item:
                    rec.item(t1 - t0, problems)
                    t0 = t2
                else:
                    rec.problems += problems
                    t0 += t2 - t1
            if count != oracles.A006455[n]:
                rec.problems.append(
                    f"{count} orders on {n} elements, A006455 has {oracles.A006455[n]}")


class Census(_Enumerated):
    """Each order through check_connectivity, then realize, verify_certificate
    and certificate JSON when it passes, as ``sweep_small_orders.py --verify``
    does.  Every non-isolated order is an item."""

    name = "census"
    tail_pct = 99.7

    def run(self, mods, names, downs):
        order = mods.order.from_down_sets(names, downs)
        report = mods.order.check_connectivity(order)
        if not report.passed:
            return report, None, None
        cert = mods.pipeline.realize(order)
        problems = mods.pipeline.verify_certificate(cert)
        return report, problems, dump(cert.to_dict())

    def check(self, state, poset, out, rec):
        report, problems, text = out
        if {e: ok for e, (ok, _) in report.entries.items()} != poset.connectivity():
            return ["check_connectivity disagrees with union-find"]
        if text is None:
            return []
        rec.output_bytes += len(text)
        if problems:
            return ["verify_certificate: " + "; ".join(problems)]
        return oracles.certificate_problems(json.loads(text), poset)


class Gradient(_Enumerated):
    """Gradient-shaped orders with at most max_saddles saddles, as
    ``gradient_census.py`` picks them, through level_graphs and
    check_gradient_like.  Each gradient-shaped order is an item; a
    disconnected highest-level graph is refused as the CLI refuses it.
    One not-realizable verdict in sample_every is searched again from
    scratch, keeping each saddle's label, the sample turning with the seed
    and the round.  A realizable witness is checked as an unlabelled
    multigraph, as the program checks it; the witnesses that fail the
    labelled test are counted as a note, not as failures."""

    name = "gradient"
    first_n = 2
    max_saddles = 4
    tail_pct = 99.6
    sample_every = 60

    def start_round(self, state, r: int) -> None:
        state["negatives"] = 0
        state["sampled"] = (state["seed"] + r) % self.sample_every

    def run(self, mods, names, downs):
        g = mods.gradient
        order = mods.order.from_down_sets(names, downs)
        try:
            highest, _ = g.level_graphs(order)
        except mods.errors.NotGradientShape:
            return None
        if len(highest.edges) > self.max_saddles:
            return None
        try:
            doc = g.check_gradient_like(order).to_dict()
        except mods.errors.DisconnectedGraph as exc:
            doc = {"refused_at": "gradient-shape", "detail": str(exc)}
        return dump(doc)

    def check(self, state, poset, text, rec):
        graphs = oracles.level_graphs(poset)
        if graphs is not None and len(graphs[0][1]) > self.max_saddles:
            graphs = None
        if text is None:
            return [] if graphs is None else ["level_graphs refused a gradient shape"]
        if graphs is None:
            return ["an order that is not gradient-shaped was decided"]
        rec.output_bytes += len(text)
        doc = json.loads(text)
        (maxes, top), _ = graphs
        if "refused_at" in doc:
            return [] if not oracles.connected(maxes, top) else [
                "a connected highest-level graph was refused"]
        if not oracles.connected(maxes, top):
            return ["a disconnected highest-level graph was decided"]
        if doc["realizable"]:
            problems, labelled = oracles.gradient_problems(doc, poset, graphs)
            if not labelled:
                rec.notes["realizable witnesses whose dual edges are not the"
                          " saddles' own edges"] += 1
            return problems
        sampled = state["negatives"] % self.sample_every == state["sampled"]
        state["negatives"] += 1
        if sampled and oracles.has_dual_embedding(graphs):
            return ["verdict NotRealizable, but an independent search finds a witness"]
        return []


# --------------------------------------------------------------------------
# certify and load: files through the CLI, in process
# --------------------------------------------------------------------------


def _read_json(path: Path):
    text = path.read_text(encoding="utf-8")
    return len(text.encode("utf-8")), json.loads(text)


class _FileItems:
    """Rounds over prepared orders, each written to a file under the round's
    tag and passed to two CLI commands; the item is the two calls."""

    via_cli = True

    def run_round(self, mods, state, r: int, rec: Recorder) -> None:
        tag = round_tag(state["seed"], r)
        workdir = state["dir"]
        for names, pairs, poset, kind in state["orders"]:
            label = {x: tag + x for x in names}
            path = workdir / "order.json"
            path.write_text(json.dumps({
                "elements": [label[x] for x in names],
                "relations": [[label[a], label[b]] for a, b in pairs],
            }), encoding="utf-8")
            tagged = oracles.Poset([label[x] for x in names], poset.down)
            t0 = perf()
            codes, problems = _call(lambda: self.run(mods, workdir))
            t1 = perf()
            if not problems:
                problems = self.check(codes, workdir, tagged, kind, rec)
            rec.item(t1 - t0, problems)


class Certify(_FileItems):
    """Seeded random layered orders, repellers over saddles over attractors
    with edge probability p, through ``realize -o`` and ``verify-cert``.
    A draw is kept when its band count lies within ``window`` of the
    expected count, so that every seed gives nearly the same input sizes,
    and when the union-find oracle passes its connectivity.  All orders of a
    round have one size: the median and the tail are then order statistics
    over many random orders, which a new seed moves little."""

    name = "certify"
    size = (6, 12, 6)  # repellers, saddles, attractors
    orders = 13
    p = 0.5
    window = 0.03
    tail_pct = 85.0
    min_rounds = 6

    def draw(self, rng):
        reps, saddles, atts = self.size
        rs = [f"r{i:02d}" for i in range(reps)]
        ss = [f"s{i:02d}" for i in range(saddles)]
        ws = [f"w{i:02d}" for i in range(atts)]
        q = self.p * self.p  # a saddle lies between a given repeller and attractor
        target = 4 * reps * atts * (saddles * q * (1 - q) + (saddles * q) ** 2)
        while True:
            links = []
            for _ in ss:
                ups = [x for x in rs if rng.random() < self.p] or [rng.choice(rs)]
                downs = [x for x in ws if rng.random() < self.p] or [rng.choice(ws)]
                links.append((ups, downs))
            between = collections.Counter(
                (r, w) for ups, downs in links for r in ups for w in downs)
            if len({r for r, _ in between}) < reps or len({w for _, w in between}) < atts:
                continue  # an extremal with no saddle would be isolated
            if abs(4 * sum(c * c for c in between.values()) - target) > self.window * target:
                continue
            pairs = [(r, s) for s, (ups, _) in zip(ss, links) for r in ups]
            pairs += [(s, w) for s, (_, downs) in zip(ss, links) for w in downs]
            names = rs + ss + ws
            poset = oracles.closure(names, pairs)
            if all(poset.connectivity().values()):
                return names, pairs, poset, "layered"

    def prepare(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        orders = [self.draw(rng) for _ in range(self.orders)]
        return {"seed": seed, "orders": orders, "dir": workdir}

    def run(self, mods, workdir: Path):
        order, cert, verdict = (str(workdir / f) for f in
                                ("order.json", "cert.json", "verdict.json"))
        return (mods.cli.main(["realize", order, "-o", cert]),
                mods.cli.main(["verify-cert", cert, "-o", verdict]))

    def check(self, codes, workdir, poset, kind, rec):
        if codes != (0, 0):
            return [f"realize / verify-cert exited {codes}"]
        size, cert = _read_json(workdir / "cert.json")
        vsize, verdict = _read_json(workdir / "verdict.json")
        rec.output_bytes += size + vsize
        if verdict != {"passed": True, "problems": []}:
            return [f"verify-cert: {verdict}"]
        return oracles.certificate_problems(cert, poset)


class Load(_FileItems):
    """Long chains and wide grids (products of two chains, graded) through
    the CLI commands ``check`` and ``validate``.  The shapes are fixed; the
    seed shuffles the item order and picks the labels.

    A round holds an odd number of shapes and the tail percentile falls
    inside one shape's share of the items, so neither the median nor the
    tail sits on the boundary between two shapes, where it would jump from
    one shape's latency to the next's with the noise."""

    name = "load"
    chains = (25, 50, 75, 100, 125, 150, 175, 200)
    grids = ((3, 10), (4, 12), (5, 15), (7, 7), (6, 20), (8, 8), (10, 10), (4, 40),
             (12, 12))
    tail_pct = 85.0
    min_rounds = 4

    def prepare(self, seed: int, workdir: Path):
        shapes = []
        for n in self.chains:
            names = [f"c{i:03d}" for i in range(n)]
            shapes.append((names, list(zip(names, names[1:])), "chain"))
        for a, b in self.grids:
            name = [[f"g{i:02d}x{j:02d}" for j in range(b)] for i in range(a)]
            pairs = [(name[i][j], name[i + 1][j]) for i in range(a - 1) for j in range(b)]
            pairs += [(name[i][j], name[i][j + 1]) for i in range(a) for j in range(b - 1)]
            shapes.append(([x for row in name for x in row], pairs, "grid"))
        random.Random(seed).shuffle(shapes)
        orders = [(names, pairs, oracles.closure(names, pairs), kind)
                  for names, pairs, kind in shapes]
        return {"seed": seed, "orders": orders, "dir": workdir}

    def run(self, mods, workdir: Path):
        order = str(workdir / "order.json")
        return (mods.cli.main(["check", order, "-o", str(workdir / "check.json")]),
                mods.cli.main(["validate", order, "-o", str(workdir / "validate.json")]))

    def check(self, codes, workdir, poset, kind, rec):
        if codes != (0, 0):
            return [f"check / validate exited {codes}"]
        size, check = _read_json(workdir / "check.json")
        vsize, doc = _read_json(workdir / "validate.json")
        rec.output_bytes += size + vsize
        problems = []
        if not check["passed"] or check["violations"]:
            problems.append("check refused an order that passes")
        for report in (check["connectivity"], doc["connectivity"]):
            if not all(entry["passed"] for entry in report.values()):
                problems.append("a connectivity entry failed")
        relations = {tuple(p) for p in doc["order"]["relations"]}
        covers = {tuple(p) for p in doc["order"]["covers"]}
        if relations != poset.relations() or covers != poset.covers():
            problems.append("relations or covers differ from the bitset closure")
        maxes = {poset.names[i] for i in range(poset.n) if poset.is_max(i)}
        if {e for e, role in doc["roles"].items() if role == "repeller"} != maxes:
            problems.append("repellers differ from the maximal elements")
        n = poset.n
        if kind == "chain":
            roles = sorted(doc["roles"].values())
            if (len(relations), len(covers)) != (n * (n - 1) // 2, n - 1) or \
                    roles.count("repeller") != 1 or roles.count("attractor") != 1:
                problems.append("a chain breaks its closed forms")
        return problems


WORKLOADS = {w.name: w for w in (Census(), Gradient(), Certify(), Load())}
