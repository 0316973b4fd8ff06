"""Spans and counters recorded from outside the program.

The tracer replaces the public functions of each measured ``smale_orders``
module at the module attribute through which callers look them up: ``realize``
finds ``glue_bands`` as ``pipeline.glue_bands``, ``balance_cycles`` finds
``star_ledger`` as ``cycles.star_ledger``, and the CLI finds
``check_necessary`` as ``cli.check_necessary``.  Every call becomes a span
(function, start, end, parent); generator functions get one span per
resumption.  Spans are kept in flat arrays and written out when the run ends.

A span's *layer* is the module that defines its function.  Per-layer times
are layer-exclusive: a span's duration minus the time of descendant spans of
other layers, so ``realize``'s figure leaves out the band gluing it calls but
a nested call within the same layer stays inside its caller.
"""

from __future__ import annotations

import collections
import functools
import inspect
import json
import time
from array import array
from pathlib import Path

LAYERS = ("census", "order", "cycles", "bands", "domains", "assemble",
          "pipeline", "gradient", "cli")

# Per-layer metrics: name -> (unit, better).  Times are seconds per round,
# counts are per round, so runs of different length compare directly.
PER_LAYER = {
    "census.enum_s": ("s", "lower"),
    "census.orders": ("count", "lower"),
    "order.load_s": ("s", "lower"),
    "order.load_calls": ("count", "lower"),
    "order.connectivity_s": ("s", "lower"),
    "order.classify_calls": ("count", "lower"),
    "cycles.build_s": ("s", "lower"),
    "cycles.balance_s": ("s", "lower"),
    "cycles.star_ledger_calls": ("count", "lower"),
    "cycles.bands": ("count", "lower"),
    "bands.glue_s": ("s", "lower"),
    "bands.verify_s": ("s", "lower"),
    "bands.verify_calls": ("count", "lower"),
    "domains.repair_s": ("s", "lower"),
    "domains.repair_steps": ("count", "lower"),
    "assemble.self_s": ("s", "lower"),
    "assemble.to_dict_s": ("s", "lower"),
    "pipeline.realize_self_s": ("s", "lower"),
    "pipeline.verify_s": ("s", "lower"),
    "pipeline.from_dict_s": ("s", "lower"),
    "gradient.enumerate_s": ("s", "lower"),
    "gradient.rotation_systems": ("count", "lower"),
    "gradient.face_match_ratio": ("ratio", "higher"),
    "gradient.iso_calls": ("count", "lower"),
    "gradient.iso_s": ("s", "lower"),
    "gradient.necessary_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.output_bytes": ("count", "lower"),
}

# Time metrics that are the layer-exclusive time of one function's spans.
FUNCTION_TIMES = {
    "order.load_s": "order.load_order",
    "order.connectivity_s": "order.check_connectivity",
    "cycles.build_s": "cycles.build_initial_cycles",
    "cycles.balance_s": "cycles.balance_cycles",
    "bands.glue_s": "bands.glue_bands",
    "bands.verify_s": "bands.verify_boundary_cycles",
    "domains.repair_s": "domains.repair_profile",
    "assemble.to_dict_s": "assemble.RealizationCertificate.to_dict",
    "pipeline.realize_self_s": "pipeline.realize",
    "pipeline.verify_s": "pipeline.verify_certificate",
    "pipeline.from_dict_s": "pipeline.certificate_from_dict",
    "gradient.enumerate_s": "gradient.enumerate_embeddings",
    "gradient.iso_s": "gradient.multigraphs_isomorphic",
    "gradient.necessary_s": "gradient.check_necessary",
}

# Time metrics that are a whole layer's exclusive time, minus some functions.
LAYER_TIMES = {
    "census.enum_s": ("census", ()),
    "assemble.self_s": ("assemble", ("assemble.RealizationCertificate.to_dict",)),
    "cli.self_s": ("cli", ()),
}

# Count metrics that are the number of spans of one function.
CALL_COUNTS = {
    "census.orders": "census.iter_down_set_tuples",
    "order.load_calls": "order.load_order",
    "order.classify_calls": "order.classify",
    "cycles.star_ledger_calls": "cycles.star_ledger",
    "bands.verify_calls": "bands.verify_boundary_cycles",
    "gradient.iso_calls": "gradient.multigraphs_isomorphic",
}


class Tracer:
    """In-memory span store plus named counters."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.fn = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counters: collections.Counter = collections.Counter()
        self._face_counts: collections.Counter = collections.Counter()
        self._originals: list = []

    # -- recording ---------------------------------------------------------

    def _open(self, nid: int) -> int:
        i = len(self.fn)
        self.fn.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self.start.append(time.perf_counter())
        self._stack.append(i)
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str, after=None):
        """A traced stand-in for ``fn``; ``after(args, result)`` counts."""
        nid = self._name_id(name)
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(fn, nid)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(i)
            if after is not None:
                after(args, result)
            return result

        return traced

    def _wrap_generator(self, fn, nid: int):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                i = self._open(nid)
                try:
                    item = next(inner)
                except StopIteration:
                    self.fn[i] = self._name_id(self.names[nid] + ".exhausted")
                    return
                finally:
                    self._close(i)
                yield item

        return traced

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] += amount

    # -- counter hooks -----------------------------------------------------

    def _after_balance(self, args, assignment):
        self.counters["cycles.bands"] += assignment.total_bands()

    def _after_repair(self, args, result):
        self.counters["domains.repair_steps"] += len(result[1].steps)

    def _after_enumerate(self, args, embeddings):
        self.counters["gradient.rotation_systems"] += len(embeddings)
        self._face_counts = collections.Counter(e.face_count for e in embeddings)

    def _after_gradient(self, args, verdict):
        attractors = len(args[0].minimal_elements)
        self.counters["gradient.face_matches"] += self._face_counts[attractors]
        self._face_counts = collections.Counter()

    # -- installation ------------------------------------------------------

    def install(self, modules) -> None:
        """Wrap every public function of the measured modules where it is
        looked up, and the certificate's ``to_dict`` on its class."""
        hooks = {
            "cycles.balance_cycles": self._after_balance,
            "domains.repair_profile": self._after_repair,
            "gradient.enumerate_embeddings": self._after_enumerate,
            "gradient.check_gradient_like": self._after_gradient,
        }
        for layer in LAYERS:
            mod = getattr(modules, layer)
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                home = obj.__module__.rpartition(".")[2]
                if not obj.__module__.startswith("smale_orders.") or home not in LAYERS:
                    continue
                name = f"{home}.{obj.__name__}"
                self._replace(mod, attr, self.wrap(obj, name, hooks.get(name)))
        cert_cls = modules.assemble.RealizationCertificate
        self._replace(cert_cls, "to_dict", self.wrap(
            cert_cls.to_dict, "assemble.RealizationCertificate.to_dict"))

    def _replace(self, owner, attr: str, traced) -> None:
        self._originals.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, traced)

    def uninstall(self) -> None:
        """Put every original function back."""
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    # -- analysis ----------------------------------------------------------

    def layer_of(self, nid: int) -> str:
        return self.names[nid].partition(".")[0]

    def exclusive_times(self):
        """Per span: (self time, layer-exclusive time).

        Children are recorded after their parent, so one backward pass
        settles every child before its parent is read.
        """
        n = len(self.fn)
        layer = [self.layer_of(f) for f in self.fn]
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        foreign = [0.0] * n
        for i in range(n - 1, -1, -1):
            p = self.parent[i]
            if p < 0:
                continue
            child[p] += dur[i]
            foreign[p] += dur[i] if layer[i] != layer[p] else foreign[i]
        selfs = [dur[i] - child[i] for i in range(n)]
        excl = [dur[i] - foreign[i] for i in range(n)]
        return selfs, excl

    def metrics(self, rounds: int) -> dict:
        """Every per-layer metric, per round."""
        selfs, excl = self.exclusive_times()
        by_fn_time: collections.Counter = collections.Counter()
        by_fn_calls: collections.Counter = collections.Counter()
        by_layer: collections.Counter = collections.Counter()
        for i, f in enumerate(self.fn):
            name = self.names[f]
            by_fn_time[name] += excl[i]
            by_fn_calls[name] += 1
            p = self.parent[i]
            if p < 0 or self.layer_of(self.fn[p]) != self.layer_of(f):
                by_layer[(self.layer_of(f), name)] += excl[i]
        values = {}
        for metric, fname in FUNCTION_TIMES.items():
            values[metric] = by_fn_time[fname]
        for metric, (layer, excluded) in LAYER_TIMES.items():
            values[metric] = sum(
                t for (lay, name), t in by_layer.items()
                if lay == layer and name not in excluded
            )
        for metric, fname in CALL_COUNTS.items():
            values[metric] = by_fn_calls[fname]
        for metric in ("cycles.bands", "domains.repair_steps",
                       "gradient.rotation_systems", "cli.output_bytes"):
            values[metric] = self.counters[metric]
        systems = self.counters["gradient.rotation_systems"]
        ratio = self.counters["gradient.face_matches"] / systems if systems else 0.0
        return {m: ratio if m == "gradient.face_match_ratio" else values[m] / rounds
                for m in PER_LAYER}

    def self_time_table(self) -> list[tuple[str, float, int]]:
        """(function, total self time, calls), slowest first."""
        selfs, _ = self.exclusive_times()
        time_of: collections.Counter = collections.Counter()
        calls: collections.Counter = collections.Counter()
        for i, f in enumerate(self.fn):
            time_of[self.names[f]] += selfs[i]
            calls[self.names[f]] += 1
        return sorted(((n, t, calls[n]) for n, t in time_of.items()),
                      key=lambda r: -r[1])

    def write(self, stem: Path, extra: dict) -> None:
        """Spans as four raw arrays plus a JSON index with names and counters."""
        with open(stem.with_suffix(".spans"), "wb") as fh:
            for arr in (self.fn, self.parent, self.start, self.end):
                arr.tofile(fh)
        index = {
            "names": self.names,
            "spans": len(self.fn),
            "layout": ["fn:int32", "parent:int32", "start:float64", "end:float64"],
            "counters": dict(self.counters),
            **extra,
        }
        stem.with_suffix(".json").write_text(json.dumps(index, indent=1, sort_keys=True))
