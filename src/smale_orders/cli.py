"""Command-line surface over the pipeline.

Exit codes: 0 for success (or a Realizable verdict), 2 for a principled
mathematical refusal (connectivity failure, fired obstruction rules, a
NotRealizable verdict, a certificate that fails re-verification), 1 for
input or usage errors and for internal errors, which write
``{"detail": ..., "internal_error": stage}`` to standard error.  All outputs
are byte-identical across runs for identical inputs.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import sys
from pathlib import Path

from .assemble import TOOL_VERSION
from .cycles import CycleAssignment
from .dot import band_incidence_dot, embedding_dot, hasse_dot, level_graph_dot
from .errors import (
    BrokenInvariant,
    ConnectivityFailure,
    DisconnectedGraph,
    MalformedCycles,
    NotGradientShape,
    PreconditionViolated,
    SmaleOrderError,
    StarViolated,
)
from .gradient import check_gradient_like, check_necessary, level_graphs
from .order import check_connectivity, classify, load_order
from .pipeline import realize, verify_document
from .assemble import plan_plugs
from . import corpus

COMMANDS = (
    "validate",
    "check",
    "realize",
    "plan-plugs",
    "gradient-like",
    "export-dot",
    "verify-cert",
)


_STR = json.encoder.encode_basestring_ascii
_SCALAR = {
    str: _STR,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}
_ARRAY = frozenset((list, tuple))


def _dump(obj) -> str:
    """The text ``json.dumps`` writes with ``indent=2, sort_keys=True``, plus
    a final newline, byte for byte.

    ``json`` uses its C encoder only when ``indent`` is None (see
    ``JSONEncoder.iterencode`` in ``json/encoder.py``); with an indent every
    token passes through one Python generator per nesting level.  This
    writer recurses once, appending to one list of pieces, and writes an
    array of scalars, or of non-empty arrays of scalars, with one join.  It
    accepts dict with ``str`` keys, list, tuple, str, int, bool and None,
    dispatched on the exact class, and raises ``TypeError`` naming any other
    type.
    """
    out: list[str] = []
    _write(obj, "\n", out)
    out.append("\n")
    return "".join(out)


def _write(obj, nl: str, out: list[str]) -> None:
    """Append the text of ``obj``; ``nl`` is a newline and the indent of
    the line that ``obj`` starts on."""
    cls = obj.__class__
    if cls in _SCALAR:
        out.append(_SCALAR[cls](obj))
    elif (cls is dict or cls in _ARRAY) and not obj:
        out.append("{}" if cls is dict else "[]")
    elif cls is dict:
        inner = nl + "  "
        sep = "{" + inner
        for key in sorted(obj):
            if key.__class__ is not str:
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out += (sep, _STR(key), ": ")
            _write(obj[key], inner, out)
            sep = "," + inner
        out.append(nl + "}")
    elif cls in _ARRAY:
        inner = nl + "  "
        sep = "," + inner
        kinds = set(map(type, obj))
        if kinds.issubset(_SCALAR):
            texts = [_SCALAR[x.__class__](x) for x in obj]
            out.append("[" + inner + sep.join(texts) + nl + "]")
            return
        if kinds.issubset(_ARRAY) and all(obj):
            # pairs, band keys, cycles: rows of scalars, unless one nests deeper
            start, row_sep, end = "[" + inner + "  ", sep + "  ", inner + "]"
            try:
                rows = [
                    start + row_sep.join([_SCALAR[y.__class__](y) for y in x]) + end
                    for x in obj
                ]
            except KeyError:
                pass
            else:
                out.append("[" + inner + sep.join(rows) + nl + "]")
                return
        lead = "[" + inner
        for item in obj:
            out.append(lead)
            _write(item, inner, out)
            lead = sep
        out.append(nl + "]")
    else:
        raise TypeError(f"Object of type {cls.__name__} is not JSON serializable")


def _emit(args: argparse.Namespace, obj) -> None:
    text = _dump(obj)
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _read_json(path: str):
    """The JSON document in a file.  Text that is not UTF-8 or not JSON, or
    that nests past the recursion limit, raises ``ValueError``."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None


def _load_cycles_file(path: str) -> CycleAssignment:
    return CycleAssignment.from_dict(_read_json(path))


def _refusal(stage: str, detail: str, extra: dict | None = None) -> dict:
    doc = {"refused_at": stage, "detail": detail}
    doc.update(extra or {})
    return doc


def run(args: argparse.Namespace) -> int:
    """Execute the parsed subcommand; returns the process exit status."""
    try:
        if args.command == "verify-cert":
            return _run_verify_cert(args)
        order = load_order(_read_json(args.input))
    except (OSError, ValueError, SmaleOrderError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1

    try:
        if args.command == "validate":
            report = check_connectivity(order)
            roles = classify(order)
            _emit(
                args,
                {
                    "order": order.to_dict(),
                    "roles": {e: r.value for e, r in sorted(roles.roles.items())},
                    "generations": dict(sorted(roles.generations.items())),
                    "north_south": [list(p) for p in order.north_south_pairs],
                    "connectivity": report.to_dict(),
                },
            )
            return 0

        if args.command == "check":
            report = check_connectivity(order)
            violations = check_necessary(order)
            _emit(
                args,
                {
                    "connectivity": report.to_dict(),
                    "violations": violations.to_dict()["violations"],
                    "passed": report.passed and violations.empty,
                },
            )
            return 0 if report.passed and violations.empty else 2

        if args.command == "realize":
            assignment = _load_cycles_file(args.cycles) if args.cycles else None
            try:
                certificate = realize(order, assignment)
            except ConnectivityFailure as exc:
                extra = {"report": exc.report.to_dict()}
                _emit(args, _refusal("connectivity", str(exc), extra))
                return 2
            _emit(args, certificate.to_dict())
            return 0

        if args.command == "plan-plugs":
            _emit(args, plan_plugs(order).to_dict())
            return 0

        if args.command == "gradient-like":
            try:
                verdict = check_gradient_like(order, args.max_genus)
            except (NotGradientShape, DisconnectedGraph) as exc:
                _emit(args, _refusal("gradient-shape", str(exc)))
                return 2
            _emit(args, verdict.to_dict())
            return 0 if verdict.realizable else 2

        return _run_export_dot(args, order)  # argparse admits no other command

    except (MalformedCycles, PreconditionViolated, StarViolated, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except BrokenInvariant as exc:
        sys.stderr.write(_dump({"internal_error": exc.stage, "detail": str(exc)}))
        return 1


def _run_verify_cert(args: argparse.Namespace) -> int:
    try:
        problems = verify_document(_read_json(args.input))
    except (OSError, ValueError, SmaleOrderError) as exc:
        sys.stderr.write(f"error: unreadable certificate: {exc}\n")
        return 1
    _emit(args, {"passed": not problems, "problems": problems})
    return 0 if not problems else 2


def _run_export_dot(args: argparse.Namespace, order) -> int:
    # a refused or malformed cycle file exits 1 before anything is written
    assignment = _load_cycles_file(args.cycles) if args.cycles else None
    try:
        certificate = realize(order, assignment)
    except ConnectivityFailure:  # no bands to draw
        certificate = None

    outdir = Path(args.output or ".")
    outdir.mkdir(parents=True, exist_ok=True)
    stem = Path(args.input).stem
    written = []

    def write(name: str, text: str):
        path = outdir / f"{stem}-{name}.dot"
        path.write_text(text, encoding="utf-8")
        written.append(str(path))

    write("hasse", hasse_dot(order))
    if certificate is not None:
        write("bands", band_incidence_dot(certificate))

    try:
        highest, lowest = level_graphs(order)
        write("level-highest", level_graph_dot(highest, "highest"))
        write("level-lowest", level_graph_dot(lowest, "lowest"))
        verdict = check_gradient_like(order, args.max_genus)
        if verdict.realizable:
            write(
                "embedding",
                embedding_dot(verdict.embedding, highest, verdict.face_attractors),
            )
            # the dual with each face named by its attractor is the lowest graph
            write("embedding-dual", level_graph_dot(lowest, "dual"))
    except (NotGradientShape, DisconnectedGraph):
        pass

    sys.stdout.write(_dump({"written": written}))
    return 0


def seed_corpus(directory: str) -> list[str]:
    """Write the worked-example orders (and their cycle choices)
    as ready-made input files."""
    outdir = Path(directory)
    outdir.mkdir(parents=True, exist_ok=True)
    written = []
    for name, spec in sorted(corpus.SEED_ORDERS.items()):
        path = outdir / f"{name}.json"
        path.write_text(_dump(spec), encoding="utf-8")
        written.append(str(path))
    for name, factory in sorted(corpus.SEED_CYCLES.items()):
        path = outdir / f"{name}.cycles.json"
        path.write_text(_dump(factory().to_dict()), encoding="utf-8")
        written.append(str(path))
    return written


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smale-orders",
        description=(
            "Decide and construct realizability of finite partial orders as"
            " Smale orders of surface diffeomorphisms with trivial attractors"
            " and repellers."
        ),
    )
    parser.add_argument("--version", action="version", version=TOOL_VERSION)
    parser.add_argument(
        "--seed-corpus",
        metavar="DIR",
        help="write the worked-example input files into DIR and exit",
    )
    sub = parser.add_subparsers(dest="command")
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("input", help="order file (certificate file for verify-cert)")
        p.add_argument("-o", "--output", help="output file (directory for export-dot)")
        if name in ("realize", "export-dot"):
            p.add_argument(
                "--cycles", help="externally chosen cycle assignment (JSON)"
            )
        if name in ("gradient-like", "export-dot"):
            p.add_argument(
                "--max-genus",
                type=int,
                default=None,
                help="genus search bound (default: number of saddles)",
            )
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 after -h and --version and 2 on a usage error;
        # 2 means a refusal here, so a usage error exits 1
        return 1 if exc.code else 0
    if args.seed_corpus:
        for path in seed_corpus(args.seed_corpus):
            sys.stdout.write(path + "\n")
        return 0
    if not args.command:
        parser.print_usage(sys.stderr)
        return 1
    # a command builds large trees of lists, tuples and dicts but no
    # reference cycles, so the cyclic collector would only scan them; a
    # caller's own setting is restored
    enabled = gc.isenabled()
    gc.disable()
    try:
        return run(args)
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
