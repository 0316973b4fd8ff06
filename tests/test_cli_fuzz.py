"""Bounded in-process fuzz of the command line: mutated order, cycle and
certificate files through all seven commands exit 0, 1 or 2, never with a
traceback."""

import contextlib
import copy
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from smale_orders.cli import COMMANDS, main, seed_corpus
from smale_orders.corpus import diamond_order, example1_cycles
from smale_orders.pipeline import realize

from test_cli import _mutation_sites

VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-2, 9)
    | st.floats(-2, 9)
    | st.sampled_from(["", "A", "s1", "w", "zz"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["A", "s1", "w", "elements", "relations"]), inner, max_size=3),
    max_leaves=6,
)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """The seed corpus documents by kind, and a directory to write into."""
    root = tmp_path_factory.mktemp("fuzz")
    docs = {"orders": [], "cycles": []}
    for path in seed_corpus(str(root / "corpus")):
        kind = "cycles" if path.endswith(".cycles.json") else "orders"
        with open(path, encoding="utf-8") as f:
            docs[kind].append(json.load(f))
    docs["certificates"] = [
        realize(diamond_order()).to_dict(),
        realize(diamond_order(), example1_cycles()).to_dict(),
    ]
    return root, docs


def _mutated(data, doc):
    """doc after up to three drawn edits, each replacing or deleting one
    value, written as JSON bytes that are sometimes cut short, hold a byte
    that is not UTF-8 or nest past the recursion limit."""
    doc = copy.deepcopy(doc)
    for _ in range(data.draw(st.integers(0, 3))):
        sites = list(_mutation_sites(doc))
        if not sites:
            doc = data.draw(VALUES)
            continue
        *path, last = data.draw(st.sampled_from(sites))
        parent = doc
        for key in path:
            parent = parent[key]
        if data.draw(st.booleans()):
            del parent[last]
        else:
            parent[last] = data.draw(VALUES)
    text = json.dumps(doc).encode()
    damage = data.draw(st.integers(0, 9))
    if damage == 0:
        text = text[: data.draw(st.integers(0, len(text)))]
    elif damage == 1:
        at = data.draw(st.integers(0, len(text)))
        text = text[:at] + b"\xff" + text[at:]
    elif damage == 2:
        text = b"[" * 100_000 + text
    return text


@settings(max_examples=500)
@given(data=st.data())
def test_mutated_files_exit_with_a_status_not_a_traceback(inputs, data):
    root, docs = inputs
    command = data.draw(st.sampled_from(COMMANDS))
    own = docs["certificates"] if command == "verify-cert" else docs["orders"]
    every = [doc for kind in docs.values() for doc in kind]
    source = root / "input.json"
    source.write_bytes(_mutated(data, data.draw(st.sampled_from(own) | st.sampled_from(every))))
    output = root / ("dots" if command == "export-dot" else "output.json")
    argv = [command, str(source), "-o", str(output)]
    if command in ("realize", "export-dot") and data.draw(st.booleans()):
        cycles = root / "cycles.json"
        cycles.write_bytes(_mutated(data, data.draw(st.sampled_from(docs["cycles"]))))
        argv += ["--cycles", str(cycles)]
    if command in ("gradient-like", "export-dot") and data.draw(st.booleans()):
        argv += ["--max-genus", str(data.draw(st.integers(-1, 3)))]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), (argv, source.read_bytes())
    assert "Traceback" not in err.getvalue()
