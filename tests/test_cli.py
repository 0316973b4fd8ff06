import copy
import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import smale_orders
from smale_orders.cli import COMMANDS, main, seed_corpus
from smale_orders.corpus import diamond_order
from smale_orders.order import load_order
from smale_orders.pipeline import realize

from helpers import layered_order, swapped_glue


def run_cli(*argv):
    return main(list(argv))


def run_module(*argv):
    """Run the CLI in a fresh interpreter, so a traceback would show."""
    src = str(Path(smale_orders.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run(
        [sys.executable, "-m", "smale_orders.cli", *argv],
        capture_output=True, text=True, env=env,
    )


@pytest.fixture()
def corpus_dir(tmp_path):
    seed_corpus(str(tmp_path / "corpus"))
    return tmp_path / "corpus"


def test_seed_corpus_files(corpus_dir):
    names = sorted(p.name for p in corpus_dir.iterdir())
    assert names == [
        "example.cycles.json",
        "example.json",
        "example1.cycles.json",
        "example1.json",
        "fig-left.json",
        "fig-middle.json",
        "fig-right.json",
        "impossibleorder.json",
        "order.json",
    ]


def test_validate_exit_codes(corpus_dir, tmp_path, capsys):
    assert run_cli("validate", str(corpus_dir / "example1.json")) == 0
    capsys.readouterr()
    bad = tmp_path / "bad.json"
    bad.write_text('{"elements": ["a"], "relations": [["a", "zz"]]}')
    assert run_cli("validate", str(bad)) == 1


def test_realize_sphere_via_cli(corpus_dir, tmp_path):
    out = tmp_path / "cert.json"
    code = run_cli(
        "realize",
        str(corpus_dir / "example1.json"),
        "--cycles",
        str(corpus_dir / "example1.cycles.json"),
        "-o",
        str(out),
    )
    assert code == 0
    cert = json.loads(out.read_text())
    assert cert["chi"] == 2 and cert["genus"] == 0
    assert cert["profiles"] == {"s1": [2], "s2": [2]}


def test_realize_torus_via_cli(corpus_dir, tmp_path):
    out = tmp_path / "cert.json"
    code = run_cli(
        "realize",
        str(corpus_dir / "example.json"),
        "--cycles",
        str(corpus_dir / "example.cycles.json"),
        "-o",
        str(out),
    )
    assert code == 0
    cert = json.loads(out.read_text())
    assert cert["chi"] == 0 and cert["genus"] == 1 and cert["edge_count"] == 4


def test_check_refuses_impossibleorder(corpus_dir, tmp_path):
    out = tmp_path / "check.json"
    code = run_cli("check", str(corpus_dir / "impossibleorder.json"), "-o", str(out))
    assert code == 2
    doc = json.loads(out.read_text())
    assert not doc["passed"]
    assert not doc["connectivity"]["A"]["passed"]


def test_realize_refusal_names_the_stage(corpus_dir, tmp_path):
    out = tmp_path / "refusal.json"
    code = run_cli("realize", str(corpus_dir / "impossibleorder.json"), "-o", str(out))
    assert code == 2
    doc = json.loads(out.read_text())
    assert doc["refused_at"] == "connectivity"


def test_gradient_like_diamond(corpus_dir, tmp_path):
    out = tmp_path / "verdict.json"
    code = run_cli("gradient-like", str(corpus_dir / "example1.json"), "-o", str(out))
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["realizable"] and doc["genus"] == 1


def test_gradient_like_not_realizable_exit_two(tmp_path):
    chain = tmp_path / "chain.json"
    chain.write_text(
        json.dumps({"elements": ["A", "s", "w"], "relations": [["A", "s"], ["s", "w"]]})
    )
    assert run_cli("gradient-like", str(chain)) == 2


def test_gradient_like_shape_refusal(corpus_dir, tmp_path):
    out = tmp_path / "verdict.json"
    code = run_cli("gradient-like", str(corpus_dir / "fig-right.json"), "-o", str(out))
    assert code == 2
    assert json.loads(out.read_text())["refused_at"] == "gradient-shape"


def test_plan_plugs_cli(corpus_dir, tmp_path):
    out = tmp_path / "plan.json"
    assert run_cli("plan-plugs", str(corpus_dir / "order.json"), "-o", str(out)) == 0
    plan = json.loads(out.read_text())
    assert plan["plugs"]["A"] == {"entries": 3, "exits": 3}
    assert len(plan["schedule"]) == 8


def test_verify_cert_round_trip(corpus_dir, tmp_path):
    cert = tmp_path / "cert.json"
    run_cli(
        "realize",
        str(corpus_dir / "example.json"),
        "--cycles",
        str(corpus_dir / "example.cycles.json"),
        "-o",
        str(cert),
    )
    out = tmp_path / "verify.json"
    assert run_cli("verify-cert", str(cert), "-o", str(out)) == 0
    assert json.loads(out.read_text())["passed"]


def test_verify_cert_catches_tampering(corpus_dir, tmp_path):
    cert_path = tmp_path / "cert.json"
    run_cli(
        "realize",
        str(corpus_dir / "example1.json"),
        "--cycles",
        str(corpus_dir / "example1.cycles.json"),
        "-o",
        str(cert_path),
    )
    doc = json.loads(cert_path.read_text())
    doc["chi"] = 4
    cert_path.write_text(json.dumps(doc))
    out = tmp_path / "verify.json"
    assert run_cli("verify-cert", str(cert_path), "-o", str(out)) == 2
    report = json.loads(out.read_text())
    assert any("chi" in p for p in report["problems"])


def test_verify_cert_rejects_other_matching_strategy(corpus_dir, tmp_path):
    cert_path = tmp_path / "cert.json"
    run_cli("realize", str(corpus_dir / "example1.json"), "-o", str(cert_path))
    doc = json.loads(cert_path.read_text())
    doc["matching_strategy"] = "random"
    cert_path.write_text(json.dumps(doc))
    out = tmp_path / "verify.json"
    assert run_cli("verify-cert", str(cert_path), "-o", str(out)) == 2
    assert json.loads(out.read_text())["problems"] == [
        "re-serialization differs from the input document at matching_strategy"
    ]


def _set_schema_version(doc):
    doc["schema_version"] = 5


def _set_tool_version(doc):
    doc["tool_version"] = "x"


def _drop_cover(doc):
    doc["order"]["covers"].pop()


def _add_seven_keys(doc):
    doc.update({f"extra{i}": i for i in range(7)})


def _add_boundary_saddle(doc):
    doc["boundary_cycles"]["x"] = doc["boundary_cycles"]["s1"]


@pytest.mark.parametrize(
    "edit, where",
    [
        (_set_schema_version, "schema_version"),
        (_set_tool_version, "tool_version"),
        (_drop_cover, "order.covers"),
        (_add_seven_keys, "extra0, extra1, extra2, extra3, extra4, ..."),
        (_add_boundary_saddle, "boundary_cycles.x"),
    ],
    ids=["schema-version", "tool-version", "cover", "seven-keys", "boundary-saddle"],
)
def test_verify_cert_names_where_reserialization_differs(corpus_dir, tmp_path, edit, where):
    cert_path = tmp_path / "cert.json"
    run_cli("realize", str(corpus_dir / "example1.json"), "-o", str(cert_path))
    doc = json.loads(cert_path.read_text())
    edit(doc)
    cert_path.write_text(json.dumps(doc))
    out = tmp_path / "verify.json"
    assert run_cli("verify-cert", str(cert_path), "-o", str(out)) == 2
    assert json.loads(out.read_text())["problems"] == [
        f"re-serialization differs from the input document at {where}"
    ]


def test_verify_cert_empty_boundary_cycle_is_a_refusal(corpus_dir, tmp_path):
    cert_path = tmp_path / "cert.json"
    run_cli("realize", str(corpus_dir / "example1.json"), "-o", str(cert_path))
    doc = json.loads(cert_path.read_text())
    doc["boundary_cycles"]["s1"] = [[]]
    cert_path.write_text(json.dumps(doc))
    proc = run_module("verify-cert", str(cert_path))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert json.loads(proc.stdout)["problems"] == [
        "re-serialization differs from the input document at boundary_cycles.s1"
    ]


def _rotate_s1_cycle_by_a_block(doc):
    body = doc["boundary_cycles"]["s1"][0][:-1]
    body = body[4:] + body[:4]
    doc["boundary_cycles"]["s1"][0] = body + body[:1]


def _swap_first_two_s1_cycles(doc):
    cycles = doc["boundary_cycles"]["s1"]
    cycles[0], cycles[1] = cycles[1], cycles[0]


_FIRST_S1_CYCLE_DIFFERS = "re-serialization differs from the input document at " + ", ".join(
    f"boundary_cycles.s1[0][{i}][1]" for i in range(5)
) + ", ..."


@pytest.mark.parametrize(
    "order, cycles, edit, problem",
    [
        (
            "example.json",
            "example.cycles.json",
            _rotate_s1_cycle_by_a_block,
            _FIRST_S1_CYCLE_DIFFERS,
        ),
        (
            "example1.json",
            None,
            _swap_first_two_s1_cycles,
            _FIRST_S1_CYCLE_DIFFERS,
        ),
    ],
    ids=["torus-rotated-cycle", "default-swapped-cycles"],
)
def test_verify_cert_accepts_only_the_traced_cycle_order(
    corpus_dir, tmp_path, order, cycles, edit, problem
):
    """The same boundary cycles, started on another four-step block or
    listed in another order, differ from the walk that re-traces them."""
    cert_path = tmp_path / "cert.json"
    extra = ["--cycles", str(corpus_dir / cycles)] if cycles else []
    assert run_cli("realize", str(corpus_dir / order), *extra, "-o", str(cert_path)) == 0
    doc = json.loads(cert_path.read_text())
    edit(doc)
    cert_path.write_text(json.dumps(doc))
    out = tmp_path / "verify.json"
    assert run_cli("verify-cert", str(cert_path), "-o", str(out)) == 2
    assert json.loads(out.read_text())["problems"] == [problem]


def test_realize_refuses_cycles_on_an_empty_core(corpus_dir, tmp_path, capsys):
    # p > q is one north-south pair, so its core has no extremal elements
    # and no owner of a supplied cycle file is one
    order = tmp_path / "pq.json"
    order.write_text(json.dumps({"elements": ["p", "q"], "relations": [["p", "q"]]}))
    out = tmp_path / "cert.json"
    cycles = corpus_dir / "example1.cycles.json"
    assert run_cli("realize", str(order), "--cycles", str(cycles), "-o", str(out)) == 1
    assert not out.exists()
    assert capsys.readouterr().err == (
        "error: assignment owners ['A', 'w'] do not match the extremal elements []\n"
    )
    empty = tmp_path / "empty.cycles.json"
    empty.write_text("{}")
    assert run_cli("realize", str(order), "--cycles", str(empty), "-o", str(out)) == 0
    assert json.loads(out.read_text())["cycles"] == {}


def test_export_dot_refuses_the_cycle_files_realize_refuses(corpus_dir, tmp_path, capsys):
    order = tmp_path / "pq.json"
    order.write_text(json.dumps({"elements": ["p", "q"], "relations": [["p", "q"]]}))
    dots = tmp_path / "dots"
    malformed = tmp_path / "bad.cycles.json"
    malformed.write_text('{"A": 5}')
    refusals = [
        (
            corpus_dir / "example1.cycles.json",
            "assignment owners ['A', 'w'] do not match the extremal elements []",
        ),
        (malformed, "A: expected an array of transitions"),
    ]
    for cycles, error in refusals:
        assert run_cli("export-dot", str(order), "--cycles", str(cycles), "-o", str(dots)) == 1
        assert capsys.readouterr() == ("", f"error: {error}\n")
        assert not dots.exists()  # no file, not even the output directory


def test_verify_cert_reports_cycles_of_an_owner_outside_the_core(corpus_dir, tmp_path):
    cert_path = tmp_path / "cert.json"
    run_cli("realize", str(corpus_dir / "example1.json"), "-o", str(cert_path))
    doc = json.loads(cert_path.read_text())
    # s1 becomes maximal, so s1 > w is a north-south pair and w leaves the core
    doc["order"]["relations"].remove(["A", "s1"])
    cert_path.write_text(json.dumps(doc))
    proc = run_module("verify-cert", str(cert_path))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    problems = json.loads(proc.stdout)["problems"]
    assert "cycle owners w are not elements of the core order" in problems


# diamond, three-element chain and a north-south pair: three components
THREE_PIECES = {
    "elements": ["A", "s1", "s2", "w", "B", "t", "x", "p", "q"],
    "relations": [
        ["A", "s1"], ["A", "s2"], ["s1", "w"], ["s2", "w"], ["B", "t"], ["t", "x"],
        ["p", "q"],
    ],
}


def _swap_component_characteristics(doc):
    # the diamond claims to be a sphere and the north-south sphere genus 30
    first, last = doc["components"][0], doc["components"][-1]
    for key in ("chi", "genus"):
        first[key], last[key] = last[key], first[key]


def _drop_component_element(doc):
    doc["components"][0]["elements"].pop()


def _edit_notes(doc):
    doc["notes"][0] = "x"


@pytest.mark.parametrize(
    "order, edit, where",
    [
        (
            THREE_PIECES,
            _swap_component_characteristics,
            "components[0].chi, components[0].genus, components[2].chi, components[2].genus",
        ),
        (THREE_PIECES, _drop_component_element, "components[0].elements"),
        (None, _edit_notes, "notes[0]"),
    ],
    ids=["swapped-component-chi", "component-elements", "notes"],
)
def test_verify_cert_compares_every_derived_field(tmp_path, order, edit, where):
    """A derived field is compared with the re-derived document, not read."""
    doc = realize(load_order(order) if order else diamond_order()).to_dict()
    edit(doc)
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps(doc))
    out = tmp_path / "verify.json"
    assert run_cli("verify-cert", str(cert_path), "-o", str(out)) == 2
    assert json.loads(out.read_text())["problems"] == [
        f"re-serialization differs from the input document at {where}"
    ]


def _mutation_sites(node, path=()):
    """Every key, and the first two items of every array, below node."""
    if isinstance(node, dict):
        keys = list(node)
    elif isinstance(node, list):
        keys = list(range(min(2, len(node))))
    else:
        return
    for key in keys:
        yield path + (key,)
        yield from _mutation_sites(node[key], path + (key,))


_DELETE = object()


def test_verify_cert_mutation_sweep(tmp_path, capsys):
    """Every single-value mutation of a certificate is either the original
    document (exit 0) or refused (exit 1 or 2), never a traceback."""
    doc = realize(diamond_order()).to_dict()
    cert_path = tmp_path / "cert.json"
    count = 0
    for site in _mutation_sites(doc):
        for value in (5, [], {}, "x", [5], None, _DELETE):
            mutated = copy.deepcopy(doc)
            parent = mutated
            for key in site[:-1]:
                parent = parent[key]
            if value is _DELETE:
                del parent[site[-1]]
            else:
                parent[site[-1]] = value
            cert_path.write_text(json.dumps(mutated))
            code = run_cli("verify-cert", str(cert_path))
            capsys.readouterr()
            assert code in ((0,) if mutated == doc else (1, 2)), (site, value, code)
            count += 1
    assert count == 1211


def _with_s1_profile(cert, profile):
    s1 = {**cert["domains"]["s1"], "profile": profile}
    return {**cert, "domains": {**cert["domains"], "s1": s1}}


def _set(*path_and_value):
    """An edit that sets the value at a JSON path of a certificate copy."""
    *path, value = path_and_value

    def edit(cert):
        cert = copy.deepcopy(cert)
        node = cert
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        return cert

    return edit


@pytest.mark.parametrize(
    "edit, problem",
    [
        (_set("cycles", {}), "extremal elements A, w have no cycle"),
        (_set("cycles", "A", []), "A: empty cycle"),
        (_set("cycles", "w", []), "w: empty cycle"),
        (lambda cert: {**cert, "cycles": {"w": cert["cycles"]["w"]}},
         "extremal elements A have no cycle"),
        (lambda cert: {**cert, "cycles": {"A": cert["cycles"]["A"]}},
         "extremal elements w have no cycle"),
    ],
    ids=["no-cycles", "A-emptied", "w-emptied", "A-deleted", "w-deleted"],
)
def test_verify_cert_names_emptied_cycles(tmp_path, capsys, edit, problem):
    """A cycle edit that leaves bands of the gluing unknown is refused with
    the re-derivation's problems, not as an unreadable derived field."""
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps(edit(realize(diamond_order()).to_dict())))
    assert run_cli("verify-cert", str(cert_path)) == 2
    out = capsys.readouterr()
    assert out.err == ""
    assert problem in json.loads(out.out)["problems"]


@pytest.mark.parametrize(
    "edit, path",
    [
        (lambda cert: [], "top level"),
        (lambda cert: {"order": 5}, "order"),
        (lambda cert: {}, "order"),
        (lambda cert: {**cert, "roles": 5}, "roles"),
        (lambda cert: {**cert, "gluing": [[5, ["A", 0]]]}, "gluing[0][0]"),
        (lambda cert: {**cert, "gluing": [[["A", "x"], ["A", 0]]]}, "gluing[0][0][1]"),
        (lambda cert: {**cert, "boundary_cycles": {"s1": [["x"]]}}, "boundary_cycles.s1[0][0]"),
        (
            lambda cert: {**cert, "boundary_cycles": {"s2": cert["boundary_cycles"]["s2"]}},
            "boundary_cycles.s1",
        ),
        (lambda cert: {**cert, "generations": {"s1": []}}, "generations.s1"),
        (lambda cert: _with_s1_profile(cert, ["x"]), "domains.s1.profile[0]"),
        (lambda cert: _with_s1_profile(cert, [4, [4]]), "domains.s1.profile[1]"),
        # values Python compares equal to the derived ones
        (_set("connected", 1), "connected"),
        (_set("chi", 2.0), "chi"),
        (_set("genus", False), "genus"),
        (_set("handle_count", False), "handle_count"),
        (_set("schema_version", True), "schema_version"),
        # paths through the order and cycle readers
        (_set("cycles", "w", 1, 5), "cycles.w[1]"),
        (_set("order", "elements", "ab"), "order.elements"),
    ],
    ids=["array", "order-5", "empty", "roles-5", "band-key-5", "band-index-x",
         "boundary-key-x", "boundary-saddle-missing", "generation-array", "profile-x", "profile-array",
         "connected-1", "chi-float", "genus-false", "handle-count-false", "schema-true",
         "cycles-item-5", "order-elements-string"],
)
def test_malformed_certificates_are_input_errors(corpus_dir, tmp_path, edit, path):
    cert_path = tmp_path / "cert.json"
    run_cli("realize", str(corpus_dir / "example1.json"), "-o", str(cert_path))
    cert_path.write_text(json.dumps(edit(json.loads(cert_path.read_text()))))
    proc = run_module("verify-cert", str(cert_path))
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith(f"error: unreadable certificate: {path}: ")


@pytest.mark.parametrize(
    "edit, where",
    [
        (_set("roles", "A", "bogus"), "roles.A"),
        (_set("domains", "s1", "recipe", "kind", "bogus"), "domains.s1.recipe.kind"),
        (_set("repairs", "s1", 0, "op", "bogus"), "repairs.s1[0].op"),
    ],
    ids=["role-bogus", "recipe-kind-bogus", "repair-op-bogus"],
)
def test_unknown_derived_strings_are_refusals(corpus_dir, tmp_path, edit, where):
    """A role, recipe kind or repair operation is a derived string: another
    one is a difference from the re-derived document, not unreadable."""
    cert_path = tmp_path / "cert.json"
    run_cli("realize", str(corpus_dir / "example1.json"), "-o", str(cert_path))
    cert_path.write_text(json.dumps(edit(json.loads(cert_path.read_text()))))
    proc = run_module("verify-cert", str(cert_path))
    assert proc.returncode == 2
    assert (proc.stderr, json.loads(proc.stdout)) == (
        "",
        {
            "passed": False,
            "problems": [f"re-serialization differs from the input document at {where}"],
        },
    )


def _scalar_sites(node, path=()):
    """The path and value of every scalar below node."""
    if isinstance(node, (dict, list)):
        for key, value in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from _scalar_sites(value, path + (key,))
    else:
        yield path, node


def _json_path(path) -> str:
    return "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path).lstrip(".")


def test_verify_cert_refuses_every_impostor(tmp_path, capsys):
    """Every integer of the diamond's default certificate written as the
    equal float, every 0 or 1 as the equal boolean, and ``connected`` as 1:
    Python compares each equal to the original, and each exits 1 naming
    its path."""
    doc = realize(diamond_order()).to_dict()
    edits = [(path, float(v)) for path, v in _scalar_sites(doc) if type(v) is int]
    edits += [(path, bool(v)) for path, v in _scalar_sites(doc) if type(v) is int and v in (0, 1)]
    edits.append((("connected",), 1))
    assert len(edits) == 180
    cert_path = tmp_path / "cert.json"
    for path, value in edits:
        impostor = _set(*path, value)(doc)
        assert impostor == doc
        cert_path.write_text(json.dumps(impostor))
        assert run_cli("verify-cert", str(cert_path)) == 1, (path, value)
        err = capsys.readouterr().err
        assert err.startswith(f"error: unreadable certificate: {_json_path(path)}: expected "), err


def _assert_json_dumps_layout(text: str):
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


def test_every_json_output_has_the_json_dumps_layout(corpus_dir, tmp_path, capsys):
    """Every document the CLI writes, to a file or to stdout, is laid out as
    ``json.dumps(indent=2, sort_keys=True)`` with a final newline."""
    for path in sorted(corpus_dir.iterdir()):
        _assert_json_dumps_layout(path.read_text(encoding="utf-8"))
    big = tmp_path / "layered.json"
    big.write_text(json.dumps(layered_order(0)))
    orders = sorted(corpus_dir.glob("*.json"))
    orders = [p for p in orders if not p.name.endswith(".cycles.json")] + [big]
    documents = 0
    for order in orders:
        cycles = order.with_name(f"{order.stem}.cycles.json")
        for command in COMMANDS[:-1]:
            variants = [[]]
            if command in ("realize", "export-dot") and cycles.exists():
                variants.append(["--cycles", str(cycles)])
            for extra in variants:
                argv = [command, str(order), *extra]
                if command == "export-dot":
                    argv += ["-o", str(tmp_path / "dots")]
                run_cli(*argv)
                _assert_json_dumps_layout(capsys.readouterr().out)
                documents += 1
                if command == "realize":
                    cert = tmp_path / "cert.json"
                    if run_cli(*argv, "-o", str(cert)) == 0:
                        _assert_json_dumps_layout(cert.read_text(encoding="utf-8"))
                        assert run_cli("verify-cert", str(cert)) == 0
                        _assert_json_dumps_layout(capsys.readouterr().out)
                        documents += 2
    assert documents == 64  # 52 command outputs, 6 certificates and their verdicts


def test_outputs_byte_deterministic(corpus_dir, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        run_cli(
            "realize",
            str(corpus_dir / "example.json"),
            "--cycles",
            str(corpus_dir / "example.cycles.json"),
            "-o",
            str(out),
        )
    assert a.read_bytes() == b.read_bytes()


def test_export_dot_writes_deterministic_files(corpus_dir, tmp_path):
    outdir = tmp_path / "dots"
    code = run_cli(
        "export-dot",
        str(corpus_dir / "example1.json"),
        "--cycles",
        str(corpus_dir / "example1.cycles.json"),
        "-o",
        str(outdir),
    )
    assert code == 0
    names = sorted(p.name for p in outdir.iterdir())
    assert names == [
        "example1-bands.dot",
        "example1-embedding-dual.dot",
        "example1-embedding.dot",
        "example1-hasse.dot",
        "example1-level-highest.dot",
        "example1-level-lowest.dot",
    ]
    bands = (outdir / "example1-bands.dot").read_text()
    assert bands.count(" -- ") == 2  # one edge per glued pair
    # the witness's one face is dual to w, so the labelled dual is the lowest graph
    assert "face 0 (w): " in (outdir / "example1-embedding.dot").read_text()
    lowest = (outdir / "example1-level-lowest.dot").read_text()
    dual = (outdir / "example1-embedding-dual.dot").read_text()
    assert dual == lowest.replace("graph lowest {", "graph dual {")
    run2 = tmp_path / "dots2"
    run_cli(
        "export-dot",
        str(corpus_dir / "example1.json"),
        "--cycles",
        str(corpus_dir / "example1.cycles.json"),
        "-o",
        str(run2),
    )
    for name in names:
        assert (outdir / name).read_bytes() == (run2 / name).read_bytes()


def test_unknown_matching_strategy_is_an_input_error(corpus_dir, capsys):
    code = run_cli(
        "realize",
        str(corpus_dir / "example1.json"),
        "--matching-strategy",
        "random",
    )
    assert code == 1


def test_missing_command_is_usage_error(capsys):
    assert main([]) == 1


@pytest.mark.parametrize(
    "argv, code",
    [
        (["realize"], 1),
        (["realize", "order.json", "--no-such-flag"], 1),
        (["gradient-like", "order.json", "--max-genus", "abc"], 1),
        (["-h"], 0),
        (["realize", "-h"], 0),
        (["--version"], 0),
        (["realize", "x.json", "-v"], 1),
    ],
)
def test_usage_errors_exit_one(argv, code, capsys):
    assert main(argv) == code
    err = capsys.readouterr().err
    assert ("error:" in err) == bool(code)


@pytest.mark.parametrize(
    "spec, path",
    [
        (["a", "b"], "top level"),
        ({"elements": ["a", "b"], "relations": [["a", "b"], ["a"]]}, "relations[1]"),
        ({"elements": ["a", "b", "c"], "relations": [["a", "b", "c"]]}, "relations[0]"),
        ({"elements": ["a", "b"], "relations": "ab"}, "relations"),
        ({"elements": ["a", 1], "relations": [["a", 1]]}, "elements[1]"),
        ({"elements": ["a", ["b"]], "relations": []}, "elements[1]"),
        ({"elements": "ab", "relations": [["a", "b"]]}, "elements"),
    ],
)
def test_malformed_order_files_are_input_errors(tmp_path, spec, path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(spec))
    proc = run_module("validate", str(bad))
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith(f"error: {path}: expected ")


def test_non_utf8_order_files_are_input_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{}")
    for command in COMMANDS[:-1]:  # all but verify-cert, which reads a certificate
        proc = run_module(command, str(bad), "-o", str(tmp_path / "out"))
        assert (proc.returncode, proc.stdout) == (1, ""), command
        assert proc.stderr == (
            "error: 'utf-8' codec can't decode byte 0xff in position 0:"
            " invalid start byte\n"
        ), command
    assert not (tmp_path / "out").exists()


def test_json_nested_past_the_recursion_limit_is_an_input_error(corpus_dir, tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    order = str(corpus_dir / "example1.json")
    for argv, prefix in [
        (["validate", str(deep)], "error: "),
        (["realize", order, "--cycles", str(deep)], "error: "),
        (["verify-cert", str(deep)], "error: unreadable certificate: "),
    ]:
        proc = run_module(*argv)
        assert (proc.returncode, proc.stdout) == (1, ""), argv
        assert proc.stderr == f"{prefix}{deep}: JSON nested too deeply\n", argv


@pytest.mark.parametrize("command", ["realize", "export-dot"])
@pytest.mark.parametrize(
    "spec, path",
    [
        ([["s1", "A", "s2"]], "top level"),
        ({"w": [["s1", "A"]]}, "w[0]"),
        ({"w": [["s1", "A", "s2"], ["s2", "A", 1]]}, "w[1]"),
        ({"w": "s1As2"}, "w"),
    ],
)
def test_malformed_cycle_files_are_input_errors(corpus_dir, tmp_path, command, spec, path):
    bad = tmp_path / "bad.cycles.json"
    bad.write_text(json.dumps(spec))
    order = str(corpus_dir / "example1.json")
    proc = run_module(command, order, "--cycles", str(bad), "-o", str(tmp_path / "out"))
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith(f"error: {path}: expected ")


@pytest.mark.parametrize("command", ["realize", "export-dot"])
def test_broken_invariant_is_a_structured_internal_error(
    corpus_dir, tmp_path, monkeypatch, capsys, command
):
    import smale_orders.pipeline as pipeline

    monkeypatch.setattr(pipeline, "_invariant_problems", lambda cert: ["forced"])
    code = run_cli(command, str(corpus_dir / "example1.json"), "-o", str(tmp_path / "out"))
    err = capsys.readouterr().err
    assert code == 1
    assert "Traceback" not in err
    assert json.loads(err) == {
        "internal_error": "invariants",
        "detail": "construction invariants broken: forced",
    }


@pytest.mark.parametrize("enabled", [True, False])
def test_main_leaves_the_collector_as_it_found_it(
    corpus_dir, tmp_path, monkeypatch, capsys, enabled
):
    """A command runs with the cyclic collector paused; whatever exit it
    takes, the caller's setting is back afterwards."""
    import smale_orders.pipeline as pipeline

    example = str(corpus_dir / "example.json")
    out = str(tmp_path / "out.json")
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        for argv, code in [
            (["validate", example, "-o", out], 0),
            (["validate", str(tmp_path / "missing.json")], 1),
            (["realize"], 1),
            (["check", str(corpus_dir / "impossibleorder.json"), "-o", out], 2),
        ]:
            assert main(argv) == code
            assert gc.isenabled() is enabled
        monkeypatch.setattr(pipeline, "glue_bands", swapped_glue)
        cycles = str(corpus_dir / "example.cycles.json")
        assert main(["realize", example, "--cycles", cycles, "-o", out]) == 1
        assert '"internal_error": "invariants"' in capsys.readouterr().err
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


def _cyclic_garbage(argv) -> tuple[int, set]:
    """Run a command with the collector off: the number of unreachable
    objects the next collection finds, and the modules of their types."""
    gc.collect()
    assert main(argv) == 0
    flags = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        found = gc.collect()
        modules = {type(obj).__module__ for obj in gc.garbage}
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        gc.collect()
    return found, modules


def test_commands_make_the_same_cyclic_garbage_for_every_order(corpus_dir, tmp_path):
    """Pausing the collector frees nothing less: what ``realize`` and
    ``verify-cert`` leave for it is the same for a four-element order as for
    a layered 6-12-6 one, and none of it is the program's own."""
    layered = tmp_path / "layered.json"
    layered.write_text(json.dumps(layered_order(1)))

    def certify(order, name: str) -> dict:
        cert = str(tmp_path / f"{name}.cert.json")
        verdict = str(tmp_path / f"{name}.verdict.json")
        return {
            "realize": _cyclic_garbage(["realize", str(order), "-o", cert]),
            "verify-cert": _cyclic_garbage(["verify-cert", cert, "-o", verdict]),
        }

    was = gc.isenabled()
    gc.disable()
    try:
        certify(corpus_dir / "example1.json", "warm-up")
        small = certify(corpus_dir / "example1.json", "small")
        large = certify(layered, "layered")
    finally:
        if was:
            gc.enable()
    for command in small:
        assert small[command][0] == large[command][0]
        for _, modules in (small[command], large[command]):
            assert not any(m.startswith("smale_orders") for m in modules)
