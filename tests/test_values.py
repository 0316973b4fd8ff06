"""Value semantics of the package's records: how they print, that they
refuse assignment, what an order compares on, and that importing the
package builds them without the stdlib ``dataclasses`` module."""

import copy
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import smale_orders
from smale_orders.corpus import IMPOSSIBLE_ORDER, diamond_order, example1_cycles
from smale_orders.domains import LengthProfile, repair_profile
from smale_orders.gradient import check_gradient_like, check_necessary, level_graphs
from smale_orders.order import check_connectivity, classify, from_down_sets, load_order
from smale_orders.assemble import plan_plugs
from smale_orders.cli import _dump
from smale_orders.pipeline import realize

ORDER = "FiniteOrder(elements=('A', 's1', 's2', 'w'), _down=(14, 8, 8, 0))"
ROLES = (
    "RoleMap(roles={'A': <Role.REPELLER: 'repeller'>, 's1': <Role.SADDLE: 'saddle'>,"
    " 's2': <Role.SADDLE: 'saddle'>, 'w': <Role.ATTRACTOR: 'attractor'>},"
    " generations={'s1': 1, 's2': 1})"
)
PROFILE = "LengthProfile(lengths=(2,))"
RECIPE = (
    "Recipe(kind=<RecipeKind.HORSESHOE: 'primitive-horseshoe'>, prongs=(),"
    " saddle_openings=0)"
)
DOMAIN = f"DomainSpec(profile={PROFILE}, genus=0, recipe={RECIPE})"
COMPONENT = "ComponentSummary(elements=('A', 's1', 's2', 'w'), chi=2, genus=0)"
ASSIGNMENT = (
    "CycleAssignment(cycles={'A': (('s1', 'w', 's2'), ('s2', 'w', 's1')),"
    " 'w': (('s1', 'A', 's2'), ('s2', 'A', 's1'))})"
)
CERTIFICATE = (
    f"RealizationCertificate(order={ORDER}, roles={ROLES}, assignment={ASSIGNMENT},"
    " gluing=((('w', 0), ('A', 0)), (('w', 1), ('A', 1))),"
    " boundary={'s1': ((('w', 1), ('A', 1), ('A', 0), ('w', 0), ('w', 1)),),"
    " 's2': ((('w', 0), ('A', 0), ('A', 1), ('w', 1), ('w', 0)),)},"
    f" domains={{'s1': {DOMAIN}, 's2': {DOMAIN}}}, repairs={{}}, north_south=(),"
    " handle_pairs=(), vertex_count=2, edge_count=2, handle_count=0,"
    " repair_extra_pairs=0, chi=2, connected=True, genus=0,"
    f" components=({COMPONENT},), notes=())"
)
REPAIR_STEP = (
    "RepairStep(op=<RepairOp.LENGTHEN_2_TO_10: 'lengthen-2-to-10'>,"
    " before=(6, 6, 2), after=(10, 6, 6))"
)
REPAIR_LOG = (
    f"RepairLog(steps=({REPAIR_STEP}, RepairStep(op=<RepairOp.SPLIT_CYCLE:"
    " 'split-cycle'>, before=(10, 6, 6), after=(8, 6, 6, 4))))"
)
VIOLATION = (
    "Violation(rule='Connectivity', witnesses=('A',),"
    " detail='the comparability graph below A splits into 2 components')"
)
LEVEL_GRAPH = "LevelGraph(vertices=('A',), edges=(('s1', ('A', 'A')), ('s2', ('A', 'A'))))"
EMBEDDING = (
    "Embedding(rotation={'A': ((0, 0), (1, 0), (0, 1), (1, 1))},"
    " faces=(((0, 0), (1, 1), (0, 1), (1, 0)),))"
)


def _records() -> dict:
    """One pipeline-built instance of each record type and its repr."""
    order = diamond_order()
    cert = realize(order, example1_cycles())
    profile = cert.domains["s1"].profile
    _, log = repair_profile(LengthProfile((2, 6, 6)))
    verdict = check_gradient_like(order)
    report = check_necessary(load_order(IMPOSSIBLE_ORDER))
    return {
        "FiniteOrder": (order, ORDER),
        "RoleMap": (classify(order), ROLES),
        "ConnectivityReport": (
            check_connectivity(order),
            "ConnectivityReport(entries={'A': (True, (('s1', 's2', 'w'),)),"
            " 'w': (True, (('A', 's1', 's2'),))})",
        ),
        "CycleAssignment": (cert.assignment, ASSIGNMENT),
        "LengthProfile": (profile, PROFILE),
        "Recipe": (cert.domains["s1"].recipe, RECIPE),
        "DomainSpec": (cert.domains["s1"], DOMAIN),
        "RepairStep": (log.steps[0], REPAIR_STEP),
        "RepairLog": (log, REPAIR_LOG),
        "ComponentSummary": (cert.components[0], COMPONENT),
        "RealizationCertificate": (cert, CERTIFICATE),
        "PlugPlan": (
            plan_plugs(order),
            "PlugPlan(plugs={'A': (0, 2), 's1': (1, 1), 's2': (1, 1), 'w': (2, 0)},"
            " schedule=((('A', 0), ('s1', 0), 'axiom-b'), (('A', 1), ('s2', 0),"
            " 'axiom-b'), (('s1', 0), ('w', 0), 'axiom-b'), (('s2', 0), ('w', 1),"
            " 'axiom-b')))",
        ),
        "Violation": (report.violations[0], VIOLATION),
        "ViolationReport": (report, f"ViolationReport(violations=({VIOLATION},))"),
        "LevelGraph": (level_graphs(order)[0], LEVEL_GRAPH),
        "Embedding": (verdict.embedding, EMBEDDING),
        "GradientVerdict": (
            verdict,
            "GradientVerdict(realizable=True, genus=1, max_genus_searched=2,"
            f" embedding={EMBEDDING}, face_attractors=('w',))",
        ),
    }


RECORDS = sorted(_records())


def test_every_record_type_is_pinned():
    assert len(RECORDS) == 17
    exported = {name for name in smale_orders.__all__ if name[0].isupper()}
    unexported = {"ComponentSummary", "Embedding", "RepairStep", "Violation"}
    assert exported - {"RecipeKind", "Role", "Transition", "Verdict"} == set(RECORDS) - unexported


@pytest.mark.parametrize("name", RECORDS)
def test_record_prints_its_fields(name):
    value, text = _records()[name]
    assert type(value).__name__ == name
    assert repr(value) == text


@pytest.mark.parametrize("name", RECORDS)
def test_record_refuses_assignment(name):
    value, _ = _records()[name]
    field = repr(value).partition("(")[2].partition("=")[0]
    with pytest.raises(AttributeError):
        setattr(value, field, None)
    with pytest.raises(AttributeError):
        value.extra = None
    assert getattr(value, field) is not None


def test_orders_compare_on_elements_and_down_masks():
    order = diamond_order()
    loaded = load_order(
        {"elements": ["w", "s2", "s1", "A"], "relations": [["A", "w"], *order.covers]}
    )
    built = from_down_sets(order.elements, order._down)
    wider = load_order(
        {
            "elements": [*order.elements, "p", "q"],
            "relations": [*order.covers, ["p", "q"]],
        }
    )
    kept = wider.restrict(set(order.elements))
    copied = copy.deepcopy(order)
    unpickled = pickle.loads(pickle.dumps(order))
    for same in (loaded, built, kept, copied, unpickled):
        assert same == order and hash(same) == hash(order)
        assert same.down_set("A") == order.down_set("A") == {"s1", "s2", "w"}
        assert same.covers == order.covers
    chain = load_order(
        {"elements": ["A", "s1", "s2", "w"], "relations": [["A", "s1"], ["s1", "s2"], ["s2", "w"]]}
    )
    renamed = from_down_sets(("B", "s1", "s2", "w"), order._down)
    for other in (chain, renamed, wider):
        assert other != order
    assert len({order, loaded, built, kept, chain, renamed}) == 3


def test_import_loads_no_dataclasses():
    src = str(Path(smale_orders.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import smale_orders, smale_orders.cli;"
        " print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True
    )
    assert proc.stdout == "[]\n"


@pytest.mark.parametrize("name", [name for name in RECORDS if name != "FiniteOrder"])
def test_records_are_tuples_that_json_output_refuses(name):
    value, _ = _records()[name]
    assert value == tuple(value) and value[0] is getattr(value, value._fields[0])
    with pytest.raises(TypeError, match=f"Object of type {name} is not JSON serializable"):
        _dump(value)
