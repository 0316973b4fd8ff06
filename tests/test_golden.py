"""The bytes every stage writes, pinned by one SHA-256 over the census with
n <= 6 and three layered orders, so that a change meant to keep outputs
byte-identical is checked to keep them."""

import hashlib

from smale_orders.assemble import plan_plugs
from smale_orders.census import iter_orders
from smale_orders.cli import _dump
from smale_orders.errors import DisconnectedGraph, NotGradientShape
from smale_orders.gradient import check_gradient_like, check_necessary
from smale_orders.order import check_connectivity, load_order
from smale_orders.pipeline import realize, verify_document

from helpers import layered_order

GOLDEN = "e8f7e448d29bc56dcb48c7270551437d9ca4f90fb5231cfd4b0a17ed5671e984"


def test_outputs_match_the_pinned_digest():
    """Per census order, one ``_dump`` of its check, plug plan and gradient
    verdict (or refusal text), plus its certificate and the certificate's
    ``verify_document`` when connectivity holds; then the certificates of
    ``layered_order(1..3)``."""
    digest, realized = hashlib.sha256(), 0
    for n in range(1, 7):
        for order in iter_orders(n):
            try:
                gradient = check_gradient_like(order).to_dict()
            except (NotGradientShape, DisconnectedGraph) as exc:
                gradient = str(exc)
            out = {
                "check": check_necessary(order).to_dict(),
                "plugs": plan_plugs(order).to_dict(),
                "gradient": gradient,
            }
            if check_connectivity(order).passed:
                out["cert"] = realize(order).to_dict()
                out["verify"] = verify_document(out["cert"])
                realized += 1
            digest.update(_dump(out).encode())
    for seed in (1, 2, 3):
        digest.update(_dump(realize(load_order(layered_order(seed))).to_dict()).encode())
    assert realized == 512
    assert digest.hexdigest() == GOLDEN
