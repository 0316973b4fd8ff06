"""The invariants that ``verify_certificate`` no longer checks on their own
(star balance, 2E = band count, the cap on band appearances) are implied by
the cycle and boundary checks: every certificate that breaks one is refused."""

import json
import random
from collections import Counter

from smale_orders.assemble import assemble
from smale_orders.bands import bands_of
from smale_orders.cli import main
from smale_orders.cycles import CycleAssignment
from smale_orders.order import load_order
from smale_orders.pipeline import _domain, realize, verify_certificate

from helpers import star_ledger, usable_orders


def test_invented_gluing_without_cycles_is_refused(tmp_path):
    """p > q has no cycles, so two invented pairs name four unknown bands;
    every summary field is re-derived, so only the matching check sees it."""
    order = load_order({"elements": ["p", "q"], "relations": [["p", "q"]]})
    cert = realize(order)
    pairs = ((("p", 0), ("q", 0)), (("p", 1), ("q", 1)))
    forged = assemble(order, cert.assignment, pairs, cert.boundary, cert.domains, cert.repairs)
    cert_path, out = tmp_path / "cert.json", tmp_path / "verify.json"
    cert_path.write_text(json.dumps(forged.to_dict()))
    assert main(["verify-cert", str(cert_path), "-o", str(out)]) == 2
    assert json.loads(out.read_text())["problems"] == [
        f"matching references unknown band {key}" for pair in pairs for key in pair
    ]


def _tampered(cert, rng: random.Random):
    """The certificate after one or two seeded edits of its stage data (a
    pair swapped, dropped or duplicated, a boundary index shifted, a
    transition inserted, dropped or reversed, a boundary cycle dropped),
    with every summary field re-derived."""
    cycles = {o: list(cert.assignment.cycle(o)) for o in cert.assignment.owners()}
    pairs = list(cert.gluing)
    boundary = {s: [list(c) for c in cs] for s, cs in cert.boundary.items()}
    for _ in range(rng.choice((1, 2))):
        edit = rng.randrange(8)
        word = cycles[rng.choice(sorted(cycles))]
        walked = [s for s in sorted(boundary) if boundary[s]]
        if edit == 0:
            i, j = rng.sample(range(len(pairs)), 2)
            (a, b), (c, d) = pairs[i], pairs[j]
            pairs[i], pairs[j] = (a, d), (c, b)
        elif edit == 1:
            pairs.pop(rng.randrange(len(pairs)))
        elif edit == 2:
            pairs.append(rng.choice(pairs))
        elif edit == 3:
            seq = rng.choice(boundary[rng.choice(walked)])
            i = rng.randrange(len(seq))
            seq[i] = (seq[i][0], seq[i][1] + rng.choice((-1, 1)))
        elif edit == 4:
            word.insert(rng.randrange(len(word) + 1), rng.choice(word))
        elif edit == 5:
            word.pop(rng.randrange(len(word)))
        elif edit == 6:
            i = rng.randrange(len(word))
            word[i] = word[i].reversed()
        else:
            seqs = boundary[rng.choice(walked)]
            seqs.pop(rng.randrange(len(seqs)))
    assignment = CycleAssignment(cycles={o: tuple(w) for o, w in cycles.items()})
    cycles_of = {s: tuple(tuple(seq) for seq in seqs) for s, seqs in boundary.items()}
    domains, repairs = dict(cert.domains), dict(cert.repairs)
    for s in sorted(cycles_of):
        try:
            domains[s], repairs[s] = _domain(cycles_of[s])
        except ValueError:  # no valid profile: the stored domain stays
            pass
    gluing = tuple(sorted(pairs))
    return assemble(cert.order, assignment, gluing, cycles_of, domains, repairs)


def _broken_implied_invariants(cert) -> set:
    """Which of star balance, 2E and the appearance cap the certificate
    breaks, each computed directly."""
    broken = set()
    if not star_ledger(cert.assignment, cert.order).balanced:
        broken.add("star")
    if 2 * cert.edge_count != cert.assignment.total_bands():
        broken.add("2E")
    bands = bands_of(cert.assignment)
    for s, cycles in cert.boundary.items():
        counts = Counter(k for c in cycles for k in c[:-1] if k in bands)
        for key, n in counts.items():
            if n > (2 if bands[key].left == bands[key].right == s else 1):
                broken.add("cap")
    return broken


def test_tampered_certificates_breaking_an_implied_invariant_are_refused():
    rng = random.Random(12)
    seen = Counter()
    for order in usable_orders(5):  # no north-south pairs: the core is the order
        cert = realize(order)
        for _ in range(20):
            bad = _tampered(cert, rng)
            broken = _broken_implied_invariants(bad)
            seen.update(broken)
            if broken:
                assert verify_certificate(bad), (order.to_dict(), sorted(broken))
    assert min(seen[name] for name in ("star", "2E", "cap")) >= 20, seen
