"""Deterministic DOT renderings of orders, band gluings and embeddings."""

from __future__ import annotations

from .assemble import RealizationCertificate
from .gradient import Embedding, LevelGraph
from .order import FiniteOrder, Role, classify

_PALETTE = (
    "crimson",
    "royalblue",
    "forestgreen",
    "darkorange",
    "purple",
    "teal",
    "goldenrod",
    "deeppink",
    "slategray",
    "saddlebrown",
)

_ROLE_SHAPE = {
    Role.REPELLER: "invtriangle",
    Role.SADDLE: "box",
    Role.ATTRACTOR: "circle",
}


def _quote(s: str) -> str:
    return '"' + s.replace('"', '\\"') + '"'


def hasse_dot(order: FiniteOrder) -> str:
    roles = classify(order)
    lines = ["digraph hasse {", "  rankdir=TB;"]
    for e in order.elements:
        shape = _ROLE_SHAPE[roles.roles[e]]
        lines.append(f"  {_quote(e)} [shape={shape}];")
    for a, b in sorted(order.covers):
        lines.append(f"  {_quote(a)} -> {_quote(b)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def band_incidence_dot(certificate: RealizationCertificate) -> str:
    """Vertices are extremal points, one edge per glued band pair, colored by
    the saddle pair the translation band separates."""
    assignment = certificate.assignment
    colors: dict = {}

    def color_of(pair) -> str:
        if pair not in colors:
            colors[pair] = _PALETTE[len(colors) % len(_PALETTE)]
        return colors[pair]

    lines = ["graph bands {"]
    for e in certificate.roles.extremals():
        lines.append(f"  {_quote(e)};")
    for (a_owner, a_idx), (r_owner, r_idx) in certificate.gluing:
        t = assignment.cycle(a_owner)[a_idx]
        pair = tuple(sorted((t.left, t.right)))
        label = f"{t.left}>{t.right} [{a_owner}:{a_idx}|{r_owner}:{r_idx}]"
        lines.append(
            f"  {_quote(r_owner)} -- {_quote(a_owner)}"
            f" [label={_quote(label)}, color={color_of(pair)}];"
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def level_graph_dot(graph: LevelGraph, name: str) -> str:
    lines = [f"graph {name} {{"]
    for v in graph.vertices:
        lines.append(f"  {_quote(v)};")
    for label, (u, v) in graph.edges:
        lines.append(f"  {_quote(u)} -- {_quote(v)} [label={_quote(label)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def embedding_dot(
    embedding: Embedding,
    graph: LevelGraph,
    face_attractors: tuple[str, ...],
    name: str = "embedding",
) -> str:
    """Level graph with the rotation order on edge-ends and one annotation
    node per traced face, naming the attractor the face is dual to."""
    lines = [f"graph {name} {{"]
    for v in graph.vertices:
        darts = embedding.rotation.get(v, ())
        order = ", ".join(f"{graph.edges[e][0]}.{end}" for e, end in darts)
        lines.append(f"  {_quote(v)} [label={_quote(f'{v} | {order}')}];")
    for label, (u, v) in graph.edges:
        lines.append(f"  {_quote(u)} -- {_quote(v)} [label={_quote(label)}];")
    for i, (face, a) in enumerate(zip(embedding.faces, face_attractors)):
        walk = " ".join(f"{graph.edges[e][0]}.{end}" for e, end in face)
        note = f"face {i} ({a}): {walk}"
        lines.append(f"  {_quote(f'face{i}')} [shape=note, label={_quote(note)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
