"""Independent validators for colorings.

These functions re-derive everything from the graph: they do not trust
:class:`~repro.coloring.edge_coloring.PartialEdgeColoring` or any
algorithm's bookkeeping.  Every test and every benchmark funnels its
outputs through this module, realising the DESIGN.md hard rule that
correctness is checked independently of round accounting.

Which check is independent: the properness checks accept an optional
precomputed line-graph ``adjacency``.  The paper solver passes its own
(:func:`repro.core.solver.solve_list_edge_coloring` checks its result
against the adjacency it colored with), so that check reads the
solver's structure.  The executor's validation of every finished run
(:func:`repro.api.runner.run`) passes none and re-derives the
adjacency from the graph; that is the independent check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

import networkx as nx

from repro.errors import ColoringValidationError
from repro.coloring.lists import ListAssignment
from repro.graphs.edges import Edge, edge_set
from repro.graphs.line_graph import line_graph_adjacency


def check_proper_edge_coloring(
    graph: nx.Graph,
    coloring: Mapping[Edge, int],
    *,
    require_total: bool = True,
    adjacency: Mapping[Edge, list[Edge]] | None = None,
) -> None:
    """Raise unless ``coloring`` is a proper (partial) edge coloring.

    Parameters
    ----------
    graph:
        Host graph.
    coloring:
        Mapping from canonical edge to color.
    require_total:
        When ``True`` (default) every edge of the graph must be
        colored; when ``False`` the mapping may cover a subset, but
        properness is still enforced on the covered part.
    adjacency:
        The line-graph adjacency of ``graph``, if the caller already
        holds it; re-derived from ``graph`` when ``None``, which keeps
        the check independent of the caller (module docstring).
    """
    if adjacency is None:
        adjacency = line_graph_adjacency(graph)
    edges = list(adjacency)
    edge_lookup = set(edges)
    for edge in coloring:
        if edge not in edge_lookup:
            raise ColoringValidationError(
                f"colored edge {edge!r} does not exist in the graph"
            )
    if require_total:
        missing = [e for e in edges if e not in coloring]
        if missing:
            raise ColoringValidationError(
                f"{len(missing)} edges are uncolored, e.g. {missing[:3]!r}"
            )
    for edge, neighbors in adjacency.items():
        if edge not in coloring:
            continue
        for other in neighbors:
            if other in coloring and other > edge:
                if coloring[edge] == coloring[other]:
                    raise ColoringValidationError(
                        f"edges {edge!r} and {other!r} share a node and the "
                        f"color {coloring[edge]}"
                    )


def check_list_edge_coloring(
    graph: nx.Graph,
    lists: ListAssignment,
    coloring: Mapping[Edge, int],
    *,
    require_total: bool = True,
    adjacency: Mapping[Edge, list[Edge]] | None = None,
) -> None:
    """Raise unless ``coloring`` is proper *and* respects the lists.

    ``adjacency`` is passed on to :func:`check_proper_edge_coloring`.
    """
    check_proper_edge_coloring(
        graph, coloring, require_total=require_total, adjacency=adjacency
    )
    for edge, color in coloring.items():
        if color not in lists.list_of(edge):
            raise ColoringValidationError(
                f"edge {edge!r} uses color {color} which is not in its list"
            )


def check_palette_bound(
    coloring: Mapping[Edge, int], palette_size: int, *, start: int = 1
) -> None:
    """Raise unless every used color lies in ``{start, ..., start+size-1}``.

    Used by the ``(2Δ - 1)``-edge coloring wrappers, whose contract is a
    bound on the palette rather than per-edge lists.
    """
    for edge, color in coloring.items():
        if color < start or color >= start + palette_size:
            raise ColoringValidationError(
                f"edge {edge!r} uses color {color} outside the palette "
                f"[{start}, {start + palette_size - 1}]"
            )


def measure_defects(
    graph: nx.Graph, assignment: Mapping[Edge, int]
) -> dict[Edge, int]:
    """Return, per edge, the number of same-colored neighboring edges.

    For a *proper* coloring all defects are 0; for a defective coloring
    this is the quantity the paper bounds by ``deg(e) / (2β)``.
    """
    adjacency = line_graph_adjacency(graph)
    defects: dict[Edge, int] = {}
    for edge, neighbors in adjacency.items():
        if edge not in assignment:
            continue
        defects[edge] = sum(
            1
            for other in neighbors
            if other in assignment and assignment[other] == assignment[edge]
        )
    return defects


def check_defective_coloring(
    graph: nx.Graph,
    assignment: Mapping[Edge, int],
    defect_bound: Callable[[int], float],
    *,
    color_bound: int | None = None,
) -> None:
    """Raise unless ``assignment`` is a defective coloring within bounds.

    Parameters
    ----------
    graph:
        Host graph; every edge must be assigned.
    assignment:
        Edge -> defective color.
    defect_bound:
        Callable mapping ``deg(e)`` to the maximum allowed defect for
        an edge of that degree (the paper uses ``deg(e) / (2β)``).
    color_bound:
        If given, the number of distinct colors must not exceed it
        (the paper's ``O(β²)``, instantiated with explicit constants by
        the caller).
    """
    edges = edge_set(graph)
    missing = [e for e in edges if e not in assignment]
    if missing:
        raise ColoringValidationError(
            f"{len(missing)} edges lack a defective color, e.g. {missing[:3]!r}"
        )
    adjacency = line_graph_adjacency(graph)
    defects = measure_defects(graph, assignment)
    for edge, defect in defects.items():
        degree = len(adjacency[edge])
        allowed = defect_bound(degree)
        if defect > allowed:
            raise ColoringValidationError(
                f"edge {edge!r} (deg {degree}) has defect {defect} "
                f"> allowed {allowed}"
            )
    if color_bound is not None:
        used = len(set(assignment.values()))
        if used > color_bound:
            raise ColoringValidationError(
                f"defective coloring uses {used} colors > bound {color_bound}"
            )


@dataclass(frozen=True)
class ColoringReport:
    """Summary statistics of a finished coloring, for benchmark tables."""

    edges: int
    colors_used: int
    max_color: int

    @classmethod
    def from_coloring(cls, coloring: Mapping[Edge, int]) -> "ColoringReport":
        if not coloring:
            return cls(edges=0, colors_used=0, max_color=0)
        values = list(coloring.values())
        return cls(
            edges=len(coloring),
            colors_used=len(set(values)),
            max_color=max(values),
        )
