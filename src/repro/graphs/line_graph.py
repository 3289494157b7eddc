"""Line-graph views of a graph.

The paper's central quantity is the *edge degree*
``deg(e) = deg(u) + deg(v) - 2`` for ``e = {u, v}`` — the degree of
``e`` in the line graph ``L(G)``.  The maximum edge degree is written
``Δ̄`` and satisfies ``Δ̄ <= 2Δ - 2``.

All list sizes, defect bounds and recursion thresholds in the
algorithms are expressed against these quantities, so they are
implemented once here and reused everywhere.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Mapping

import networkx as nx

from repro.errors import InvalidInstanceError
from repro.graphs.edges import Edge, edge_key, edge_set


def edge_degree(graph: nx.Graph, edge: Edge) -> int:
    """Return ``deg(e) = deg(u) + deg(v) - 2``, the line-graph degree of ``e``.

    >>> import networkx as nx
    >>> g = nx.path_graph(4)
    >>> edge_degree(g, (1, 2))
    2
    """
    u, v = edge
    if not graph.has_edge(u, v):
        raise InvalidInstanceError(f"edge {edge!r} not present in graph")
    return graph.degree(u) + graph.degree(v) - 2


def max_edge_degree(graph: nx.Graph) -> int:
    """Return ``Δ̄``, the maximum edge degree (0 for edgeless graphs)."""
    if graph.number_of_edges() == 0:
        return 0
    return max(edge_degree(graph, edge_key(u, v)) for u, v in graph.edges())


def line_graph_adjacency(graph: nx.Graph) -> dict[Edge, list[Edge]]:
    """Return the adjacency of the line graph over canonical edges.

    Two edges are adjacent iff they share an endpoint.

    Order contract: the keys come in :func:`~repro.graphs.edges.edge_set`
    order and every neighbor list is sorted by ``repr``.  This gives
    deterministic iteration to the simulated algorithms that run *on*
    the line graph (Linial's coloring, the greedy class sweep), and it
    is baked into every result fingerprint.

    The paper path builds this once per (sub-)instance and hands the
    same dict to every consumer (:func:`repro.core.solver.solve_list_edge_coloring`
    threads it through the initial coloring, the solver, its
    :class:`~repro.coloring.edge_coloring.PartialEdgeColoring` and its
    own final check).  The result is therefore shared: treat it as
    read-only.  The executor's validation of a finished run builds its
    own copy from the graph, so that check stays independent of the
    solver's bookkeeping (see :mod:`repro.coloring.verify`).
    """
    edges = edge_set(graph)
    rank = {edge: index for index, edge in enumerate(sorted(edges, key=repr))}
    by_repr = rank.__getitem__
    # One row of incident edges per node, each row in repr order.
    incident: dict[Hashable, list[Edge]] = {}
    for edge in rank:
        u, v = edge
        incident.setdefault(u, []).append(edge)
        incident.setdefault(v, []).append(edge)
    adjacency: dict[Edge, list[Edge]] = {}
    for edge in edges:
        u, v = edge
        # In a simple graph the two rows share only ``edge`` itself, so
        # their concatenation minus ``edge`` is the union; sorting two
        # sorted runs is a linear merge.
        neighbors = incident[u] + incident[v]
        neighbors.remove(edge)
        neighbors.remove(edge)
        neighbors.sort(key=by_repr)
        adjacency[edge] = neighbors
    return adjacency


def line_graph(graph: nx.Graph) -> nx.Graph:
    """Return the line graph with canonical-edge node labels."""
    result = nx.Graph()
    adjacency = line_graph_adjacency(graph)
    result.add_nodes_from(adjacency)
    for edge, neighbors in adjacency.items():
        for other in neighbors:
            result.add_edge(edge, other)
    return result


def induced_edge_degrees(
    graph: nx.Graph, subset: Iterable[Edge]
) -> dict[Edge, int]:
    """Return each edge's degree within the sub-line-graph induced by ``subset``.

    Used by the defective coloring validator and by Lemma 4.3's
    bookkeeping: after edges are partitioned (by defective color or by
    color subspace), an edge's *new* degree counts only neighbors in
    the same part.
    """
    chosen = set(subset)
    adjacency = line_graph_adjacency(graph)
    degrees: dict[Edge, int] = {}
    for edge in chosen:
        if edge not in adjacency:
            raise InvalidInstanceError(f"edge {edge!r} not present in graph")
        degrees[edge] = sum(1 for other in adjacency[edge] if other in chosen)
    return degrees


def conflicting_pairs(
    graph: nx.Graph, assignment: Mapping[Edge, Hashable]
) -> list[tuple[Edge, Edge]]:
    """Return all adjacent edge pairs assigned the same value.

    The generic "find monochromatic conflicts" query: validators use it
    for proper colorings (result must be empty) and defect measurement
    (result size bounds the defect).
    """
    conflicts: list[tuple[Edge, Edge]] = []
    adjacency = line_graph_adjacency(graph)
    for edge, neighbors in adjacency.items():
        if edge not in assignment:
            continue
        for other in neighbors:
            if other in assignment and other > edge:
                if assignment[edge] == assignment[other]:
                    conflicts.append((edge, other))
    return conflicts
