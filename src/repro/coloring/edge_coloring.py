"""Mutable partial edge colorings with residual-list maintenance.

The implementation of the paper rests on one workhorse invariant:

    **Residual invariant.**  Take any ``(deg(e) + 1)``-list instance
    and any proper partial coloring that respects the lists.  For every
    uncolored edge ``e``, remove from ``L_e`` the colors used by its
    colored neighbors.  Then the *residual* instance — the uncolored
    edges with their reduced lists — is again a ``(deg(e) + 1)``-list
    instance (each colored neighbor removes at most one list color but
    reduces the residual degree by exactly one).

Every stage of the paper's algorithm (the per-class coloring of
Lemma 4.2, the per-subspace recursion of Lemma 4.3, the greedy base
case) colors *some* edges and recurses on the residual, so this class
centralises the bookkeeping: it tracks used colors per edge
neighborhood, exposes residual lists and residual degrees, and refuses
improper assignments outright.
"""

from __future__ import annotations

from typing import Iterable, Mapping

import networkx as nx

from repro.errors import ColoringValidationError, InvalidInstanceError
from repro.coloring.lists import ListAssignment
from repro.graphs.edges import Edge, edge_set
from repro.graphs.line_graph import line_graph_adjacency


class PartialEdgeColoring:
    """A partial proper list edge coloring under construction.

    Parameters
    ----------
    graph:
        The host graph.
    lists:
        The instance's color lists (must cover every edge of ``graph``).
    adjacency:
        The line-graph adjacency of ``graph``, if the caller already
        built it with :func:`~repro.graphs.line_graph.line_graph_adjacency`
        (shared, never mutated); built here otherwise.

    Notes
    -----
    The class *enforces* properness and list membership on every
    :meth:`assign`; algorithms cannot corrupt it.  Final results are
    still re-checked by :mod:`repro.coloring.verify` — defence in
    depth, because validators must not trust the data structure they
    are validating.
    """

    def __init__(
        self,
        graph: nx.Graph,
        lists: ListAssignment,
        *,
        adjacency: Mapping[Edge, list[Edge]] | None = None,
    ) -> None:
        self._graph = graph
        self._lists = lists
        self._adjacency = (
            line_graph_adjacency(graph) if adjacency is None else adjacency
        )
        missing = [e for e in self._adjacency if e not in lists]
        if missing:
            raise InvalidInstanceError(
                f"edges without lists: {sorted(missing, key=repr)[:3]!r}"
            )
        self._colors: dict[Edge, int] = {}
        # For each edge, the set of colors already used by its colored
        # neighbors; maintained incrementally on every assignment.
        self._blocked: dict[Edge, set[int]] = {e: set() for e in self._adjacency}

    # ------------------------------------------------------------------
    # Read API
    # ------------------------------------------------------------------

    @property
    def graph(self) -> nx.Graph:
        return self._graph

    @property
    def lists(self) -> ListAssignment:
        return self._lists

    def color_of(self, edge: Edge) -> int | None:
        """Return the color of ``edge`` or ``None`` if uncolored."""
        return self._colors.get(edge)

    def is_colored(self, edge: Edge) -> bool:
        return edge in self._colors

    def colored_edges(self) -> list[Edge]:
        """Return the colored edges (sorted, for determinism)."""
        return sorted(self._colors, key=repr)

    def uncolored_edges(self) -> list[Edge]:
        """Return the uncolored edges (sorted, for determinism)."""
        return sorted(
            (e for e in self._adjacency if e not in self._colors), key=repr
        )

    def is_complete(self) -> bool:
        """Return ``True`` when every edge has a color."""
        return len(self._colors) == len(self._adjacency)

    def residual_list(self, edge: Edge) -> frozenset[int]:
        """Return ``L_e`` minus the colors used by colored neighbors.

        This is the list the *residual instance* gives to ``edge``; the
        paper's procedures always work against residual lists.
        """
        return self._lists.list_of(edge) - frozenset(self._blocked[edge])

    def residual_degree(self, edge: Edge) -> int:
        """Return the number of *uncolored* neighbors of ``edge``."""
        return sum(1 for n in self._adjacency[edge] if n not in self._colors)

    def neighbors(self, edge: Edge) -> list[Edge]:
        """Return the line-graph neighbors of ``edge``."""
        return self._adjacency[edge]

    def as_dict(self) -> dict[Edge, int]:
        """Return a snapshot of the colors assigned so far."""
        return dict(self._colors)

    # ------------------------------------------------------------------
    # Write API
    # ------------------------------------------------------------------

    def assign(self, edge: Edge, color: int) -> None:
        """Color ``edge`` with ``color``; raise on any violation.

        Raises
        ------
        ColoringValidationError
            If the edge is already colored, the color is not in the
            edge's (original) list, or a neighbor already uses it.
        """
        if edge not in self._adjacency:
            raise InvalidInstanceError(f"unknown edge {edge!r}")
        if edge in self._colors:
            raise ColoringValidationError(
                f"edge {edge!r} is already colored with {self._colors[edge]}"
            )
        if color not in self._lists.list_of(edge):
            raise ColoringValidationError(
                f"color {color} is not in the list of edge {edge!r}"
            )
        if color in self._blocked[edge]:
            raise ColoringValidationError(
                f"color {color} is already used by a neighbor of {edge!r}"
            )
        self._colors[edge] = color
        for neighbor in self._adjacency[edge]:
            if neighbor not in self._colors:
                self._blocked[neighbor].add(color)

    def assign_batch(self, assignments: Iterable[tuple[Edge, int]]) -> None:
        """Assign several colors; the batch must be conflict-free.

        Algorithms that color a whole independent class "simultaneously"
        (one simulated round) use this; conflicts inside the batch are
        detected because :meth:`assign` updates blocked sets as it goes.
        """
        for edge, color in assignments:
            self.assign(edge, color)

    # ------------------------------------------------------------------
    # Residual instance extraction
    # ------------------------------------------------------------------

    def residual_instance(self) -> tuple[nx.Graph, ListAssignment]:
        """Return the residual ``(graph, lists)`` on the uncolored edges.

        By the residual invariant (module docstring), if the original
        instance satisfied ``|L_e| >= deg(e) + 1`` then so does the
        returned instance — the basis of every "recurse on the
        leftovers" step in the paper.
        """
        remaining = self.uncolored_edges()
        sub = nx.Graph()
        for u, v in remaining:
            sub.add_edge(u, v)
        residual_lists = {
            edge: self.residual_list(edge) for edge in remaining
        }
        return sub, ListAssignment(residual_lists, self._lists.palette)

    def merge_from(self, other: "PartialEdgeColoring") -> None:
        """Adopt all colors of ``other`` (a coloring of a sub-instance).

        Every adoption goes through :meth:`assign`, so an improper
        merge fails loudly rather than corrupting state.
        """
        for edge in other.colored_edges():
            self.assign(edge, other.color_of(edge))

    def merge_dict(self, colors: dict[Edge, int]) -> None:
        """Adopt a plain ``edge -> color`` mapping (deterministic order)."""
        for edge in sorted(colors, key=repr):
            self.assign(edge, colors[edge])


def empty_coloring(graph: nx.Graph, lists: ListAssignment) -> PartialEdgeColoring:
    """Convenience constructor matching the library's naming style."""
    return PartialEdgeColoring(graph, lists)


def full_coloring_as_dict(
    graph: nx.Graph, coloring: PartialEdgeColoring
) -> dict[Edge, int]:
    """Return the finished coloring as a dict, insisting on completeness."""
    if not coloring.is_complete():
        missing = coloring.uncolored_edges()[:3]
        raise ColoringValidationError(
            f"coloring is incomplete; e.g. uncolored edges {missing!r}"
        )
    result = coloring.as_dict()
    expected = set(edge_set(graph))
    if set(result) != expected:
        raise ColoringValidationError(
            "coloring covers a different edge set than the graph"
        )
    return result
