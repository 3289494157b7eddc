"""Canonical edge representation.

Everywhere in this library an undirected edge between nodes ``u`` and
``v`` is represented by the tuple of its endpoints in one fixed total
order over node labels: by type name, then by ``repr`` (see
:func:`edge_key`).  This is *not* ``(min(u, v), max(u, v))``: integers
compare by their decimal text, so ``edge_key(9, 10) == (10, 9)``.  The
order is defined for any mix of labels (ints, strings, the tuples of
virtual nodes), and it is baked into every coloring key and so into
every result fingerprint, so it must not change.  Using a
single canonical form keeps dictionaries keyed by edges consistent
across modules (colorings, lists, defect maps, ledgers) and avoids the
classic ``(u, v)`` vs ``(v, u)`` bug family entirely.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Iterator

import networkx as nx

from repro.errors import InvalidInstanceError

#: Type alias used across the library: a canonical node pair (see edge_key).
Edge = tuple[Hashable, Hashable]


def edge_key(u: Hashable, v: Hashable) -> Edge:
    """Return the canonical representation of the edge ``{u, v}``.

    The endpoints are ordered by ``(type name, repr)``, not by value:

    >>> edge_key(5, 2)
    (2, 5)
    >>> edge_key(9, 10)
    (10, 9)
    >>> edge_key("b", 1)
    (1, 'b')
    """
    if u == v:
        raise InvalidInstanceError(f"self-loop edge ({u!r}, {v!r}) is not allowed")
    return (u, v) if _sort_key(u) <= _sort_key(v) else (v, u)


def _sort_key(node: Hashable) -> tuple[str, str]:
    """Total order over heterogeneous node labels (type name, then repr)."""
    return (type(node).__name__, repr(node))


def edge_set(graph: nx.Graph) -> list[Edge]:
    """Return all edges of ``graph`` in canonical form, sorted.

    Sorting gives deterministic iteration order to every algorithm that
    enumerates edges, which keeps simulated executions reproducible.
    """
    return sorted(
        (edge_key(u, v) for u, v in graph.edges()),
        key=lambda e: (_sort_key(e[0]), _sort_key(e[1])),
    )


def incident_edges(graph: nx.Graph, node: Hashable) -> list[Edge]:
    """Return the canonical edges incident to ``node``, sorted."""
    return sorted(
        (edge_key(node, neighbor) for neighbor in graph.neighbors(node)),
        key=lambda e: (_sort_key(e[0]), _sort_key(e[1])),
    )


def other_endpoint(edge: Edge, node: Hashable) -> Hashable:
    """Return the endpoint of ``edge`` that is not ``node``.

    >>> other_endpoint((2, 5), 2)
    5
    """
    u, v = edge
    if node == u:
        return v
    if node == v:
        return u
    raise InvalidInstanceError(f"node {node!r} is not an endpoint of edge {edge!r}")


def edges_subgraph(graph: nx.Graph, edges: Iterable[Edge]) -> nx.Graph:
    """Return the subgraph of ``graph`` containing exactly ``edges``.

    Nodes that become isolated are dropped; algorithms that recurse on
    subsets of edges (Lemma 4.2's residual instances, Lemma 4.3's
    per-subspace instances) use this to build their sub-instances.
    """
    sub = nx.Graph()
    for u, v in edges:
        if not graph.has_edge(u, v):
            raise InvalidInstanceError(
                f"edge ({u!r}, {v!r}) is not present in the host graph"
            )
        sub.add_edge(u, v)
    return sub


def iter_canonical(edges: Iterable[tuple[Hashable, Hashable]]) -> Iterator[Edge]:
    """Yield the canonical form of every pair in ``edges``."""
    for u, v in edges:
        yield edge_key(u, v)


def edge_to_token(edge: Edge) -> str:
    """Serialise a canonical edge as ``"u--v"``.

    The textual edge form shared by JSON exports
    (:mod:`repro.analysis.serialization`) and run-result fingerprints
    (:mod:`repro.results`).
    """
    u, v = edge
    return f"{u}--{v}"


def token_to_edge(token: str) -> Edge:
    """Parse an edge token back into a canonical tuple.

    Integer labels are restored as integers; everything else stays a
    string.
    """
    parts = token.split("--")
    if len(parts) != 2:
        raise InvalidInstanceError(f"malformed edge token {token!r}")

    def parse(label: str):
        try:
            return int(label)
        except ValueError:
            return label

    return (parse(parts[0]), parse(parts[1]))
