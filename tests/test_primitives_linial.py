"""Tests for the Linial-style color reduction."""

import random

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import (
    AlgorithmInvariantError,
    InvalidInstanceError,
    ParameterError,
)
from repro.graphs.families import build_family, family_names
from repro.graphs.generators import random_regular
from repro.graphs.line_graph import line_graph_adjacency
from repro.graphs.properties import assign_unique_ids
from repro.model.edge_network import edge_identifier
from repro.primitives.linial import (
    LinialResult,
    LinialStepParameters,
    _one_round,
    linial_fixpoint_palette,
    linial_reduce,
    linial_step_parameters,
)
from repro.utils.gf import FieldPolynomial, digits_base_q
from repro.utils.logstar import ceil_log, log_star
from repro.utils.primes import next_prime


def _check_proper(adjacency, colors):
    for item, neighbors in adjacency.items():
        for other in neighbors:
            assert colors[item] != colors[other]


def _graph_adjacency(graph):
    return {node: sorted(graph.neighbors(node)) for node in graph.nodes()}


class TestStepParameters:
    def test_collision_bound_holds(self):
        params = linial_step_parameters(1000, 10)
        assert params.q > 10 * (params.k - 1)
        assert params.q ** params.k >= 1000

    def test_rejects_tiny_palette(self):
        with pytest.raises(InvalidInstanceError):
            linial_step_parameters(1, 5)

    @given(
        st.integers(min_value=2, max_value=10**7),
        st.integers(min_value=0, max_value=60),
    )
    def test_parameters_always_sound(self, palette, degree):
        params = linial_step_parameters(palette, degree)
        assert params.q > degree * max(0, params.k - 1)
        # every color must be encodable in k digits
        assert params.q ** params.k >= palette


def reference_step_parameters(palette_size, degree):
    """The original search from ``q = 2``, kept as the oracle."""
    q = 2
    while True:
        q = next_prime(q)
        k = max(1, ceil_log(q, palette_size))
        if q > degree * max(0, k - 1):
            return LinialStepParameters(q=q, k=k)
        q += 1


class TestStepParametersSearchStart:
    """Starting the prime search at ``min(palette, degree + 1)`` finds
    the same smallest valid ``q`` as searching from 2."""

    def test_grid(self):
        for degree in range(0, 40):
            for palette in range(2, 400):
                assert linial_step_parameters(palette, degree) == (
                    reference_step_parameters(palette, degree)
                ), (palette, degree)

    @given(
        st.integers(min_value=2, max_value=2**80),
        st.integers(min_value=0, max_value=300),
    )
    def test_any_palette(self, palette, degree):
        assert linial_step_parameters(palette, degree) == (
            reference_step_parameters(palette, degree)
        )


class TestLinialReduce:
    def test_reduces_to_quadratic_palette(self):
        g = random_regular(4, 20, seed=2)
        adjacency = _graph_adjacency(g)
        ids = assign_unique_ids(g, seed=3)
        result = linial_reduce(adjacency, ids)
        _check_proper(adjacency, result.colors)
        assert result.palette_size <= 16 * (4 + 2) ** 2

    def test_round_count_logstar_scale(self):
        g = nx.cycle_graph(64)
        adjacency = _graph_adjacency(g)
        ids = {node: 10**9 + node * 104729 for node in g.nodes()}
        result = linial_reduce(adjacency, ids)
        _check_proper(adjacency, result.colors)
        assert result.rounds <= log_star(10**10) + 4

    def test_on_line_graph_gives_edge_coloring(self):
        g = random_regular(5, 12, seed=4)
        adjacency = line_graph_adjacency(g)
        node_ids = assign_unique_ids(g)
        max_id = max(node_ids.values())
        edge_ids = {e: edge_identifier(e, node_ids, max_id) for e in adjacency}
        result = linial_reduce(adjacency, edge_ids)
        _check_proper(adjacency, result.colors)
        dbar = max(len(v) for v in adjacency.values())
        assert result.palette_size <= 16 * (dbar + 2) ** 2

    def test_empty_adjacency(self):
        result = linial_reduce({}, {})
        assert result.colors == {} and result.rounds == 0

    def test_isolated_items_get_single_color(self):
        result = linial_reduce({0: [], 1: []}, {0: 5, 1: 9})
        assert result.palette_size == 1
        assert result.rounds == 0

    def test_stop_at_early_exit(self):
        g = nx.cycle_graph(30)
        adjacency = _graph_adjacency(g)
        ids = assign_unique_ids(g, seed=1)
        full = linial_reduce(adjacency, ids)
        early = linial_reduce(adjacency, ids, stop_at=10**6)
        assert early.rounds <= full.rounds

    def test_rejects_improper_input(self):
        with pytest.raises(InvalidInstanceError):
            linial_reduce({0: [1], 1: [0]}, {0: 3, 1: 3})

    def test_rejects_missing_colors(self):
        with pytest.raises(InvalidInstanceError):
            linial_reduce({0: [1], 1: [0]}, {0: 3})

    def test_matches_agreement_points_semantics(self):
        """The vectorised round must forbid exactly the agreement
        points of the polynomial encoding (cross-check vs the slow
        textbook form)."""
        g = nx.path_graph(6)
        adjacency = _graph_adjacency(g)
        ids = {node: [300, 1100, 700, 1900, 200, 1500][node] for node in g.nodes()}
        result = linial_reduce(adjacency, ids)
        assert result.step_parameters, "instance too small to exercise a step"
        params = result.step_parameters[0]
        q, k = params.q, params.k
        for node, neighbors in adjacency.items():
            own = FieldPolynomial.from_color(ids[node], q, k)
            forbidden = set()
            for other in neighbors:
                forbidden.update(
                    own.agreement_points(
                        FieldPolynomial.from_color(ids[other], q, k)
                    )
                )
            # first round's chosen x must avoid all agreement points
            first_round_color = _first_round_color(ids, adjacency, node, params)
            x = first_round_color // q
            assert x not in forbidden


def _first_round_color(ids, adjacency, node, params):
    from repro.primitives.linial import _one_round

    return _one_round(adjacency, ids, params)[node]


class TestFixpointPalette:
    def test_known_values(self):
        assert linial_fixpoint_palette(0) == 1
        assert linial_fixpoint_palette(1) == 4  # prime 2 > 1
        assert linial_fixpoint_palette(4) == 25
        assert linial_fixpoint_palette(6) == 49

    @given(st.integers(min_value=1, max_value=500))
    def test_quadratic_scale(self, degree):
        assert degree**2 < linial_fixpoint_palette(degree) <= 16 * (degree + 2) ** 2


# ----------------------------------------------------------------------
# Equivalence with the per-item round
# ----------------------------------------------------------------------


def reference_one_round(adjacency, colors, params):
    """The original per-item round, kept here as the equivalence oracle."""
    q, k = params.q, params.k
    xs = np.arange(q, dtype=np.int64)
    powers = np.ones((k, q), dtype=np.int64)
    for j in range(1, k):
        powers[j] = (powers[j - 1] * xs) % q

    tables = {}
    for item, color in colors.items():
        digits = np.array(digits_base_q(color, q, k), dtype=np.int64)
        tables[item] = (digits @ powers) % q

    new_colors = {}
    for item, neighbors in adjacency.items():
        own = tables[item]
        if neighbors:
            for neighbor in neighbors:
                if colors[neighbor] == colors[item]:
                    raise InvalidInstanceError(
                        f"items {item!r} and {neighbor!r} share color "
                        f"{colors[item]}; the input coloring must be proper"
                    )
            stacked = np.stack([tables[neighbor] for neighbor in neighbors])
            collision = np.any(stacked == own, axis=0)
            free = np.flatnonzero(~collision)
        else:
            free = xs
        if free.size == 0:
            raise AlgorithmInvariantError(
                f"no evaluation point left for {item!r}: q={q} too small "
                f"for degree {len(neighbors)} and k={k}"
            )
        x = int(free[0])
        new_colors[item] = x * q + int(own[x])
    return new_colors


def reference_linial_reduce(adjacency, initial_colors, *, stop_at=None):
    """The original driver around :func:`reference_one_round`."""
    if not adjacency:
        return LinialResult(colors={}, palette_size=0, rounds=0, step_parameters=())
    missing = [item for item in adjacency if item not in initial_colors]
    if missing:
        raise InvalidInstanceError(
            f"items without initial colors: {missing[:3]!r}"
        )
    colors = {item: int(initial_colors[item]) for item in adjacency}
    if any(c < 0 for c in colors.values()):
        raise InvalidInstanceError("initial colors must be non-negative")
    for item, neighbors in adjacency.items():
        for neighbor in neighbors:
            if colors[item] == colors[neighbor]:
                raise InvalidInstanceError(
                    f"items {item!r} and {neighbor!r} share color "
                    f"{colors[item]}; the input coloring must be proper"
                )

    degree = max(len(neighbors) for neighbors in adjacency.values())
    if degree == 0:
        return LinialResult(
            colors={item: 0 for item in adjacency},
            palette_size=1,
            rounds=0,
            step_parameters=(),
        )

    palette_size = max(colors.values()) + 1
    steps = []
    while True:
        if stop_at is not None and palette_size <= stop_at:
            break
        if palette_size < 2:
            break
        params = linial_step_parameters(palette_size, degree)
        if params.new_palette_size >= palette_size:
            break
        colors = reference_one_round(adjacency, colors, params)
        palette_size = params.new_palette_size
        steps.append(params)

    return LinialResult(
        colors=colors,
        palette_size=palette_size,
        rounds=len(steps),
        step_parameters=tuple(steps),
    )


def _outcome(function, *args, **kwargs):
    """``("ok", value)`` or ``("raised", type, message)``."""
    try:
        return ("ok", function(*args, **kwargs))
    except (InvalidInstanceError, AlgorithmInvariantError, ParameterError) as exc:
        return ("raised", type(exc), str(exc))


def assert_same_reduction(adjacency, colors, **kwargs):
    ours = _outcome(linial_reduce, adjacency, colors, **kwargs)
    reference = _outcome(reference_linial_reduce, adjacency, colors, **kwargs)
    assert ours == reference
    if ours[0] == "ok":
        result, expected = ours[1], reference[1]
        assert list(result.colors) == list(expected.colors)
        assert list(result.colors.values()) == list(expected.colors.values())
        assert all(type(color) is int for color in result.colors.values())
        assert result.step_parameters == expected.step_parameters
    return ours


def assert_same_round(adjacency, colors, params):
    ours = _outcome(_one_round, adjacency, colors, params)
    reference = _outcome(reference_one_round, adjacency, colors, params)
    assert ours == reference
    if ours[0] == "ok":
        assert list(ours[1].items()) == list(reference[1].items())
    return ours


def _node_adjacency(graph):
    return {node: sorted(graph.neighbors(node), key=repr) for node in graph.nodes()}


def _edge_ids(graph, adjacency, seed):
    node_ids = assign_unique_ids(graph, seed=seed)
    max_id = max(node_ids.values(), default=0)
    return {edge: edge_identifier(edge, node_ids, max_id) for edge in adjacency}


def _distinct_colors(items, seed, top):
    rng = random.Random(seed)
    return dict(zip(items, rng.sample(range(top), len(items))))


class TestLinialReduceEquivalence:
    """The array round matches the per-item round exactly."""

    @pytest.mark.parametrize("family", family_names())
    @pytest.mark.parametrize("size", [3, 6])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_line_graph_every_family(self, family, size, seed):
        graph = build_family(family, size, seed)
        adjacency = line_graph_adjacency(graph)
        assert_same_reduction(adjacency, _edge_ids(graph, adjacency, seed))

    @pytest.mark.parametrize("family", family_names())
    @pytest.mark.parametrize("size", [3, 6])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_node_graph_every_family(self, family, size, seed):
        graph = build_family(family, size, seed)
        assert_same_reduction(
            _node_adjacency(graph), assign_unique_ids(graph, seed=seed)
        )

    @pytest.mark.parametrize(
        "edges",
        [
            [("a", "b"), ("b", 1), (1, 2), (2, "a")],
            [(9, 10), (10, 11), (9, 11), (100, 9), (2, 10)],
            [(("v", 1, 0), ("v", 2, 0)), (("v", 2, 0), 3), (3, "x"), ("x", ("v", 1, 0))],
            [(0, "0"), ("0", (0,)), ((0,), 1), (1, "1"), ("1", 0)],
        ],
        ids=["int-str", "int-widths", "tuple-int-str", "lookalikes"],
    )
    @pytest.mark.parametrize("seed", [1, 2])
    def test_mixed_labels(self, edges, seed):
        graph = nx.Graph(edges)
        nodes = _node_adjacency(graph)
        assert_same_reduction(nodes, _distinct_colors(nodes, seed, 10**6))
        lines = line_graph_adjacency(graph)
        assert_same_reduction(lines, _distinct_colors(lines, seed, 10**9))

    def test_empty_and_edgeless(self):
        assert_same_reduction({}, {})
        assert_same_reduction({0: [], "a": [], (1,): []}, {0: 5, "a": 5, (1,): 2**70})

    def test_stop_at(self):
        graph = nx.cycle_graph(30)
        adjacency = _node_adjacency(graph)
        ids = assign_unique_ids(graph, seed=1)
        for stop_at in (None, 1, 10, 10**3, 10**6, 10**12):
            assert_same_reduction(adjacency, ids, stop_at=stop_at)

    @settings(deadline=None, max_examples=60)
    @given(
        st.integers(1, 14).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(
                    st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                    max_size=3 * n,
                ),
                st.lists(
                    st.one_of(
                        st.integers(0, 50),
                        st.integers(0, 10**12),
                        st.integers(2**62, 2**72),
                    ),
                    min_size=n,
                    max_size=n,
                ),
            )
        ),
        st.one_of(st.none(), st.integers(0, 10**6)),
    )
    def test_random_graphs_and_colors(self, case, stop_at):
        n, pairs, colors = case
        graph = nx.empty_graph(n)
        graph.add_edges_from((u, v) for u, v in pairs if u != v)
        assert_same_reduction(
            _node_adjacency(graph), dict(enumerate(colors)), stop_at=stop_at
        )

    @settings(deadline=None, max_examples=60)
    @given(
        st.integers(1, 10).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(
                    st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                    max_size=3 * n,
                ),
                st.lists(st.integers(0, 140), min_size=n, max_size=n),
            )
        ),
        st.sampled_from([2, 3, 5, 7, 11]),
        st.integers(1, 4),
    )
    def test_one_round_any_parameters(self, case, q, k):
        """Any ``(q, k)``, any colors: same result or same error."""
        n, pairs, colors = case
        graph = nx.empty_graph(n)
        graph.add_edges_from((u, v) for u, v in pairs if u != v)
        assert_same_round(
            _node_adjacency(graph),
            dict(enumerate(colors)),
            LinialStepParameters(q=q, k=k),
        )


class TestLinialReduceEdgeCases:
    def test_colors_beyond_int64(self):
        graph = random_regular(4, 12, seed=5)
        adjacency = line_graph_adjacency(graph)
        colors = {
            edge: 2**70 + offset * 7919
            for offset, edge in enumerate(adjacency)
        }
        outcome = assert_same_reduction(adjacency, colors)
        assert outcome[0] == "ok" and outcome[1].rounds >= 1

    def test_colors_mixing_small_and_beyond_int64(self):
        adjacency = _node_adjacency(nx.cycle_graph(9))
        colors = {node: (2**70 + node if node % 2 else node) for node in adjacency}
        outcome = assert_same_reduction(adjacency, colors)
        assert outcome[0] == "ok"

    def test_colors_between_int64_and_uint64(self):
        adjacency = _node_adjacency(nx.path_graph(5))
        colors = {node: 2**63 + node for node in adjacency}
        assert assert_same_reduction(adjacency, colors)[0] == "ok"

    def test_improper_input_message(self):
        adjacency = _node_adjacency(nx.cycle_graph(6))
        colors = {0: 10, 1: 11, 2: 12, 3: 13, 4: 13, 5: 10}
        outcome = assert_same_reduction(adjacency, colors)
        assert outcome[:2] == ("raised", InvalidInstanceError)
        assert outcome[2].startswith("items 0 and 5 share color 10")

    def test_improper_big_colors(self):
        adjacency = {"a": ["b"], "b": ["a", "c"], "c": ["b"]}
        colors = {"a": 2**70, "b": 2**71, "c": 2**71}
        outcome = assert_same_reduction(adjacency, colors)
        assert outcome[:2] == ("raised", InvalidInstanceError)

    def test_one_round_q_too_small(self):
        adjacency = _node_adjacency(nx.complete_graph(6))
        colors = {node: 3 * node + 1 for node in adjacency}
        params = LinialStepParameters(q=2, k=5)
        outcome = assert_same_round(adjacency, colors, params)
        assert outcome[:2] == ("raised", AlgorithmInvariantError)
        with pytest.raises(AlgorithmInvariantError, match="q=2 too small"):
            _one_round(adjacency, colors, params)

    def test_one_round_improper_after_unresolvable_item(self):
        """An item with no free point before an improper pair: the
        per-item order decides which error is raised."""
        adjacency = _node_adjacency(nx.complete_graph(5))
        colors = {0: 1, 1: 2, 2: 4, 3: 7, 4: 7}
        for q, k in ((2, 3), (3, 2), (5, 2)):
            assert_same_round(adjacency, colors, LinialStepParameters(q=q, k=k))

    def test_one_round_color_too_wide(self):
        adjacency = {0: [1], 1: [0]}
        outcome = assert_same_round(
            adjacency, {0: 1, 1: 100}, LinialStepParameters(q=3, k=2)
        )
        assert outcome[:2] == ("raised", ParameterError)
