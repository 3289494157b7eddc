"""PRIM — round costs of the primitive subroutines.

Paper claims checked:
1. Cole-Vishkin chain coloring: O(log* X) rounds — doubling the ID
   magnitude repeatedly adds O(1) rounds;
2. Linial reduction: O(log* n) rounds to an O(Δ̄²) palette;
3. Kuhn-Wattenhofer: O(Δ̄ log(m/Δ̄)) — exponentially fewer rounds than
   the trivial one-color-per-round reduction;
4. the message-passing Linial (real simulator messages) matches the
   functional form's round count, also on the line graph of the
   ``paper_dense`` d=48 instance, where the functional form's wall time
   is recorded.
"""

import time

import pytest

from repro.analysis.tables import format_table
from repro.graphs.generators import random_regular
from repro.graphs.line_graph import line_graph_adjacency
from repro.graphs.properties import assign_unique_ids
from repro.model.edge_network import line_graph_network
from repro.model.network import Network
from repro.model.scheduler import Scheduler
from repro.primitives.chain_coloring import three_color_chain
from repro.primitives.color_reduction import (
    kuhn_wattenhofer_reduction,
    one_color_per_round_reduction,
)
from repro.primitives.linial import linial_fixpoint_palette, linial_reduce
from repro.primitives.node_algorithms import LinialColorReductionAlgorithm
from repro.utils.chains import Chain
from repro.utils.logstar import log_star

from conftest import report


def test_prim_cole_vishkin_logstar(benchmark):
    rows = []
    length = 512
    chain = Chain(tuple(range(length)), cyclic=True)
    for magnitude in (10**3, 10**6, 10**12, 10**18):
        ids = {i: magnitude + i * 7919 for i in range(length)}
        result = three_color_chain(chain, ids)
        assert set(result.colors.values()) <= {0, 1, 2}
        rows.append([f"1e{len(str(magnitude)) - 1}",
                     log_star(magnitude), result.rounds])
    # ID magnitude grew by 15 orders; rounds moved by at most log* + 2
    measured = [row[2] for row in rows]
    assert max(measured) - min(measured) <= 4
    report(format_table(
        ["ID magnitude X", "log* X", "CV rounds"],
        rows,
        title="PRIM: Cole-Vishkin rounds vs ID magnitude (log* growth)",
    ))
    ids = {i: 10**9 + i * 7919 for i in range(length)}
    benchmark(lambda: three_color_chain(chain, ids))


def test_prim_linial_functional_vs_simulated(benchmark):
    graph = random_regular(4, 20, seed=3)
    network = Network(graph, ids=assign_unique_ids(graph, seed=9))
    adjacency = {node: sorted(graph.neighbors(node)) for node in graph.nodes()}
    functional = linial_reduce(adjacency, network.ids())
    simulated = Scheduler(network).run(
        LinialColorReductionAlgorithm(id_space=network.max_id())
    )
    assert abs(simulated.rounds - functional.rounds) <= 1
    report(format_table(
        ["form", "rounds", "palette"],
        [
            ["functional", functional.rounds, functional.palette_size],
            ["message-passing", simulated.rounds,
             max(simulated.outputs.values()) + 1],
        ],
        title="PRIM: Linial reduction — functional vs simulated",
    ))
    benchmark(lambda: linial_reduce(adjacency, network.ids()))


@pytest.mark.slow
def test_prim_linial_paper_dense_line_graph(benchmark):
    """Linial on the line graph of ``random_regular(48, 192)``: 4608
    items of degree 94, the largest initial coloring of ``paper_dense``.

    The reduction stops once the smallest valid ``q`` no longer shrinks
    the palette.  Here that is ``q = 191 = next_prime(2·94 + 1)`` with
    ``k = 2``, so the palette it reaches is bounded by
    ``linial_fixpoint_palette(2·degree)``; ``linial_fixpoint_palette(
    degree)`` (97² = 9409) is not reached on this instance.
    """
    graph = random_regular(48, 192, seed=1)
    adjacency = line_graph_adjacency(graph)
    network = line_graph_network(graph, assign_unique_ids(graph, seed=1))
    ids = network.ids()
    degree = max(len(neighbors) for neighbors in adjacency.values())

    start = time.perf_counter()
    functional = linial_reduce(adjacency, ids)
    wall_s = time.perf_counter() - start
    for item, neighbors in adjacency.items():
        for other in neighbors:
            assert functional.colors[item] != functional.colors[other]
    assert functional.palette_size <= linial_fixpoint_palette(2 * degree)

    simulated = Scheduler(network).run(
        LinialColorReductionAlgorithm(id_space=network.max_id())
    )
    assert abs(simulated.rounds - functional.rounds) <= 1
    report(format_table(
        ["form", "items", "degree", "rounds", "palette", "wall s"],
        [
            ["functional", len(adjacency), degree, functional.rounds,
             functional.palette_size, f"{wall_s:.3f}"],
            ["message-passing", len(adjacency), degree, simulated.rounds,
             max(simulated.outputs.values()) + 1, "-"],
        ],
        title=(
            "PRIM: Linial on the paper_dense d=48 line graph "
            f"(fixpoint_palette(d)={linial_fixpoint_palette(degree)}, "
            f"(2d)={linial_fixpoint_palette(2 * degree)})"
        ),
    ))
    benchmark.pedantic(lambda: linial_reduce(adjacency, ids), rounds=3)


def test_prim_kw_vs_trivial_reduction(benchmark):
    graph = random_regular(4, 24, seed=6)
    adjacency = {node: sorted(graph.neighbors(node)) for node in graph.nodes()}
    colors = {
        node: value * 500 for node, value in assign_unique_ids(graph).items()
    }
    kw = kuhn_wattenhofer_reduction(adjacency, colors)
    trivial = one_color_per_round_reduction(adjacency, colors)
    # both reach the d+1 = 5 target (KW may use even fewer if a color
    # class ends up empty)
    assert kw.palette_size <= 5 and trivial.palette_size <= 5
    assert kw.rounds * 10 < trivial.rounds
    report(format_table(
        ["reduction", "rounds", "final palette"],
        [
            ["Kuhn-Wattenhofer O(Δ̄ log m)", kw.rounds, kw.palette_size],
            ["one-color-per-round O(m)", trivial.rounds, trivial.palette_size],
        ],
        title="PRIM: palette reduction — parallel halving vs trivial",
    ))
    benchmark(lambda: kuhn_wattenhofer_reduction(adjacency, colors))
