"""How many times one run builds the line graph.

The paper path builds the line-graph adjacency once per (sub-)instance
and shares it; the executor's validation builds its own copy from the
graph so that check stays independent.  These tests count the calls to
:func:`repro.graphs.line_graph.line_graph_adjacency` to hold that.
"""

from __future__ import annotations

import sys

import networkx as nx
import pytest

from repro.api import InstanceSpec, RunSpec, run
from repro.core import solver as solver_module
from repro.core.params import fixed_policy
from repro.core.solver import solve_edge_coloring
from repro.graphs import line_graph as line_graph_module
from repro.graphs.families import build_family


@pytest.fixture
def builds(monkeypatch) -> list[nx.Graph]:
    """Record the graph of every line-graph build during the test.

    Modules import the builder by name, so every ``repro`` module
    attribute bound to it is swapped for the counting wrapper.
    """
    original = line_graph_module.line_graph_adjacency
    graphs: list[nx.Graph] = []

    def counting(graph):
        graphs.append(graph)
        return original(graph)

    for name, module in list(sys.modules.items()):
        if name == "repro" or name.startswith("repro."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counting)
    return graphs


def test_executor_run_builds_twice(builds):
    spec = RunSpec(
        instance=InstanceSpec(family="random_regular", size=4, seed=1),
        algorithm="bko20",
    )
    run(spec, cache=False)
    # One for the solver (shared by every stage), one for the executor's
    # independent validation.
    assert len(builds) == 2


def test_direct_solve_builds_once(builds):
    graph = build_family("random_regular", 4, 1)
    solve_edge_coloring(graph, seed=1)
    assert len(builds) == 1
    assert builds[0] is graph


def test_lemma43_builds_once_per_child_graph(builds, monkeypatch):
    children: list[nx.Graph] = []
    original_init = solver_module.RecursiveSolver.__init__

    def recording_init(self, graph, *args, **kwargs):
        if kwargs.get("depth", 0) > 0:
            children.append(graph)
        original_init(self, graph, *args, **kwargs)

    monkeypatch.setattr(solver_module.RecursiveSolver, "__init__", recording_init)
    # K_{32,32} under a constant split of 16 reaches Lemma 4.3's E(1)/E(2)
    # phases, whose subspace-index instances each get a child solver.
    policy = fixed_policy(2, 16, base_degree_threshold=4, base_palette_threshold=6)
    graph = build_family("complete_bipartite", 32, 1)
    result = solve_edge_coloring(graph, policy=policy, seed=1)
    assert result.stats["lem43/reductions"] > 0
    assert children, "Lemma 4.3 spawned no child solver"
    assert [id(g) for g in builds] == [id(g) for g in [graph, *children]]
