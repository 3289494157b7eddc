"""The benchmark's three workloads, generated from a workload seed.

Each workload is a fixed *composition* of run specs; the seed only
chooses instance seeds, run seeds, adversary seeds and request order,
so two seeds exercise the same mix of sizes and algorithms
(``serve_mixed`` keeps its instances and edge-list files fixed, see
``hot_pool``).  The
in-process workloads repeat one *pass* (a list of specs) for as long
as the run lasts; ``serve_mixed`` repeats *cycles* of HTTP request
bodies, each cycle with fresh cold specs.

``smoke=True`` shrinks every size so all three workloads finish in
seconds; the composition and the code paths stay the same.
"""

from __future__ import annotations

import random
from typing import Any

from repro.api import InstanceSpec, RunSpec, algorithm_names
from repro.scenarios import ScenarioSpec

#: Requests per serve_mixed cycle, by kind (fixed, so every cycle has
#: the same mix of cache hits, cold runs and edge-list files).  The
#: split is a synthetic assumption, not measured traffic: the project
#: has no request log to fit it to.
HOT_PER_CYCLE = 78
COLD_PER_CYCLE = 16
FILE_REQUESTS = ("clean_0", "clean_1", "clean_2", "clean_3", "mixed_0", "mixed_1")


def _rng(workload: str, seed: int, *salt: object) -> random.Random:
    return random.Random(":".join(map(str, (workload, seed, *salt))))


def _spec(family: str, size: int, seed: int, algorithm: str = "bko20",
          run_seed: int | None = None,
          scenario: ScenarioSpec | None = None) -> RunSpec:
    return RunSpec(
        InstanceSpec(family=family, size=size, seed=seed),
        algorithm=algorithm,
        run_seed=run_seed,
        scenario=scenario,
    )


def paper_dense(seed: int, smoke: bool) -> list[RunSpec]:
    """bko20 on the paper's dense instances, Δ̄ up to 94 (d=48)."""
    rng = _rng("paper_dense", seed)
    draw = lambda: rng.randrange(1, 1 << 30)  # noqa: E731
    if smoke:
        cells = [("random_regular", 4, 2), ("random_regular", 6, 1),
                 ("complete_bipartite", 4, 1), ("blow_up_cycle", 2, 1)]
    else:
        cells = [("random_regular", 16, 4), ("random_regular", 32, 1),
                 ("random_regular", 48, 1), ("complete_bipartite", 24, 3),
                 ("blow_up_cycle", 8, 2)]
    return [
        _spec(family, size, draw(), run_seed=draw())
        for family, size, count in cells
        for _ in range(count)
    ]


def adversarial(seed: int, smoke: bool) -> list[RunSpec]:
    """Scenario programs cold under the three adversarial models.

    Each (program, model) cell runs on four seeds, so one seed's early
    abort moves the pass less.  ``greedy_sequential`` runs one sweep
    round per agent, so it gets a smaller torus than the other
    programs; one ``randomized_luby`` cell runs at more than 10k agents.
    """
    rng = _rng("adversarial", seed)
    draw = lambda: rng.randrange(1, 1 << 30)  # noqa: E731
    mid, small, large = (4, 3, 8) if smoke else (16, 8, 71)
    models = (("crash_stop", {"f": 3}), ("lossy_links", {}),
              ("bounded_async", {}))
    cells = [("linial_greedy", mid), ("randomized_luby", mid),
             ("greedy_sequential", small)]
    specs = [
        _spec("torus", size, draw(), algorithm, run_seed=draw(),
              scenario=ScenarioSpec(model=model, seed=draw(), params=params))
        for algorithm, size in cells
        for model, params in models
        for _ in range(4)
    ]
    specs.append(_spec(
        "torus", large, draw(), "randomized_luby", run_seed=draw(),
        scenario=ScenarioSpec(model="bounded_async", seed=draw()),
    ))
    return specs


# --- serve_mixed --------------------------------------------------------

_SERVE_FAMILIES = (("random_regular", 4), ("torus", 4), ("erdos_renyi", 16))


def _edge_list_text(rng: random.Random, labels: list[str]) -> str:
    """A random simple graph on ``labels``: a Hamiltonian cycle plus chords."""
    n = len(labels)
    order = list(range(n))
    rng.shuffle(order)
    edges = {frozenset(pair) for pair in zip(order, order[1:] + order[:1])}
    while len(edges) < 2 * n:
        edges.add(frozenset(rng.sample(range(n), 2)))
    pairs = sorted(tuple(sorted(edge)) for edge in edges)
    return "".join(f"{labels[a]} {labels[b]}\n" for a, b in pairs)


def edge_list_files() -> dict[str, str]:
    """File name -> content for the edge-list inputs of serve_mixed.

    The same files for every seed: whether a mixed-label file trips the
    program's ``TypeError`` depends on its graph, and a seed that drew
    one that does not would move ``success_fraction`` and
    ``sim_rounds`` by a whole file.
    """
    rng = random.Random("serve_mixed:files")
    files = {}
    for index, name in enumerate(FILE_REQUESTS):
        if name.startswith("mixed"):
            # Integer and string labels side by side, as read_edge_list
            # returns them for a file like "a b / b 1 / 1 2 / 2 a".
            labels = [str(i) if i % 2 else f"v{i}" for i in range(12)]
        elif index % 2:
            labels = [f"v{i}" for i in range(12)]
        else:
            labels = [str(i) for i in range(12)]
        files[f"{name}.txt"] = _edge_list_text(rng, labels)
    return files


def _instance_seeds(*salt: object) -> random.Random:
    """serve_mixed's instance seeds: the same for every workload seed.

    The workload measures the service, not the solver, so every seed
    asks for the same graphs and files; the seed picks run seeds and
    request order.  Simulated rounds then repeat across seeds.
    """
    return random.Random(":".join(map(str, ("serve_mixed", "instances", *salt))))


def hot_pool(seed: int) -> list[RunSpec]:
    """The repeat-heavy pool: all algorithms × 3 small families × 2 instances."""
    rng = _rng("serve_mixed", seed, "hot")
    instances = _instance_seeds("hot")
    seeds = [instances.randrange(1, 1 << 30) for _ in range(2)]
    return [
        _spec(family, size, instance_seed, algorithm,
              run_seed=rng.randrange(1, 1 << 30))
        for instance_seed in seeds
        for family, size in _SERVE_FAMILIES
        for algorithm in algorithm_names()
    ]


def _zipf_counts(n: int, total: int, exponent: float = 1.1) -> list[int]:
    """Fixed request counts per popularity rank (largest remainder)."""
    shares = [total / (rank + 1) ** exponent for rank in range(n)]
    scale = total / sum(shares)
    shares = [share * scale for share in shares]
    counts = [int(share) for share in shares]
    by_remainder = sorted(range(n), key=lambda i: shares[i] - counts[i],
                          reverse=True)
    for i in by_remainder[: total - sum(counts)]:
        counts[i] += 1
    return counts


def serve_cycle(seed: int, cycle: int, pool: list[RunSpec],
                files_dir: str) -> list[dict[str, Any]]:
    """The request bodies of one serve_mixed cycle, in send order.

    Every cycle has the same make-up: ``HOT_PER_CYCLE`` draws from the
    hot pool with fixed Zipf counts, ``COLD_PER_CYCLE`` specs never
    sent before, and one request per edge-list file.
    """
    # The popularity order is the same for every seed (the seed picks
    # the instances), so each cycle costs the same amount of solving.
    ranked = list(pool)
    random.Random("serve_mixed:ranks").shuffle(ranked)
    bodies: list[dict[str, Any]] = []
    for spec, count in zip(ranked, _zipf_counts(len(ranked), HOT_PER_CYCLE)):
        bodies.extend([spec.to_dict()] * count)
    algorithms = algorithm_names()
    rng = _rng("serve_mixed", seed, "cycle", cycle)
    instances = _instance_seeds("cold", cycle)
    for j in range(COLD_PER_CYCLE):
        family, size = _SERVE_FAMILIES[j % len(_SERVE_FAMILIES)]
        algorithm = algorithms[j % len(algorithms)]
        bodies.append(_spec(family, size, instances.randrange(1, 1 << 30),
                            algorithm, run_seed=rng.randrange(1, 1 << 30),
                            ).to_dict())
    for j, name in enumerate(FILE_REQUESTS):
        spec = RunSpec(InstanceSpec(path=f"{files_dir}/{name}.txt"),
                       algorithm=algorithms[j % len(algorithms)])
        bodies.append(spec.to_dict())
    rng.shuffle(bodies)
    return bodies


#: The in-process workloads: name -> ``(seed, smoke) -> specs`` of one pass.
PASSES = {
    "paper_dense": paper_dense,
    "adversarial": adversarial,
}
