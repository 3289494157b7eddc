"""Which public functions the traced run wraps, and the per-layer metrics.

Every per-layer metric is normalised per result (one spec run, or one
HTTP request on ``serve_mixed``): a ``.s``/``.self_s`` metric is self
time in seconds per result, a ``.calls``/count metric is a count per
result.  So ``graphs.line_graph.calls`` reads 5 on ``paper_dense``
when each ``bko20`` run builds the line graph five times.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping

from tracer import SpanRecorder, Target

BASELINES = ("greedy_sequential", "kuhn_soda20", "kuhn_wattenhofer",
             "linial_greedy", "panconesi_rizzi", "randomized_luby")


def _count_ledger_row(recorder: SpanRecorder, args, kwargs, result) -> None:
    if args and args[0] is not None:
        recorder.count("telemetry.ledger.append.rows")


def _count_publish_bytes(recorder: SpanRecorder, args, kwargs, result) -> None:
    from repro.api.diskcache import disk_path

    path = disk_path(args[0], args[1])
    if path.exists():
        recorder.count("api.diskcache.publish.bytes", path.stat().st_size)


def _count_execution(recorder: SpanRecorder, args, kwargs, result) -> None:
    recorder.count("model.rounds", result.rounds)
    recorder.count("model.messages_delivered", result.messages_sent)


TARGETS = [
    Target("graphs.build", "repro.api.spec", "InstanceSpec.build"),
    Target("graphs.io", "repro.graphs.io", "read_edge_list"),
    Target("graphs.line_graph", "repro.graphs.line_graph", "line_graph_adjacency"),
    Target("graphs.edge_set", "repro.graphs.edges", "edge_set"),
    Target("primitives.linial", "repro.primitives.linial", "linial_reduce"),
    Target("primitives.defective", "repro.primitives.defective",
           "defective_edge_coloring"),
    Target("primitives.kw", "repro.primitives.color_reduction",
           "kuhn_wattenhofer_reduction"),
    Target("core.initial_coloring", "repro.core.solver",
           "compute_initial_edge_coloring"),
    Target("core.solve", "repro.core.solver", "RecursiveSolver.solve_internal"),
    Target("core.lem43", "repro.core.space_reduction", "reduce_color_space"),
    Target("coloring.validate", "repro.coloring.verify",
           "check_proper_edge_coloring"),
    Target("results.fingerprint", "repro.api.spec", "RunSpec.fingerprint"),
    Target("results.fingerprint", "repro.api.spec", "InstanceSpec.fingerprint"),
    Target("results.fingerprint", "repro.results", "RunResult.result_fingerprint"),
    Target("results.serialize", "repro.results", "RunResult.to_dict"),
    Target("results.serialize", "repro.results", "RunResult.from_dict"),
    Target("results.serialize", "repro.results", "FailedResult.to_dict"),
    Target("results.serialize", "repro.results", "FailedResult.from_dict"),
    Target("api.run", "repro.api.runner", "run"),
    Target("api.diskcache.publish", "repro.api.diskcache", "disk_store",
           _count_publish_bytes),
    Target("api.diskcache.load", "repro.api.diskcache", "disk_load"),
    Target("telemetry.ledger.append", "repro.telemetry.ledger", "record_run",
           _count_ledger_row),
    Target("service.handler", "repro.service.http", "ServiceHandler._dispatch"),
    Target("model.scheduler", "repro.model.scheduler", "Scheduler.run",
           _count_execution),
    Target("scenarios.execute", "repro.scenarios.executor", "execute_scenario"),
    Target("scenarios.validate", "repro.scenarios.executor",
           "validate_scenario_result"),
]


def import_traced_modules() -> None:
    """Import every module a target lives in, so wrapping finds them all."""
    import importlib

    for target in TARGETS:
        importlib.import_module(target.module)
    importlib.import_module("repro.scenarios.programs")  # binds Scheduler


def targets() -> tuple[list[Target], list[dict]]:
    """All targets plus the registries whose entries they replace.

    Baselines are traced under ``baselines.<name>``, found through the
    baseline registry (which the unified algorithm registry reads).
    """
    from repro.baselines import registry

    baselines = registry.all_baselines()
    extra = [
        Target(f"baselines.{name}", baselines[name].__module__,
               baselines[name].__name__)
        for name in BASELINES
    ]
    return TARGETS + extra, [registry._REGISTRY]


#: (metric, unit) in the order BENCHMARK.json lists them.
PER_LAYER = [
    ("graphs.build.s", "s"), ("graphs.io.s", "s"),
    ("graphs.line_graph.s", "s"), ("graphs.line_graph.calls", "count"),
    ("graphs.line_graph.share_slowest", "ratio"),
    ("graphs.edge_set.s", "s"), ("graphs.edge_set.calls", "count"),
    ("primitives.linial.s", "s"), ("primitives.linial.calls", "count"),
    ("primitives.defective.s", "s"), ("primitives.kw.s", "s"),
    ("core.initial_coloring.s", "s"), ("core.solve.self_s", "s"),
    ("core.lem43.s", "s"), ("core.lem43.calls", "count"),
    ("core.deferred_edges", "count"), ("core.max_depth", "count"),
    ("coloring.validate.s", "s"), ("coloring.validate.calls", "count"),
    *[(f"baselines.{name}.s", "s") for name in BASELINES],
    ("results.fingerprint.s", "s"), ("results.serialize.s", "s"),
    ("api.run.self_s", "s"), ("api.diskcache.publish.s", "s"),
    ("api.diskcache.publish.bytes", "bytes"), ("api.diskcache.load.s", "s"),
    ("api.cache.hit_ratio", "ratio"),
    ("telemetry.ledger.append.s", "s"), ("telemetry.ledger.append.rows", "count"),
    ("service.server.s", "s"), ("service.handler.self_s", "s"),
    ("service.transport.s", "s"),
    ("service.source.executed", "count"), ("service.source.cache", "count"),
    ("service.source.coalesced", "count"), ("service.source.failed", "count"),
    ("model.scheduler.s", "s"), ("model.scheduler.calls", "count"),
    ("model.rounds", "count"), ("model.messages_delivered", "count"),
    ("model.messages_per_s", "1/s"),
    ("scenarios.execute.self_s", "s"), ("scenarios.validate.s", "s"),
    ("scenarios.messages_dropped", "count"),
    ("scenarios.messages_deferred", "count"),
    ("trace.wall_s", "s"), ("trace.unattributed_s", "s"),
    ("trace.overhead_s", "s"),
]

#: Layers whose span self time is reported as ``.self_s`` (they wrap
#: other traced layers); every other layer reports ``.s``.
_SELF_S = {"core.solve", "api.run", "scenarios.execute", "service.handler"}


def per_layer_metrics(
    recorder: SpanRecorder,
    results: Iterable[Mapping[str, Any]],
    *,
    units: int,
    traced_wall_s: float,
    untraced_wall_s: float,
    attributed_extra_s: float = 0.0,
    service: Mapping[str, float] | None = None,
    share_slowest: float = 0.0,
) -> dict[str, float]:
    """Fold spans, counters and result dicts into per-result metrics.

    ``traced_wall_s``/``untraced_wall_s`` are the busy seconds of the
    traced and untraced units; ``attributed_extra_s`` is time measured
    outside spans that still belongs to a layer (HTTP transport).
    """
    totals = recorder.totals()
    values: dict[str, float] = {name: 0.0 for name, _unit in PER_LAYER}
    attributed = attributed_extra_s
    for layer, entry in totals.items():
        if layer.startswith("bench."):
            continue
        attributed += entry["self_s"]
        key = f"{layer}.self_s" if layer in _SELF_S else f"{layer}.s"
        if key in values:
            values[key] = entry["self_s"]
        if f"{layer}.calls" in values:
            values[f"{layer}.calls"] = entry["calls"]
    max_depth = 0
    for result in results:
        stats = result.get("stats") or {}
        details = result.get("details") or {}
        values["core.deferred_edges"] += stats.get("deferred_edges", 0)
        max_depth = max(max_depth, stats.get("max_depth_seen", 0))
        values["scenarios.messages_dropped"] += details.get("messages_dropped", 0)
        values["scenarios.messages_deferred"] += details.get("messages_deferred", 0)
    for name, amount in [*recorder.counters.items(), *(service or {}).items()]:
        if name in values:  # a metric BENCHMARK.json names
            values[name] = amount
    values["trace.wall_s"] = traced_wall_s
    values["trace.unattributed_s"] = traced_wall_s - attributed
    values["trace.overhead_s"] = traced_wall_s - untraced_wall_s
    per_result = {name: value / units for name, value in values.items()}
    # Ratios and maxima are not per-result quantities.
    scheduler = totals.get("model.scheduler")
    if scheduler and scheduler["total_s"] > 0:
        per_result["model.messages_per_s"] = (
            values["model.messages_delivered"] / scheduler["total_s"]
        )
    per_result["core.max_depth"] = max_depth
    per_result["graphs.line_graph.share_slowest"] = share_slowest
    per_result["api.cache.hit_ratio"] = values["api.cache.hit_ratio"]
    return per_result
