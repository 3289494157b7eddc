"""End-to-end benchmark of the paper path, with a per-layer traced run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper_dense --seed 1 --seconds 30 --trace 0

Workloads: ``paper_dense``, ``serve_mixed``, ``adversarial`` (see
``workloads.py`` and ``BENCHMARK.json``).  With
``--trace 0`` the run is untraced and reports the end-to-end metrics;
with ``--trace 1`` it alternates untraced and traced passes and reports
the per-layer metrics (``layers.py``).  ``--smoke`` shrinks every size.

Every timing is scaled to a reference host speed by calibration units
run between the timed units (``calibrate.py``); the raw timings are
recorded beside the scaled ones.  Every result is re-checked from
outside, and the sorted result fingerprints of the first pass are
digested; the digest must agree
across passes and with earlier runs of the same source tree on the
same inputs.  A human-readable table goes to stdout, then one JSON
line ``{"correct", "attempted", "failed", "metrics"}``.  A record with
the environment stamp is written under ``.bench_work/records`` (with the
spans of a traced run, and with ``--profile 1`` a cProfile sidecar of
one ``paper_dense`` pass).  The
exit code is 0 only when every check passed; it is 2, with no result
line, when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import cProfile
import io
import json
import os
import pstats
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

#: The latency percentile reported as ``latency_tail_s``: the highest of
#: p50, p60, ..., p90, p95, p99 with at least ten samples beyond it in a
#: 30 s run (paper_dense at least 3 passes of 11 specs, adversarial at
#: least 3 of 37, serve_mixed some 8000 requests).  On paper_dense the
#: d=48, d=32 and complete_bipartite runs are the top 5 of 11 specs, so
#: p60 lies inside the complete_bipartite runs whatever the pass count.
TAIL_PERCENTILE = {"paper_dense": 60, "serve_mixed": 99, "adversarial": 90}
#: Passes a run makes however fast the host is, so that the tail
#: percentile always has ten samples beyond it.
MIN_PASSES = {"paper_dense": 3, "serve_mixed": 1, "adversarial": 3}
SETUP_PROBES = 5

END_TO_END = [("setup_s", "s"), ("specs_per_s", "1/s"),
              ("latency_p50_s", "s"), ("latency_tail_s", "s"),
              ("success_fraction", "ratio"), ("peak_rss_mb", "MiB"),
              ("sim_rounds", "count")]


def bootstrap() -> None:
    """Point imports at the checkout's ``src``; refuse to run without it."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        raise SystemExit(2)
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    os.chdir(ROOT)
    # One CPU for the timed work and its calibration units (calibrate.py);
    # the server subprocess and the set-up probes inherit it.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


# --- set-up ---------------------------------------------------------------


@dataclass
class Setup:
    specs: list[Any] = field(default_factory=list)
    pool: list[Any] = field(default_factory=list)
    files_dir: str = ""
    server: Any = None


def setup(workload: str, seed: int, smoke: bool, workdir: Path,
          server: str | None) -> Setup:
    """Imports, inputs, and (serve_mixed) a running server.

    ``server`` is ``"process"`` for ``repro serve`` in a subprocess,
    ``"thread"`` for an in-process server, ``None`` for none.
    """
    import workloads
    from repro.api import runner  # noqa: F401  (import cost belongs here)

    if workload != "serve_mixed":
        return Setup(specs=workloads.PASSES[workload](seed, smoke))
    import serve_loop

    if workdir.exists():
        shutil.rmtree(workdir)
    files_dir = workdir / "files"
    files_dir.mkdir(parents=True)
    for name, text in workloads.edge_list_files().items():
        (files_dir / name).write_text(text)
    data_dir = workdir / "data"
    running = None
    if server == "process":
        running = serve_loop.ServerProcess(ROOT, data_dir)
    elif server == "thread":
        running = serve_loop.InProcessServer(data_dir)
    return Setup(pool=workloads.hot_pool(seed),
                 files_dir=str(files_dir.relative_to(ROOT)), server=running)


def probe(args: argparse.Namespace) -> int:
    """``--setup-probe``: set up, say ``ready``, tear down."""
    ready = setup(args.workload, args.seed, args.smoke,
                  WORK / "probe" / args.workload, "process")
    print("ready", flush=True)
    if ready.server is not None:
        ready.server.stop()
    return 0


def measure_setup(args: argparse.Namespace) -> list[tuple[float, float]]:
    """``(raw, scaled)`` seconds from process start to ready, per fresh process.

    ``SETUP_PROBES`` processes, one after another, with a calibration
    unit before each and after the last.
    """
    from calibrate import Calibrator

    command = [sys.executable, str(HERE / "run.py"), "--setup-probe",
               "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        command.append("--smoke")
    calibrator = Calibrator()
    spans = []
    for _ in range(SETUP_PROBES):
        calibrator.sample()
        started = time.perf_counter()
        child = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                                 text=True)
        line = child.stdout.readline()
        spans.append((started, time.perf_counter()))
        child.stdout.close()
        try:
            code = child.wait(timeout=60)
        except subprocess.TimeoutExpired:
            child.kill()
            code = child.wait()
        if code != 0 or line.strip() != "ready":
            raise RuntimeError(f"setup probe failed: {line!r}")
    calibrator.sample()
    return [(end - start, (end - start) * calibrator.factor(start, end))
            for start, end in spans]


# --- the runs -----------------------------------------------------------


@dataclass
class Outcome:
    """One spec run or request, reduced to what the metrics need.

    ``started`` is a ``time.perf_counter()`` reading; ``scaled_s`` is
    ``latency_s`` at the reference speed, set once the run has ended.
    """

    label: str
    latency_s: float
    failed: bool
    answered: bool
    fingerprint: str
    summary: dict[str, Any]
    server_s: float = 0.0
    started: float = 0.0
    scaled_s: float = 0.0


@dataclass
class Pass:
    """One pass (or serve cycle) and the seconds the program was busy in it."""

    outcomes: list[Outcome]
    busy_s: float
    scaled_busy_s: float = 0.0


def scale(passes: list[Pass], calibrator: Any) -> None:
    """Set the reference-speed timings of a finished run.

    A pass's busy time is scaled by its outcomes' scale, weighted by
    their latencies: a serial pass's scaled busy time is then the sum
    of its scaled latencies, and a serve cycle's requests share one scale.
    """
    calibrator.sample()
    for one in passes:
        for outcome in one.outcomes:
            outcome.scaled_s = outcome.latency_s * calibrator.factor(
                outcome.started, outcome.started + outcome.latency_s)
        latency = sum(outcome.latency_s for outcome in one.outcomes)
        scaled = sum(outcome.scaled_s for outcome in one.outcomes)
        one.scaled_busy_s = one.busy_s * (scaled / latency if latency else 1.0)


@dataclass
class Trace:
    recorder: Any
    outcomes: list[Outcome] = field(default_factory=list)
    untraced: list[Outcome] = field(default_factory=list)
    sources: dict[str, int] = field(default_factory=dict)


def run_pass(specs: list[Any], recorder: Any = None, calibrator: Any = None,
             ) -> list[tuple[Any, Any, float, float]]:
    """Run every spec cold, serially: ``(spec, result, latency_s, started)`` each.

    Traced with ``recorder``, or calibrated with ``calibrator``, or neither.
    """
    from repro.api import runner

    timed = []
    for spec in specs:
        if calibrator is None:
            span = recorder.enter("bench.unit") if recorder is not None else None
            started = time.perf_counter()
            # ``runner.run`` is looked up per call: the traced run wraps it.
            result = runner.run(spec, cache=False, on_error="capture")
            latency = time.perf_counter() - started
            if span is not None:
                recorder.exit(span)
        else:
            calibrator.sample()
            paused = calibrator.paused_s
            with calibrator.inside():
                started = time.perf_counter()
                result = runner.run(spec, cache=False, on_error="capture")
                latency = time.perf_counter() - started
            latency -= calibrator.paused_s - paused
        timed.append((spec, result, latency, started))
    return timed


def pass_of(timed: list[tuple[Any, Any, float, float]], checker: Any) -> Pass:
    """Check and summarise a pass (outside any traced block: not the program's work)."""
    outcomes = []
    for spec, result, latency, started in timed:
        fingerprint, summary = checker.summarize(spec.instance.to_dict(),
                                                 result.to_dict())
        outcomes.append(Outcome(spec.instance.label(), latency,
                                result.is_failure(), True, fingerprint, summary,
                                started=started))
    return Pass(outcomes, sum(outcome.latency_s for outcome in outcomes))


def keep_going(started: float, units_done: int, seconds: float) -> bool:
    """Start another pass only if it ends closer to the deadline than not."""
    elapsed = time.perf_counter() - started
    return elapsed + elapsed / units_done / 2 < seconds


def tracing_for(trace: bool) -> tuple[Trace | None, Any]:
    """A fresh recorder and a ``traced()`` block factory, or ``(None, None)``."""
    if not trace:
        return None, None
    import layers
    from tracer import SpanRecorder, traced

    layers.import_traced_modules()
    targets, registries = layers.targets()
    tracing = Trace(SpanRecorder())
    return tracing, lambda: traced(tracing.recorder, targets, registries)


def in_process(ready: Setup, seconds: float, min_passes: int, trace: bool,
               checker: Any, calibrator: Any) -> tuple[list[Pass], Trace | None]:
    """Whole passes until ``seconds``; in trace mode, untraced/traced pairs."""
    passes: list[Pass] = []
    tracing, traced_block = tracing_for(trace)
    started = time.perf_counter()
    while True:
        # A traced run reports no end-to-end timings: its untraced passes
        # run uncalibrated, like its traced ones, so trace.overhead_s
        # compares like with like.
        passes.append(pass_of(run_pass(
            ready.specs, None, None if tracing else calibrator), checker))
        if tracing is not None:
            tracing.untraced.extend(passes[-1].outcomes)
            with traced_block():
                timed = run_pass(ready.specs, tracing.recorder)
            passes.append(pass_of(timed, checker))
            tracing.outcomes.extend(passes[-1].outcomes)
        if (len(passes) >= min_passes
                and not keep_going(started, len(passes), seconds)):
            return passes, tracing


def serve(ready: Setup, seed: int, seconds: float, trace: bool, checker: Any,
          calibrator: Any) -> tuple[list[Pass], Trace | None]:
    """Whole request cycles until ``seconds``; traced cycles alternate."""
    import serve_loop
    import workloads

    def send(index: int) -> tuple[list[Any], float]:
        bodies = workloads.serve_cycle(seed, index, ready.pool, ready.files_dir)
        calibrator.sample()
        started = time.perf_counter()
        replies = serve_loop.run_cycle(ready.server.port, bodies)
        return replies, time.perf_counter() - started

    def pass_of_replies(sent: tuple[list[Any], float]) -> Pass:
        """Check and summarise (outside any traced block, like ``pass_of``)."""
        replies, busy = sent
        outcomes = []
        for reply in replies:
            result = None if reply.payload is None else reply.payload["result"]
            fingerprint, summary = checker.summarize(reply.body["instance"], result)
            outcomes.append(Outcome(json.dumps(reply.body["instance"]),
                                    reply.latency_s, reply.failed,
                                    result is not None, fingerprint, summary,
                                    reply.server_s, reply.started))
        return Pass(outcomes, busy)

    cycles: list[Pass] = []
    tracing, traced_block = tracing_for(trace)
    if tracing is not None:
        # The first cycle fills the cache; it is checked and digested
        # but left out of the per-layer figures.
        cycles.append(pass_of_replies(send(0)))
    started = time.perf_counter()
    while True:
        cycles.append(pass_of_replies(send(len(cycles))))
        if tracing is not None:
            tracing.untraced.extend(cycles[-1].outcomes)
            before = serve_loop.run_sources(ready.server.port)
            with traced_block():
                sent = send(len(cycles))
            after = serve_loop.run_sources(ready.server.port)
            cycles.append(pass_of_replies(sent))
            for source in after:
                tracing.sources[source] = (tracing.sources.get(source, 0)
                                           + after[source] - before[source])
            tracing.outcomes.extend(cycles[-1].outcomes)
        if not keep_going(started, len(cycles), seconds):
            return cycles, tracing


# --- metrics --------------------------------------------------------------


def cache_hit_share(sources: dict[str, int]) -> float:
    """Runs served from cache or coalesced, of all runs resolved.

    ``failed`` is left out: the service counts a failure on top of the
    source (executed, cache or coalesced) that produced it.
    """
    hits = sources.get("cache", 0) + sources.get("coalesced", 0)
    runs = hits + sources.get("executed", 0)
    return hits / runs if runs else 0.0


def percentile(values: list[float], pct: float) -> float:
    """Linear-interpolated percentile of ``values`` (``pct`` in [0, 100])."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * pct / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def timings(setup_times: list[float], latencies: list[float], busy: float,
            completed: int, tail: int) -> dict[str, float]:
    """The timing metrics, from raw or from reference-speed figures alike."""
    return {
        "setup_s": statistics.median(setup_times),
        "specs_per_s": completed / busy,
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": percentile(latencies, tail),
    }


def end_to_end(passes: list[Pass], setup_times: list[tuple[float, float]],
               peak_rss_mb: float, workload: str, calibrator: Any,
               ) -> tuple[dict[str, float], dict[str, Any]]:
    """End-to-end metrics (timings at the reference speed) and record details."""
    outcomes = [outcome for one in passes for outcome in one.outcomes]
    latencies = [outcome.scaled_s for outcome in outcomes]
    failed = sum(outcome.failed for outcome in outcomes)
    # serve_mixed counts answered requests (a captured failure is an
    # answer); the in-process workloads count validated results.
    completed = (sum(outcome.answered for outcome in outcomes)
                 if workload == "serve_mixed" else len(outcomes) - failed)
    tail = TAIL_PERCENTILE[workload]
    metrics = {
        **timings([scaled for _raw, scaled in setup_times], latencies,
                  sum(one.scaled_busy_s for one in passes), completed, tail),
        "success_fraction": 1.0 - failed / len(outcomes),
        "peak_rss_mb": peak_rss_mb,
        # Each distinct result of the first pass once: serve_mixed repeats
        # specs, and how often is a property of the stream, not of the solver.
        "sim_rounds": float(sum(
            {outcome.fingerprint: outcome.summary.get("rounds") or 0
             for outcome in passes[0].outcomes}.values())),
    }
    busy = sum(one.busy_s for one in passes)
    info = {
        "attempted": len(outcomes),
        "failed": failed,
        "failed_fraction": failed / len(outcomes),
        "passes": len(passes),
        "busy_s": busy,
        "setup_probes_s": [raw for raw, _scaled in setup_times],
        "setup_probes_scaled_s": [scaled for _raw, scaled in setup_times],
        # The same timings before scaling, as the host ran them.
        "raw_timings": timings([raw for raw, _scaled in setup_times],
                               [outcome.latency_s for outcome in outcomes],
                               busy, completed, tail),
        "host_speed": sum(one.scaled_busy_s for one in passes) / busy,
        "calibration_units_s": calibrator.durations,
        "latency_tail_percentile": tail,
        "latency_samples": len(latencies),
        "latency_samples_beyond_tail": sum(lat > metrics["latency_tail_s"]
                                           for lat in latencies),
        "latency_percentiles_s": {f"p{pct}": percentile(latencies, pct)
                                  for pct in (50, 75, 90, 95, 99)},
    }
    return metrics, info


def traced_metrics(tracing: Trace) -> tuple[dict[str, float], dict[str, Any]]:
    import layers

    outcomes = tracing.outcomes
    traced_wall = sum(outcome.latency_s for outcome in outcomes)
    untraced_wall = sum(outcome.latency_s for outcome in tracing.untraced)
    service: dict[str, float] = {}
    transport = 0.0
    if tracing.sources:
        # Transport is client latency minus the server's own account of
        # it (X-Repro-Elapsed-Ms).  The server's clock starts and stops
        # inside the handler span, so what the spans leave over, and
        # trace.unattributed_s with it, can be negative.
        server = sum(outcome.server_s for outcome in outcomes)
        transport = traced_wall - server
        service = {"service.server.s": server, "service.transport.s": transport,
                   **{f"service.source.{name}": count
                      for name, count in tracing.sources.items()},
                   "api.cache.hit_ratio": cache_hit_share(tracing.sources)}
    # Per-unit breakdown: the line-graph share of the slowest bko20 run.
    spans = tracing.recorder.spans
    root: dict[int, int] = {}
    line_graph: dict[int, float] = {}
    for span_id, parent, name, _thread, _start, _end, self_s, _child in spans:
        root[span_id] = span_id if name == "bench.unit" else root.get(parent, -1)
        if name == "graphs.line_graph":
            line_graph[root[span_id]] = line_graph.get(root[span_id], 0.0) + self_s
    units = [span for span in spans if span[2] == "bench.unit"]
    per_unit = [
        {"instance": outcome.label, "algorithm": outcome.summary.get("name"),
         "latency_s": outcome.latency_s,
         "line_graph_s": line_graph.get(span[0], 0.0)}
        for span, outcome in zip(units, outcomes)
    ]
    bko20 = [unit for unit in per_unit if unit["algorithm"] == "bko20"]
    slowest = max(bko20, key=lambda unit: unit["latency_s"], default=None)
    share = slowest["line_graph_s"] / slowest["latency_s"] if slowest else 0.0
    metrics = layers.per_layer_metrics(
        tracing.recorder, [outcome.summary for outcome in outcomes],
        units=len(outcomes), traced_wall_s=traced_wall,
        untraced_wall_s=untraced_wall, attributed_extra_s=transport,
        service=service, share_slowest=share)
    info = {
        "traced_units": len(outcomes),
        "slowest_bko20": slowest,
        "slowest_bko20_line_graph_share": share,
        "per_unit": per_unit,
        "span_totals": tracing.recorder.totals(),
    }
    return metrics, info


# --- main -----------------------------------------------------------------


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(TAIL_PERCENTILE))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes: every workload in seconds")
    parser.add_argument("--profile", type=int, choices=(0, 1), default=0,
                        help="paper_dense: write a cProfile sidecar of one pass")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    bootstrap()
    if args.setup_probe:
        return probe(args)
    import layers
    from calibrate import Calibrator
    from checks import Checker, check_pinned_digest, results_digest, source_tree_hash
    from repro.telemetry.ledger import snapshot_environment

    setup_times = measure_setup(args)
    workdir = WORK / args.workload
    server = None
    if args.workload == "serve_mixed":
        server = "thread" if args.trace else "process"
    ready = setup(args.workload, args.seed, args.smoke, workdir, server)
    checker = Checker()
    calibrator = Calibrator()
    sources: dict[str, int] = {}
    try:
        if args.workload == "serve_mixed":
            import serve_loop

            before = serve_loop.run_sources(ready.server.port)
            passes, tracing = serve(ready, args.seed, args.seconds, bool(args.trace),
                                    checker, calibrator)
            scale(passes, calibrator)
            after = serve_loop.run_sources(ready.server.port)
            sources = {name: after[name] - before[name] for name in after}
        else:
            passes, tracing = in_process(ready, args.seconds,
                                         MIN_PASSES[args.workload],
                                         bool(args.trace), checker, calibrator)
            scale(passes, calibrator)
        # The solving process: the server subprocess, or this one.
        peak_rss = (ready.server.peak_rss_mb() if server == "process"
                    else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    finally:
        if ready.server is not None:
            ready.server.stop()

    errors = checker.errors
    digest = results_digest(outcome.fingerprint for outcome in passes[0].outcomes)
    mode = "smoke" if args.smoke else "full"
    key = f"{args.workload}:seed={args.seed}:{mode}:{source_tree_hash(SRC, HERE)[:16]}"
    pin_error = check_pinned_digest(WORK / "digests.json", key, digest)
    if pin_error:
        errors.append(pin_error)

    e2e, info = end_to_end(passes, setup_times, peak_rss, args.workload,
                           calibrator)
    record: dict[str, Any] = {
        "workload": args.workload, "seed": args.seed, "smoke": args.smoke,
        "trace": args.trace, "seconds": args.seconds,
        "nproc": os.cpu_count(), "environment": snapshot_environment(),
        "results_digest": digest, "digest_key": key, "errors": errors,
        **info,
    }
    if sources:
        # The shares the serve_mixed figures rest on: a later gain there
        # is stated against them.
        record["request_mix"] = {
            "run_sources": sources,
            "cache_hit_share": cache_hit_share(sources),
            "failed_share": info["failed_fraction"],
        }
    if args.trace:
        # End-to-end figures come from untraced runs only.
        metrics, trace_info = traced_metrics(tracing)
        units = dict(layers.PER_LAYER)
        record.update(trace_info)
        record["per_layer"] = metrics
    else:
        metrics = e2e
        units = dict(END_TO_END)
        record["end_to_end"] = e2e

    record_dir = WORK / "records"
    record_dir.mkdir(parents=True, exist_ok=True)
    stem = (f"{args.workload}-seed{args.seed}-{'trace' if args.trace else 'e2e'}"
            f"{'-smoke' if args.smoke else ''}")
    record_path = record_dir / f"{stem}.json"
    if tracing is not None:
        tracing.recorder.dump(record_dir / f"{stem}.spans.jsonl.gz")
    if args.profile and args.workload == "paper_dense":
        profiler = cProfile.Profile()
        profiler.runcall(run_pass, ready.specs)
        text = io.StringIO()
        pstats.Stats(profiler, stream=text).sort_stats("cumulative").print_stats(40)
        # Paths relative to the checkout and the interpreter, so a record
        # reads the same wherever it was made.
        sidecar = (text.getvalue().replace(f"{ROOT}{os.sep}", "")
                   .replace(sys.base_prefix, "<python>"))
        (record_dir / f"{stem}.profile.txt").write_text(sidecar)
    record_path.write_text(json.dumps(record, indent=1, sort_keys=True, default=str))

    correct = not errors
    for name, value in metrics.items():
        print(f"{name:36s} {value:16.6f} {units[name]}")
    print(f"{'failed_fraction':36s} {info['failed_fraction']:16.6f} ratio")
    if not args.trace:
        print("at the host's own speed (x{:.3f} of the reference): {}".format(
            info["host_speed"], ", ".join(f"{name} {value:.6g}" for name, value
                                          in info["raw_timings"].items())))
    print(f"latency_tail_s is p{info['latency_tail_percentile']} of "
          f"{info['latency_samples']} samples "
          f"({info['latency_samples_beyond_tail']} beyond it)")
    if sources:
        mix = record["request_mix"]
        print(f"request mix: cache-hit share {mix['cache_hit_share']:.4f}, "
              f"failed share {mix['failed_share']:.4f} ({sources})")
    print(f"results_digest {digest}")
    print(f"record {record_path.relative_to(ROOT)}")
    for error in errors:
        print(f"CHECK FAILED: {error}")
    print(json.dumps({
        "correct": correct,
        "attempted": info["attempted"],
        "failed": info["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
