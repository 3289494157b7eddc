"""Output checks: re-verify every coloring and digest the results.

The executor already validates each run; the benchmark checks again
from the outside with :mod:`repro.coloring.verify` (and, for scenario
results, the executor's survivor re-check), so a run that returns a
wrong coloring fails the benchmark even if the program's own check
were switched off or broken.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Any, Iterable, Mapping

from repro.api import InstanceSpec
from repro.coloring.verify import check_palette_bound, check_proper_edge_coloring
from repro.results import RunResult, fingerprint_of
from repro.scenarios import is_scenario_result, validate_scenario_result


def portable_fingerprint(result: Mapping[str, Any]) -> str:
    """The result fingerprint, with failure records made path-free.

    A captured failure's canonical record carries a digest of its
    traceback, whose text names the source files by absolute path; two
    checkouts of the same code would disagree on it.  The digest keeps
    the failure's type, message and spec fingerprint instead.
    """
    if "failure" in result:
        failure = dict(result["failure"])
        failure.pop("traceback_digest", None)
        return fingerprint_of({**result, "failure": failure})
    return fingerprint_of(result)


def results_digest(fingerprints: Iterable[str]) -> str:
    """SHA-256 over the sorted result fingerprints."""
    return hashlib.sha256("\n".join(sorted(fingerprints)).encode()).hexdigest()


def verify_result(instance: Mapping[str, Any], result: Mapping[str, Any]) -> None:
    """Raise unless ``result`` (a ``to_dict`` form) is a valid coloring."""
    if "failure" in result:
        return
    graph = InstanceSpec.from_dict(instance).build()
    parsed = RunResult.from_dict(result)
    if is_scenario_result(parsed):
        validate_scenario_result(parsed, graph)
        return
    check_proper_edge_coloring(graph, parsed.coloring)
    if parsed.palette_size:
        check_palette_bound(parsed.coloring, parsed.palette_size)


class Checker:
    """Verifies each distinct result once and holds repeated specs to one answer."""

    def __init__(self) -> None:
        self.errors: list[str] = []
        self._verified: set[str] = set()
        self._result_of_spec: dict[str, str] = {}

    def summarize(self, instance: Mapping[str, Any],
                  result: Mapping[str, Any] | None) -> tuple[str, dict[str, Any]]:
        """``(portable fingerprint, result without its coloring)``.

        A ``None`` result (a refused request) fingerprints as ``refused``.
        """
        if result is None:
            return "refused", {}
        fingerprint = portable_fingerprint(result)
        if fingerprint not in self._verified:
            self._verified.add(fingerprint)
            try:
                verify_result(instance, result)
            except Exception as exc:  # any failed check fails the run
                self.errors.append(f"{dict(instance)}: {exc!r}")
        # The same spec (by spec fingerprint) must always get the same
        # result: executed, cached or coalesced, in any pass.
        spec = result.get("fingerprint", "")
        if self._result_of_spec.setdefault(spec, fingerprint) != fingerprint:
            self.errors.append(f"spec {spec} returned two different results")
        return fingerprint, {key: result.get(key)
                             for key in ("name", "rounds", "stats", "details")}


def source_tree_hash(*roots: Path) -> str:
    """SHA-256 over the Python sources under ``roots`` (names and bytes)."""
    digest = hashlib.sha256()
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            digest.update(f"{root.name}/{path.relative_to(root)}".encode() + b"\0")
            digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def check_pinned_digest(state_file: Path, key: str, digest: str) -> str | None:
    """Pin ``digest`` under ``key``; return an error if a pin disagrees.

    The key names the workload, seed, size mode and source-tree hash, so
    only runs of the same code on the same inputs are compared.
    """
    pins: dict[str, str] = {}
    if state_file.exists():
        pins = json.loads(state_file.read_text())
    pinned = pins.get(key)
    if pinned is not None:
        if pinned != digest:
            return f"results_digest {digest} differs from {pinned} pinned for {key}"
        return None
    pins[key] = digest
    state_file.parent.mkdir(parents=True, exist_ok=True)
    tmp = state_file.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(pins, indent=1, sort_keys=True))
    os.replace(tmp, state_file)
    return None
