"""Self-test of the benchmark in its smoke mode (tiny sizes, no timing checks).

Run from the root of a checkout, either directly or under pytest::

    python3 perfbench/selftest.py
    python3 -m pytest -q perfbench/selftest.py

It runs every workload end to end twice untraced and once traced and
checks that each prints every metric named in ``BENCHMARK.json`` with
its unit, that the checks pass, and that the three runs agree on the
results digest.  It also checks that the benchmark refuses to run,
without printing a result, from a directory that holds only
``BENCHMARK.json`` and the benchmark's own files.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, list[str]]:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=300,
    )
    return done.returncode, done.stdout.strip().splitlines()


def smoke(workload: str, trace: int) -> tuple[dict, str]:
    code, lines = bench("--workload", workload, "--seed", "1", "--seconds", "1",
                        "--trace", str(trace), "--smoke", "--profile", "1")
    assert code == 0, "\n".join(lines)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in expected}
    assert {name: value["unit"] for name, value in result["metrics"].items()} == units
    for value in result["metrics"].values():
        assert isinstance(value["value"], (int, float))
    digest = next(line.split()[1] for line in lines
                  if line.startswith("results_digest "))
    return result, digest


def test_every_workload_reports_every_metric_with_stable_digests() -> None:
    for name in (workload["name"] for workload in SPEC["workloads"]):
        digests = {smoke(name, 0)[1], smoke(name, 0)[1], smoke(name, 1)[1]}
        assert len(digests) == 1, (name, digests)
        assert re.fullmatch(r"[0-9a-f]{64}", digests.pop())


def test_refuses_to_run_without_the_program() -> None:
    bare = ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = bench("--workload", "paper_dense", "--seed", "1",
                        "--seconds", "1", "--trace", "0", cwd=bare)
    assert code != 0
    assert not any(line.startswith("{") for line in lines)


if __name__ == "__main__":
    test_every_workload_reports_every_metric_with_stable_digests()
    test_refuses_to_run_without_the_program()
    print("perfbench selftest ok")
