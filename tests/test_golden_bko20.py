"""Pinned ``bko20`` result fingerprints.

``tests/golden/bko20_fingerprints.json`` holds the result fingerprint
of ``bko20`` on a fixed set of small instances.  A result fingerprint
covers the whole coloring, the round count and the solver's counters,
so any change to the paper path's output shows up here as a diff.
Refactors and speed-ups must leave the file untouched; a change that
alters results on purpose regenerates it with::

    PYTHONPATH=src python tests/test_golden_bko20.py

and explains the diff in CHANGES.md.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.api import InstanceSpec, RunSpec, run

GOLDEN = Path(__file__).parent / "golden" / "bko20_fingerprints.json"

#: (family, size, policy) cells; each runs under both seeds.
CELLS = [
    ("random_regular", 4, None),
    ("random_regular", 6, None),
    ("complete_bipartite", 5, None),
    ("complete_bipartite", 8, None),
    ("blow_up_cycle", 2, None),
    ("blow_up_cycle", 3, None),
]
SEEDS = (1, 2)
#: An instance on which Lemma 4.3's color space reduction engages.
LEMMA43_CASE = ("complete_bipartite", 25, "machinery", 1)


def golden_cases() -> list[tuple[str, int, str | None, int]]:
    cases = [(f, size, policy, seed) for f, size, policy in CELLS for seed in SEEDS]
    return cases + [LEMMA43_CASE]


def case_id(family: str, size: int, policy: str | None, seed: int) -> str:
    return f"{family}[{size}]-{policy or 'default'}-seed{seed}"


def compute(family: str, size: int, policy: str | None, seed: int) -> dict:
    spec = RunSpec(
        instance=InstanceSpec(family=family, size=size, seed=seed),
        algorithm="bko20",
        policy=policy,
    )
    result = run(spec, cache=False)
    return {
        "result_fingerprint": result.result_fingerprint(),
        "rounds": result.rounds,
        "lem43_reductions": result.stats.get("lem43/reductions", 0),
    }


def load_golden() -> dict[str, dict]:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize(
    "case", golden_cases(), ids=[case_id(*case) for case in golden_cases()]
)
def test_bko20_result_matches_golden(case):
    expected = load_golden()[case_id(*case)]
    assert compute(*case) == expected


def test_golden_file_covers_exactly_the_cases():
    assert set(load_golden()) == {case_id(*case) for case in golden_cases()}


def test_lemma43_case_engages_the_reduction():
    assert load_golden()[case_id(*LEMMA43_CASE)]["lem43_reductions"] > 0


if __name__ == "__main__":
    table = {case_id(*case): compute(*case) for case in golden_cases()}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(table)} fingerprints to {GOLDEN}", file=sys.stderr)
