"""Golden D3 records: the repr of every estimate and stderr of a fixed set of
seeded runs, compared exactly, so a change shows which record bits it moved.

D3 estimates are hit counts over trials, so their bits do not depend on the
platform.  Frame records are left out: their floats go through numpy's SIMD
sin, cos, tan and arccos, which may differ in the last bits between CPUs.

Regenerate the data with

    PYTHONPATH=src python tests/test_golden_records.py --write

A change that rewrites it lists the moved configs and says why.
"""

from __future__ import annotations

import json
import math
import os
import sys

from spindir.cli import build_run_config
from spindir.harness import run_experiment

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "golden_records.json")

_PROTOCOLS = (
    [{"kind": "d3-single", "num_spins": 1}, {"kind": "d3-covariant", "num_spins": 2}]
    + [
        {"kind": "d3-repeated", "num_spins": n, "tie_break": tie_break}
        for n in (1, 2, 3, 9, 256)
        for tie_break in ("random", "lowest-index")
    ]
    + [{"kind": "d3-coherent", "num_spins": n} for n in (1, 6, 24)]
)
# one trial, a short partial batch, and one full batch plus one trial
_TRIALS = (1, 7, 8193)
_SEEDS = (1, 7)


def golden_records() -> dict:
    """{config name: {"estimates": {key: repr}, "stderrs": {key: repr}}}."""
    records = {}
    for protocol in _PROTOCOLS:
        for trials in _TRIALS:
            for seed in _SEEDS:
                settings = dict(protocol, trials=trials, seed=seed)
                result = run_experiment(build_run_config(settings))
                name = "-".join(f"{k}={v}" for k, v in settings.items())
                records[name] = {
                    "estimates": {k: repr(v) for k, v in sorted(result.estimates.items())},
                    "stderrs": {k: repr(v) for k, v in sorted(result.stderrs.items())},
                }
    return records


def _relative_move(want: float, got: float) -> float:
    if got == want:
        return 0.0
    return abs(got - want) / abs(want) if want else math.inf


def _largest_relative_move(want: dict, got: dict) -> float:
    return max(
        _relative_move(float(w), float(got[part][key]))
        for part in ("estimates", "stderrs")
        for key, w in want[part].items()
    )


def test_d3_records_are_bit_identical():
    with open(DATA) as f:
        want = json.load(f)
    got = golden_records()
    assert sorted(got) == sorted(want), "the golden configs changed; regenerate the data"
    moved = [
        f"{name} (largest relative move {_largest_relative_move(want[name], got[name]):.3g})"
        for name in want
        if got[name] != want[name]
    ]
    assert not moved, f"{len(moved)} records moved:\n" + "\n".join(moved)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: python {sys.argv[0]} --write")
    os.makedirs(os.path.dirname(DATA), exist_ok=True)
    # one config a line, so a diff of the data lists the moved configs
    lines = (f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in sorted(golden_records().items()))
    with open(DATA, "w") as f:
        f.write("{\n" + ",\n".join(lines) + "\n}\n")
