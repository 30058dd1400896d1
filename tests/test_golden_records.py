"""Golden records and tables: the repr of every estimate and stderr of a fixed
set of seeded runs, and of the deterministic tables, so a change shows which
bits it moved.

- D3 records (golden_records.json) are hit counts over trials, so their bits
  do not depend on the platform: compared exactly.
- Frame records (golden_frame_records.json) go through numpy's SIMD sin,
  cos, tan and arccos, which may differ in the last bits between CPUs and
  numpy builds.  The data stores the platform key it was written on: the
  numpy version and the SIMD extensions numpy reports at run time
  (`numpy.show_runtime`).  On that key the floats are compared exactly,
  elsewhere at relative <= 1e-13; `naive_failures` is compared exactly
  everywhere.
- Tables (golden_tables.json): the covariant outcome tables and scores and
  the vote references are ratios of integers, and the `optimize` text has
  12 digits, so they are compared exactly.  The d3-coherent references go
  through libm and numpy's SIMD cos in the quadrature, so they are compared
  at relative <= 1e-13.

Regenerate the data with

    PYTHONPATH=src python tests/test_golden_records.py --write

A change that rewrites it lists the moved configs and says why.
"""

from __future__ import annotations

import json
import math
import os
import sys

from click.testing import CliRunner
from numpy import __version__ as numpy_version
from numpy._core._multiarray_umath import __cpu_baseline__, __cpu_dispatch__, __cpu_features__

from spindir.cli import build_run_config, cli
from spindir.harness import reference_score, run_experiment
from spindir.protocols import d3_covariant_score, d3_outcome_matrix

_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
DATA = os.path.join(_DIR, "golden_records.json")
FRAME_DATA = os.path.join(_DIR, "golden_frame_records.json")
TABLE_DATA = os.path.join(_DIR, "golden_tables.json")

_PROTOCOLS = (
    [{"kind": "d3-single", "num_spins": 1}, {"kind": "d3-covariant", "num_spins": 2}]
    + [
        {"kind": "d3-repeated", "num_spins": n, "tie_break": tie_break}
        for n in (1, 2, 3, 9, 256)
        for tie_break in ("random", "lowest-index")
    ]
    + [{"kind": "d3-coherent", "num_spins": n} for n in (1, 6, 24)]
)
_FRAME_PROTOCOLS = [
    {"kind": "frame-two-axis", "num_spins": n, "encoding": encoding, "decoder": decoder}
    for n in (4, 8, 48)
    for encoding in ("coherent", "optimal")
    for decoder in ("best-fit", "naive-euler")
]
# one trial, a short partial batch, and one full batch plus one trial
_TRIALS = (1, 7, 8193)
_SEEDS = (1, 7)
# off the platform key the data was written on
_FRAME_RTOL = 1e-13
# the d3-coherent quadrature, through libm and numpy's SIMD cos
_QUADRATURE_RTOL = 1e-13
_OPTIMIZE_RUNS = (
    ("dihedral", "--num-spins", "1"),
    ("dihedral", "--num-spins", "2"),
    ("direction", "--max-spins", "240"),
)


def _name(settings: dict) -> str:
    return "-".join(f"{k}={v}" for k, v in settings.items())


def _reprs(values: dict) -> dict:
    return {
        k: [repr(x) for x in v] if isinstance(v, list) else repr(v)
        for k, v in sorted(values.items())
    }


def golden_records(protocols=_PROTOCOLS) -> dict:
    """{config name: {"estimates": {key: repr}, "stderrs": {key: repr}}}; a
    list (the per-axis values) becomes a list of reprs."""
    records = {}
    for protocol in protocols:
        for trials in _TRIALS:
            for seed in _SEEDS:
                settings = dict(protocol, trials=trials, seed=seed)
                result = run_experiment(build_run_config(settings))
                records[_name(settings)] = {
                    "estimates": _reprs(result.estimates),
                    "stderrs": _reprs(result.stderrs),
                }
    return records


def platform_key() -> str:
    """The numpy version and the SIMD extensions numpy dispatches to here."""
    found = [f for f in __cpu_dispatch__ if __cpu_features__[f]]
    return f"numpy {numpy_version}; baseline {' '.join(__cpu_baseline__)}; found {' '.join(found)}"


def golden_tables() -> dict:
    """The covariant outcome tables and scores, the reference score of every
    golden D3 config (None above the vote reference's cap), and the text of
    the `optimize` runs, one list entry a line."""
    tables = {}
    for n in (1, 2):
        tables[f"d3_outcome_matrix({n})"] = [
            [repr(float(p)) for p in row] for row in d3_outcome_matrix(n)
        ]
        score = d3_covariant_score(n)
        tables[f"d3_covariant_score({n})"] = {
            "fidelity": repr(score.fidelity),
            "coefficients": [repr(float(c)) for c in score.coefficients],
        }
    for protocol in _PROTOCOLS:
        score = reference_score(build_run_config(dict(protocol, trials=1, seed=1)))
        name = f"reference_score {_name(protocol)}"
        tables[name] = None if score is None else repr(score.fidelity)
    for args in _OPTIMIZE_RUNS:
        result = CliRunner().invoke(cli, ["optimize", *args])
        assert result.exit_code == 0, result.output
        tables[" ".join(("optimize",) + args)] = result.output.splitlines()
    return tables


def _relative_move(want: float, got: float) -> float:
    if got == want:
        return 0.0
    return abs(got - want) / abs(want) if want else math.inf


def _values(record: dict) -> dict:
    """{part.key[i]: repr} of a record, lists flattened."""
    flat = {}
    for part in ("estimates", "stderrs"):
        for key, value in record[part].items():
            if isinstance(value, list):
                flat.update((f"{part}.{key}[{i}]", v) for i, v in enumerate(value))
            else:
                flat[f"{part}.{key}"] = value
    return flat


def _moved(want: dict, got: dict, rtol: float = 0.0) -> list:
    """Each config whose record moved, with its largest relative move: any
    changed repr when rtol is 0, else a float moved by more than rtol
    relative or a changed naive_failures."""
    assert sorted(got) == sorted(want), "the golden configs changed; regenerate the data"
    moved = []
    for name in want:
        w, g = _values(want[name]), _values(got[name])
        if w.keys() != g.keys():
            moved.append(f"{name} (keys {sorted(w)} became {sorted(g)})")
            continue
        moves = {k: _relative_move(float(w[k]), float(g[k])) for k in w}
        if any(
            w[k] != g[k] if rtol == 0.0 or k == "estimates.naive_failures" else moves[k] > rtol
            for k in w
        ):
            moved.append(f"{name} (largest relative move {max(moves.values()):.3g})")
    return moved


def _load(path: str) -> dict:
    with open(path) as f:
        return json.load(f)


def test_d3_records_are_bit_identical():
    moved = _moved(_load(DATA), golden_records())
    assert not moved, f"{len(moved)} records moved:\n" + "\n".join(moved)


def test_frame_records_do_not_move():
    want = _load(FRAME_DATA)
    rtol = 0.0 if want["platform"] == platform_key() else _FRAME_RTOL
    moved = _moved(want["records"], golden_records(_FRAME_PROTOCOLS), rtol)
    assert not moved, (
        f"{len(moved)} frame records moved (platform {platform_key()!r}, data written on "
        f"{want['platform']!r}, relative tolerance {rtol:g}):\n" + "\n".join(moved)
    )


def test_deterministic_tables_do_not_move():
    want = _load(TABLE_DATA)
    got = golden_tables()
    assert sorted(got) == sorted(want), "the golden tables changed; regenerate the data"
    moved = []
    for name, w in want.items():
        if "kind=d3-coherent" in name:
            move = _relative_move(float(w), float(got[name]))
            if move > _QUADRATURE_RTOL:
                moved.append(f"{name} (relative move {move:.3g})")
        elif got[name] != w:
            moved.append(f"{name}: {w!r} became {got[name]!r}")
    assert not moved, f"{len(moved)} tables moved:\n" + "\n".join(moved)


def _per_line(entries: dict) -> str:
    # one config a line, so a diff of the data lists the moved configs
    lines = (f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in sorted(entries.items()))
    return "{\n" + ",\n".join(lines) + "\n}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: python {sys.argv[0]} --write")
    os.makedirs(_DIR, exist_ok=True)
    with open(DATA, "w") as f:
        f.write(_per_line(golden_records()) + "\n")
    with open(FRAME_DATA, "w") as f:
        records = _per_line(golden_records(_FRAME_PROTOCOLS))
        f.write(f'{{\n"platform": {json.dumps(platform_key())},\n"records": {records}\n}}\n')
    with open(TABLE_DATA, "w") as f:
        # one table row a line
        json.dump(golden_tables(), f, indent=1, sort_keys=True)
        f.write("\n")
