"""Set-up probe of the benchmark, run as a fresh process:

    python3 perfbench/setup_probe.py

imports spindir, runs the shared set-up (see ``set_up``) and prints one JSON
line {"setup_s": ..., "validate_ok": ...}.  The clock starts before spindir
is imported, so interpreter start-up is not included; only stdlib is
imported before it starts.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
VALIDATE_OK = "all 7 checks passed"


def set_up() -> bool:
    """Import the CLI and do the first-call work every run pays once: the
    ``validate`` self-checks (D3 group, orbit and sampled POVMs with their
    validation, spin projectors) and the cached two-spin family and outcome
    matrices.  Returns whether ``validate`` passed."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    from spindir import cli, protocols

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["validate"])
    protocols.d3_outcome_matrix(1)
    protocols.d3_outcome_matrix(2)
    protocols.d3_covariant_two_spin_score()
    return code == 0 and out.getvalue().rstrip().endswith(VALIDATE_OK)


if __name__ == "__main__":
    ok = set_up()
    print(json.dumps({"setup_s": time.perf_counter() - _T0, "validate_ok": ok}))
