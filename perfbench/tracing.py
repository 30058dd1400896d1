"""In-memory span tracer that instruments spindir from the outside.

Each wrapped callable records a span (name, start, end, parent) on entry and
exit.  Self time is a span's duration minus the durations of its direct
children.  Counts are recorded at the same boundaries (clamped naive
decodes, degenerate decodes, record bytes).

The wrappers are installed by rebinding names: a module-level function is
replaced in every spindir module that imported it by name (``harness`` calls
``best_fit_frame`` through its own global, not through ``frames``), and
methods are replaced on their class.  ``uninstall`` restores every binding.
"""

from __future__ import annotations

import os
import sys
import time
from collections import Counter

# Span names of module-level functions, as "<module>.<function>".
FUNCTIONS = (
    "harness.run_experiment",
    "harness.reference_score",
    "harness.sample_chi",
    "harness.sample_haar_direction",
    "harness.sample_haar_rotation",
    "frames.best_fit_frame",
    "frames.naive_euler_estimate",
    "frames.euler_to_axes",
    "frames.axes_to_euler",
    "frames.frame_infidelity",
    "geometry.sphere_quadrature",
    "protocols.d3_single_spin_score",
    "protocols.d3_repeated_single_score",
    "protocols.d3_covariant_two_spin_score",
    "protocols.d3_coherent_score",
    "protocols.d3_outcome_matrix",
    "protocols.frame_two_axis_score",
    "optimize.optimal_direction_encoding",
    "optimize.d3_coherent_error",
    "optimize.chi_density",
    "povm.validate_povm",
    "groups.dihedral_d3",
    "multispin.total_j_projector",
    "cli.write_record",
    "cli.read_record",
)
# Span names of methods, as "<module>.<Class>.<method>"; a class name alone
# stands for its constructor (dataclass __init__ plus __post_init__).
METHODS = (
    "frames.Frame",
    "geometry.Direction.from_vector",
    "optimize.ChiDensity.cumulative_in_cos",
    "optimize.ChiDensity.expected_fidelity",
)
DECODERS = ("frames.best_fit_frame", "frames.naive_euler_estimate")
PACKAGE = "spindir"


class Tracer:
    """Collects spans and counts while installed."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = Counter()
        self._stack = []
        self._undo = []

    # ------------------------------------------------------------ wrapping

    def _wrap(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            except ValueError:
                if name in DECODERS:
                    counts["frames.degenerate"] += 1
                raise
            finally:
                rec[2] = clock()
                stack.pop()
            if name == "frames.naive_euler_estimate" and out.failed:
                counts["frames.naive_clamps"] += 1
            elif name == "cli.write_record":
                counts["cli.record_bytes"] += os.path.getsize(args[1])
            return out

        traced.__wrapped__ = fn
        return traced

    def _rebind(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every FUNCTIONS and METHODS entry of the imported package."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))
        ]
        for name in FUNCTIONS:
            mod_name, func_name = name.split(".")
            orig = getattr(sys.modules[f"{PACKAGE}.{mod_name}"], func_name)
            wrapped = self._wrap(name, orig)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._rebind(mod, attr, wrapped)
        for name in METHODS:
            mod_name, cls_name, *rest = name.split(".")
            cls = getattr(sys.modules[f"{PACKAGE}.{mod_name}"], cls_name)
            attr = rest[0] if rest else "__init__"
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                self._rebind(cls, attr, classmethod(self._wrap(name, raw.__func__)))
            else:
                self._rebind(cls, attr, self._wrap(name, raw))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # ------------------------------------------------------------ results

    def summary(self) -> dict:
        """Per span name: calls, total seconds and self seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for (name, start, end, _), inner in zip(self.spans, child):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - inner
        return out
