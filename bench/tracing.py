"""Spans and counts around the public functions of each commonfix layer.

The tracer wraps functions from outside the package: every module of
``commonfix`` that bound a traced function by name gets the wrapper in its
place, so ``l1_norm`` is traced whether ``space``, ``mappings``, ``scheme``,
``verifier`` or ``cli`` calls it.  Spans are kept in memory as compact
arrays (name, parent, start, end) and reduced when the job ends.  A span's
self time is its duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import os
import sys
import time
from array import array
from collections import defaultdict
from typing import Callable

import numpy as np


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _checks(result) -> dict[str, int]:
    """Checks made and failed by a verifier call: one check or a tuple of them."""
    items = result if isinstance(result, (tuple, list)) else (result,)
    return {
        "verifier.checks": len(items),
        "verifier.checks_failed": sum(1 for c in items if not c.satisfied),
    }


def _state(trace) -> dict[str, int]:
    """Size of a run's iteration state; ``coords_held`` counts the stored
    coordinates of every x_n and y_n the trace records keep."""
    final = trace.final.vec
    return {
        "scheme.steps": len(trace.records),
        "space.state.len_final": len(final),
        "space.state.nnz_final": sum(1 for c in final.coords if c != 0.0),
        "space.trace.coords_held": sum(len(r.x.vec) + len(r.y.vec) for r in trace.records),
    }


def _file_bytes(name: str):
    return lambda a, k, r: {f"{name}.bytes": os.path.getsize(_arg(a, k, 1, "path"))}


# (span name, module, attribute, measure).  ``measure(args, kwargs, result)``
# returns {counter name: amount} to add after each call.
TRACED: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("space.l1_norm", "space", "l1_norm",
     lambda a, k, r: {"space.l1_norm.coords": len(_arg(a, k, 0, "v"))}),
    ("space.convex_combine", "space", "convex_combine",
     lambda a, k, r: {"space.convex_combine.coords":
                      sum(len(p.vec) for p in _arg(a, k, 1, "points"))}),
    ("space.L1Vector.init", "space", "L1Vector.__init__",
     lambda a, k, r: {"space.L1Vector.init.coords": len(a[0])}),
    ("space.in_set", "space", "in_set", None),
    ("mappings.nth_power", "mappings", "nth_power", None),
    ("mappings.power_t_alpha", "mappings", "power_t_alpha",
     lambda a, k, r: {"mappings.power_t_alpha.zeros_written": _arg(a, k, 1, "k")}),
    ("mappings.apply_f_kappa", "mappings", "apply_f_kappa", None),
    ("mappings.estimate_intermediate_defect", "mappings", "estimate_intermediate_defect",
     lambda a, k, r: {"mappings.estimate_intermediate_defect.grid_pairs":
                      _arg(a, k, 3, "grid_size") ** 2}),
    ("scheme.run", "scheme", "run", lambda a, k, r: _state(r)),
    ("scheme.step", "scheme", "step", None),
    ("scheme.step", "scheme", "step_with_errors", None),
    ("scheme.weights_at", "scheme", "WeightSchedule.weights_at", None),
    ("scheme.write_trace_csv", "scheme", "write_trace_csv",
     _file_bytes("scheme.write_trace_csv")),
    ("scheme.write_states_jsonl", "scheme", "write_states_jsonl",
     _file_bytes("scheme.write_states_jsonl")),
    ("verifier.check_total_inequality", "verifier", "check_total_inequality",
     lambda a, k, r: _checks(r)),
    ("verifier.check_iterate_difference_identity", "verifier",
     "check_iterate_difference_identity", lambda a, k, r: _checks(r)),
    ("verifier.check_root_gap_chain", "verifier", "check_root_gap_chain",
     lambda a, k, r: _checks(r)),
    ("cli.parse_config", "cli", "parse_config", None),
    ("cli.execute", "cli", "execute", None),
)


class Tracer:
    """In-memory span store for one job."""

    def __init__(self) -> None:
        self.name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = [-1]
        self.counts: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []

    def wrap(self, name: str, fn: Callable, measure: Callable | None) -> Callable:
        nid = self.name_ids.setdefault(name, len(self.name_ids))
        span_name, parent, start, end = self.span_name, self.parent, self.start, self.end
        stack, counts, clock = self.stack, self.counts, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(span_name)
            span_name.append(nid)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if measure is not None:
                for key, amount in measure(args, kwargs, result).items():
                    counts[key] += amount
            return result

        return traced

    def install(self, package: str = "commonfix") -> None:
        """Wrap every traced function and rebind it in every package module."""
        modules = [m for n, m in sys.modules.items() if n == package or n.startswith(package + ".")]
        for name, module_name, attr, measure in TRACED:
            owner = sys.modules.get(f"{package}.{module_name}")
            path = attr.split(".")
            for part in path[:-1]:
                owner = getattr(owner, part, None)
            original = getattr(owner, path[-1], None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapper = self.wrap(name, original, measure)
            if len(path) > 1:
                setattr(owner, path[-1], wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name: duration minus direct children."""
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        ids = np.frombuffer(self.span_name, dtype=np.int32)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        own = np.bincount(ids, weights=dur - child, minlength=len(self.name_ids))
        calls = np.bincount(ids, minlength=len(self.name_ids))
        out = {}
        for name, nid in self.name_ids.items():
            out[f"{name}.calls"] = int(calls[nid])
            out[f"{name}.self_s"] = float(own[nid])
        return out

