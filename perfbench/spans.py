"""Per-layer tracing from outside the package.

Timing wrappers replace each listed public function in every
``poleplace.*`` namespace that binds it, so calls made through a
by-name import (``from .linalg import condition_number``) are caught as
well as calls through the defining module.  Spans stay in memory until
the run ends; self time is a span's duration minus its children's.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import importlib
import sys
from time import thread_time

# Every benchmark time is CPU time of the calling thread.  Each operation
# runs on that one thread (BLAS is pinned to one), so on a core of its own
# this equals wall time; on a shared host it leaves out the time the host
# hands the virtual CPU to other guests.  The slow-down that other guests
# still cause through shared cores and caches is scaled out by speed.py.
clock = thread_time

# The layers are the package modules; each is timed around its public
# functions named here.
TRACED = {
    "poly": ("char_poly", "eval_matrix", "monic_from_roots"),
    "linalg": (
        "real_schur",
        "reorder_schur",
        "invariant_split",
        "condition_number",
        "solve_linear",
        "krylov",
    ),
    "placement": (
        "controller_canonical",
        "place_bass_gura",
        "place_ackermann",
        "place_general",
    ),
    "subspace": ("place_sequential", "paired_plan", "plan_targets"),
    "verify": ("assemble_diagnostics", "charpoly_residual", "spectrum_distance"),
    "cli": ("main", "cmd_verify"),
}
OP = "op"  # root span around each benchmark operation


class Tracer:
    """Installs span-recording wrappers and aggregates the spans.

    A span is ``(name index, start, end, parent span, op id, completed)``.
    """

    def __init__(self, package: str):
        self.names: list[str] = []
        self.spans: list = []
        self._stack: list[int] = []
        self._op = -1
        self._root = self._wrap(OP, lambda call: call())
        self._modules = [
            mod for name, mod in sys.modules.items()
            if name == package or name.startswith(package + ".")
        ]
        self._wrapped = {}
        for module, funcs in TRACED.items():
            mod = importlib.import_module(f"{package}.{module}")
            for func in funcs:
                original = getattr(mod, func)
                self._wrapped[id(original)] = (original, self._wrap(f"{module}.{func}", original))

    @contextlib.contextmanager
    def op(self, op_id: int):
        """Wrappers installed for the duration; yields the runner of one
        benchmark operation, which records it under a root span."""
        saved = []
        try:
            for mod in self._modules:
                for attr, value in list(vars(mod).items()):
                    hit = self._wrapped.get(id(value))
                    if hit is not None and hit[0] is value:
                        saved.append((mod, attr, value))
                        setattr(mod, attr, hit[1])
            self._op = op_id
            yield self._root
        finally:
            for mod, attr, value in saved:
                setattr(mod, attr, value)

    def _wrap(self, name: str, fn):
        index = len(self.names)
        self.names.append(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            slot = len(spans)
            spans.append(None)
            stack.append(slot)
            done = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                end = clock()
                stack.pop()
                spans[slot] = (index, start, end, parent, self._op, done)

        return traced

    def summary(self) -> dict[str, dict[str, float]]:
        """Per name: calls, completed calls, self seconds, inclusive seconds."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {
            name: {"calls": 0, "completed": 0, "self_s": 0.0, "total_s": 0.0}
            for name in self.names
        }
        for slot, (index, start, end, _, _, done) in enumerate(self.spans):
            row = out[self.names[index]]
            row["calls"] += 1
            row["completed"] += done
            row["self_s"] += end - start - child[slot]
            row["total_s"] += end - start
        return out

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["span", "name", "parent", "op", "start_us", "end_us", "completed"])
            t0 = self.spans[0][1] if self.spans else 0.0
            for slot, (index, start, end, parent, op, done) in enumerate(self.spans):
                out.writerow([
                    slot, self.names[index], parent, op,
                    f"{(start - t0) * 1e6:.1f}", f"{(end - t0) * 1e6:.1f}", int(done),
                ])
