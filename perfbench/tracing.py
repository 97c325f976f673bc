"""Spans around msgate's public functions, recorded from outside the program.

``Tracer.install`` replaces each function named in ``LAYERS`` on its module
with a wrapper that records a span.  msgate calls these functions through
the module attribute (``trotter.propagate_numeric(...)``,
``hilbert.matrix_exp(...)``), so calls from inside the program are traced as
well as calls from the benchmark.  No file of the program changes.

A span is ``(name, start, end, parent, point)``: ``parent`` is the index of
the enclosing span, ``point`` the index of the benchmark point it belongs to
(None during set-up).  Spans stay in memory until ``write_jsonl``.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time

LAYERS = (
    ("cli", "sweep_from_config"),
    ("cli", "run_sweep"),
    ("budget", "amplitude_set"),
    ("hilbert", "hamiltonian_terms"),
    ("hilbert", "matrix_exp"),
    ("magnus", "dyson_term"),
    ("magnus", "propagators_upto"),
    ("magnus", "dyson_hat_terms"),
    ("resint", "resonance_integral"),
    ("trotter", "propagate_numeric"),
    ("fidelity", "average_fidelity"),
)
LAYER_NAMES = tuple(f"{m}.{f}" for m, f in LAYERS)
POINT = "bench.point"


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.point: int | None = None
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.point])
        self._stack.append(idx)
        self.spans[idx][1] = time.perf_counter()
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def point_span(self, point: int):
        self.point = point
        idx = self._open(POINT)
        try:
            yield
        finally:
            self._close(idx)
            self.point = None

    def wrap(self, name: str, fn, count=None):
        """``count(*args, **kwargs)``, if given, adds to ``counts[name]``."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count is not None:
                self.counts[name] = self.counts.get(name, 0) + count(*args, **kwargs)
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
        return traced

    def install(self, modules: dict, counters: dict | None = None) -> None:
        counters = counters or {}
        for mod_name, fn_name in LAYERS:
            mod = modules[mod_name]
            name = f"{mod_name}.{fn_name}"
            setattr(mod, fn_name, self.wrap(name, getattr(mod, fn_name), counters.get(name)))

    def summary(self) -> dict[str, dict]:
        """calls, total_s and self_s per span name; self time is the span's
        duration minus that of its direct children (children are nested and
        sequential, so their durations do not overlap)."""
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_s[parent] += end - start
        out = {n: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for n in LAYER_NAMES + (POINT,)}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_s[i]
        return out

    def children_named(self, parent_name: str, child_name: str) -> tuple[int, int]:
        """(spans of ``parent_name`` with a direct ``child_name`` child, without one)."""
        parents = {i for i, s in enumerate(self.spans) if s[0] == parent_name}
        with_child = {s[3] for s in self.spans if s[0] == child_name and s[3] in parents}
        return len(with_child), len(parents) - len(with_child)

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent, point) in enumerate(self.spans):
                fh.write(json.dumps({"run": self.run_id, "id": i, "name": name,
                                     "start": start, "end": end, "parent": parent,
                                     "point": point}) + "\n")
