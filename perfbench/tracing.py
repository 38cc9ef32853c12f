"""Span tracing for the benchmark's traced run.

The tracer replaces library functions at the module attribute that their
caller looks up at call time, records one span per call (name, start,
end, parent span, command id) in flat in-memory arrays, and restores the
original functions on exit.  The program itself is never edited: every
span is opened from here, around a call into a layer.

A binding that no longer exists (a later refactor removed or renamed the
function) is skipped; the metrics that depend only on it are then absent
rather than an error.
"""

from __future__ import annotations

import importlib
import json
import time
from array import array
from contextlib import contextmanager


def _points(args, out):
    return {"points": len(out.points)}


def _edges(args, out):
    return {"edges": len(out.edges)}


def _kept(args, out):
    return {"kept": len(out.edges)}


def _pairs_checked(args, out):
    n = len(args[1])
    return {"pairs": n * (n - 1) // 2}


def _fibred_points(args, out):
    return {"points": out.n_points}


def _agreed(args, out):
    return {"agreements": int(out[0])}


def _bf_report(args, out):
    return {"steps": out.steps_attempted, "matched": out.matched_count}


# (module, attribute, span name, optional counts taken from (args, result)).
# `solve` and `norm` are wrapped in every module that imports them by name,
# because that module's global is what its functions look up.
BINDINGS = (
    ("rado_lab.geometry", "solve", "lp.solve", None),
    ("rado_lab.decomposition", "solve", "lp.solve", None),
    ("rado_lab.geometry", "norm", "geometry.norm", None),
    ("rado_lab.decomposition", "norm", "geometry.norm", None),
    ("rado_lab.random_graphs", "norm", "geometry.norm", None),
    ("rado_lab.step_isometry", "norm", "geometry.norm", None),
    ("rado_lab.back_forth", "norm", "geometry.norm", None),
    ("rado_lab.geometry", "validate_ball", "geometry.validate_ball", None),
    ("rado_lab.decomposition", "linf_decomposition", "decomposition.linf_decomposition", None),
    ("rado_lab.decomposition", "linear_isometry_group", "decomposition.linear_isometry_group", None),
    ("rado_lab.random_graphs", "sample_typical_points", "sample_typical_points", _points),
    ("rado_lab.random_graphs", "unit_graph", "unit_graph", _edges),
    ("rado_lab.random_graphs", "bernoulli_subgraph", "bernoulli_subgraph", _kept),
    ("rado_lab.random_graphs", "bj_audit", "bj_audit", None),
    ("rado_lab.random_graphs", "norm_floor_matrix", "norm_floor_matrix", None),
    ("rado_lab.random_graphs", "distance_matrix", "distance_matrix", None),
    ("rado_lab.step_isometry", "verify_step_isometry", "verify_step_isometry", _pairs_checked),
    ("rado_lab.back_forth", "s0_experiment", "s0_experiment", None),
    ("rado_lab.back_forth", "s0_run_trial", "s0_run_trial", _agreed),
    ("rado_lab.back_forth", "make_fibred_sample", "make_fibred_sample", _fibred_points),
    ("rado_lab.back_forth", "attach_s0_gadget", "attach_s0_gadget", None),
    ("rado_lab.back_forth", "bf_run_experiment", "bf_run_experiment", None),
    ("rado_lab.back_forth", "bf_run", "bf_run", _bf_report),
    ("rado_lab.back_forth", "bf_step", "bf_step", None),
    ("rado_lab.back_forth", "audit_state", "audit_state", None),
)

# The benchmark's own span around each `rado_lab.cli.main` call.
CLI_SPAN = "cli"

# (metric, unit, kind, span name).  Kinds: calls, busy (union of
# the span intervals), self (duration minus child spans), or a count field
# that the binding's hook returns, summed over calls.
LAYER_METRICS = (
    ("lp.solve.calls", "count", "calls", "lp.solve"),
    ("lp.solve.busy_s", "s", "busy", "lp.solve"),
    ("geometry.norm.calls", "count", "calls", "geometry.norm"),
    ("geometry.norm.self_s", "s", "self", "geometry.norm"),
    ("geometry.validate_ball.busy_s", "s", "busy", "geometry.validate_ball"),
    ("decomposition.linf_decomposition.self_s", "s", "self", "decomposition.linf_decomposition"),
    ("decomposition.linear_isometry_group.self_s", "s", "self", "decomposition.linear_isometry_group"),
    ("sample_typical_points.busy_s", "s", "busy", "sample_typical_points"),
    ("sample_typical_points.points", "count", "points", "sample_typical_points"),
    ("unit_graph.busy_s", "s", "busy", "unit_graph"),
    ("unit_graph.edges", "count", "edges", "unit_graph"),
    ("bernoulli_subgraph.busy_s", "s", "busy", "bernoulli_subgraph"),
    ("bernoulli_subgraph.kept", "count", "kept", "bernoulli_subgraph"),
    ("norm_floor_matrix.busy_s", "s", "busy", "norm_floor_matrix"),
    ("distance_matrix.busy_s", "s", "busy", "distance_matrix"),
    ("bj_audit.self_s", "s", "self", "bj_audit"),
    ("verify_step_isometry.busy_s", "s", "busy", "verify_step_isometry"),
    ("verify_step_isometry.pairs", "count", "pairs", "verify_step_isometry"),
    ("make_fibred_sample.busy_s", "s", "busy", "make_fibred_sample"),
    ("make_fibred_sample.points", "count", "points", "make_fibred_sample"),
    ("attach_s0_gadget.self_s", "s", "self", "attach_s0_gadget"),
    ("s0.trials", "count", "calls", "s0_run_trial"),
    ("s0.agreements", "count", "agreements", "s0_run_trial"),
    ("bf_step.calls", "count", "calls", "bf_step"),
    ("bf_step.busy_s", "s", "busy", "bf_step"),
    ("audit_state.calls", "count", "calls", "audit_state"),
    ("audit_state.busy_s", "s", "busy", "audit_state"),
    ("bf_run.steps", "count", "steps", "bf_run"),
    ("bf_run.matched", "count", "matched", "bf_run"),
    ("cli.self_s", "s", "self", CLI_SPAN),
)


class Tracer:
    """In-memory span recorder; `install` swaps in wrappers, `restore` undoes it."""

    def __init__(self, bindings=BINDINGS):
        self.bindings = bindings
        self.names: list[str] = []
        self._name_ix: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.command = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[int, dict[str, int]] = {}
        self.current_command = -1
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []
        self.installed: set[str] = set()
        self.missing: list[str] = []

    def _ix(self, name: str) -> int:
        ix = self._name_ix.get(name)
        if ix is None:
            ix = self._name_ix[name] = len(self.names)
            self.names.append(name)
        return ix

    def _open(self, ix: int) -> int:
        sid = len(self.start)
        self.name.append(ix)
        self.parent.append(self._stack[-1])
        self.command.append(self.current_command)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str, count=None):
        ix = self._ix(name)
        open_, close, counts = self._open, self._close, self.counts

        def span(*args, **kwargs):
            sid = open_(ix)
            try:
                out = fn(*args, **kwargs)
            finally:
                close(sid)
            if count is not None:
                counts[sid] = count(args, out)
            return out

        span.__wrapped__ = fn
        return span

    @contextmanager
    def span(self, name: str):
        sid = self._open(self._ix(name))
        try:
            yield
        finally:
            self._close(sid)

    def install(self) -> None:
        for module_name, attr, name, count in self.bindings:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(original, name, count))
            self.installed.add(name)
        self.installed.add(CLI_SPAN)

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def write(self, path) -> None:
        """Write every span as one tab-separated line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tstart\tend\tparent\tcommand\tcount\n")
            for sid in range(len(self.start)):
                fh.write(
                    "%d\t%s\t%.9f\t%.9f\t%d\t%d\t%s\n" % (
                        sid, self.names[self.name[sid]], self.start[sid],
                        self.end[sid], self.parent[sid], self.command[sid],
                        json.dumps(self.counts[sid], sort_keys=True) if sid in self.counts else "",
                    )
                )

    def summarize(self) -> dict[str, float]:
        """Per-layer metric values, for every metric whose spans were installed."""
        k = len(self.names)
        totals = [{"calls": 0, "busy": 0.0, "self": 0.0} for _ in range(k)]
        busy_until = [float("-inf")] * k
        start, end, parent, name = self.start, self.end, self.parent, self.name
        child = [0.0] * len(start)
        for sid in range(len(start)):
            p = parent[sid]
            if p >= 0:
                child[p] += end[sid] - start[sid]
        for sid in range(len(start)):
            t = totals[name[sid]]
            s, e = start[sid], end[sid]
            t["calls"] += 1
            t["self"] += e - s - child[sid]
            if s >= busy_until[name[sid]]:  # spans of one name nest or are disjoint
                t["busy"] += e - s
                busy_until[name[sid]] = e
            for field, value in self.counts.get(sid, {}).items():
                t[field] = t.get(field, 0) + value
        out: dict[str, float] = {}
        for metric, _unit, kind, span_name in LAYER_METRICS:
            if span_name in self.installed:
                ix = self._name_ix.get(span_name)
                out[metric] = 0 if ix is None else totals[ix].get(kind, 0)
        if "bf_run.steps" in out:
            steps = out["bf_run.steps"]
            out["bf_run.matched_per_step"] = out["bf_run.matched"] / steps if steps else 0.0
        return out
