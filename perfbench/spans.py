"""In-memory spans around the library's public functions.

A ``Tracer`` patches each probed function where its callers look it up (a
module attribute, or the ``SCTracker.step`` class attribute), records one span
per call -- name, start, end, parent span and request id -- and counts the
work the call did.  Leaving the ``with`` block restores the original
functions.  A request is everything under one root span, such as one
``SCTracker.step`` called by the benchmark or one ``cli.main``.

Callers must look the functions up at call time (``metrics.evaluate(...)``,
not a name bound at import), or the probe is bypassed.  The evaluator imports
``pairwise_iou`` by name, so that probe is installed on ``sctrack.metrics``.

The private ``metrics._identity_f1`` is not probed: its time stays in the
self time of ``metrics.evaluate``.
"""

from __future__ import annotations

import time
from array import array
from collections import defaultdict

import numpy as np

from sctrack import ablation, assignment, cli, geometry, kalman, metrics, motio, synth, tracker

# owner of each span of assignment.solve, by the nearest enclosing span
SOLVE_OWNERS = {"tracker.step": "tracker", "metrics.evaluate": "evaluator"}

# the two probes the untraced passes keep: they time the end-to-end calls
# (per-frame step latency, evaluation time) and hand their outputs to the checks
TIMING_PROBES = ("tracker.step", "metrics.evaluate")


def _count_step(tr, args, kwargs, result, span):
    trk = args[0]
    tr.counts["tracker.live_tracks_sum"] += len(trk.tracks)
    tr.steps.append((trk, tr.duration_ns(span), result))


def _count_evaluate(tr, args, kwargs, result, span):
    tr.reports.append((tr.duration_ns(span), result))


def _pairs(name):
    def count(tr, args, kwargs, result, span):
        tr.counts[name + ".pairs"] += result.size

    return count


def _rows_in_map(name):
    def count(tr, args, kwargs, result, span):
        tr.counts[name + ".rows"] += sum(len(rows) for rows in result.values())

    return count


def _count_write_results(tr, args, kwargs, result, span):
    tr.counts["motio.write_results.rows"] += sum(len(r.outputs) for r in args[1])


def _count_generate(tr, args, kwargs, result, span):
    gt, detections = result
    tr.counts["synth.generate.boxes"] += sum(len(v) for v in gt.values()) + sum(
        len(v) for v in detections.values()
    )


def probes():
    """(span name, owner, attribute, counter) for every probed function."""
    return [
        ("tracker.step", tracker.SCTracker, "step", _count_step),
        ("kalman.predict", kalman, "predict", None),
        ("kalman.update", kalman, "update", None),
        ("kalman.project", kalman, "project", None),
        ("kalman.initiate", kalman, "initiate", None),
        ("geometry.cost_matrix", geometry, "cost_matrix", _pairs("geometry.cost_matrix")),
        ("assignment.solve", assignment, "solve", None),
        ("metrics.evaluate", metrics, "evaluate", _count_evaluate),
        ("geometry.pairwise_iou", metrics, "pairwise_iou", _pairs("geometry.pairwise_iou")),
        ("motio.read_detections", motio, "read_detections", _rows_in_map("motio.read_detections")),
        ("motio.read_ground_truth", motio, "read_ground_truth", _rows_in_map("motio.read_ground_truth")),
        ("motio.iter_records", motio, "iter_records", None),
        ("motio.write_results", motio, "write_results", _count_write_results),
        ("synth.generate", synth, "generate", _count_generate),
        ("ablation.evaluate_run", ablation, "evaluate_run", None),
        ("cli.main", cli, "main", None),
    ]


def _span_names():
    names = []
    for name, *_ in probes():
        if name == "assignment.solve":
            names += [f"{name}.{owner}" for owner in SOLVE_OWNERS.values()]
        else:
            names.append(name)
    return names


SPAN_NAMES = _span_names()

_COUNTED = {
    "geometry.cost_matrix": ("pairs",),
    "geometry.pairwise_iou": ("pairs",),
    "motio.read_detections": ("rows",),
    "motio.read_ground_truth": ("rows",),
    "motio.iter_records": ("rows",),
    "motio.write_results": ("rows",),
    "synth.generate": ("boxes",),
}
_SOLVE_COUNTS = ("cells", "matches", "empty_calls")


def _layer_units():
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_ms"] = "ms"
        for counted in _COUNTED.get(name, ()):
            units[f"{name}.{counted}"] = "count"
        if name.startswith("assignment.solve."):
            for counted in _SOLVE_COUNTS:
                units[f"{name}.{counted}"] = "count"
            units[f"{name}.match_ratio"] = "ratio"
            units[f"{name}.feasible_frac"] = "ratio"
    units["tracker.live_tracks_mean"] = "count"
    units["trace.overhead_frac"] = "ratio"
    return units


# every per-layer metric a traced run reports, with its unit
LAYER_UNITS = _layer_units()


class Tracer:
    """Patches the named probes for the duration of a ``with`` block."""

    def __init__(self, names=None):
        self._probes = [p for p in probes() if names is None or p[0] in names]
        self._code = {name: i for i, name in enumerate(SPAN_NAMES)}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.request = array("i")
        self.counts = defaultdict(int)
        self.steps = []  # (tracker, step ns, FrameResult) per SCTracker.step
        self.reports = []  # (evaluate ns, MetricsReport) per metrics.evaluate
        self._stack = []
        self._requests = 0
        self._saved = []

    def __enter__(self):
        for name, owner, attr, count in self._probes:
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            if name == "motio.iter_records":
                probe = self._wrap_iter(name, original)
            elif name == "assignment.solve":
                probe = self._wrap_solve(original)
            else:
                probe = self._wrap(name, original, count)
            setattr(owner, attr, probe)
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)

    def restored(self) -> bool:
        """True when every patched attribute holds its original function again."""
        return all(vars(owner)[attr] is original for owner, attr, original in self._saved)

    def duration_ns(self, span: int) -> int:
        return self.end[span] - self.start[span]

    def _open(self, code: int) -> int:
        span = len(self.start)
        parent = self._stack[-1] if self._stack else -1
        if parent < 0:
            self._requests += 1
        self.name.append(code)
        self.parent.append(parent)
        self.request.append(self._requests)
        self.end.append(0)
        self._stack.append(span)
        self.start.append(time.perf_counter_ns())
        return span

    def _close(self, span: int) -> None:
        self.end[span] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, name, fn, count):
        code = self._code[name]
        calls = name + ".calls"

        def probe(*args, **kwargs):
            self.counts[calls] += 1
            span = self._open(code)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if count is not None:
                count(self, args, kwargs, result, span)
            return result

        return probe

    def _wrap_solve(self, fn):
        def probe(costs, gate):
            enclosing = (SPAN_NAMES[self.name[span]] for span in reversed(self._stack))
            owner = next((SOLVE_OWNERS[n] for n in enclosing if n in SOLVE_OWNERS), None)
            if owner is None:
                raise RuntimeError("assignment.solve called outside tracker.step and metrics.evaluate")
            name = f"assignment.solve.{owner}"
            self.counts[name + ".calls"] += 1
            span = self._open(self._code[name])
            try:
                result = fn(costs, gate)
            finally:
                self._close(span)
            costs = np.asarray(costs)
            self.counts[name + ".cells"] += costs.size
            if costs.size == 0:
                self.counts[name + ".empty_calls"] += 1
            else:
                self.counts[name + ".matches"] += len(result.matches)
                self.counts[name + ".max_matches"] += min(costs.shape)
                self.counts[name + ".feasible"] += int(np.count_nonzero(costs <= gate))
                self.counts[name + ".nonempty_cells"] += costs.size
            return result

        return probe

    def _wrap_iter(self, name, fn):
        # a generator does its work in next(), not in the call that creates it,
        # so each next() is one span and the consumer's loop body stays outside
        code = self._code[name]

        def timed(gen):
            try:
                while True:
                    span = self._open(code)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        self._close(span)
                    self.counts[name + ".rows"] += 1
                    yield item
            finally:
                gen.close()

        def probe(*args, **kwargs):
            self.counts[name + ".calls"] += 1
            return timed(fn(*args, **kwargs))

        return probe

    def arrays(self) -> dict:
        """The recorded spans as numpy arrays, plus the span name table."""
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start_ns": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self.end, dtype=np.int64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "request": np.frombuffer(self.request, dtype=np.int32).copy(),
            "names": np.array(SPAN_NAMES),
        }

    def layer_metrics(self) -> dict:
        """Per-layer metrics of everything recorded (zero for layers not reached).

        A span's self time is its duration minus the durations of its direct
        children; spans of one thread nest, so the children never overlap.
        """
        spans = self.arrays()
        duration = (spans["end_ns"] - spans["start_ns"]).astype(np.float64)
        parent = spans["parent"]
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=duration[has_parent], minlength=len(duration))
        self_ns = np.bincount(spans["name"], weights=duration - child, minlength=len(SPAN_NAMES))

        out = {}
        for key in LAYER_UNITS:
            out[key] = float(self.counts.get(key, 0))
        for i, name in enumerate(SPAN_NAMES):
            key = f"{name}.self_ms"
            if key in out:
                out[key] = float(self_ns[i]) / 1e6
        for owner in SOLVE_OWNERS.values():
            name = f"assignment.solve.{owner}"
            out[f"{name}.match_ratio"] = _ratio(
                self.counts[name + ".matches"], self.counts[name + ".max_matches"]
            )
            out[f"{name}.feasible_frac"] = _ratio(
                self.counts[name + ".feasible"], self.counts[name + ".nonempty_cells"]
            )
        out["tracker.live_tracks_mean"] = _ratio(
            self.counts["tracker.live_tracks_sum"], self.counts["tracker.step.calls"]
        )
        del out["trace.overhead_frac"]  # set by the caller, which has both runs
        return out


def _ratio(num, den) -> float:
    return num / den if den else 0.0

