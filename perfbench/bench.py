"""The benchmark's workloads, its measuring loop and its output checks.

Every workload drives the library only through public functions, on one
thread.  A run repeats whole passes of the workload, setting the workload up
anew before each, until at least ``min_passes`` are done and the next pass
would end after ``seconds``.  Untraced passes keep only the two timing probes
of ``spans.TIMING_PROBES``; a traced run alternates untraced and fully traced
passes, so the two can be compared.

Other tenants of a small shared host slow it by 1.5-1.9x, in bursts of tens of
milliseconds to minutes.  When the host is busy, as it mostly is, the slow
speed is the steady one and fast moments come and go: a minimum or a median
over a run's passes flips with how many fast moments the run caught, while
the slowest pass (a whole pass at the slow speed) varies least between runs.
So wall_s and eval_s are the slowest pass's times, frames_per_s is the
slowest pass's rate and setup_s is the slowest set-up (the median set-up
moved by up to 32% between two sets of ten runs of the same code, the
slowest by up to 12%).  A single frame is short enough to be hit by one-off
spikes, so a frame's step latency is its upper quartile over the passes
(they replay the same frames); step_ms_p50 and step_ms_p99 are percentiles
of those over the frames, warm-up excluded.  When there are fewer than 1000
frames, step_ms_p99 is the highest percentile with 10 frames beyond it; the
details line states which, and over how many frames.

Workloads (why each was chosen is in ``BENCHMARK.json``):

* ``crowd``: the benchmark's own 100-object stream, stepped frame by frame
  through ``SCTracker.step`` and scored once with ``metrics.evaluate``;
* ``ablation``: ``run_ablation`` over the two standard scenarios, seeds
  ``seed .. seed+9``, the four component arms;
* ``mot_files``: ``cli.main(["track", ...])`` then ``cli.main(["eval", ...])``
  on a 50-object det/gt file pair written at set-up.
"""

from __future__ import annotations

import gc
import io
import math
import os
import resource
import statistics
import time
from contextlib import redirect_stdout
from dataclasses import dataclass

import numpy as np

from crowd import make_crowd
from sctrack import ablation, cli, metrics, motio, tracker
from spans import LAYER_UNITS, TIMING_PROBES, Tracer

# a tracker's first frames are warm-up: its lost-track pool fills for
# max_lost_frames (30 by default) before the per-frame cost is steady
WARMUP_FRAMES = 30
# a percentile is reported only when at least this many samples lie beyond it
TAIL_SAMPLES = 10
ABLATION_SCENARIOS = ("crossing_distinct_shape", "occlusion_lowconf")

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "frames_per_s": "1/s",
    "step_ms_p50": "ms",
    "step_ms_p99": "ms",
    "eval_s": "s",
    "mota": "ratio",
    "idf1": "ratio",
    "peak_rss_mb": "MB",
}


@dataclass
class PassOut:
    """What one pass of a workload produced, besides what the probes saw."""

    track_s: float  # time of the tracking phase (frames_per_s divides by it)
    eval_s: float
    mota: float
    idf1: float
    quality: tuple  # compared exactly across the passes of a run
    ops: int = 0  # workload-specific checks made
    failed: int = 0  # of which failed


class Crowd:
    """One long online sequence of ~100 visible pedestrians with clutter.

    frames_per_s is frames over the stepping loop; eval_s is the one
    ``metrics.evaluate`` call; wall_s is both.
    """

    # 100 objects keep a pass near 3-4 s, so a run holds 8 or more, and each
    # frame's upper quartile is taken over 8 or more samples
    min_passes = 4

    def __init__(self, seed, out_dir, objects=100, frames=300):
        self.seed, self.objects, self.frames = seed, objects, frames

    def setup(self):
        self.gt, self.detections = make_crowd(self.seed, self.objects, self.frames)

    def run_pass(self, tracer):
        trk = tracker.SCTracker(tracker.TrackerConfig())
        start = time.perf_counter()
        results = [trk.step(frame, dets) for frame, dets in self.detections.items()]
        stepped = time.perf_counter()
        report = metrics.evaluate(self.gt, ablation.results_to_map(results))
        done = time.perf_counter()
        return PassOut(
            track_s=stepped - start,
            eval_s=done - stepped,
            mota=report.mota,
            idf1=report.idf1,
            quality=(report.mota, report.idf1, report.idsw),
        )


class Ablation:
    """The standard four-arm component ablation over 20 short sequences.

    Set-up is a warm-up ``run_ablation`` on the first seed alone.
    frames_per_s is frames tracked (and scored) over the whole call; eval_s
    is the summed ``metrics.evaluate`` time; mota and idf1 are those of the
    pooled ``shape+conf`` arm.
    """

    min_passes = 3

    def __init__(self, seed, out_dir, num_seeds=10):
        self.seeds = list(range(seed, seed + num_seeds))

    def setup(self):
        ablation.run_ablation(ABLATION_SCENARIOS, self.seeds[:1], ablation.COMPONENT_ARMS)

    def run_pass(self, tracer):
        start = time.perf_counter()
        summaries = ablation.run_ablation(ABLATION_SCENARIOS, self.seeds, ablation.COMPONENT_ARMS)
        done = time.perf_counter()
        arms = {s.label: s for s in summaries}
        # the paper's claim: the shape terms do not add identity switches
        baseline = arms["baseline"].idsw
        claim_held = arms["shape"].idsw <= baseline and arms["shape+conf"].idsw <= baseline
        return PassOut(
            track_s=done - start,
            eval_s=sum(ns for ns, _ in tracer.reports) / 1e9,
            mota=arms["shape+conf"].mota,
            idf1=arms["shape+conf"].idf1,
            quality=tuple((s.label, s.mota, s.idf1, s.idsw) for s in summaries),
            ops=1,
            failed=0 if claim_held else 1,
        )


class MotFiles:
    """``sctrack track`` and ``sctrack eval`` in-process on a written file pair.

    frames_per_s is frames over the ``track`` call; eval_s is the ``eval``
    call, file reads included; wall_s is both.
    """

    min_passes = 3

    def __init__(self, seed, out_dir, objects=50, frames=300):
        self.seed, self.objects, self.frames = seed, objects, frames
        self.det_path = os.path.join(out_dir, "det.txt")
        self.gt_path = os.path.join(out_dir, "gt.txt")
        self.res_path = os.path.join(out_dir, "res.txt")

    def setup(self):
        gt, detections = make_crowd(self.seed, self.objects, self.frames)
        motio.write_ground_truth(self.gt_path, gt)
        motio.write_detections(self.det_path, detections)

    def run_pass(self, tracer):
        with redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            track_rc = cli.main(["track", "--detections", self.det_path, "--output", self.res_path])
            tracked = time.perf_counter()
            eval_rc = cli.main(["eval", "--gt", self.gt_path, "--res", self.res_path])
            done = time.perf_counter()
        failed = (track_rc != 0) + (eval_rc != 0)
        report = tracer.reports[-1][1] if eval_rc == 0 else None
        return PassOut(
            track_s=tracked - start,
            eval_s=done - tracked,
            mota=report.mota if report else 0.0,
            idf1=report.idf1 if report else 0.0,
            quality=(report.mota, report.idf1, report.idsw) if report else None,
            ops=2,
            failed=failed,
        )


WORKLOADS = {"crowd": Crowd, "ablation": Ablation, "mot_files": MotFiles}


def frame_ok(result) -> bool:
    """Track ids unique within the frame and every output box finite."""
    ids = [o.track_id for o in result.outputs]
    if len(set(ids)) != len(ids):
        return False
    return all(
        math.isfinite(v) for o in result.outputs for v in (o.box.x, o.box.y, o.box.a, o.box.h)
    )


def tail_percentile(samples: int, wanted: float) -> float:
    """The wanted percentile, or the highest one with TAIL_SAMPLES beyond it."""
    return min(wanted, 100.0 * (1.0 - TAIL_SAMPLES / samples)) if samples else 0.0


class Checks:
    """Counts output checks made and failed (the result's attempted/failed)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool):
        self.attempted += 1
        self.failed += 0 if ok else 1

    def pass_outputs(self, tracer, out, reference_quality):
        self.attempted += out.ops
        self.failed += out.failed
        for _, _, result in tracer.steps:
            self.check(frame_ok(result))
        for _, report in tracer.reports:
            self.check(report.matches + report.fn == report.gt_count)
        # passes are deterministic, and tracing must not change the output
        self.check(out.quality is not None and out.quality == reference_quality)
        self.check(tracer.restored())


def _step_samples_ns(tracer):
    """Step durations past each tracker's warm-up frames."""
    seen = {}
    samples = []
    for trk, ns, _ in tracer.steps:
        k = seen.get(trk, 0)
        seen[trk] = k + 1
        if k >= WARMUP_FRAMES:
            samples.append(ns)
    return samples


def run(workload: str, seed: int, seconds: float, trace: bool, out_dir: str, sizes=None):
    """Run one workload; returns ``(result, details)``.

    ``result`` holds correct/attempted/failed/metrics as the benchmark prints
    it; ``details`` holds the sample counts and everything else worth keeping.
    """
    os.makedirs(out_dir, exist_ok=True)
    make = WORKLOADS[workload]
    setups = []
    checks = Checks()
    min_passes = 4 if trace else make.min_passes
    untraced = []  # (wall_s, PassOut, frames, step samples in ns)
    traced = []  # (wall_s, Tracer)
    reference = None
    began = time.perf_counter()
    i = 0
    # stop before a pass that would end after ``seconds``, judged by the mean
    # time a set-up and pass has taken so far; a traced run ends on a pair
    while (
        i < min_passes
        or (trace and i % 2)
        or (time.perf_counter() - began) * (i + 1) / i <= seconds
    ):
        # every pass gets inputs of its own set-up; the previous inputs are
        # freed first, so that no set-up pays for them
        wl = None
        gc.collect()  # start each set-up and pass from the same heap state
        wl = make(seed, out_dir, **(sizes or {}))
        start = time.perf_counter()
        wl.setup()
        setups.append(time.perf_counter() - start)

        traced_pass = trace and i % 2 == 1
        tracer = Tracer(None if traced_pass else TIMING_PROBES)
        gc.collect()
        with tracer:
            start = time.perf_counter()
            out = wl.run_pass(tracer)
            wall = time.perf_counter() - start
        if reference is None:
            reference = out.quality
        checks.pass_outputs(tracer, out, reference)
        if traced_pass:
            traced.append((wall, tracer))
        else:
            untraced.append((wall, out, len(tracer.steps), _step_samples_ns(tracer)))
        tracer.steps.clear()  # the frame results are checked; free them
        i += 1

    details = {
        "workload": workload,
        "seed": seed,
        "passes": i,
        "setup_s_runs": setups,
        "quality": reference,
        "failed_frac": checks.failed / checks.attempted,
    }
    if trace:
        metrics_out = _layer_metrics(untraced, traced, checks)
        _write_spans(out_dir, workload, traced)
    else:
        metrics_out = _end_to_end(untraced, setups, details)
    metrics_out = {
        name: {"value": value, "unit": {**END_TO_END_UNITS, **LAYER_UNITS}[name]}
        for name, value in metrics_out.items()
    }
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics_out,
    }
    return result, details


def _end_to_end(passes, setups, details):
    walls = [wall for wall, *_ in passes]
    outs = [out for _, out, *_ in passes]
    # passes replay the same frames in the same order, so sample k of every
    # pass is the same frame; a frame's latency is its upper quartile over them
    frame_ms = np.percentile(np.array([samples for *_, samples in passes], dtype=np.float64), 75, axis=0) / 1e6
    tail = tail_percentile(len(frame_ms), 99.0)
    details.update(
        step_frames=len(frame_ms),
        step_ms_p99_percentile=tail,
        measured_passes=len(passes),
        pass_wall_s=walls,
        pass_eval_s=[out.eval_s for out in outs],
    )
    return {
        "setup_s": max(setups),
        "wall_s": max(walls),
        "frames_per_s": min(frames / out.track_s for _, out, frames, _ in passes),
        "step_ms_p50": float(np.percentile(frame_ms, 50)),
        "step_ms_p99": float(np.percentile(frame_ms, tail)),
        "eval_s": max(out.eval_s for out in outs),
        "mota": outs[0].mota,
        "idf1": outs[0].idf1,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _layer_metrics(untraced, traced, checks):
    per_pass = [tracer.layer_metrics() for _, tracer in traced]
    # counts are deterministic: every traced pass must repeat the first exactly
    for layer in per_pass[1:]:
        checks.check(
            all(v == per_pass[0][k] for k, v in layer.items() if not k.endswith(".self_ms"))
        )
    out = {k: statistics.median(layer[k] for layer in per_pass) for k in per_pass[0]}
    out["trace.overhead_frac"] = (
        statistics.median(wall for wall, _ in traced)
        / statistics.median(wall for wall, *_ in untraced)
        - 1.0
    )
    return out


def _write_spans(out_dir, workload, traced):
    """All spans of the traced passes, one npz per workload (overwritten per run)."""
    arrays = [tracer.arrays() for _, tracer in traced]
    offset = 0
    for a in arrays:
        # make parent and request ids unique across the concatenated passes
        a["parent"][a["parent"] >= 0] += offset
        a["request"] += offset
        offset += len(a["name"])
    np.savez_compressed(
        os.path.join(out_dir, f"spans-{workload}.npz"),
        names=arrays[0]["names"],
        **{
            key: np.concatenate([a[key] for a in arrays])
            for key in ("name", "start_ns", "end_ns", "parent", "request")
        },
    )
