"""Paired-arm comparison harness over synthetic scenarios.

Every arm tracks the *same* detection stream (one generation per
scenario/seed), so metric differences are attributable to the association
configuration alone.  Two arm families are provided: the component arms
(baseline / shape terms / confidence update / both) and the shape-term arms
(no terms / height only / area only / both, confidence update off).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from . import metrics, synth, tracker
from .frames import frame_boxes
from .metrics import MetricsReport
from .tracker import TrackerConfig


@dataclass(frozen=True)
class AblationArm:
    """One tracker configuration variant in a comparison table."""

    label: str
    use_height_term: bool
    use_area_term: bool
    use_confidence: bool


COMPONENT_ARMS = (
    AblationArm("baseline", False, False, False),
    AblationArm("shape", True, True, False),
    AblationArm("conf", False, False, True),
    AblationArm("shape+conf", True, True, True),
)

SHAPE_TERM_ARMS = (
    AblationArm("none", False, False, False),
    AblationArm("height", True, False, False),
    AblationArm("area", False, True, False),
    AblationArm("height+area", True, True, False),
)

ARM_FAMILIES = {"components": COMPONENT_ARMS, "shape-terms": SHAPE_TERM_ARMS}


def arm_config(base: TrackerConfig, arm: AblationArm) -> TrackerConfig:
    """Apply an arm's switches to a base tracker configuration."""
    return replace(
        base, use_height_term=arm.use_height_term, use_area_term=arm.use_area_term, use_confidence=arm.use_confidence
    )


def results_to_map(frame_results):
    """Tracker frame results as the evaluator's frame -> ``FrameBoxes`` map,
    leaving out frames without outputs."""
    return {fr.frame_index: fr.boxes for fr in frame_results if len(fr.boxes.ids)}


def evaluate_run(gt, detections, config: TrackerConfig) -> MetricsReport:
    """Track a detection stream and score it against ground truth."""
    frame_results = tracker.run_sequence(detections, config)
    return metrics.evaluate(gt, results_to_map(frame_results))


@dataclass(frozen=True)
class ArmSummary:
    """Aggregate over all scenario/seed runs of one arm."""

    label: str
    reports: tuple[MetricsReport, ...]

    @property
    def idsw(self) -> int:
        return sum(r.idsw for r in self.reports)

    @property
    def mota(self) -> float:
        """Pooled accuracy: counts summed over runs before the ratio."""
        gt = sum(r.gt_count for r in self.reports)
        bad = sum(r.fn + r.fp + r.idsw for r in self.reports)
        return 1.0 - bad / gt if gt else 0.0

    @property
    def idf1(self) -> float:
        """Ground-truth-weighted mean of the per-run identity scores."""
        gt = sum(r.gt_count for r in self.reports)
        if not gt:
            return 0.0
        return sum(r.idf1 * r.gt_count for r in self.reports) / gt


def run_ablation(
    scenario_names,
    seeds,
    arms=COMPONENT_ARMS,
    base_config: TrackerConfig = TrackerConfig(),
) -> list[ArmSummary]:
    """Run every arm over every (scenario, seed) pair with shared detections.

    Each run's ground truth is converted to ``FrameBoxes`` once, for all arms.
    """
    runs = []
    for name in scenario_names:
        for seed in seeds:
            gt, detections = synth.generate(synth.builtin_scenario(name, seed=seed))
            runs.append(({frame: frame_boxes(rows) for frame, rows in gt.items()}, detections))

    summaries = []
    for arm in arms:
        config = arm_config(base_config, arm)
        reports = tuple(evaluate_run(gt, dets, config) for gt, dets in runs)
        summaries.append(ArmSummary(label=arm.label, reports=reports))
    return summaries


def format_table(summaries) -> str:
    """Render arm summaries as an aligned comparison table."""
    header = f"{'arm':<14}{'IDF1%':>8}{'MOTA%':>8}{'IDSW':>6}"
    lines = [header, "-" * len(header)]
    for s in summaries:
        lines.append(f"{s.label:<14}{s.idf1 * 100:>8.1f}{s.mota * 100:>8.1f}{s.idsw:>6d}")
    return "\n".join(lines)
