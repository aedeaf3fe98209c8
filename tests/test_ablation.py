import pytest

from sctrack.ablation import (
    ARM_FAMILIES,
    COMPONENT_ARMS,
    SHAPE_TERM_ARMS,
    arm_config,
    evaluate_run,
    format_table,
    results_to_map,
    run_ablation,
)
from sctrack.geometry import shape_iou_distance
from sctrack.synth import builtin_scenario, generate
from sctrack.tracker import TrackerConfig, run_sequence


class TestArms:
    def test_component_arm_labels(self):
        assert [a.label for a in COMPONENT_ARMS] == ["baseline", "shape", "conf", "shape+conf"]

    def test_shape_term_arm_labels(self):
        assert [a.label for a in SHAPE_TERM_ARMS] == ["none", "height", "area", "height+area"]

    def test_arm_config_applies_switches(self):
        base = TrackerConfig()
        cfg = arm_config(base, COMPONENT_ARMS[0])
        assert not cfg.use_height_term
        assert not cfg.use_area_term
        assert not cfg.use_confidence
        full = arm_config(base, COMPONENT_ARMS[3])
        assert full.use_height_term and full.use_area_term and full.use_confidence

    @pytest.mark.parametrize(
        "family, label, height, area, conf",
        [
            ("components", "baseline", False, False, False),
            ("components", "shape", True, True, False),
            ("components", "conf", False, False, True),
            ("components", "shape+conf", True, True, True),
            ("shape-terms", "none", False, False, False),
            ("shape-terms", "height", True, False, False),
            ("shape-terms", "area", False, True, False),
            ("shape-terms", "height+area", True, True, False),
        ],
    )
    def test_arm_config_sets_only_the_switches(self, family, label, height, area, conf):
        base = TrackerConfig(high_thresh=0.7, max_lost_frames=12)
        (arm,) = [a for a in ARM_FAMILIES[family] if a.label == label]
        assert arm_config(base, arm) == TrackerConfig(
            high_thresh=0.7,
            max_lost_frames=12,
            use_height_term=height,
            use_area_term=area,
            use_confidence=conf,
        )

    def test_baseline_reduces_to_plain_iou_association(self):
        # the baseline arm's distance is exactly 1 - IoU and the update is a
        # plain Kalman update; its run must match a manually built config
        manual = TrackerConfig(use_height_term=False, use_area_term=False, use_confidence=False)
        gt, dets = generate(builtin_scenario("crossing_same_shape"))
        via_arm = run_sequence(dets, arm_config(TrackerConfig(), COMPONENT_ARMS[0]))
        via_manual = run_sequence(dets, manual)
        assert via_arm == via_manual


class TestShapeMechanism:
    def test_shape_terms_keep_the_crossing_pair_outside_the_stage_one_gate(self):
        # the two objects of crossing_distinct_shape swap a 120x60 and a 60x120
        # box; plain 1 - IoU between them falls inside the stage-1 gate on
        # exactly frames 37-42, and the shape terms push every one back out
        gt, _ = generate(builtin_scenario("crossing_distinct_shape"))
        gate = TrackerConfig().match_gate_stage1
        plain, full = {}, {}
        for frame, rows in gt.items():
            boxes = dict(rows)
            plain[frame] = shape_iou_distance(boxes[1], boxes[2], use_height_term=False, use_area_term=False)
            full[frame] = shape_iou_distance(boxes[1], boxes[2])
        inside = [frame for frame in sorted(gt) if plain[frame] <= gate]
        assert inside == list(range(37, 43))
        assert all(full[frame] > gate for frame in inside)
        # at full overlap IoU is 1/3 and the height term adds (60/120)**2
        assert min(full[frame] for frame in inside) == pytest.approx(1 - 1 / 3 + 0.25)


class TestRunAblation:
    def test_four_rows_with_metrics(self):
        summaries = run_ablation(["straight_clean"], seeds=[7])
        assert len(summaries) == 4
        for s in summaries:
            assert len(s.reports) == 1
            assert 0.0 <= s.idf1 <= 1.0
            assert s.idsw >= 0

    def test_degenerate_scenario_separates_nothing(self):
        summaries = run_ablation(["straight_clean"], seeds=[1, 2, 3])
        for s in summaries:
            assert s.idsw == 0
            assert s.mota == pytest.approx(1.0)
            assert s.idf1 == pytest.approx(1.0)

    def test_shape_arms_do_not_switch_more_than_baseline(self):
        summaries = {
            s.label: s
            for s in run_ablation(
                ["crossing_distinct_shape", "occlusion_lowconf"], seeds=range(1, 6)
            )
        }
        assert summaries["shape"].idsw <= summaries["baseline"].idsw
        assert summaries["shape+conf"].idsw <= summaries["baseline"].idsw

    def test_default_seed_crossing_shows_the_gap(self):
        gt, dets = generate(builtin_scenario("crossing_distinct_shape"))
        base = evaluate_run(gt, dets, arm_config(TrackerConfig(), COMPONENT_ARMS[0]))
        full = evaluate_run(gt, dets, arm_config(TrackerConfig(), COMPONENT_ARMS[3]))
        assert base.idsw != full.idsw
        assert full.idsw <= base.idsw

    def test_results_to_map_drops_empty_frames(self):
        gt, dets = generate(builtin_scenario("straight_clean"))
        frame_results = run_sequence(dets, TrackerConfig())
        mapped = results_to_map(frame_results)
        assert set(mapped) <= {fr.frame_index for fr in frame_results}
        assert all(rows for rows in mapped.values())


class TestFormatting:
    def test_table_has_header_and_one_row_per_arm(self):
        summaries = run_ablation(["straight_clean"], seeds=[7], arms=SHAPE_TERM_ARMS)
        table = format_table(summaries)
        lines = table.splitlines()
        assert len(lines) == 2 + len(SHAPE_TERM_ARMS)
        assert "IDF1%" in lines[0] and "MOTA%" in lines[0] and "IDSW" in lines[0]
        for arm, line in zip(SHAPE_TERM_ARMS, lines[2:]):
            assert line.startswith(arm.label)

    def test_arm_families_registry(self):
        assert set(ARM_FAMILIES) == {"components", "shape-terms"}
