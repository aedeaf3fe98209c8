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
from sctrack.geometry import ShapeIoUParams
from sctrack.kalman import NoiseConfig
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
        assert not cfg.shape_params.use_height_term
        assert not cfg.shape_params.use_area_term
        assert not cfg.noise_config.use_confidence_noise
        assert not cfg.noise_config.use_velocity_blend
        full = arm_config(base, COMPONENT_ARMS[3])
        assert full.shape_params.use_height_term and full.noise_config.use_velocity_blend

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
            shape_params=ShapeIoUParams(use_height_term=height, use_area_term=area),
            noise_config=NoiseConfig(use_confidence_noise=conf, use_velocity_blend=conf),
        )

    def test_baseline_reduces_to_plain_iou_association(self):
        # the baseline arm's distance is exactly 1 - IoU and the update is a
        # plain Kalman update; its run must match a manually built config
        from sctrack.geometry import ShapeIoUParams
        from sctrack.kalman import NoiseConfig

        manual = TrackerConfig(
            shape_params=ShapeIoUParams(use_height_term=False, use_area_term=False),
            noise_config=NoiseConfig(use_confidence_noise=False, use_velocity_blend=False),
        )
        gt, dets = generate(builtin_scenario("crossing_same_shape"))
        via_arm = run_sequence(dets, arm_config(TrackerConfig(), COMPONENT_ARMS[0]))
        via_manual = run_sequence(dets, manual)
        assert via_arm == via_manual


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
