import json
import re

import numpy as np
import pytest

from sctrack.motio import read_detections, read_ground_truth
from sctrack.synth import (
    IMAGE_HEIGHT,
    IMAGE_WIDTH,
    ObjectSpec,
    ScenarioSpec,
    builtin_scenario,
    builtin_scenarios,
    generate,
    save_scenario,
)


def simple_spec(**overrides):
    base = dict(
        name="test",
        frames=30,
        objects=(
            ObjectSpec(tlwh=(100.0, 100.0, 60.0, 120.0), velocity=(8.0, 0.0)),
            ObjectSpec(tlwh=(100.0, 500.0, 50.0, 100.0), velocity=(8.0, 1.0)),
        ),
    )
    base.update(overrides)
    return ScenarioSpec(**base)


class TestGenerate:
    def test_identity_degradation_reproduces_gt(self):
        gt, dets = generate(simple_spec())
        assert set(gt) == set(dets)
        for frame, rows in gt.items():
            assert len(dets[frame]) == len(rows)
            for (track_id, gbox), det in zip(rows, dets[frame]):
                assert det.score == 1.0
                assert det.box == gbox

    def test_same_seed_bitwise_identical(self):
        spec = simple_spec(noise_std_px=2.0, dropout_prob=0.1, false_positive_rate=0.5,
                           confidence_model="occlusion", rng_seed=99)
        gt1, det1 = generate(spec)
        gt2, det2 = generate(spec)
        assert gt1 == gt2
        assert det1 == det2

    def test_distinct_seeds_distinct_noise(self):
        a = generate(simple_spec(noise_std_px=2.0, rng_seed=1))[1]
        b = generate(simple_spec(noise_std_px=2.0, rng_seed=2))[1]
        assert a != b

    def test_full_dropout_empties_detections(self):
        gt, dets = generate(simple_spec(dropout_prob=1.0))
        assert gt and dets == {}

    def test_rejects_objects_starting_outside_canvas(self):
        with pytest.raises(ValueError):
            generate(simple_spec(objects=(ObjectSpec(tlwh=(-5.0, 10.0, 50.0, 100.0)),)))
        with pytest.raises(ValueError):
            generate(
                simple_spec(objects=(ObjectSpec(tlwh=(IMAGE_WIDTH - 10.0, 10.0, 50.0, 100.0)),))
            )

    def test_trajectories_are_linear_until_clipped(self):
        gt, _ = generate(simple_spec())
        first = dict(gt[1])[1]
        tenth = dict(gt[10])[1]
        assert tenth.x == pytest.approx(first.x + 8.0 * 9)
        assert tenth.h == first.h

    def test_boxes_clipped_to_canvas(self):
        spec = simple_spec(
            frames=300,
            objects=(ObjectSpec(tlwh=(1500.0, 100.0, 80.0, 160.0), velocity=(10.0, 0.0)),),
        )
        gt, _ = generate(spec)
        for rows in gt.values():
            for _, b in rows:
                x1, y1, x2, y2 = b.to_corners()
                assert 0 <= x1 < x2 <= IMAGE_WIDTH
                assert 0 <= y1 < y2 <= IMAGE_HEIGHT
        # the object eventually leaves the frame entirely
        assert max(gt) < 300

    def test_noise_perturbs_but_respects_validity(self):
        gt, dets = generate(simple_spec(noise_std_px=3.0, rng_seed=5))
        for rows in dets.values():
            for det in rows:
                assert det.box.h > 0 and det.box.a > 0

    def test_occlusion_model_dips_confidence(self):
        # two overlapping objects: the one listed first is behind
        spec = simple_spec(
            objects=(
                ObjectSpec(tlwh=(500.0, 300.0, 60.0, 120.0), velocity=(0.0, 0.0)),
                ObjectSpec(tlwh=(520.0, 310.0, 60.0, 120.0), velocity=(0.0, 0.0)),
            ),
            confidence_model="occlusion",
        )
        _, dets = generate(spec)
        back_scores = [rows[0].score for rows in dets.values() if len(rows) == 2]
        front_scores = [rows[1].score for rows in dets.values() if len(rows) == 2]
        assert np.mean(back_scores) < np.mean(front_scores) - 0.3

    def test_unknown_confidence_model_rejected(self):
        with pytest.raises(ValueError):
            simple_spec(confidence_model="magic")

    def test_rejects_out_of_range_parameters(self):
        with pytest.raises(ValueError):
            simple_spec(dropout_prob=1.5)
        with pytest.raises(ValueError):
            simple_spec(noise_std_px=-1.0)
        with pytest.raises(ValueError):
            simple_spec(frames=0)

    @pytest.mark.parametrize("field", ["noise_std_px", "false_positive_rate"])
    @pytest.mark.parametrize("value", [float("nan"), -1.0])
    def test_nan_or_negative_rate_is_rejected_by_name(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be non-negative, got {value}$"):
            simple_spec(**{field: value})

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("frames", 2.5, "frames must be an integer >= 1, got 2.5"),
            ("frames", 0, "frames must be an integer >= 1, got 0"),
            ("rng_seed", -1, "rng_seed must be an integer >= 0, got -1"),
            ("rng_seed", 1.0, "rng_seed must be an integer >= 0, got 1.0"),
        ],
        ids=["fractional_frames", "zero_frames", "negative_seed", "float_seed"],
    )
    def test_bad_frame_count_or_seed_is_rejected_by_name(self, field, value, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            simple_spec(**{field: value})

    @pytest.mark.parametrize(
        "obj, message",
        [
            (ObjectSpec((100, 100, -50, 100), (1, 0)), "tlwh width and height must be >= 1.0"),
            (ObjectSpec((100, 100, 50, 0.5), (1, 0)), "tlwh width and height must be >= 1.0"),
            (ObjectSpec((float("nan"), 100, 50, 100), (1, 0)), "tlwh must be 4 finite numbers"),
            (ObjectSpec((100, 100, 50, float("inf")), (1, 0)), "tlwh must be 4 finite numbers"),
            (ObjectSpec((100, 100, 50, 100), (1, float("nan"))), "velocity must be 2 finite numbers"),
            (ObjectSpec((100, 100, 50), (1, 0)), "tlwh must be 4 finite numbers"),
        ],
        ids=["negative_width", "short_height", "nan_x", "infinite_height", "nan_velocity", "three_fields"],
    )
    def test_bad_object_is_rejected_by_index_and_field(self, obj, message):
        good = ObjectSpec((10.0, 10.0, 50.0, 100.0))
        with pytest.raises(ValueError, match=f"^object 1: {re.escape(message)}, got "):
            simple_spec(objects=(good, obj))


class TestBuiltinScenarios:
    def test_contains_the_named_scenarios(self):
        names = {s.name for s in builtin_scenarios()}
        assert {
            "straight_clean",
            "crossing_same_shape",
            "crossing_distinct_shape",
            "occlusion_lowconf",
        } <= names

    def test_crossing_distinct_shape_has_two_aspect_ratios(self):
        gt, _ = generate(builtin_scenario("crossing_distinct_shape"))
        by_id = {}
        for rows in gt.values():
            for track_id, b in rows:
                by_id.setdefault(track_id, b)
        aspects = [b.a for b in by_id.values()]
        assert len(aspects) == 2
        assert max(aspects) / min(aspects) >= 2.0

    def test_occlusion_lowconf_hits_the_low_band(self):
        _, dets = generate(builtin_scenario("occlusion_lowconf"))
        scores = [d.score for rows in dets.values() for d in rows]
        assert any(0.1 <= s < 0.6 for s in scores)
        assert any(s >= 0.6 for s in scores)

    def test_lookup_with_seed_override(self):
        spec = builtin_scenario("straight_clean", seed=123)
        assert spec.rng_seed == 123

    def test_unknown_name_lists_alternatives(self):
        with pytest.raises(KeyError, match="straight_clean"):
            builtin_scenario("wibble")


class TestSaveScenario:
    def test_writes_three_files(self, tmp_path):
        paths = save_scenario(builtin_scenario("straight_clean"), tmp_path / "out")
        gt = read_ground_truth(paths["gt"])
        dets = read_detections(paths["det"])
        assert gt and dets
        meta = json.loads((tmp_path / "out" / "scenario.json").read_text())
        assert meta["name"] == "straight_clean"
        assert ScenarioSpec.from_dict(meta) == builtin_scenario("straight_clean")

    def test_gt_survives_file_round_trip(self, tmp_path):
        spec = simple_spec(noise_std_px=1.0, rng_seed=3)
        paths = save_scenario(spec, tmp_path / "rt")
        gt, _ = generate(spec)
        read_back = read_ground_truth(paths["gt"])
        assert set(read_back) == set(gt)
        for frame, rows in gt.items():
            parsed = read_back[frame]
            assert len(parsed) == len(rows)
            for (track_id, b), entry in zip(rows, parsed):
                assert entry.track_id == track_id
                assert entry.evaluable
                for got, want in zip(entry.box.to_tlwh(), b.to_tlwh()):
                    assert abs(got - want) <= 0.005 + 1e-9

    def test_deterministic_files(self, tmp_path):
        spec = builtin_scenario("crossing_distinct_shape", seed=42)
        p1 = save_scenario(spec, tmp_path / "a")
        p2 = save_scenario(spec, tmp_path / "b")
        for key in ("gt", "det", "meta"):
            with open(p1[key], "rb") as f1, open(p2[key], "rb") as f2:
                assert f1.read() == f2.read()


class TestSpecFromDict:
    @pytest.mark.parametrize("spec", builtin_scenarios(), ids=lambda spec: spec.name)
    def test_every_builtin_round_trips_through_json(self, spec):
        assert ScenarioSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec

    def test_absent_fields_take_the_defaults(self):
        data = {"name": "test", "frames": 5, "objects": [{"tlwh": [0, 0, 10, 20]}]}
        assert ScenarioSpec.from_dict(data) == ScenarioSpec("test", 5, (ObjectSpec((0, 0, 10, 20)),))

    def test_misspelt_key_is_named(self):
        data = simple_spec(dropout_prob=0.3).to_dict()
        data["dropout"] = data.pop("dropout_prob")
        with pytest.raises(ValueError, match="unknown scenario key 'dropout'"):
            ScenarioSpec.from_dict(data)
