import os
import warnings

import pytest

from sctrack.ablation import COMPONENT_ARMS, arm_config
from sctrack import tracker
from sctrack.cli import _tracker_config, build_parser, load_config, main
from sctrack.metrics import MetricsReport
from sctrack.motio import read_detections, read_ground_truth, read_results
from sctrack.synth import builtin_scenario, builtin_scenarios, save_scenario
from sctrack.tracker import TrackerConfig


@pytest.fixture
def scenario_dir(tmp_path):
    return save_scenario(builtin_scenario("crossing_distinct_shape"), tmp_path / "scn")


# positive width and height, but at x = 10 the corner form has x + w == x
ZERO_AREA_BOX = "10,10,1e-30,1e-30,1.0,-1,-1,-1"
# finite fields, but the corner-form area 1e310 overflows float64
OVERFLOW_BOX = "1,1,1e300,1e10,1.0,-1,-1,-1"
GOOD_BOX = "0,0,50,100,1,-1,-1,-1"


class TestTrack:
    def test_writes_parseable_results_with_ascending_frames(self, tmp_path, scenario_dir, capsys):
        out = tmp_path / "res.txt"
        assert main(["track", "--detections", scenario_dir["det"], "--output", str(out)]) == 0
        frames = [int(line.split(",")[0]) for line in out.read_text().strip().splitlines()]
        assert frames == sorted(frames) and frames
        printed = capsys.readouterr().out
        assert "tracking time: " in printed and " ms per frame" in printed

    def test_zero_area_detections_are_rejected(self, tmp_path, capsys):
        det = tmp_path / "det.txt"
        det.write_text(f"1,-1,{ZERO_AREA_BOX}\n2,-1,{ZERO_AREA_BOX}\n")
        out = tmp_path / "res.txt"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["track", "--detections", str(det), "--output", str(out)]) == 0
        assert out.read_text() == ""

    def test_overflowing_detections_are_rejected_and_counted(self, tmp_path, caplog):
        det = tmp_path / "det.txt"
        det.write_text(f"1,-1,{GOOD_BOX}\n1,-1,{OVERFLOW_BOX}\n2,-1,{GOOD_BOX}\n2,-1,{OVERFLOW_BOX}\n")
        out = tmp_path / "res.txt"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["track", "--detections", str(det), "--output", str(out)]) == 0
        assert "rejected 2 row(s)" in caplog.text
        assert [line.split(",")[:2] for line in out.read_text().splitlines()] == [["1", "1"], ["2", "1"]]

    def test_far_apart_extents_track_without_a_warning(self, tmp_path):
        # accepted boxes whose enclosing rectangle's area overflows in the
        # shape terms
        rows = ["-1e160,0,1e145,1,0.9,-1,-1,-1", "0,1e160,1,1e145,0.9,-1,-1,-1"]
        det = tmp_path / "det.txt"
        det.write_text("".join(f"{frame},-1,{row}\n" for frame in (1, 2) for row in rows))
        out = tmp_path / "res.txt"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["track", "--detections", str(det), "--output", str(out)]) == 0
        ids = [line.split(",")[:2] for line in out.read_text().splitlines()]
        assert ids == [["1", "1"], ["1", "2"], ["2", "1"], ["2", "2"]]

    def test_tracking_failure_is_an_error_line(self, tmp_path, scenario_dir, monkeypatch, capsys):
        def failing_step(self, frame_index, detections):
            raise ValueError("state went bad")

        monkeypatch.setattr(tracker.SCTracker, "step", failing_step)
        out = tmp_path / "res.txt"
        assert main(["track", "--detections", scenario_dir["det"], "--output", str(out)]) == 1
        assert capsys.readouterr().err == "error: tracking failed at frame 1: state went bad\n"
        assert not out.exists()

    def test_missing_detections_file_fails_with_path(self, tmp_path, capsys):
        missing = tmp_path / "nope.txt"
        code = main(["track", "--detections", str(missing), "--output", str(tmp_path / "r.txt")])
        assert code == 1
        assert "nope.txt" in capsys.readouterr().err

    def test_flag_toggles_change_tracking(self, tmp_path, scenario_dir):
        default_out = tmp_path / "full.txt"
        plain_out = tmp_path / "plain.txt"
        assert main(["track", "--detections", scenario_dir["det"], "--output", str(default_out)]) == 0
        assert (
            main(
                [
                    "track", "--detections", scenario_dir["det"], "--output", str(plain_out),
                    "--no-shape", "--no-conf",
                ]
            )
            == 0
        )
        assert default_out.read_text() != plain_out.read_text()

    def test_paired_runs_differ_in_idsw(self, tmp_path, scenario_dir):
        from sctrack.metrics import evaluate

        def eval_run(*flags):
            out = tmp_path / f"res{len(flags)}.txt"
            assert main(["track", "--detections", scenario_dir["det"], "--output", str(out), *flags]) == 0
            gt_rows = read_ground_truth(scenario_dir["gt"])
            gt = {
                f: [(e.track_id, e.box) for e in rows if e.evaluable]
                for f, rows in gt_rows.items()
            }
            return evaluate(gt, read_results(out))

        # same detections, different switch counts: the shape and confidence
        # mechanisms change the association outcome
        full = eval_run()
        plain = eval_run("--no-shape", "--no-conf")
        assert full.idsw != plain.idsw
        assert full.idsw <= plain.idsw

    def test_config_file_and_flag_precedence(self, tmp_path, scenario_dir):
        cfg = tmp_path / "conf.cfg"
        cfg.write_text("high_thresh = 0.99\nlow_thresh = 0.98\n")
        out = tmp_path / "res.txt"
        # file alone: nearly everything gated out of the high band
        assert main(["track", "--detections", scenario_dir["det"], "--output", str(out), "--config", str(cfg)]) == 0
        strict = out.read_text()
        # flags override the file
        assert (
            main(
                [
                    "track", "--detections", scenario_dir["det"], "--output", str(out),
                    "--config", str(cfg), "--high-thresh", "0.6", "--low-thresh", "0.1",
                ]
            )
            == 0
        )
        assert out.read_text() != strict

    def test_env_var_supplies_default_config(self, tmp_path, scenario_dir, monkeypatch):
        cfg = tmp_path / "conf.cfg"
        cfg.write_text("high_thresh = 0.99\nlow_thresh = 0.98\n")
        out_env = tmp_path / "env.txt"
        out_plain = tmp_path / "plain.txt"
        monkeypatch.setenv("SCTRACK_CONFIG", str(cfg))
        assert main(["track", "--detections", scenario_dir["det"], "--output", str(out_env)]) == 0
        monkeypatch.delenv("SCTRACK_CONFIG")
        assert main(["track", "--detections", scenario_dir["det"], "--output", str(out_plain)]) == 0
        assert out_env.read_text() != out_plain.read_text()


    def test_config_file_sets_every_key(self, tmp_path):
        cfg = tmp_path / "all.cfg"
        cfg.write_text(
            "high_thresh = 0.65\nlow_thresh = 0.2\nnew_track_thresh = 0.75\n"
            "match_gate_stage1 = 0.8\nmatch_gate_stage2 = 0.4\nmatch_gate_unconfirmed = 0.6\n"
            "max_lost_frames = 12\nuse_height_term = false\nuse_area_term = true\n"
            "use_confidence = false\n"
        )
        args = build_parser().parse_args(["track", "--detections", "d", "--output", "o", "--config", str(cfg)])
        assert _tracker_config(args) == TrackerConfig(
            high_thresh=0.65, low_thresh=0.2, new_track_thresh=0.75,
            match_gate_stage1=0.8, match_gate_stage2=0.4, match_gate_unconfirmed=0.6,
            max_lost_frames=12, use_height_term=False, use_area_term=True,
            use_confidence=False,
        )

    def test_rejected_file_value_names_file_and_line(self, tmp_path, scenario_dir, capsys, monkeypatch):
        monkeypatch.delenv("SCTRACK_CONFIG", raising=False)
        cfg = tmp_path / "conf.cfg"
        cfg.write_text("high_thresh = 0.6\n# comment\nlow_thresh = 0.9\n")
        argv = ["track", "--detections", scenario_dir["det"], "--output", str(tmp_path / "res.txt")]
        assert main(argv + ["--config", str(cfg)]) == 1
        assert capsys.readouterr().err == (
            f"error: {cfg}:3: need 0 <= low_thresh < high_thresh <= 1, got low=0.9, high=0.6\n"
        )
        # a flag overrides the file's low_thresh: the file line left is high_thresh's
        assert main(argv + ["--config", str(cfg), "--low-thresh", "0.7"]) == 1
        assert capsys.readouterr().err.startswith(f"error: {cfg}:1: need 0 <= low_thresh")
        # a flag can repair a file value, since only the final values are checked
        assert main(argv + ["--config", str(cfg), "--low-thresh", "0.2"]) == 0

    def test_rejection_naming_only_flags_has_no_line(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("SCTRACK_CONFIG", raising=False)
        cfg = tmp_path / "conf.cfg"
        cfg.write_text("max_lost_frames = 12\n")
        argv = ["track", "--detections", "d", "--output", "o", "--config", str(cfg), "--gate1", "-1"]
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: match_gate_stage1 must be non-negative\n"

    def test_nan_gate_is_an_error(self, tmp_path, capsys, monkeypatch):
        # a NaN gate fails by name, from a flag or a file line, rather than
        # running as a gate that admits nothing
        monkeypatch.delenv("SCTRACK_CONFIG", raising=False)
        argv = ["track", "--detections", "d", "--output", "o"]
        assert main(argv + ["--gate1", "nan"]) == 1
        assert capsys.readouterr().err == "error: match_gate_stage1 must be non-negative\n"
        cfg = tmp_path / "conf.cfg"
        cfg.write_text("max_lost_frames = 12\nmatch_gate_stage1 = nan\n")
        assert main(argv + ["--config", str(cfg)]) == 1
        assert capsys.readouterr().err == f"error: {cfg}:2: match_gate_stage1 must be non-negative\n"

    def test_load_config_returns_values_only(self, tmp_path):
        cfg = tmp_path / "conf.cfg"
        cfg.write_text("low_thresh = 0.9\nuse_area_term = no\n")
        assert load_config(cfg) == {"low_thresh": 0.9, "use_area_term": False}

    def test_switches_give_the_baseline_arm(self, monkeypatch):
        monkeypatch.delenv("SCTRACK_CONFIG", raising=False)
        args = build_parser().parse_args(
            ["track", "--detections", "d", "--output", "o", "--no-shape", "--no-conf"]
        )
        assert _tracker_config(args) == arm_config(TrackerConfig(), COMPONENT_ARMS[0])

    @pytest.mark.parametrize(
        "argv",
        [
            ["ablate", "--no-shape"],
            ["ablate", "--no-conf"],
            ["track", "--detections", "d", "--output", "o", "--no-shape-height"],
            ["track", "--detections", "d", "--output", "o", "--no-shape-area"],
            ["track", "--detections", "d", "--output", "o", "--epsilon", "1e-7"],
            ["ablate", "--epsilon", "1e-7"],
        ],
    )
    def test_removed_switches_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestEval:
    def test_gt_vs_itself_is_perfect(self, tmp_path, scenario_dir, capsys):
        assert main(["eval", "--gt", scenario_dir["gt"], "--res", scenario_dir["gt"]]) == 0
        printed = capsys.readouterr().out
        assert "100.00%" in printed
        assert "IDSW      0" in printed

    def test_empty_results_score_zero_mota(self, tmp_path, scenario_dir, capsys):
        empty = tmp_path / "empty.txt"
        empty.write_text("")
        assert main(["eval", "--gt", scenario_dir["gt"], "--res", str(empty)]) == 0
        assert "MOTA      0.00%" in capsys.readouterr().out

    def test_report_csv_round_trip(self, tmp_path, scenario_dir):
        report_path = tmp_path / "report.csv"
        assert (
            main(
                [
                    "eval", "--gt", scenario_dir["gt"], "--res", scenario_dir["gt"],
                    "--output", str(report_path),
                ]
            )
            == 0
        )
        header, values = report_path.read_text().splitlines()
        report = dict(zip(header.split(","), values.split(",")))
        assert header == MetricsReport.CSV_HEADER
        assert float(report["mota"]) == 1.0 and int(report["idsw"]) == 0

    def test_empty_gt_is_an_error(self, tmp_path, capsys):
        gt = tmp_path / "gt.txt"
        gt.write_text("")
        res = tmp_path / "res.txt"
        res.write_text("")
        assert main(["eval", "--gt", str(gt), "--res", str(res)]) == 1

    def test_repeated_result_id_is_an_error(self, tmp_path, capsys):
        gt = tmp_path / "gt.txt"
        gt.write_text(
            "1,1,0,0,50,100,1,-1,-1,-1\n1,2,300,0,50,100,1,-1,-1,-1\n"
            "2,1,0,0,50,100,1,-1,-1,-1\n2,2,300,0,50,100,1,-1,-1,-1\n"
        )
        res = tmp_path / "res.txt"
        res.write_text(
            "1,7,0,0,50,100,1,-1,-1,-1\n1,7,300,0,50,100,1,-1,-1,-1\n"
            "2,7,0,0,50,100,1,-1,-1,-1\n2,7,300,0,50,100,1,-1,-1,-1\n"
        )
        assert main(["eval", "--gt", str(gt), "--res", str(res)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "frame 1 repeats id 7" in captured.err

    @pytest.mark.parametrize(
        "frames",
        [
            (1, 1),  # two ids in one frame: not a repeat of the first one
            (1, 2),  # one id per frame: would score as one identity
        ],
    )
    def test_ids_from_2_53_are_an_error(self, tmp_path, capsys, frames):
        gt = tmp_path / "gt.txt"
        gt.write_text("1,1,0,0,50,100,1,-1,-1,-1\n2,2,300,0,50,100,1,-1,-1,-1\n")
        res = tmp_path / "res.txt"
        first, second = frames
        res.write_text(
            f"{first},9007199254740992,0,0,50,100,1,-1,-1,-1\n{second},9007199254740993,300,0,50,100,1,-1,-1,-1\n"
        )
        assert main(["eval", "--gt", str(gt), "--res", str(res)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {res}:1: frame and id must lie below 2**53 in magnitude, got '{first}', '9007199254740992'\n"
        )

    def test_zero_area_ground_truth_is_an_error(self, tmp_path, capsys):
        gt = tmp_path / "gt.txt"
        gt.write_text(f"1,1,{ZERO_AREA_BOX}\n2,1,{ZERO_AREA_BOX}\n")
        assert main(["eval", "--gt", str(gt), "--res", str(gt)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {gt}:1: ground-truth row has invalid frame or box geometry\n"

    def test_zero_area_result_is_skipped(self, tmp_path, capsys):
        gt = tmp_path / "gt.txt"
        gt.write_text("1,1,0,0,50,100,1,-1,-1,-1\n")
        res = tmp_path / "res.txt"
        res.write_text(f"1,1,0,0,50,100,1,-1,-1,-1\n1,2,{ZERO_AREA_BOX}\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["eval", "--gt", str(gt), "--res", str(res)]) == 0
        assert "MOTA      100.00%" in capsys.readouterr().out

    def test_overflowing_ground_truth_is_an_error(self, tmp_path, capsys):
        gt = tmp_path / "gt.txt"
        gt.write_text(f"1,1,{GOOD_BOX}\n1,2,{OVERFLOW_BOX}\n")
        assert main(["eval", "--gt", str(gt), "--res", str(gt)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {gt}:2: ground-truth row has invalid frame or box geometry\n"

    def test_overflowing_result_is_skipped(self, tmp_path, capsys):
        gt = tmp_path / "gt.txt"
        gt.write_text(f"1,1,{GOOD_BOX}\n")
        res = tmp_path / "res.txt"
        res.write_text(f"1,1,{GOOD_BOX}\n1,2,{OVERFLOW_BOX}\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["eval", "--gt", str(gt), "--res", str(res)]) == 0
        assert "MOTA      100.00%" in capsys.readouterr().out

    @pytest.mark.parametrize("thresh", ["nan", "-0.2", "0", "1.5"])
    def test_out_of_range_iou_thresh_is_an_error(self, scenario_dir, capsys, thresh):
        argv = ["eval", "--gt", scenario_dir["gt"], "--res", scenario_dir["gt"], "--iou-thresh", thresh]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and f"got {float(thresh)}" in captured.err

    @pytest.mark.parametrize("bad", ["gt", "res"])
    def test_non_finite_row_names_file_and_line(self, tmp_path, capsys, bad):
        paths = {name: tmp_path / f"{name}_nan.txt" for name in ("gt", "res")}
        for name, path in paths.items():
            path.write_text(f"1,1,{'nan' if name == bad else '0'},0,50,100,1,-1,-1,-1\n")
        assert main(["eval", "--gt", str(paths["gt"]), "--res", str(paths["res"])]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and f"{bad}_nan.txt:1:" in captured.err


class TestSynth:
    def test_writes_scenario_files(self, tmp_path):
        out = tmp_path / "scn"
        assert main(["synth", "--scenario", "occlusion_lowconf", "--output", str(out)]) == 0
        assert (out / "gt.txt").exists()
        assert (out / "det.txt").exists()
        assert (out / "scenario.json").exists()
        assert read_ground_truth(out / "gt.txt")
        assert read_detections(out / "det.txt")

    def test_deterministic_for_same_seed(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["synth", "--scenario", "crossing_distinct_shape", "--seed", "42", "--output", str(a)]) == 0
        assert main(["synth", "--scenario", "crossing_distinct_shape", "--seed", "42", "--output", str(b)]) == 0
        for name in ("gt.txt", "det.txt", "scenario.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_unknown_scenario_lists_names(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--scenario", "wibble", "--output", str(tmp_path / "x")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert all(spec.name in err for spec in builtin_scenarios())
        assert not (tmp_path / "x").exists()

    def test_negative_seed_is_an_error_line_naming_rng_seed(self, tmp_path, capsys):
        argv = ["synth", "--scenario", "straight_clean", "--seed", "-1", "--output", str(tmp_path / "x")]
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: rng_seed must be an integer >= 0, got -1\n"


class TestAblate:
    def test_component_table(self, capsys):
        assert main(["ablate", "--scenario", "straight_clean", "--seed", "1", "--num-seeds", "2"]) == 0
        out = capsys.readouterr().out
        lines = [ln for ln in out.splitlines() if ln.strip()]
        for label in ("baseline", "shape", "conf", "shape+conf"):
            assert any(ln.startswith(label) for ln in lines)
        assert any("IDF1%" in ln for ln in lines)

    def test_shape_term_table_has_four_rows(self, capsys):
        assert (
            main(
                [
                    "ablate", "--scenario", "straight_clean", "--seed", "1",
                    "--num-seeds", "1", "--mode", "shape-terms",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        for label in ("none", "height", "area", "height+area"):
            assert any(ln.startswith(label) for ln in out.splitlines())

    def test_perfect_on_clean_scenario(self, capsys):
        assert main(["ablate", "--scenario", "straight_clean", "--seed", "3", "--num-seeds", "2"]) == 0
        out = capsys.readouterr().out
        data_lines = [ln for ln in out.splitlines() if ln.startswith(("baseline", "shape", "conf"))]
        assert len(data_lines) == 4
        for line in data_lines:
            assert "100.0" in line
            assert line.rstrip().endswith("0")

    def test_unknown_scenario_is_a_usage_error_listing_every_name(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["ablate", "--scenario", "nope"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'nope'" in err
        assert all(spec.name in err for spec in builtin_scenarios())

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_non_positive_seed_count_is_a_usage_error(self, count, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["ablate", "--scenario", "straight_clean", "--num-seeds", count])
        assert exc.value.code == 2
        assert "--num-seeds" in capsys.readouterr().err

    def test_tracking_failure_is_an_error_line(self, monkeypatch, capsys):
        def failing_step(self, frame_index, detections):
            raise ValueError("state went bad")

        monkeypatch.setattr(tracker.SCTracker, "step", failing_step)
        assert main(["ablate", "--scenario", "straight_clean", "--num-seeds", "1"]) == 1
        assert capsys.readouterr().err == "error: tracking failed at frame 1: state went bad\n"

    def test_directional_on_contrast_scenarios(self, capsys):
        assert (
            main(
                [
                    "ablate",
                    "--scenario", "crossing_distinct_shape",
                    "--scenario", "occlusion_lowconf",
                    "--seed", "1", "--num-seeds", "3",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        idsw = {}
        for line in out.splitlines():
            parts = line.split()
            if parts and parts[0] in {"baseline", "shape", "conf", "shape+conf"}:
                idsw[parts[0]] = int(parts[-1])
        assert idsw["shape"] <= idsw["baseline"]
        assert idsw["shape+conf"] <= idsw["baseline"]
