"""Command-line interface: track, eval, synth and ablate subcommands.

Configuration precedence: built-in defaults, then a config file (from
``--config`` or the SCTRACK_CONFIG environment variable), then explicit
command-line flags.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
import time

from . import ablation, metrics, motio, synth
from .tracker import CONFIG_SCHEMA, TrackerConfig, run_sequence


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sctrack",
        description="Multi-object tracking with shape-aware association and "
        "confidence-weighted state updates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    track = sub.add_parser("track", help="associate a detection file into tracks")
    track.add_argument("--detections", required=True, help="MOTChallenge det file")
    track.add_argument("--output", required=True, help="result file to write")
    _add_config_flags(track)
    track.add_argument("--no-shape", action="store_true", help="disable both shape constraint terms")
    track.add_argument("--no-conf", action="store_true", help="disable the confidence-weighted filter update")

    evaluate = sub.add_parser("eval", help="score a result file against ground truth")
    evaluate.add_argument("--gt", required=True, help="MOTChallenge gt file")
    evaluate.add_argument("--res", required=True, help="MOTChallenge result file")
    evaluate.add_argument("--output", help="also write the report CSV here")
    evaluate.add_argument(
        "--iou-thresh", type=float, default=metrics.DEFAULT_IOU_MATCH_THRESH,
        help="IoU threshold for gt/hypothesis correspondence (default %(default)s)",
    )

    scenarios = [spec.name for spec in synth.builtin_scenarios()]
    synth_cmd = sub.add_parser("synth", help="materialize a synthetic scenario")
    synth_cmd.add_argument("--scenario", required=True, choices=scenarios, help="builtin scenario name")
    synth_cmd.add_argument("--output", required=True, help="output directory")
    synth_cmd.add_argument("--seed", type=int, help="override the scenario seed")

    ablate = sub.add_parser("ablate", help="compare association arms on synthetic data")
    ablate.add_argument(
        "--scenario", action="append", dest="scenarios", choices=scenarios,
        help="builtin scenario name (repeatable; default: crossing_distinct_shape "
        "and occlusion_lowconf)",
    )
    ablate.add_argument("--seed", type=int, default=1, help="first seed (default 1)")
    ablate.add_argument("--num-seeds", type=_positive_int, default=10, help="number of seeds (default 10)")
    ablate.add_argument(
        "--mode", choices=sorted(ablation.ARM_FAMILIES), default="components",
        help="arm family to compare (default %(default)s)",
    )
    _add_config_flags(ablate)

    return parser


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key=value config file (overrides SCTRACK_CONFIG)")
    parser.add_argument("--high-thresh", type=float, dest="high_thresh")
    parser.add_argument("--low-thresh", type=float, dest="low_thresh")
    parser.add_argument("--new-track-thresh", type=float, dest="new_track_thresh")
    parser.add_argument("--gate1", type=float, dest="match_gate_stage1")
    parser.add_argument("--gate2", type=float, dest="match_gate_stage2")
    parser.add_argument("--gate-unconfirmed", type=float, dest="match_gate_unconfirmed")
    parser.add_argument("--max-lost", type=int, dest="max_lost_frames")


_BOOL_VALUES = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def load_config(path) -> dict:
    """Parse a ``key = value`` config file against :data:`CONFIG_SCHEMA`.

    Blank lines and ``#`` comments are ignored.  Unknown or repeated keys
    and values that do not parse under the schema raise ParseError.
    """
    return _read_config(path)[0]


def _read_config(path) -> tuple[dict, dict]:
    """:func:`load_config`'s values, plus the line number of each key."""
    values: dict = {}
    lines: dict = {}
    try:
        with open(path, "r", encoding="utf-8", errors="replace") as fh:
            for line_no, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise motio.ParseError(path, line_no, f"expected 'key = value', got {line!r}")
                key, _, value = line.partition("=")
                key, value = key.strip(), value.strip()
                if key not in CONFIG_SCHEMA:
                    raise motio.ParseError(path, line_no, f"unknown config key {key!r}")
                if key in values:
                    raise motio.ParseError(path, line_no, f"config key {key!r} is set twice")
                kind = CONFIG_SCHEMA[key]
                try:
                    if kind is bool:
                        values[key] = _BOOL_VALUES[value.lower()]
                    else:
                        values[key] = kind(value)
                except (KeyError, ValueError):
                    raise motio.ParseError(path, line_no, f"bad value {value!r} for {key!r}") from None
                lines[key] = line_no
    except OSError as exc:
        raise motio.ParseError(path, 0, f"cannot read file: {exc}") from exc
    return values, lines


def _tracker_config(args) -> TrackerConfig:
    """Defaults, then the config file, then value flags, then ``track``'s switches.

    The final values are validated together, so a flag can repair a file
    value.  When they are rejected and the message names a key that the
    file set and no flag overrode, the error carries the path and the line
    of the latest such key.
    """
    path = args.config or os.environ.get("SCTRACK_CONFIG", "").strip()
    values, lines = _read_config(path) if path else ({}, {})
    flags = {key: getattr(args, key) for key in CONFIG_SCHEMA if getattr(args, key, None) is not None}
    if getattr(args, "no_shape", False):
        flags.update(use_height_term=False, use_area_term=False)
    if getattr(args, "no_conf", False):
        flags.update(use_confidence=False)
    try:
        return TrackerConfig(**{**values, **flags})
    except ValueError as exc:
        named = [
            lines[key] for key in values
            if key not in flags and re.search(rf"\b{key}\b", str(exc))
        ]
        if not named:
            raise
        raise motio.ParseError(path, max(named), str(exc)) from None


def cmd_track(args) -> int:
    config = _tracker_config(args)
    detections = motio.read_detections(args.detections)
    start = time.perf_counter()
    results = run_sequence(detections, config)
    seconds = time.perf_counter() - start
    motio.write_results(args.output, results)
    boxes = sum(len(r.boxes.ids) for r in results)
    print(f"tracked {len(results)} frame(s), wrote {boxes} box(es) to {args.output}")
    if results:
        print(f"tracking time: {seconds:.3f} s, {seconds * 1000.0 / len(results):.2f} ms per frame")
    return 0


def cmd_eval(args) -> int:
    gt = {
        frame: boxes.select(boxes.scores != 0)
        for frame, boxes in motio.read_ground_truth_blocks(args.gt).items()
    }
    results = motio.read_results(args.res)
    report = metrics.evaluate(gt, results, iou_match_thresh=args.iou_thresh)
    print(report.to_text())
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(report.to_csv() + "\n")
        print(f"wrote report CSV to {args.output}")
    return 0


def cmd_synth(args) -> int:
    paths = synth.save_scenario(synth.builtin_scenario(args.scenario, seed=args.seed), args.output)
    print(f"wrote {paths['gt']}, {paths['det']}, {paths['meta']}")
    return 0


def cmd_ablate(args) -> int:
    scenarios = args.scenarios or ["crossing_distinct_shape", "occlusion_lowconf"]
    seeds = list(range(args.seed, args.seed + args.num_seeds))
    base = _tracker_config(args)
    summaries = ablation.run_ablation(
        scenarios, seeds, arms=ablation.ARM_FAMILIES[args.mode], base_config=base
    )
    print(f"scenarios: {', '.join(scenarios)}; seeds: {seeds[0]}..{seeds[-1]}")
    print(ablation.format_table(summaries))
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"track": cmd_track, "eval": cmd_eval, "synth": cmd_synth, "ablate": cmd_ablate}
    try:
        return handlers[args.command](args)
    except (motio.ParseError, OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
