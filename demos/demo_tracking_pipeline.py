#!/usr/bin/env python3
"""End-to-end pipeline on files: synthesize, track, evaluate.

Writes a scenario to a temporary directory in the MOTChallenge layout,
runs the tracker over the detection file, writes a result file, and scores
it against the ground truth, i.e. the exact loop the command line offers,
but through the library API.
"""

import tempfile
from pathlib import Path

from sctrack import TrackerConfig, builtin_scenario, evaluate, run_sequence
from sctrack.ablation import results_to_map
from sctrack.motio import read_detections, read_ground_truth, write_results
from sctrack.synth import save_scenario

with tempfile.TemporaryDirectory() as tmp:
    workspace = Path(tmp)
    paths = save_scenario(builtin_scenario("occlusion_lowconf"), workspace / "scenario")
    print("scenario files:", ", ".join(sorted(p.rsplit('/', 1)[-1] for p in paths.values())))

    detections = read_detections(paths["det"])
    n_dets = sum(len(v) for v in detections.values())
    print(f"read {n_dets} detections over {len(detections)} frames")

    frame_results = run_sequence(detections, TrackerConfig())
    result_path = workspace / "result.txt"
    write_results(result_path, frame_results)
    ids = {o.track_id for fr in frame_results for o in fr.outputs}
    print(f"tracked {len(ids)} identities; wrote {result_path.name}")

    gt_rows = read_ground_truth(paths["gt"])
    gt = {
        frame: [(e.track_id, e.box) for e in rows if e.evaluable]
        for frame, rows in gt_rows.items()
    }
    report = evaluate(gt, results_to_map(frame_results))
    print()
    print(report.to_text())
    print()
    print("as CSV:")
    print(report.to_csv())
