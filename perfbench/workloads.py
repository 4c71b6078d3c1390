"""Workload definitions and the inputs they generate from a seed.

A workload's inputs are split into chunks, one per measured round; a run
measures whole cycles over its chunks.  A chunk is an estimation dataset
(synthetic scenes written in the standard layout) plus, for `eval-records`,
a dataset of ground truth with an estimates file of perturbed poses.  Only
the light part of a chunk (names, intrinsics, truth) stays in memory; its
matches and depth maps are read back from disk by the round that uses them.
Every number comes from the workload name, the `--seed` and the chunk index,
so the same seed gives the same inputs.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracles

ESTIMATORS = ("essmat-dscale", "pnp", "procrustes")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    scene: dict  # SyntheticSceneConfig fields of the estimation scenes
    matches: int  # exact matches per query ...
    outlier_share: float  # ... of which exactly this share are outliers
    scenes_per_chunk: int
    queries_per_scene: int
    chunks: int  # chunks of one cycle
    cli_passes: dict  # `mfpose estimate` passes per estimator and round
    eval_passes: int = 1  # `mfpose evaluate` passes per estimates file and round
    records_per_chunk: int = 0  # benchmark-written estimates evaluated per round
    record_scenes: int = 0


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sparse-outlier",
            why="280 matches, 40% outliers, 1 px noise: hundreds of minimal solves per query, so the solvers and the robust loop dominate",
            scene=dict(num_points=450, pixel_noise_px=1.0, outlier_fraction=0.4),
            matches=280,
            outlier_share=0.4,
            scenes_per_chunk=2,
            queries_per_scene=4,
            chunks=4,
            cli_passes={"essmat-dscale": 1, "pnp": 2, "procrustes": 8},
            eval_passes=5,
        ),
        Workload(
            name="dense-matches",
            why="6400 matches, 10% outliers, 0.5 px noise: few hypotheses, so per-match work (scale vote, refinement, parsing) dominates",
            scene=dict(num_points=9000, pixel_noise_px=0.5, outlier_fraction=0.1),
            matches=6400,
            outlier_share=0.1,
            scenes_per_chunk=1,
            queries_per_scene=3,
            chunks=8,
            cli_passes={"essmat-dscale": 1, "pnp": 1, "procrustes": 2},
            eval_passes=5,
        ),
        Workload(
            name="eval-records",
            why="2500 estimates with distinct float confidences against known truth: evaluation and parsing dominate",
            scene=dict(num_points=400),
            matches=280,
            outlier_share=0.0,
            scenes_per_chunk=2,
            queries_per_scene=4,
            chunks=3,
            cli_passes={"essmat-dscale": 4, "pnp": 4, "procrustes": 8},
            records_per_chunk=2500,
            record_scenes=25,
        ),
    )
}


def derived_seed(*parts) -> int:
    """Seed for one generator call; independent of the package's own derivation."""
    digest = hashlib.blake2s("/".join(str(p) for p in parts).encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little") >> 1


@dataclass
class Query:
    scene_id: str
    query_id: str
    k_ref: object  # CameraIntrinsics
    k_query: object
    gt_rotation: np.ndarray
    gt_translation: np.ndarray


@dataclass
class Chunk:
    dataset: Path  # estimation dataset root
    queries: list[Query]
    records_dataset: Path | None = None
    estimates_file: Path | None = None
    # benchmark-side truth per record: scene, query, ok, confidence, rot, trans, vcre, diagonal
    records: list[dict] = field(default_factory=list)


def build_chunk(mfpose, workload: Workload, seed: int, index: int, root: Path) -> Chunk:
    """Generate and write one round's inputs under root; keep their light part."""
    dataset_mod = mfpose.dataset
    dataset = root / "dataset"
    truth = {}
    for s in range(workload.scenes_per_chunk):
        scene_id = f"scene{s:03d}"
        scene = _exact_scene(mfpose, workload, seed, index, scene_id)
        dataset_mod.synth_write(scene, dataset, scene_id)
        truth[scene_id] = {q.name: q.pose for q in scene.queries}
    queries = []
    for scene_id in sorted(truth):
        manifest = dataset_mod.load_scene(dataset, scene_id)
        k_ref = manifest.intrinsics[manifest.reference]
        for query_id in manifest.queries:
            pose = truth[scene_id][query_id]
            queries.append(Query(scene_id, query_id, k_ref, manifest.intrinsics[query_id],
                                 pose.rotation, pose.translation))
    chunk = Chunk(dataset, queries)
    if workload.records_per_chunk:
        _build_records(mfpose, workload, seed, index, root, chunk)
    return chunk


def load_inputs(mfpose, chunk: Chunk):
    """Yields (query, matches, reference depth, query depth) per query of a chunk.

    Inputs are read from the chunk's dataset one query at a time (queries
    are grouped by scene), so the benchmark holds few depth maps at once and
    the run's peak memory is mostly the program's own.
    """
    scene = None
    for q in chunk.queries:
        if scene is None or scene[0].scene_id != q.scene_id:
            manifest = mfpose.dataset.load_scene(chunk.dataset, q.scene_id)
            scene = (manifest, manifest.load_depth(manifest.reference))
        manifest, depth_ref = scene
        yield q, manifest.load_matches(q.query_id), depth_ref, manifest.load_depth(q.query_id)


def _exact_scene(mfpose, workload: Workload, seed: int, index: int, scene_id: str):
    """A synthetic scene whose queries keep exactly `matches` matches at `outlier_share`.

    The generator draws outliers one by one, so their share varies from
    query to query, and with it the robust loop's work; a fixed make-up keeps
    the per-query cost of a workload alike across seeds.  A scene that has
    too few inliers or outliers for the make-up is drawn again.
    """
    dataset_mod = mfpose.dataset
    outliers = round(workload.matches * workload.outlier_share)
    inliers = workload.matches - outliers
    for attempt in range(100):
        config = dataset_mod.SyntheticSceneConfig(
            rng_seed=derived_seed(workload.name, seed, index, scene_id, attempt),
            num_queries=workload.queries_per_scene,
            **workload.scene,
        )
        scene = dataset_mod.synth_scene(config)
        rng = np.random.default_rng(config.rng_seed)
        for query in scene.queries:
            good, bad = np.flatnonzero(query.inlier_mask), np.flatnonzero(~query.inlier_mask)
            if len(good) < inliers or len(bad) < outliers:
                break
            keep = np.sort(np.concatenate([rng.choice(good, inliers, replace=False),
                                           rng.choice(bad, outliers, replace=False)]))
            c = query.correspondences
            query.correspondences = mfpose.pipelines.CorrespondenceSet(c.ref_px[keep], c.query_px[keep],
                                                                       c.scores[keep])
            query.inlier_mask = query.inlier_mask[keep]
        else:
            return scene
    raise RuntimeError(f"{workload.name}: no scene with {inliers} inliers and {outliers} outliers per query")


def _build_records(mfpose, workload: Workload, seed: int, index: int, root: Path, chunk: Chunk) -> None:
    """Ground truth from synthetic scenes; estimates = truth + known perturbations.

    Each ok record's estimate is the true pose rotated by a known angle and
    with its camera centre moved by a known distance, so its rotation and
    translation errors are known in advance.  Confidences are distinct
    floats that loosely follow accuracy, as a pose regressor's would.  A
    draw whose error or VCRE lies within rounding of an acceptance cutoff
    is redrawn, so acceptance is decided the same way by any correct code.
    """
    dataset_mod, pipelines = mfpose.dataset, mfpose.pipelines
    rng = np.random.default_rng(derived_seed(workload.name, seed, index, "records"))
    per_scene = math.ceil(workload.records_per_chunk / workload.record_scenes)
    dataset = root / "records"
    lines = []
    records = []
    for s in range(workload.record_scenes):
        scene_id = f"scene{s:03d}"
        count = min(per_scene, workload.records_per_chunk - s * per_scene)
        # Poses only: a 128x96 camera with the field of view of the 640x480
        # one samples the same kind of viewpoint without full-size depth
        # maps, and each sampled pose serves five records of the scene.
        config = dataset_mod.SyntheticSceneConfig(
            rng_seed=derived_seed(workload.name, seed, index, "records", scene_id),
            num_points=24, num_queries=math.ceil(count / 5), focal_px=100.0, width=128, height=96,
        )
        poses = [q.pose for q in dataset_mod.synth_scene(config).queries]
        names = [f"query{j:04d}" for j in range(count)]
        k = dataset_mod.SyntheticSceneConfig().intrinsics()
        scene_root = dataset / scene_id
        (scene_root / "matches").mkdir(parents=True, exist_ok=True)
        dataset_mod.save_intrinsics(scene_root / "intrinsics.txt", {"reference": k, **{n: k for n in names}})
        dataset_mod.save_poses(scene_root / "poses.txt", {"reference": mfpose.geometry.Pose.identity(),
                                                          **{n: poses[j % len(poses)] for j, n in enumerate(names)}})
        # `evaluate` only lists the matches files.  Links to one empty file
        # list the same; creating 2500 files instead cost ~0.5 ms of system
        # time each on the reference machine, varying with other tenants.
        empty = scene_root / "empty.txt"
        empty.write_text("")
        for j, name in enumerate(names):
            os.link(empty, scene_root / "matches" / f"{name}.txt")
            r_gt, t_gt = poses[j % len(poses)].rotation, poses[j % len(poses)].translation
            record = {"scene": scene_id, "query": name, "diagonal": math.hypot(k.width, k.height)}
            if rng.random() < 0.05:
                status = pipelines.EstimateStatus("no_estimate" if rng.random() < 0.5 else "degenerate_scale")
                estimate = pipelines.PoseEstimate(status)
                record.update(ok=False, confidence=None, rot=None, trans=None, vcre=None)
            else:
                while True:
                    angle = float(rng.uniform(0.05, 1.0) * rng.choice([1.0, 4.0, 15.0]))
                    shift = float(rng.uniform(0.005, 0.1) * rng.choice([1.0, 3.0, 8.0]))
                    axis = rng.standard_normal(3)
                    direction = rng.standard_normal(3)
                    r_est = oracles.rotation_about(axis, angle) @ r_gt
                    center = oracles.camera_center(r_gt, t_gt) + shift * direction / np.linalg.norm(direction)
                    t_est = -(r_est @ center)
                    vcre = oracles.vcre_px(r_est, t_est, r_gt, t_gt, k.fx, k.fy, k.cx, k.cy, record["diagonal"])
                    cutoffs = [f * record["diagonal"] for f in oracles.VCRE_FRACTIONS]
                    if (abs(angle - oracles.POSE_THRESHOLD_DEG) > 1e-4
                            and abs(shift - oracles.POSE_THRESHOLD_M) > 1e-6
                            and min(abs(vcre - c) for c in cutoffs) > 1e-4):
                        break
                record.update(ok=True, rot=angle, trans=shift, vcre=vcre)
                estimate = pipelines.PoseEstimate(pipelines.EstimateStatus.OK,
                                                  mfpose.geometry.Pose(r_est, t_est), 0.0)
            lines.append((scene_id, name, estimate))
            records.append(record)
    # distinct confidences, ordered by a noisy accuracy score (rank + a fraction)
    ok = [i for i, r in enumerate(records) if r["ok"]]
    score = np.array([records[i]["rot"] / 5.0 + records[i]["trans"] / 0.25 for i in ok])
    score *= np.exp(rng.normal(0.0, 0.5, len(ok)))
    fractions = rng.uniform(0.0, 1.0, len(ok))
    for rank, position in enumerate(np.argsort(-score, kind="stable")):
        i = ok[position]
        records[i]["confidence"] = float(rank + fractions[position])
    text = []
    for (scene_id, query_id, estimate), record in zip(lines, records):
        if record["ok"]:
            estimate = pipelines.PoseEstimate(estimate.status, estimate.pose, record["confidence"])
        text.append(mfpose.cli.format_estimate_line(scene_id, query_id, estimate))
    chunk.records_dataset = dataset
    chunk.estimates_file = root / "records-estimates.txt"
    chunk.estimates_file.write_text("\n".join(text) + "\n")
    chunk.records = records
