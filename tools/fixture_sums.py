"""Check that `mfpose synth`, `estimate`, `evaluate` and `curves` still write the recorded bytes on the fixtures.

Run from anywhere: `python3 tools/fixture_sums.py`.  It imports the package
from this checkout's `src/` and generates the fixture datasets with
`mfpose synth` in a temporary directory.  Each distinct synth dataset (all
but duplicates, whose dataset is 1px-noise's before its lines are appended)
has a sum of its own, over every file `synth` writes in sorted relative-path
order, so a change to the generator shows before any estimator reads its
output.  On the four estimation fixtures
it runs `mfpose estimate --seed 3` with each estimator, then `mfpose evaluate`
(JSON report and per-scene CSV) and `mfpose curves` over each estimates
file.  On the 1px-noise fixture `estimate` also runs once per estimator
with a `--config` file that sets every estimator option away from its
default (OPTIONS), so a change in how an option reaches the robust loop or
the scale vote shows in a sum.  The duplicates fixture is the 1px-noise dataset with exact repeats
and in-cell near-copies of some matches appended to each matches file, so
it reaches the estimators' de-duplication.  The depth-noise fixture is the
1px-noise configuration with 15% multiplicative depth noise, the regime of a
predicted depth map, so the scale vote works on scattered scales.  The records fixture checks
`evaluate` and `curves` alone on about 2000 queries: it writes an estimates
file from the synth ground truth with seeded perturbations (tied and
missing confidences, failed lines), and there `curves` also runs with its
other two `--acceptance` choices, `vcre-0.05` and `pose`.  The tool prints
each output's sha256 next to the recorded one.  Exit status 1 when any sum
differs.

The commands run inside the temporary directory with relative paths, so the
report's `meta.estimates` is the same on every run.  The sums depend on the
BLAS build numpy uses, so this is a tool for comparing a change with its
parent on one machine, not a CI check.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from mfpose import cli  # noqa: E402
from mfpose.dataset import list_scenes, load_scene, save_correspondences  # noqa: E402
from mfpose.pipelines import CorrespondenceSet, pixel_index  # noqa: E402

CLEAN = {"num_scenes": 6, "num_queries": 3, "outlier_fraction": 0.4, "rng_seed": 3}
FIXTURES = {
    "clean": CLEAN,
    "1px-noise": {**CLEAN, "pixel_noise_px": 1.0},
    "duplicates": {**CLEAN, "pixel_noise_px": 1.0},  # then _append_duplicates
    "depth-noise": {**CLEAN, "pixel_noise_px": 1.0, "depth_noise_sigma": 0.15},
}
ESTIMATORS = ("essmat-dscale", "pnp", "procrustes")
# every `estimate` option of EstimatorConfig, each away from its default (tests/test_cli.py checks both)
OPTIONS = {"max_iterations": 500, "ransac_confidence": 0.999, "sampson_threshold": 0.006, "pnp_threshold_px": 2.0,
           "procrustes_threshold_m": 0.05, "scale_tolerance": 0.05}
# 20 scenes of 100 queries; a 64x48 camera keeps the depth maps, which evaluate never reads, small
RECORDS = {"num_scenes": 20, "num_queries": 100, "num_points": 24, "focal_px": 50.0, "width": 64, "height": 48,
           "rng_seed": 11}
RECORDED = {
    ("clean", "synth", "dataset"):
        "19ae9d5c893d703e2f3393c705f2588199fc201b422cf1226deaa5121014f47b",
    ("1px-noise", "synth", "dataset"):
        "0327f649f88b1fb818e3fb95943b6037c9d416331ddc8d03c0cff8c983be0396",
    ("depth-noise", "synth", "dataset"):
        "0398cd7a05811b359e46257de36fd890bdd8d42987463525b09d358ea4136191",
    ("records", "synth", "dataset"):
        "beba4f56fc0013d4a20e67634e45ab175bdbc15a36f82475dd504fce1a298c6f",
    ("clean", "essmat-dscale", "estimate"):
        "1d34a52e9a2dd2ed7f6b13b56d7b55a2d1c69e7ac5ac93abff35fca705b582fa",
    ("clean", "essmat-dscale", "evaluate.json"):
        "3fe5a3b4787c18a20f194e40534a609a35387a05ef7485086acd8af0d2013547",
    ("clean", "essmat-dscale", "evaluate.csv"):
        "cd378d62774b5324fb2671954e51112b84919f5cd1da8d19baeae28afc683084",
    ("clean", "essmat-dscale", "curves.csv"):
        "fb418a09d475df5f3fbd6356a46b3852394a15c3f2dd721a0370c67c4f6ddd21",
    ("clean", "pnp", "estimate"):
        "39e6b88e6c0807fe925c63d4045184a08e4d76accd7dc6caa88b4626a43cac38",
    ("clean", "pnp", "evaluate.json"):
        "a81e99e77ed048dcd107b54792f4286662fa7b80e4f5f7726676abaf327e6dd5",
    ("clean", "pnp", "evaluate.csv"):
        "389a0d38027ef95b51f7f204050f206ef176443abbc4c917c4e611afe5172e50",
    ("clean", "pnp", "curves.csv"):
        "5d7997b6aa05946259c3b9c53ba026866760a9351bcd693a866d8561978c4aba",
    ("clean", "procrustes", "estimate"):
        "43bfb86b756e8da6f7b2ae67a2142f22b0a2a56a5fe6e4e849f8ca456f993121",
    ("clean", "procrustes", "evaluate.json"):
        "db4cc0778c79bc459702495726233f06ef6f3cc14c246bc1d266bab2533c5650",
    ("clean", "procrustes", "evaluate.csv"):
        "0b6a2d663ac24aa186bf15965de5edb0e41e19ebe3d9ebab99b786807087d6b7",
    ("clean", "procrustes", "curves.csv"):
        "8dcdf2cc78a6dd4b4ef6da35a8970558faa456aae4a933034e2c6990a46a52ab",
    ("1px-noise", "essmat-dscale", "estimate"):
        "0323009a4b0f3f2e5e6a10d61855307db9562a87b554d0c34d8136a27fb28a53",
    ("1px-noise", "essmat-dscale", "evaluate.json"):
        "54cbd28c39958aa164a9d450635d840d1ea8dcb2b1b1bda06cf46a7e10fb2b0e",
    ("1px-noise", "essmat-dscale", "evaluate.csv"):
        "30d8efee8d1dda37f711a43ded7127eb32489d70fe04c4ba29951f611f067a92",
    ("1px-noise", "essmat-dscale", "curves.csv"):
        "629b581ba54a0080faca7614bb7e467947d10387842d1054b6706370967e00c8",
    ("1px-noise", "pnp", "estimate"):
        "86f8fa763b6d8f56064517b9509197ff5bd7d1d3932b90952f05193b95604b7f",
    ("1px-noise", "pnp", "evaluate.json"):
        "e78c878a00638197449c7839f7482049140d2d37d0ddd6847db22c8d0ed64101",
    ("1px-noise", "pnp", "evaluate.csv"):
        "1917af9ade7ecc0990a318a532069375b020bd70a4a47cc311b7d54a730de2d1",
    ("1px-noise", "pnp", "curves.csv"):
        "a9941ed31afa27eba3605f29b1ade4129425cfc6bf6cd36ae3f9fa155fd36269",
    ("1px-noise", "procrustes", "estimate"):
        "f2e1b8bc3ea74f708abbc4ff8c178cacb8789be6986d7c8384c249dae477be92",
    ("1px-noise", "procrustes", "evaluate.json"):
        "a36ace8074b2eb37248d5cf6c749ed87b92aab1d1511208ee4715f661d79636e",
    ("1px-noise", "procrustes", "evaluate.csv"):
        "4b91dc477def432573ee4193e3b50ff98be607f63d37c0cc94060701d1f132c8",
    ("1px-noise", "procrustes", "curves.csv"):
        "f28641b5bb75cd3eadff66b648c2f968d284e4b9bd100d4c7f982b8f638adbe8",
    # the duplicates estimates and CSVs are the 1px-noise bytes: every appended line counts once
    ("duplicates", "essmat-dscale", "estimate"):
        "0323009a4b0f3f2e5e6a10d61855307db9562a87b554d0c34d8136a27fb28a53",
    ("duplicates", "essmat-dscale", "evaluate.json"):
        "3d2d5b4ee14f9f21418bdaf821c4c670792d886eb9177f289a983aac32c02b0f",
    ("duplicates", "essmat-dscale", "evaluate.csv"):
        "30d8efee8d1dda37f711a43ded7127eb32489d70fe04c4ba29951f611f067a92",
    ("duplicates", "essmat-dscale", "curves.csv"):
        "629b581ba54a0080faca7614bb7e467947d10387842d1054b6706370967e00c8",
    ("duplicates", "pnp", "estimate"):
        "86f8fa763b6d8f56064517b9509197ff5bd7d1d3932b90952f05193b95604b7f",
    ("duplicates", "pnp", "evaluate.json"):
        "eede9f4617b97674e02f7380c3e26b464060e97ae4e2404c103f9d9e60650876",
    ("duplicates", "pnp", "evaluate.csv"):
        "1917af9ade7ecc0990a318a532069375b020bd70a4a47cc311b7d54a730de2d1",
    ("duplicates", "pnp", "curves.csv"):
        "a9941ed31afa27eba3605f29b1ade4129425cfc6bf6cd36ae3f9fa155fd36269",
    ("duplicates", "procrustes", "estimate"):
        "f2e1b8bc3ea74f708abbc4ff8c178cacb8789be6986d7c8384c249dae477be92",
    ("duplicates", "procrustes", "evaluate.json"):
        "84034ffea143bba469ad90c2ee6aac3d839df2fcb37300e2eef168e6059bc497",
    ("duplicates", "procrustes", "evaluate.csv"):
        "4b91dc477def432573ee4193e3b50ff98be607f63d37c0cc94060701d1f132c8",
    ("duplicates", "procrustes", "curves.csv"):
        "f28641b5bb75cd3eadff66b648c2f968d284e4b9bd100d4c7f982b8f638adbe8",
    ("depth-noise", "essmat-dscale", "estimate"):
        "30987a48fd9db54ce0b08fd0c3023501c5f36dea3d7a4a56c1b11a3cfcea06c8",
    ("depth-noise", "essmat-dscale", "evaluate.json"):
        "1c4ca449e10b70852a7abb4b07f7c709f3ea85ada98a54f122f4884543f9ca4b",
    ("depth-noise", "essmat-dscale", "evaluate.csv"):
        "e616942a43ef084ad92d5a7d8a5eb8354bbb6c68d09e96f767cb249958c9b803",
    ("depth-noise", "essmat-dscale", "curves.csv"):
        "ec9e1faed8055e2f2633556350c27751ac859ceeeb982a598c194e38930a1e6f",
    ("depth-noise", "pnp", "estimate"):
        "3326929e66fe2541bdf9c8f23d021f1d08740cd11d826750ca5117fbf2af3d9c",
    ("depth-noise", "pnp", "evaluate.json"):
        "b21b68e03d81504e5b2da64ad566eb671007d79efe5d8f22ac5db46ac67dd80b",
    ("depth-noise", "pnp", "evaluate.csv"):
        "529d369ba06b5f9e894d401685dbe32a58dcc44a0afec85ef2e381f643bc61a3",
    ("depth-noise", "pnp", "curves.csv"):
        "77ca60c8eaae9394b1eb8bf46379a3bfbaa145bedd9480051fbe980ed34fe360",
    ("depth-noise", "procrustes", "estimate"):
        "38ca6743e85b9682d15edd5af64f77fdba81d2a2113b1b9131207d1894c13639",
    ("depth-noise", "procrustes", "evaluate.json"):
        "1aec680600e188e743c68938d5bcf93ecc708f754a130619797ec453fe931a99",
    ("depth-noise", "procrustes", "evaluate.csv"):
        "79547fe0d38dbf10b276da0c8a9a83ae924eec3c2728e2a66de03a0cce326de1",
    ("depth-noise", "procrustes", "curves.csv"):
        "1b461a1dcbd152c567d1ffe58d5fb122c476b71ca7f55f812b7d9b1f1ca3e082",
    ("options", "essmat-dscale", "estimate"):
        "83e4b95372f500a9b88bdbca04224071122a1edfd0f882adbf5143aa3e6b3943",
    ("options", "pnp", "estimate"):
        "e66433f42d2c3f78aa69ad0a281eb244750d669e26453c352c04f6abfb2105dc",
    ("options", "procrustes", "estimate"):
        "b8224d401441047c2a391a798576e2635e9a5d03f6652777d4a1f5a71e1c5158",
    ("records", "perturbed", "evaluate.json"):
        "69ab47d583e1ae44c9f8b5e7ae504364cf21443732312e3db8298904ef682c31",
    ("records", "perturbed", "evaluate.csv"):
        "f28ffd4e71dda26a9d9328f9faa6a81e32c8579afba1d8e240b2814df5165d9c",
    ("records", "perturbed", "curves.csv"):
        "fa1c89893e9f15b52e86a7d09ba5a7cd774b4a4453a6ea0ae3492fc59deb1d5a",
    ("records", "perturbed", "curves-vcre-0.05.csv"):
        "23c56ae07dd6d9a6eedf4cd9a7ad742cd45da11a14ad7ee5512e472493e7e1a1",
    ("records", "perturbed", "curves-pose.csv"):
        "bf6d4083e8cd6fd10de325265b7f6ce4a1e641b6ff6a8ea34574be0bdfd571bc",
}


def _run(argv: list[str]) -> None:
    log = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(log):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"mfpose {' '.join(argv)} exited {code}:\n{log.getvalue()}")


def _evaluated(stem: str, estimates: Path, dataset: str, estimator: str, acceptances=()) -> dict[str, Path]:
    """The `evaluate` JSON and CSV and the `curves` CSV of one estimates file.

    `curves` runs once with its default acceptance, then once more per name in
    `acceptances`, whose output is keyed `curves-<name>.csv`.
    """
    paths = {"evaluate.json": Path(f"{stem}.json"), "evaluate.csv": Path(f"{stem}.csv"),
             "curves.csv": Path(f"{stem}-curves.csv")}
    _run(["evaluate", "--estimates", str(estimates), "--dataset", dataset, "--estimator-name", estimator,
          "--seed", "3", "--out-json", str(paths["evaluate.json"]), "--out-csv", str(paths["evaluate.csv"])])
    _run(["curves", "--estimates", str(estimates), "--dataset", dataset, "--out", str(paths["curves.csv"])])
    for acceptance in acceptances:
        path = paths[f"curves-{acceptance}.csv"] = Path(f"{stem}-curves-{acceptance}.csv")
        _run(["curves", "--estimates", str(estimates), "--dataset", dataset, "--acceptance", acceptance,
              "--out", str(path)])
    return paths


def _outputs(fixture: str, estimator: str) -> dict[str, Path]:
    """Each output file of one fixture and estimator, written by the commands that make it."""
    estimates = Path(f"{fixture}-{estimator}.txt")
    _run(["estimate", "--dataset", fixture, "--estimator", estimator, "--seed", "3", "--out", str(estimates)])
    return {"estimate": estimates, **_evaluated(f"{fixture}-{estimator}", estimates, fixture, estimator)}


def _options_estimates(estimator: str) -> dict[str, Path]:
    """The estimates file of one estimator on the 1px-noise fixture, with OPTIONS from a `--config` file."""
    config, estimates = Path("options.json"), Path(f"options-{estimator}.txt")
    config.write_text(json.dumps(OPTIONS))
    _run(["estimate", "--dataset", "1px-noise", "--estimator", estimator, "--seed", "3", "--config", str(config),
          "--out", str(estimates)])
    return {"estimate": estimates}


def _perturbed_estimates(dataset: Path, out: Path) -> None:
    """One estimates line per query of a synth dataset: its true pose, perturbed, with seeded confidences.

    About 5% of the lines are failures and 15% of the ok lines have no
    confidence; the others draw an integer confidence below 50, half of them
    plus a fraction, so many queries tie.  Rotation errors reach 15 degrees
    and camera shifts 0.8 m, so every acceptance threshold splits the set.
    """
    rng = np.random.default_rng(29)
    lines = []
    for scene in sorted(p.name for p in dataset.iterdir()):
        for row in (dataset / scene / "poses.txt").read_text().split("\n"):
            if not row or row.startswith("reference "):
                continue
            query, *values = row.split()
            if rng.random() < 0.05:
                lines.append(f"{scene} {query} {'no_estimate' if rng.random() < 0.5 else 'degenerate_scale'}")
                continue
            w, x, y, z, *t = map(float, values)
            axis = rng.standard_normal(3)
            half = np.radians(rng.uniform(0.0, 1.0) * rng.choice([1.0, 4.0, 15.0])) / 2
            dw, (dx, dy, dz) = np.cos(half), np.sin(half) * axis / np.linalg.norm(axis)
            q = (dw * w - dx * x - dy * y - dz * z, dw * x + dx * w + dy * z - dz * y,
                 dw * y - dx * z + dy * w + dz * x, dw * z + dx * y - dy * x + dz * w)  # delta * true
            direction = rng.standard_normal(3)
            shift = rng.uniform(0.005, 0.1) * rng.choice([1.0, 3.0, 8.0]) * direction / np.linalg.norm(direction)
            draw = rng.random()
            confidence = "-" if draw < 0.15 else repr(int(rng.integers(0, 50)) + (rng.random() if draw < 0.6 else 0.0))
            numbers = [float(v) for v in (*q, *(np.array(t) + shift))]
            lines.append(" ".join([scene, query, "ok", *map(repr, numbers), confidence]))
    out.write_text("\n".join(lines) + "\n")


def _append_duplicates(dataset: Path) -> None:
    """Append exact repeats of about an eighth of each matches file's lines and near-copies of another eighth, shuffled.

    A near-copy moves each pixel by up to 0.3 px per coordinate where that
    keeps its nearest-pixel cell, floor(x + 0.5), and its image; elsewhere
    the pixel is copied exactly.
    """
    rng = np.random.default_rng(31)
    for scene_id in list_scenes(dataset):
        scene = load_scene(dataset, scene_id)
        for query in scene.queries:
            c = scene.load_matches(query)
            picked = rng.choice(len(c), len(c) // 4, replace=False)  # the first half repeats, the rest moves
            order = rng.permutation(len(picked))
            extra = []
            for pixels, k in ((c.ref_px, scene.intrinsics[scene.reference]), (c.query_px, scene.intrinsics[query])):
                copies = pixels[picked]
                moved = copies + rng.uniform(-0.3, 0.3, copies.shape)
                same = np.all(np.stack(pixel_index(moved)) == np.stack(pixel_index(copies)), axis=0) & k.contains(moved)
                same[: len(picked) // 2] = False
                extra.append(np.where(same[:, None], moved, copies)[order])
            extra.append(c.scores[picked][order])
            save_correspondences(scene.matches_path(query), CorrespondenceSet(
                *(np.concatenate(pair) for pair in zip((c.ref_px, c.query_px, c.scores), extra))))


def _sha256(path: Path) -> str:
    """The sum of a file's bytes; of a directory, the sum of every file under it, in sorted relative-path order."""
    if not path.is_dir():
        return hashlib.sha256(path.read_bytes()).hexdigest()
    digest = hashlib.sha256()
    for name in sorted(file.relative_to(path).as_posix() for file in path.rglob("*") if file.is_file()):
        digest.update(name.encode() + b"\n")
        digest.update((path / name).read_bytes())
    return digest.hexdigest()


def _check(fixture: str, estimator: str, paths: dict[str, Path]) -> int:
    """Print each output's sum next to the recorded one; return how many differ."""
    mismatches = 0
    for output, path in paths.items():
        actual = _sha256(path)
        recorded = RECORDED[fixture, estimator, output]
        verdict = "ok" if actual == recorded else "MISMATCH"
        mismatches += actual != recorded
        print(f"{fixture:10} {estimator:14} {output:22} {actual} recorded {recorded} {verdict}")
    return mismatches


def _synth(fixture: str, config: dict) -> None:
    config_path = Path(f"{fixture}.json")
    config_path.write_text(json.dumps(config))
    _run(["synth", "--config", str(config_path), "--out", fixture])


def main() -> int:
    mismatches = 0
    start = Path.cwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for fixture, config in FIXTURES.items():
                _synth(fixture, config)
                if fixture != "duplicates":  # its dataset is 1px-noise's until _append_duplicates
                    mismatches += _check(fixture, "synth", {"dataset": Path(fixture)})
                if fixture == "duplicates":
                    _append_duplicates(Path(fixture))
                for estimator in ESTIMATORS:
                    mismatches += _check(fixture, estimator, _outputs(fixture, estimator))
            for estimator in ESTIMATORS:
                mismatches += _check("options", estimator, _options_estimates(estimator))
            _synth("records", RECORDS)
            mismatches += _check("records", "synth", {"dataset": Path("records")})
            estimates = Path("records.txt")
            _perturbed_estimates(Path("records"), estimates)
            outputs = _evaluated("records", estimates, "records", "perturbed", ("vcre-0.05", "pose"))
            mismatches += _check("records", "perturbed", outputs)
        finally:
            os.chdir(start)
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
