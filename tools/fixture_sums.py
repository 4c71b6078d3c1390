"""Check that `mfpose estimate`, `evaluate` and `curves` still write the recorded bytes on the two fixtures.

Run from anywhere: `python3 tools/fixture_sums.py`.  It imports the package
from this checkout's `src/`, generates both fixture datasets with
`mfpose synth` in a temporary directory, runs `mfpose estimate --seed 3`
with each estimator, then `mfpose evaluate` (JSON report and per-scene CSV)
and `mfpose curves` over each estimates file.  It prints each output's
sha256 next to the recorded one.  Exit status 1 when any sum differs.

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

from mfpose import cli  # noqa: E402

CLEAN = {"num_scenes": 6, "num_queries": 3, "outlier_fraction": 0.4, "rng_seed": 3}
FIXTURES = {
    "clean": CLEAN,
    "1px-noise": {**CLEAN, "pixel_noise_px": 1.0},
}
ESTIMATORS = ("essmat-dscale", "pnp", "procrustes")
RECORDED = {
    ("clean", "essmat-dscale", "estimate"):
        "db051e5b734be09c49a51dbf09f3c581bf0794976f890abaf5bb97a5cb14cdb0",
    ("clean", "essmat-dscale", "evaluate.json"):
        "8b25ed0c30715d751a11ad359f8588be5f2861d5ede5afaec50153fcfd4f0af4",
    ("clean", "essmat-dscale", "evaluate.csv"):
        "a146b9f642edbb420ef88745e083c64494a93069ec7431e3d1f83e34c45a3de4",
    ("clean", "essmat-dscale", "curves.csv"):
        "fb418a09d475df5f3fbd6356a46b3852394a15c3f2dd721a0370c67c4f6ddd21",
    ("clean", "pnp", "estimate"):
        "0b9dea6918c9ca5d32880e2b7070c7316435a3c7032687c89c8baba5b10b5d1e",
    ("clean", "pnp", "evaluate.json"):
        "e388bfb4df2799cde0767d54b6ec385d29187034312a01bdbd84758afd969836",
    ("clean", "pnp", "evaluate.csv"):
        "8c3c3b38bf47eb1e7b78a9ce1f4e63759050052366cff7cb7ab271055a1910f7",
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
        "37a88baded07273d4f92eb611db4efede621ebab670828ff407ba3183483f1e3",
    ("1px-noise", "essmat-dscale", "evaluate.json"):
        "3560c5d534c9365362f01815ad7c6f1f50ad66d995e295c5eb54ca0b346c0b48",
    ("1px-noise", "essmat-dscale", "evaluate.csv"):
        "9bb5b7f9637ff0618c089f1584311c827a80486b4659b7c166cb1831cdf3cd94",
    ("1px-noise", "essmat-dscale", "curves.csv"):
        "629b581ba54a0080faca7614bb7e467947d10387842d1054b6706370967e00c8",
    ("1px-noise", "pnp", "estimate"):
        "776cad4fc03d15329b272fd39aaa25ce2356e8e51f20a95b2ab85d10feb173cf",
    ("1px-noise", "pnp", "evaluate.json"):
        "e8c702aa3fd576beeb0965d31b33042dcbfa49509184176d525adac849b409cd",
    ("1px-noise", "pnp", "evaluate.csv"):
        "bd083cf92f0f8cb6c4f98b2deed409106bfd3d9af7c7ab34a28c7005f05f1985",
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
}


def _run(argv: list[str]) -> None:
    log = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(log):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"mfpose {' '.join(argv)} exited {code}:\n{log.getvalue()}")


def _outputs(fixture: str, estimator: str) -> dict[str, Path]:
    """Each output file of one fixture and estimator, written by the commands that make it."""
    stem = f"{fixture}-{estimator}"
    paths = {"estimate": Path(f"{stem}.txt"), "evaluate.json": Path(f"{stem}.json"),
             "evaluate.csv": Path(f"{stem}.csv"), "curves.csv": Path(f"{stem}-curves.csv")}
    estimates = str(paths["estimate"])
    _run(["estimate", "--dataset", fixture, "--estimator", estimator, "--seed", "3", "--out", estimates])
    _run(["evaluate", "--estimates", estimates, "--dataset", fixture, "--estimator-name", estimator,
          "--seed", "3", "--out-json", str(paths["evaluate.json"]), "--out-csv", str(paths["evaluate.csv"])])
    _run(["curves", "--estimates", estimates, "--dataset", fixture, "--out", str(paths["curves.csv"])])
    return paths


def main() -> int:
    mismatches = 0
    start = Path.cwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for fixture, config in FIXTURES.items():
                config_path = Path(f"{fixture}.json")
                config_path.write_text(json.dumps(config))
                _run(["synth", "--config", str(config_path), "--out", fixture])
                for estimator in ESTIMATORS:
                    for output, path in _outputs(fixture, estimator).items():
                        actual = hashlib.sha256(path.read_bytes()).hexdigest()
                        recorded = RECORDED[fixture, estimator, output]
                        verdict = "ok" if actual == recorded else "MISMATCH"
                        mismatches += actual != recorded
                        print(f"{fixture:10} {estimator:14} {output:14} {actual} recorded {recorded} {verdict}")
        finally:
            os.chdir(start)
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
