"""Check that `mfpose estimate` still writes the recorded bytes on the two fixtures.

Run from anywhere: `python3 tools/fixture_sums.py`.  It imports the package
from this checkout's `src/`, generates both fixture datasets with
`mfpose synth` in a temporary directory, runs `mfpose estimate --seed 3`
with each estimator, and prints each estimates file's sha256 next to the
recorded one.  Exit status 1 when any sum differs.

The sums depend on the BLAS build numpy uses, so this is a tool for
comparing a change with its parent on one machine, not a CI check.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
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
RECORDED = {
    ("clean", "essmat-dscale"): "db051e5b734be09c49a51dbf09f3c581bf0794976f890abaf5bb97a5cb14cdb0",
    ("clean", "pnp"): "0b9dea6918c9ca5d32880e2b7070c7316435a3c7032687c89c8baba5b10b5d1e",
    ("clean", "procrustes"): "43bfb86b756e8da6f7b2ae67a2142f22b0a2a56a5fe6e4e849f8ca456f993121",
    ("1px-noise", "essmat-dscale"): "37a88baded07273d4f92eb611db4efede621ebab670828ff407ba3183483f1e3",
    ("1px-noise", "pnp"): "776cad4fc03d15329b272fd39aaa25ce2356e8e51f20a95b2ab85d10feb173cf",
    ("1px-noise", "procrustes"): "f2e1b8bc3ea74f708abbc4ff8c178cacb8789be6986d7c8384c249dae477be92",
}


def _run(argv: list[str]) -> None:
    log = io.StringIO()
    with contextlib.redirect_stderr(log):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"mfpose {' '.join(argv)} exited {code}:\n{log.getvalue()}")


def main() -> int:
    mismatches = 0
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for fixture, config in FIXTURES.items():
            config_path = tmp / f"{fixture}.json"
            config_path.write_text(json.dumps(config))
            dataset = tmp / fixture
            _run(["synth", "--config", str(config_path), "--out", str(dataset)])
            for estimator in ("essmat-dscale", "pnp", "procrustes"):
                out = tmp / f"{fixture}-{estimator}.txt"
                _run(["estimate", "--dataset", str(dataset), "--estimator", estimator,
                      "--seed", "3", "--out", str(out)])
                actual = hashlib.sha256(out.read_bytes()).hexdigest()
                recorded = RECORDED[fixture, estimator]
                verdict = "ok" if actual == recorded else "MISMATCH"
                mismatches += actual != recorded
                print(f"{fixture:10} {estimator:14} {actual} recorded {recorded} {verdict}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
