"""The package, its tools and its tests use no numpy name that numpy 1.24, the floor in pyproject.toml, lacks.

Only numpy 2 may be installed where the tests run, so a name added in
numpy 2 would pass every other test here and fail on the floor version.
The tests are scanned too: the reference solvers they keep run on the
floor version as well.  This file is left out, since it spells the names.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NUMPY_2_ONLY = (
    "vecdot", "matrix_transpose", "unstack", "concat", "astype", "trapezoid", "vector_norm", "matrix_norm",
    "cumulative_sum", "cumulative_prod", "unique_all", "unique_counts", "unique_inverse", "unique_values",
    "isdtype", "bitwise_count", "permute_dims", "pow", "acos", "asin", "atan", "atan2", "acosh", "asinh",
    "atanh", "bitwise_left_shift", "bitwise_right_shift", "bitwise_invert",
)
NAMES = "|".join(NUMPY_2_ONLY)
# `np.concat(`, `numpy.linalg.vector_norm`, or the name imported from numpy or numpy.linalg
USE = re.compile(rf"\b(?:np|numpy)(?:\.linalg)?\.(?:{NAMES})\b"
                 rf"|\bfrom\s+numpy(?:\.linalg)?\s+import\s+[^\n]*\b(?:{NAMES})\b")


def test_no_numpy_2_only_names_in_the_package_or_tools():  # and in the tests
    files = sorted([*(ROOT / "src" / "mfpose").glob("*.py"), *(ROOT / "tools").glob("*.py"),
                    *(path for path in (ROOT / "tests").glob("*.py") if path != Path(__file__).resolve())])
    assert ROOT / "src" / "mfpose" / "cli.py" in files and ROOT / "tools" / "fixture_sums.py" in files
    assert ROOT / "tests" / "test_p3p_reference.py" in files
    found = [f"{path.relative_to(ROOT)}:{text.count(chr(10), 0, match.start()) + 1}: {match.group(0)}"
             for path in files for text in [path.read_text()] for match in USE.finditer(text)]
    assert found == []


def test_the_scan_sees_each_form_of_use():
    for line in ("np.vecdot(a, b)", "numpy.linalg.vector_norm(x)", "np.astype(x, float)", "np.pow(2, 3)",
                 "from numpy import concat, stack", "from numpy.linalg import matrix_transpose"):
        assert USE.search(line), line
    for line in ("np.concatenate(x)", "x.astype(float)", "np.power(2, 3)", "np.linalg.norm(x)", "np.unique(x)"):
        assert not USE.search(line), line
