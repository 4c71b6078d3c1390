import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_use_imports_resolve():
    # a name deleted from the package cannot stay in the documented example
    section = README.read_text().split("## Library use", 1)[1]
    statement = re.search(r"^from mfpose import \(.*?\)", section, re.M | re.S)
    assert statement is not None
    exec(statement.group(0), {})
