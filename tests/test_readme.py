import argparse
import re
from pathlib import Path

from mfpose.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_use_imports_resolve():
    # a name deleted from the package cannot stay in the documented example
    section = README.read_text().split("## Library use", 1)[1]
    statement = re.search(r"^from mfpose import \(.*?\)", section, re.M | re.S)
    assert statement is not None
    exec(statement.group(0), {})


def test_readme_names_every_cli_flag_and_no_other():
    # `--estim` shows abbreviation, `--no-build-isolation` is pip's
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", README.read_text())) - {"--estim", "--no-build-isolation"}
    parser, _ = build_parser()
    (subcommands,) = (action for action in parser._actions if isinstance(action, argparse._SubParsersAction))
    options = {option for sub in subcommands.choices.values() for option in sub._option_string_actions} - {"-h"}
    assert named == options
