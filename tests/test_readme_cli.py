"""The README's "CLI reference" table matches the parser it documents.

The table's subcommand columns must name exactly the parser's subcommands,
and in each column the non-empty cells must mark exactly the options that
subcommand accepts (`required` exactly where argparse requires it).
"""

import argparse
import re
from pathlib import Path

from pairbag.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def cli_table() -> tuple[list[str], list[list[str]]]:
    """Header and body rows of the first table under "## CLI reference"."""
    section = README.read_text().split("## CLI reference\n", 1)[1].split("\n## ", 1)[0]
    lines = [line for line in section.splitlines() if line.startswith("|")]
    rows = [[cell.strip() for cell in line.strip("|").split("|")] for line in lines]
    return rows[0], rows[2:]


def subparsers() -> dict[str, argparse.ArgumentParser]:
    parser = build_parser()
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return dict(action.choices)


def test_cli_table_matches_parser():
    header, rows = cli_table()
    assert header[0] == "option" and header[-1] == "meaning"
    columns = [re.findall(r"`([^`]+)`", cell) for cell in header[1:-1]]
    parsers = subparsers()
    assert sorted(name for names in columns for name in names) == sorted(parsers)
    # First word of each row's first code span: `--config PATH` -> --config.
    flags = [re.search(r"`([^`]+)`", row[0]).group(1).split()[0] for row in rows]
    for names, cells in zip(columns, zip(*(row[1:-1] for row in rows))):
        documented = {flag: cell for flag, cell in zip(flags, cells) if cell}
        for name in names:
            actions = [a for a in parsers[name]._actions if a.option_strings and a.dest != "help"]
            by_flag = {}
            for action in actions:
                named = [flag for flag in documented if flag in action.option_strings]
                assert len(named) == 1, (name, action.option_strings)
                by_flag[named[0]] = action
            assert sorted(by_flag) == sorted(documented), name
            for flag, action in by_flag.items():
                assert (documented[flag] == "required") == action.required, (name, flag)
