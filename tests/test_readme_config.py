"""The README's "Configuration" table lists exactly default.ini's keys.

Each row names one section in its first cell and, as code spans in its
second, every key of that section; `[budgets]`, whose keys are any
<arm>_<k>, is listed as `ARM_K`.
"""

import re
from pathlib import Path

from pairbag.harness import load_config

README = Path(__file__).resolve().parents[1] / "README.md"


def config_table() -> dict[str, list[str]]:
    """Section name to the keys its row lists, from the table under "## Configuration"."""
    section = README.read_text().split("## Configuration\n", 1)[1].split("\n## ", 1)[0]
    lines = [line for line in section.splitlines() if line.startswith("|")]
    rows = [[cell.strip() for cell in line.strip("|").split("|")] for line in lines]
    assert rows[0][:2] == ["section", "keys"]
    return {row[0].strip("`[]"): re.findall(r"`([^`]+)`", row[1]) for row in rows[2:]}


def test_config_table_matches_default_ini():
    defaults = load_config(None)
    want = {name: list(defaults[name]) for name in defaults.sections()}
    want["budgets"] = ["ARM_K"]
    assert config_table() == want
