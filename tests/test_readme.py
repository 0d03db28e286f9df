"""The README's "Library usage" example runs as written against the package."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_usage_example_runs(capsys):
    section = README.read_text().split("## Library usage\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(block, "README.md (Library usage)", "exec"), {})
    accuracy = float(capsys.readouterr().out)
    assert 0.0 <= accuracy <= 1.0
