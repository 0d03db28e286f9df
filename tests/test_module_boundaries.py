"""No pairbag module imports a private name from another pairbag module.

A name with a leading underscore is its module's own business; a caller in
another module has to use a public name, so that the owner can change or
remove its private ones without breaking a distant import.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "pairbag"


def private_imports(path: Path) -> list[str]:
    """`module._name` for every private name that `path` imports from
    another pairbag module, at any depth of the file."""
    own = f"pairbag.{path.stem}"
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.ImportFrom) or node.level:
            continue
        module = node.module or ""
        if module.split(".")[0] != "pairbag" or module == own:
            continue
        for alias in node.names:
            if alias.name.startswith("_") and not alias.name.startswith("__"):
                found.append(f"{path.name}:{node.lineno}: {module}.{alias.name}")
    return found


def test_no_module_imports_another_modules_private_name():
    sources = sorted(SRC.glob("*.py"))
    assert sources
    assert [hit for path in sources for hit in private_imports(path)] == []


def test_the_check_sees_private_imports(tmp_path):
    """A private name from a sibling module is caught, also in a function
    body; a module's own names and dunder names are not."""
    path = tmp_path / "cli.py"
    path.write_text(
        "from pairbag.harness import _spec, build_spec\n"
        "from pairbag.cli import _own\n"
        "from pairbag import __version__\n"
        "def f():\n"
        "    from pairbag.learner import _run\n",
        encoding="utf-8",
    )
    assert private_imports(path) == [
        "cli.py:1: pairbag.harness._spec",
        "cli.py:5: pairbag.learner._run",
    ]
