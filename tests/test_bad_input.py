"""Property tests: junk config values and corrupted manifests fail cleanly.

A run on bad input either goes on, or exits 1 with one `error:` line that
names the bad key, the manifest or one of its rows; it never ends in a
traceback. Examples are derandomized, so every run draws the same ones.
"""

import configparser
import contextlib
import io
import re
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from pairbag import harness
from pairbag.cli import main
from pairbag.harness import load_config
from test_cli import TINY_INI

DEFAULTS = load_config(None)
# Every default.ini key, the [budgets] rows included.
KEYS = [(section, key) for section in DEFAULTS.sections() for key in DEFAULTS[section]]

# Text, a float where an int belongs, a negative, empty, nan, inf or an
# empty list item. No huge sizes: they allocate memory before any check.
JUNK = st.one_of(
    st.text(alphabet="abcxyz %#;:=.-()", min_size=1, max_size=8),
    st.floats(min_value=-1e3, max_value=1e3).map(repr),
    st.integers(min_value=-10**6, max_value=-1).map(str),
    st.sampled_from(["", "nan", "inf", "-inf", "1,,2"]),
)


class Reached(Exception):
    """Raised in place of building data: the config got that far."""


def reached(*args):
    raise Reached


def run(argv) -> tuple[int, str]:
    """main's exit status and what it printed to stderr."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    return code, err.getvalue()


def with_value(section: str, key: str, value: str) -> str:
    """TINY_INI with section's key set to value."""
    cfg = configparser.ConfigParser(interpolation=None)
    cfg.read_string(TINY_INI)
    if not cfg.has_section(section):
        cfg.add_section(section)
    cfg.set(section, key, value)
    text = io.StringIO()
    cfg.write(text)
    return text.getvalue()


@settings(derandomize=True, max_examples=150, deadline=None)
@given(key=st.sampled_from(KEYS), value=JUNK)
def test_junk_config_value_names_its_key(tmp_path_factory, key, value):
    section, name = key
    config = tmp_path_factory.mktemp("ini") / "junk.ini"
    config.write_text(with_value(section, name, value))
    with mock.patch.object(harness, "generate_synthetic", reached), mock.patch.object(
        harness, "pretrain_extractor", reached
    ):
        try:
            code, err = run(["sweep", "--config", str(config), "--out", str(config.parent)])
        except Reached:
            return
    assert code == 1, err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert re.search(rf"\b{name}\b", err), err


# 1 to 3 byte edits of a manifest: (kind, position, byte), the position
# taken modulo the manifest's length.
EDITS = st.lists(
    st.tuples(
        st.sampled_from(["replace", "insert", "delete"]),
        st.integers(min_value=0, max_value=10**4),
        st.integers(min_value=0, max_value=255),
    ),
    min_size=1,
    max_size=3,
)


def corrupt(blob: bytes, edits) -> bytes:
    data = bytearray(blob)
    for kind, position, byte in edits:
        position %= len(data)
        if kind == "replace":
            data[position] = byte
        elif kind == "insert":
            data.insert(position, byte)
        else:
            del data[position]
    return bytes(data)


@pytest.fixture(scope="module")
def tiny_manifest_dir(tmp_path_factory):
    """A directory holding TINY_INI's dataset as manifest.csv and .vec files."""
    data = tmp_path_factory.mktemp("tiny_manifest")
    config = data / "tiny.ini"
    config.write_text(TINY_INI)
    assert run(["generate", "--config", str(config), "--out", str(data)])[0] == 0
    return data


@settings(derandomize=True, max_examples=40, deadline=None)
@given(edits=EDITS)
def test_corrupted_manifest_names_file_or_row(tiny_manifest_dir, edits):
    data = tiny_manifest_dir
    manifest = data / "corrupt.csv"
    manifest.write_bytes(corrupt((data / "manifest.csv").read_bytes(), edits))
    config = data / "corrupt.ini"
    config.write_text(TINY_INI.replace("[data]\n", f"[data]\nmanifest = {manifest}\n"))
    code, err = run(["sweep", "--config", str(config), "--out", str(data / "out")])
    if code == 0:
        return
    assert code == 1, err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert f"manifest {manifest}" in err or re.match(r"error: manifest row \d+: ", err), err
