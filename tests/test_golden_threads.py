"""The golden sweep at two BLAS threads, in one process and in two workers.

test_golden.py pins the tiny sweep's digests at one BLAS thread. Here the
same sweep runs in a child with OPENBLAS_NUM_THREADS=2, once in-process,
where a second thread scores each ensemble member while the next one trains
and both call into BLAS at once, and once with `--workers 2`. Both must
write the pinned results.jsonl and summary.csv.
"""

import os
import subprocess
import sys

import pytest

from test_cli import TINY_INI
from test_golden import GOLDEN, SRC, sha256


@pytest.mark.parametrize("workers", ["1", "2"])
def test_tiny_sweep_digests_at_two_blas_threads(tmp_path, workers):
    config = tmp_path / "tiny.ini"
    config.write_text(TINY_INI)
    out = tmp_path / "out"
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "pairbag.cli", "sweep", "--config", str(config),
         "--out", str(out), "--workers", workers],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    for name in ("results.jsonl", "summary.csv"):
        assert sha256(out / name) == GOLDEN[name], name
