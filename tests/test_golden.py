"""Golden-output check: a tiny fixed sweep, report and calibration run.

The CLI runs in a child process with one BLAS thread (bit-exact reruns hold
only at a fixed BLAS thread count), and every output file must hash to its
recorded SHA-256 digest. A change that alters any float must re-record
these digests and say why.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pairbag
from test_cli import TINY_INI

SRC = Path(pairbag.__file__).resolve().parent.parent

GOLDEN = {
    "results.jsonl": "4f5928b86924f4fd0b2944d0542d3ee9259f443667cdded01d04c0bd816c83df",
    "summary.csv": "f907cacd78727edb1beb1f81645469e9c95b5a0c9eb8a202809f1ec9150eee82",
    "report_improvements.csv": "80165f65bb51f6d28c5a6b3092166d0a2eaf1f9329e6e45406cb5e965e4a7f0f",
    "calibration.jsonl": "e1e5edcdfb81557a79e85fa66831fd3e3e9afa7932b3654f57c97c17456f11c8",
    "calibration.csv": "faaf061ad2b4ef7e80f73d4abe5def0b78ca7237d22d4e4c0755631ac87df83f",
}


def run_cli(*args: str) -> None:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "pairbag.cli", *args],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr


def test_tiny_sweep_report_calibrate_digests(tmp_path):
    config = tmp_path / "tiny.ini"
    config.write_text(TINY_INI)
    out = tmp_path / "out"
    run_cli("sweep", "--config", str(config), "--out", str(out))
    run_cli("report", "--results", str(out / "results.jsonl"))
    run_cli("calibrate", "--config", str(config), "--out", str(out))
    digests = {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in GOLDEN
    }
    assert digests == GOLDEN
