"""Golden-output check: a tiny fixed sweep, its report, and a calibration run.

The calibration run is the same sweep with `ensemble_sizes = 1`; its
`results.jsonl` keeps the digest that the removed `calibrate` subcommand's
`calibration.jsonl` had. The CLI runs in a child process with one BLAS
thread (bit-exact reruns hold only at a fixed BLAS thread count). Every
pinned file must hash to its recorded SHA-256 digest, each output
directory must hold no other file (a leftover temp file fails), and each
run must leave stderr empty. A change that alters any float must re-record
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
    "results.jsonl": "13d8bbfc9e9b5b16b8d8e570bc9ad4afb9438c855089b21f969e773d2fa86a3f",
    "summary.csv": "e9ffdcfc8a23dc7ae0e1dad62cfa9ddfab3213854027d31ccdc34c0a6ad86768",
    "report_cells.csv": "e9ffdcfc8a23dc7ae0e1dad62cfa9ddfab3213854027d31ccdc34c0a6ad86768",
    "report_improvements.csv": "80165f65bb51f6d28c5a6b3092166d0a2eaf1f9329e6e45406cb5e965e4a7f0f",
}
# results.jsonl of the sweep with ensemble_sizes = 1
CALIBRATION_RESULTS = "8aaca3fce9d12126932285d7647cff90839493071b396feecf950d93d25e7fed"


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def cli_child(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "pairbag.cli", *args],
        env=env, capture_output=True, text=True, timeout=300,
    )


def run_cli(*args: str) -> None:
    """A clean run: exit status 0 and nothing on stderr."""
    proc = cli_child(*args)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr


def test_tiny_sweep_report_calibrate_digests(tmp_path):
    config = tmp_path / "tiny.ini"
    config.write_text(TINY_INI)
    out = tmp_path / "out"
    run_cli("sweep", "--config", str(config), "--out", str(out))
    run_cli("report", "--results", str(out / "results.jsonl"))
    digests = {name: sha256(out / name) for name in GOLDEN}
    assert digests == GOLDEN
    assert sorted(p.name for p in out.iterdir()) == sorted(GOLDEN)

    config.write_text(TINY_INI.replace("ensemble_sizes = 1, 2", "ensemble_sizes = 1"))
    calib = tmp_path / "calib"
    run_cli("sweep", "--config", str(config), "--out", str(calib))
    assert sha256(calib / "results.jsonl") == CALIBRATION_RESULTS
    assert sorted(p.name for p in calib.iterdir()) == ["results.jsonl", "summary.csv"]


def test_pretraining_overflow_is_one_error_line(tmp_path):
    """Source pairs inside float32's range whose first extractor layer
    overflows: one error line naming pretraining, from the calling thread's
    half and the pool thread's alike, and no numpy warning."""
    config = tmp_path / "huge.ini"
    config.write_text(TINY_INI.replace("separation = 6.0", "separation = 3e38"))
    proc = cli_child("sweep", "--config", str(config), "--out", str(tmp_path / "out"))
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: pretraining iteration 1: "), proc.stderr
    assert proc.stderr.count("\n") == 1, proc.stderr
