"""Golden-output check: a tiny fixed sweep, its report, and a calibration run.

The calibration run is the same sweep with `ensemble_sizes = 1`; its
`results.jsonl` keeps the digest that the removed `calibrate` subcommand's
`calibration.jsonl` had. The CLI runs in a child process with one BLAS
thread (bit-exact reruns hold only at a fixed BLAS thread count). Every
pinned file must hash to its recorded SHA-256 digest, and each output
directory must hold no other file (a leftover temp file fails). A change
that alters any float must re-record these digests and say why.
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
    "results.jsonl": "da2f53be43ece8a95e1660bf5df0b7a7389001b64fbcab779be7e680c48ed6a0",
    "summary.csv": "fa83debed0411b1302afd811b53a6a51ac94201497857624e6b1ba43a4bc4b6d",
    "report_cells.csv": "fa83debed0411b1302afd811b53a6a51ac94201497857624e6b1ba43a4bc4b6d",
    "report_improvements.csv": "80165f65bb51f6d28c5a6b3092166d0a2eaf1f9329e6e45406cb5e965e4a7f0f",
}
# results.jsonl of the sweep with ensemble_sizes = 1
CALIBRATION_RESULTS = "b386b8b3f417e833bd20e442c1bb3b88303de407c4aa12fdc9ad77d4cd667905"


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


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
    digests = {name: sha256(out / name) for name in GOLDEN}
    assert digests == GOLDEN
    assert sorted(p.name for p in out.iterdir()) == sorted(GOLDEN)

    config.write_text(TINY_INI.replace("ensemble_sizes = 1, 2", "ensemble_sizes = 1"))
    calib = tmp_path / "calib"
    run_cli("sweep", "--config", str(config), "--out", str(calib))
    assert sha256(calib / "results.jsonl") == CALIBRATION_RESULTS
    assert sorted(p.name for p in calib.iterdir()) == ["results.jsonl", "summary.csv"]
