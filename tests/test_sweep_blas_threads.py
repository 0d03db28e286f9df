"""A sweep writes the same bytes at any BLAS thread count.

run_experiment pins the OpenBLAS that numpy loaded to one thread, so the
caller's OPENBLAS_NUM_THREADS must not reach the results. The sweep here
keeps the default model widths and pretrains on a 1,000-row batch
(source_size = 500 pairs per class), large enough that OpenBLAS splits the
products across two threads and rounds them differently if it is let to.
It runs in child processes at one and two BLAS threads, the second also
with `--workers 2`, and all three results.jsonl files must be byte-equal.
"""

import os
import subprocess
import sys

from test_golden import SRC

WIDE_INI = """
[data]
d = 3
n_pos = 12
n_neg = 60
separation = 6.0
noise_scale = 0.5

[budgets]
scratch_2 = 5
scratch_3 = 5
transfer_2 = 5
transfer_3 = 5

[experiment]
k_shots = 2, 3
ensemble_sizes = 1, 2
arms = scratch, transfer
trials = 2
test_fraction = 0.3
seed = 9
pretrain_budget = 30
source_size = 500
source_tasks = 10
"""


def sweep(tmp_path, blas_threads: str, workers: str) -> bytes:
    config = tmp_path / "wide.ini"
    config.write_text(WIDE_INI)
    out = tmp_path / f"out-{blas_threads}-{workers}"
    env = dict(os.environ, OPENBLAS_NUM_THREADS=blas_threads)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "pairbag.cli", "sweep", "--config", str(config),
         "--out", str(out), "--workers", workers],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return (out / "results.jsonl").read_bytes()


def test_results_do_not_depend_on_blas_threads(tmp_path):
    one = sweep(tmp_path, "1", "1")
    assert sweep(tmp_path, "2", "1") == one
    assert sweep(tmp_path, "2", "2") == one
