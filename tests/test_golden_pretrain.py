"""Golden pretraining bytes at benchmark scale.

The golden sweep's tiny INI reaches only d=3 with 6/4 hidden units. This
test pins the extractor weights of `harness._pretrain` on the default
benchmark topology (d=16 -> 128 -> 64, head 128, 1,984 source pairs per
full-batch step) for five steps. It runs in a child process at 1 and at 2
BLAS threads: pretraining pins BLAS to one thread, so both counts give one
digest. A change that alters any float must re-record it and say why.
"""

import os
import subprocess
import sys

from test_golden import SRC

PRETRAIN_SHA256 = "8a0a64efc950913d5d8c9b331dc109798eeed0c394d7715117c4d5431f699a42"

CHILD = """
import dataclasses, hashlib
from pairbag import harness
spec = dataclasses.replace(harness.default_benchmark(trials=2), pretrain_budget=5)
print(hashlib.sha256(harness._pretrain(spec, 16).extractor_weights.tobytes()).hexdigest())
"""


def test_benchmark_scale_pretraining_digest():
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", CHILD], env=env, capture_output=True, text=True, timeout=300
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == PRETRAIN_SHA256, f"OPENBLAS_NUM_THREADS={threads}"
