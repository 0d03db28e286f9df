"""Golden pretraining bytes at benchmark scale.

The golden sweep's tiny INI reaches only d=3 with 6/4 hidden units. This
test pins the extractor weights of `harness._pretrain` on the default
benchmark topology (d=16 -> 128 -> 64, head 128, 1,984 source pairs per
full-batch step) for five steps. It runs in a child process with one BLAS
thread, as bit-exact reruns hold only at a fixed BLAS thread count. A change
that alters any float must re-record this digest and say why.
"""

import os
import subprocess
import sys

from test_golden import SRC

PRETRAIN_SHA256 = "e7ad421534b060a7d979c32d5707469d7a9f65ccb71b039c2dd05bdd0a77e4a6"

CHILD = """
import dataclasses, hashlib
from pairbag import harness
spec = dataclasses.replace(harness.default_benchmark(trials=2), pretrain_budget=5)
print(hashlib.sha256(harness._pretrain(spec, 16).extractor_weights.tobytes()).hexdigest())
"""


def test_benchmark_scale_pretraining_digest():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == PRETRAIN_SHA256
