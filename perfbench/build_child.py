"""Time one context build of a pickled spec and print its seconds.

Usage: build_child.py SPEC_PICKLE

Builds `harness.build_context(spec)` once and prints the wall time of that
call alone, so the interpreter's start and imports are not counted.
"""

import os
import sys

os.environ["OPENBLAS_NUM_THREADS"] = "1"


def main(argv: list[str]) -> int:
    import pickle
    import time

    from pairbag import harness

    with open(argv[0], "rb") as handle:
        spec = pickle.load(handle)
    start = time.perf_counter()
    harness.build_context(spec)
    print(time.perf_counter() - start)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
