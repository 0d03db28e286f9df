"""pairbag benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload grid-serial --seed 1 --seconds 4 --trace 0

Run from the root of a checkout; the package is imported from ./src. Prints
an environment line, one line per metric with its unit, the output
digests, and as the last line a JSON object with the keys correct,
attempted, failed and metrics. --trace 0 reports the end-to-end metrics,
--trace 1 the per-layer metrics from a traced run and writes its spans to
perfbench/_out/. Exits 1 when a trial fails or an output check fails, and
2 when the sources are missing.
"""

import argparse
import os
import sys
from pathlib import Path

# Reruns are bit-exact only at a fixed BLAS thread count; children inherit it.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> None:
    """Make this process the parent of any descendant orphaned below it.

    Linux then hands such processes to this one instead of to init, so that
    the benchmark can wait for every process it caused to start.
    """
    import ctypes

    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER) failed")


def child_pids() -> list[int]:
    pids = []
    for task in Path("/proc/self/task").iterdir():
        try:
            pids += [int(pid) for pid in (task / "children").read_text().split()]
        except OSError:
            pass
    return pids


def stop_children(grace_s: float = 2.0) -> None:
    """Stop every child still running, adopted orphans too, and reap each."""
    import signal
    import time

    for sig in (signal.SIGTERM, signal.SIGKILL):
        for pid in child_pids():
            try:
                os.kill(pid, sig)
            except ProcessLookupError:
                pass
        deadline = time.monotonic() + grace_s
        while time.monotonic() < deadline:
            try:
                if os.waitpid(-1, os.WNOHANG)[0] == 0:
                    time.sleep(0.01)
            except ChildProcessError:
                return


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    import ctypes

    with open("/proc/self/maps") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line and ".so" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                return int(getattr(handle, symbol)())
    return None


def environment() -> dict:
    import platform

    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next(line.split(":", 1)[1].strip() for line in info if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "openblas_num_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("grid-serial", "wide-pool", "sweep-parallel"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "pairbag" / "__init__.py").is_file():
        print(f"perfbench: no package sources at {ROOT / 'src' / 'pairbag'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    adopt_orphans()
    try:
        return run(args)
    finally:
        stop_children()


def run(args) -> int:
    """Measure one workload and print its report; returns the exit status."""
    import json
    import shutil
    import tempfile
    import traceback

    import workloads
    from metrics import END_TO_END, LAYER_METRICS

    print(json.dumps({"environment": environment()}), flush=True)
    (HERE / "_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=HERE / "_work"))
    try:
        # numpy seeds must be nonnegative; any integer seed maps to one.
        seed = args.seed % 2**32
        m = workloads.WORKLOADS[args.workload](seed, args.seconds, bool(args.trace), work)
    except Exception:
        traceback.print_exc()
        m = None
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if m is None:
        attempted, failed, metrics = 1, 1, {}
    else:
        attempted = m.trials_attempted + len(m.checks)
        failed = m.trials_failed + sum(1 for _, passed in m.checks if not passed)
        for line in workloads.report_lines(m):
            print(line)
        print(f"fail_rate {failed / attempted:.6g} (failed {failed} of {attempted} trials and checks)")
        metrics = {}
        if not failed:
            if args.trace:
                out = HERE / "_out"
                out.mkdir(exist_ok=True)
                spans_path = out / f"{args.workload}-seed{args.seed}-spans.jsonl"
                with open(spans_path, "w") as handle:
                    for span in m.spans:
                        handle.write(json.dumps(span) + "\n")
                print(f"spans {len(m.spans)} written to {spans_path.relative_to(ROOT)}")
                values, table = workloads.per_layer(m), LAYER_METRICS
            else:
                values, table = workloads.end_to_end(m), END_TO_END
            units = {name: unit for name, unit, _ in table}
            for name, value in values.items():
                print(f"{name} {value:.6g} {units[name]}")
            metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    correct = m is not None and not failed
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
