"""Run the pairbag CLI with its context builds timed, or fully traced.

Usage: sweep_child.py SPANS_DIR TRACE CLI_ARGS...

Behaves as `pairbag CLI_ARGS...` (same `pairbag.cli.main`, same exit
status). With TRACE 0 only `build_context` and `run_trial` are timed; with
TRACE 1 every name in `tracing.TRACE_TARGETS` is. The patched names are
inherited by the process pool's forked workers, and each process writes
its spans to SPANS_DIR/spans-<pid>.jsonl as it exits.
"""

import os
import sys

os.environ["OPENBLAS_NUM_THREADS"] = "1"


def main(argv: list[str]) -> int:
    import multiprocessing.util
    from pathlib import Path

    from pairbag import cli
    from tracing import TIMER_TARGETS, TRACE_TARGETS, Tracer, installed

    spans_dir, trace, cli_args = Path(argv[0]), argv[1] == "1", argv[2:]
    tracer = Tracer()

    def dump() -> None:
        tracer.dump(spans_dir / f"spans-{os.getpid()}.jsonl", source="sweep:")

    def in_worker(tracer: Tracer) -> None:
        # A forked worker starts with a copy of the parent's spans; it keeps
        # only its own and writes them when multiprocessing shuts it down.
        # (multiprocessing empties its finalizer registry in a new process
        # before it runs the after-fork hooks, so register from one.)
        tracer.clear()
        multiprocessing.util.Finalize(None, dump, exitpriority=10)

    multiprocessing.util.register_after_fork(tracer, in_worker)
    with installed(tracer, TRACE_TARGETS if trace else TIMER_TARGETS):
        try:
            return cli.main(cli_args)
        finally:
            dump()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
