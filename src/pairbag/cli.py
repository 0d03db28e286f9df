"""Command-line front end: generate data, run sweeps, render reports.

Subcommands: `generate` (synthetic dataset in manifest format), `sweep`
(full experiment grid to JSON-lines + CSV) and `report` (re-render results).
Both `sweep` and `report` print the accuracy table, the calibration table of
the smallest ensemble size and the error-rate improvements; a sweep with
`ensemble_sizes = 1` is the calibration-only measurement. Configuration is
an INI file laid over the packaged default.ini, which also fixes the allowed
sections and keys; flags override the seed and trial count. Each subcommand
takes only the flags it reads. Every output is deterministic given config +
seed.
"""

from __future__ import annotations

import argparse
import configparser
import logging
import sys
from concurrent.futures import BrokenExecutor
from pathlib import Path

from pairbag.data import generate_synthetic, save_manifest
from pairbag.harness import (
    ImprovementRow,
    SweepSummary,
    _synthetic_spec,
    build_spec,
    load_config,
    load_reports_jsonl,
    rows_csv,
    run_experiment,
    summarize,
    write_atomic,
    write_reports_jsonl,
    write_summary_csv,
)
from pairbag.learner import TrainingError

log = logging.getLogger("pairbag")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text}")
    return value


# --- rendering ----------------------------------------------------------------


def _render_table(header: list[str], rows: list[list[str]]) -> str:
    widths = [max(len(h), *(len(r[i]) for r in rows)) for i, h in enumerate(header)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip()]
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines)


def render_cell_table(summary: SweepSummary) -> str:
    """Accuracy table: one row per k, one column per arm/|M| cell."""
    header = ["k"] + [f"{arm} |M|={m}" for arm in summary.arms for m in summary.sizes]
    rows = []
    for k in summary.ks:
        row = [str(k)]
        for arm in summary.arms:
            for m in summary.sizes:
                cell = summary.cell(arm, k, m)
                row.append(f"{cell.mean_acc:.2f} ({cell.std_acc:.2f})")
        rows.append(row)
    return _render_table(header, rows)


def render_calibration_table(summary: SweepSummary) -> str:
    """Base-model calibration of the smallest |M|, rows = k, columns = arm metrics."""
    header = ["k"]
    for arm in summary.arms:
        header += [f"{arm} RMS", f"{arm} MAD"]
    rows = []
    for k in summary.ks:
        row = [str(k)]
        for arm in summary.arms:
            cell = summary.cell(arm, k, summary.sizes[0])
            row.append(f"{cell.mean_rms_cal:.2f} (+-{cell.std_rms_cal:.2f})")
            row.append(f"{cell.mean_mad_cal:.2f} (+-{cell.std_mad_cal:.2f})")
        rows.append(row)
    return _render_table(header, rows)


def _print_summary(summary: SweepSummary) -> None:
    """What sweep and report print: accuracy, calibration, improvements."""
    print(render_cell_table(summary))
    print()
    print(render_calibration_table(summary))
    print()
    for row in summary.improvements:
        print(row.describe())


# --- subcommands ---------------------------------------------------------------


def cmd_generate(args: argparse.Namespace) -> int:
    dataset = generate_synthetic(_synthetic_spec(load_config(args.config), args.seed))
    args.out.mkdir(parents=True, exist_ok=True)
    manifest = save_manifest(dataset, args.out)
    print(
        f"wrote {len(dataset)} pairs ({len(dataset.positives)} positive, "
        f"{len(dataset.negatives)} negative, d={dataset.dim}) to {manifest}"
    )
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    spec = build_spec(load_config(args.config), seed=args.seed, trials=args.trials)
    log.info(
        "sweep: %d arms x %d k x %d sizes x %d trials",
        len(spec.arms), len(spec.k_shots), len(spec.ensemble_sizes), spec.trials,
    )
    reports = run_experiment(spec, workers=args.workers)
    summary = summarize(reports)
    args.out.mkdir(parents=True, exist_ok=True)
    write_reports_jsonl(reports, args.out / "results.jsonl")
    write_summary_csv(summary, args.out / "summary.csv")
    _print_summary(summary)
    print(f"\nwrote {args.out / 'results.jsonl'} and {args.out / 'summary.csv'}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    results = Path(args.results)
    summary = summarize(load_reports_jsonl(results))
    out_dir = args.out if args.out is not None else results.parent
    out_dir.mkdir(parents=True, exist_ok=True)
    write_summary_csv(summary, out_dir / "report_cells.csv")
    write_atomic(out_dir / "report_improvements.csv", rows_csv(ImprovementRow, summary.improvements))
    _print_summary(summary)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pairbag",
        description="Balanced bagging-by-partitioning for k-shot pair classification.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def command(name: str, func, help_text: str, out_default: str | None):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("--out", type=Path, default=out_default,
                       help=f"output directory (default: {out_default or 'beside --results'})")
        p.add_argument("-v", "--verbose", action="count", default=0,
                       help="increase log verbosity")
        return p

    def seeded(p: argparse.ArgumentParser) -> argparse.ArgumentParser:
        p.add_argument("--config", help="INI config file (defaults are built in)")
        p.add_argument("--seed", type=int, help="override the master seed")
        return p

    seeded(command("generate", cmd_generate,
                   "write a synthetic dataset in manifest format", "dataset"))
    p_sweep = seeded(command("sweep", cmd_sweep, "run the full experiment grid", "results"))
    p_sweep.add_argument("--workers", type=_positive_int, default=1,
                         help="parallel trial workers (default: 1)")
    p_sweep.add_argument("--trials", type=_positive_int, help="override the trial count")
    p_rep = command("report", cmd_report, "render results as tables and CSV", None)
    p_rep.add_argument("--results", required=True,
                       help="results.jsonl from sweep")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    level = logging.WARNING - 10 * min(args.verbose, 2)
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except (ValueError, OSError, configparser.Error, TrainingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenExecutor as exc:
        print(f"error: a worker process died: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
