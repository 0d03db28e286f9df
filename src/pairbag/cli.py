"""Command-line front end: generate data, run sweeps, render reports.

Subcommands: `generate` (synthetic dataset in manifest format), `sweep`
(full experiment grid to JSON-lines + CSV), `report` (re-render results with
error-rate improvements and the calibration table), and `calibrate`
(|M|=1 calibration measurement only). Configuration is an INI file laid
over the packaged default.ini, which also fixes the allowed sections and
keys; flags override the seed and trial count. Each subcommand takes only
the flags it reads. Every output is deterministic given config + seed.
"""

from __future__ import annotations

import argparse
import configparser
import logging
import sys
from importlib import resources
from pathlib import Path

from pairbag.data import SyntheticSpec, generate_synthetic, save_manifest
from pairbag.harness import (
    ARMS,
    ExperimentSpec,
    ImprovementRow,
    SweepSummary,
    load_reports_jsonl,
    load_summary_csv,
    rows_csv,
    run_experiment,
    summarize,
    summary_csv,
    write_reports_jsonl,
    write_summary_csv,
)
from pairbag.learner import TrainingError
from pairbag.optimize import TrainConfig

log = logging.getLogger("pairbag")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text}")
    return value


def load_config(path: str | None) -> configparser.ConfigParser:
    """The packaged default.ini, overlaid with the user's INI file when given.

    default.ini is the schema: a section or key it does not list is an
    error, except that [budgets] takes any <arm>_<k> key with arm in ARMS
    and k a positive integer.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    parser.read_string(resources.files("pairbag").joinpath("default.ini").read_text())
    schema = {section: set(parser[section]) for section in parser.sections()}
    if path is not None:
        with open(path) as handle:
            parser.read_file(handle)
    if parser.defaults():
        raise ValueError(f"unknown key(s) in [DEFAULT]: {', '.join(parser.defaults())}")
    for section in parser.sections():
        if section not in schema:
            raise ValueError(f"unknown config section [{section}]")
        for key in parser[section]:
            if section == "budgets":
                arm, _, k = key.rpartition("_")
                if arm not in ARMS or not k.isdecimal() or int(k) < 1:
                    raise ValueError(
                        f"bad key {key!r} in [budgets]: expected <arm>_<k> with arm "
                        f"in {', '.join(ARMS)} and k a positive integer"
                    )
            elif key not in schema[section]:
                raise ValueError(f"unknown key {key!r} in [{section}]")
    return parser


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(part.strip()) for part in text.split(",") if part.strip())


def _str_list(text: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _budgets(cfg: configparser.ConfigParser) -> tuple[tuple[str, int, int], ...]:
    rows = []
    for key, value in cfg.items("budgets"):
        arm, _, k = key.rpartition("_")
        rows.append((arm, int(k), int(value)))
    return tuple(sorted(rows))


def _synthetic_spec(cfg: configparser.ConfigParser, seed: int) -> SyntheticSpec:
    data = cfg["data"]
    return SyntheticSpec(
        d=data.getint("d"),
        n_pos=data.getint("n_pos"),
        n_neg=data.getint("n_neg"),
        separation=data.getfloat("separation"),
        noise_scale=data.getfloat("noise_scale"),
        seed=seed,
    )


def build_spec(
    cfg: configparser.ConfigParser,
    seed: int | None = None,
    trials: int | None = None,
) -> ExperimentSpec:
    """Translate an INI config (plus flag overrides) into an ExperimentSpec."""
    exp = cfg["experiment"]
    master_seed = seed if seed is not None else exp.getint("seed")
    manifest = cfg.get("data", "manifest").strip()
    source = manifest if manifest else _synthetic_spec(cfg, master_seed)
    train = cfg["train"]
    return ExperimentSpec(
        source=source,
        k_shots=_int_list(exp["k_shots"]),
        ensemble_sizes=_int_list(exp["ensemble_sizes"]),
        arms=_str_list(exp["arms"]),
        trials=trials if trials is not None else exp.getint("trials"),
        test_fraction=exp.getfloat("test_fraction"),
        seed=master_seed,
        train=TrainConfig(
            iterations=0,
            learning_rate=train.getfloat("learning_rate"),
            alpha=train.getfloat("alpha"),
            adam_beta1=train.getfloat("adam_beta1"),
            adam_beta2=train.getfloat("adam_beta2"),
            adam_eps=train.getfloat("adam_eps"),
        ),
        budgets=_budgets(cfg),
        extractor_hidden=_int_list(cfg.get("model", "extractor_hidden")),
        head_hidden=cfg.getint("model", "head_hidden"),
        pretrain_budget=exp.getint("pretrain_budget"),
        source_size=exp.getint("source_size"),
        source_tasks=exp.getint("source_tasks"),
    )


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
    """Calibration table over base models, rows = k, columns = arm metrics."""
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


# --- subcommands ---------------------------------------------------------------


def cmd_generate(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    seed = args.seed if args.seed is not None else cfg.getint("experiment", "seed")
    dataset = generate_synthetic(_synthetic_spec(cfg, seed))
    args.out.mkdir(parents=True, exist_ok=True)
    manifest = save_manifest(dataset, args.out)
    print(
        f"wrote {len(dataset)} pairs ({len(dataset.positives)} positive, "
        f"{len(dataset.negatives)} negative, d={dataset.dim}) to {manifest}"
    )
    return 0


def _run_and_write(
    args: argparse.Namespace, cfg: configparser.ConfigParser, results_name: str
) -> SweepSummary:
    """Run the spec's grid and write its trial reports to args.out/results_name."""
    spec = build_spec(cfg, seed=args.seed, trials=args.trials)
    log.info(
        "sweep: %d arms x %d k x %d sizes x %d trials",
        len(spec.arms), len(spec.k_shots), len(spec.ensemble_sizes), spec.trials,
    )
    reports = run_experiment(spec, workers=args.workers)
    summary = summarize(reports)
    args.out.mkdir(parents=True, exist_ok=True)
    write_reports_jsonl(reports, args.out / results_name)
    return summary


def cmd_sweep(args: argparse.Namespace) -> int:
    summary = _run_and_write(args, load_config(args.config), "results.jsonl")
    write_summary_csv(summary, args.out / "summary.csv")
    print(render_cell_table(summary))
    print()
    for row in summary.improvements:
        print(row.describe())
    print(f"\nwrote {args.out / 'results.jsonl'} and {args.out / 'summary.csv'}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    results = Path(args.results)
    if results.suffix == ".csv":
        summary = load_summary_csv(results)
    else:
        summary = summarize(load_reports_jsonl(results))
    out_dir = args.out if args.out is not None else results.parent
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "report_cells.csv").write_text(summary_csv(summary))
    (out_dir / "report_improvements.csv").write_text(
        rows_csv(ImprovementRow, summary.improvements)
    )
    print(render_cell_table(summary))
    print()
    print(render_calibration_table(summary))
    print()
    for row in summary.improvements:
        print(row.describe())
    return 0


def cmd_calibrate(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    cfg.set("experiment", "ensemble_sizes", "1")
    summary = _run_and_write(args, cfg, "calibration.jsonl")
    lines = ["arm,k,mean_rms,std_rms,mean_mad,std_mad"]
    for c in summary.cells:
        lines.append(
            f"{c.arm},{c.k},{c.mean_rms_cal!r},{c.std_rms_cal!r},"
            f"{c.mean_mad_cal!r},{c.std_mad_cal!r}"
        )
    (args.out / "calibration.csv").write_text("\n".join(lines) + "\n")
    print(render_calibration_table(summary))
    print(f"\nwrote {args.out / 'calibration.jsonl'} and {args.out / 'calibration.csv'}")
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

    def runs_trials(p: argparse.ArgumentParser) -> None:
        seeded(p)
        p.add_argument("--workers", type=_positive_int, default=1,
                       help="parallel trial workers (default: 1)")
        p.add_argument("--trials", type=_positive_int, help="override the trial count")

    seeded(command("generate", cmd_generate,
                   "write a synthetic dataset in manifest format", "dataset"))
    runs_trials(command("sweep", cmd_sweep, "run the full experiment grid", "results"))
    p_rep = command("report", cmd_report, "render results as tables and CSV", None)
    p_rep.add_argument("--results", required=True,
                       help="results.jsonl from sweep, or a summary CSV")
    runs_trials(command("calibrate", cmd_calibrate, "measure |M|=1 calibration only", "results"))
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


if __name__ == "__main__":
    sys.exit(main())
