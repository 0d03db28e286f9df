"""The benchmark's three workloads: inputs from a seed, timed rounds, output checks.

A run first makes its inputs from the seed (a manifest, an INI file). A
round is what a user waits for: one experiment run, summarized and written
to results.jsonl and summary.csv. Every round's files and every trial's
report are checked; a failed check fails the run.

- grid-serial: `run_experiment(spec, workers=1)` on the paper's headline
  grid, in this process. Fine-tuning does most of the trial work.
- wide-pool: the transfer arm at k=5, |M|=20 on a 20,000-negative manifest,
  in this process. Loading, scoring and calibration do most of the work.
- sweep-parallel: `pairbag sweep --workers 2` in a child process, checked
  against the same spec run in this process with one worker.

The serial workloads build the context twice more, side by side in two
processes, so that setup_s is a median of three builds at the cost of one.
After their round they keep calling `harness.run_trial` with the round's
context on further trial indices for the requested seconds: this trial
phase gives trial_ms_p50 and trials_per_s enough samples. The sweep repeats
child runs until the requested seconds have passed, at least one.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from metrics import layer_metrics, median_of_medians, tail_percentile
from pairbag import harness
from pairbag.cli import build_spec, load_config
from tracing import TIMER_TARGETS, TRACE_TARGETS, Tracer, installed, load_spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

STANDALONE_BUILDS = 2
# Trials per cell of the round. The quality guards average over them, and
# base-model calibration at k=5 varies from draw to draw by about 15%.
GRID_TRIALS = 3
WIDE_TRIALS = 4
SWEEP_TRIALS = 10  # as in the README quick start
CHILD_TIMEOUT_S = 120
PROBE_MIN_S = 3.0

# The README quick-start sweep, with the seed and trial count filled in.
SWEEP_INI = """\
[data]
d = 8
n_pos = 40
n_neg = 400
[experiment]
k_shots = 5
ensemble_sizes = 1, 5
trials = {trials}
seed = {seed}
[budgets]
scratch_5 = 60
transfer_5 = 20
"""

# The default_benchmark(n_neg=20000) data section, for `pairbag generate`.
WIDE_INI = """\
[data]
d = 16
n_pos = 200
n_neg = 20000
separation = 8.0
noise_scale = 1.0
"""

OUTPUT_FILES = ("results.jsonl", "summary.csv")


def child_env() -> dict:
    env = dict(os.environ)
    env["OPENBLAS_NUM_THREADS"] = "1"
    paths = [str(ROOT / "src"), str(HERE)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def stop_group(pgid: int) -> None:
    """Kill what is left of a child's process group and wait until it is gone.

    The group's members that outlived their parent are orphans: run.py adopts
    them (it is their subreaper) and reaps them here.
    """
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            while os.waitpid(-1, os.WNOHANG)[0]:
                pass
        except ChildProcessError:
            pass
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)
    raise RuntimeError(f"process group {pgid} did not end")


def run_children(commands: list[list[str]], timeout: float = CHILD_TIMEOUT_S) -> list[tuple[int, str]]:
    """Run Python children side by side, each in a process group of its own.

    Waits for every child, then kills and reaps whatever each one left
    behind. Returns each child's process id and standard output; raises if
    one timed out or exited nonzero.
    """
    procs = []
    try:
        for args in commands:
            procs.append(subprocess.Popen(
                [sys.executable, *args],
                env=child_env(),
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
                start_new_session=True,
            ))
        deadline = time.monotonic() + timeout
        outputs = [p.communicate(timeout=max(0.0, deadline - time.monotonic())) for p in procs]
    finally:
        for proc in procs:
            stop_group(proc.pid)
            proc.wait()
    for args, proc, (_, err) in zip(commands, procs, outputs):
        if proc.returncode != 0:
            raise RuntimeError(f"{' '.join(args[:3])} exited {proc.returncode}: {err[-2000:]}")
    return [(proc.pid, out) for proc, (out, _) in zip(procs, outputs)]


def run_child(args: list[str], timeout: float = CHILD_TIMEOUT_S) -> int:
    """Run one Python child as run_children does; returns its process id."""
    return run_children([args], timeout)[0][0]


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def cells(spec) -> list[tuple[str, int, int]]:
    return [(a, k, m) for a in spec.arms for k in spec.k_shots for m in spec.ensemble_sizes]


def record_checks(records: list[dict], test_size: int) -> list[tuple[str, bool]]:
    """The checks every trial record must pass, one result per check."""
    calibrations = [c for r in records for c in r["calibrations"]]
    return [
        ("leakage_zero", all(r["leakage_overlap"] == 0 for r in records)),
        ("accuracy_range", all(0.0 <= r["accuracy"] <= 100.0 for r in records)),
        ("rms_ge_mad", all(c["rms_error"] >= c["mad_error"] for c in calibrations)),
        (
            "bin_counts_sum_to_test_size",
            all(sum(b[0] for b in c["bins"]) == test_size for c in calibrations),
        ),
    ]


@dataclasses.dataclass
class Measurement:
    """Everything one run measured, before it becomes metrics."""

    trials_per_round: int
    build_s: list = dataclasses.field(default_factory=list)
    trial_ms: dict = dataclasses.field(default_factory=dict)  # cell -> latencies
    walls: list = dataclasses.field(default_factory=list)
    # Per round, the context build of the process that ran it; wall minus
    # this is the round's trial phase.
    round_setup: list = dataclasses.field(default_factory=list)
    phase_trials: int = 0
    phase_s: float = 0.0
    checks: list = dataclasses.field(default_factory=list)  # (name, passed)
    trials_attempted: int = 0
    trials_failed: int = 0
    records: list | None = None  # the first round's trial records
    digests: dict | None = None
    spans: list = dataclasses.field(default_factory=list)  # traced rounds only
    traced_rounds: int = 0
    trace_overhead_pct: float | None = None
    peak_rss_mb: float = 0.0

    def add_trial(self, trial: str, seconds: float) -> None:
        cell = trial.rsplit("/t", 1)[0]
        self.trial_ms.setdefault(cell, []).append(1000.0 * seconds)

    def absorb_timers(self, tracer: Tracer) -> float:
        """Take the tracer's build and trial times; returns the build seconds."""
        built = 0.0
        for name, start, end, _, trial, _ in tracer.spans:
            if name == "harness.build_context":
                self.build_s.append(end - start)
                built += end - start
            elif name == "harness.run_trial":
                self.add_trial(trial, end - start)
        tracer.clear()
        return built

    def check_round(self, out_dir: Path, spec, test_size: int, expect: dict | None) -> None:
        """Check one round's files; the first round's become the reference."""
        records = [
            json.loads(line)
            for line in (out_dir / "results.jsonl").read_text().splitlines()
            if line.strip()
        ]
        digests = {name: sha256(out_dir / name) for name in OUTPUT_FILES}
        self.checks.append(("record_count", len(records) == len(cells(spec)) * spec.trials))
        self.checks += record_checks(records, test_size)
        if expect is not None:
            self.checks.append(("digests_match_reference", digests == expect))
        if self.records is None:
            self.records, self.digests = records, digests


def in_process_round(spec, out_dir: Path) -> float:
    """What `pairbag sweep --workers 1` does, minus the printed tables."""
    out_dir.mkdir(parents=True)
    start = time.perf_counter()
    reports = harness.run_experiment(spec, workers=1)
    summary = harness.summarize(reports)
    harness.write_reports_jsonl(reports, out_dir / "results.jsonl")
    harness.write_summary_csv(summary, out_dir / "summary.csv")
    return time.perf_counter() - start


def trial_phase(spec, ctx, seconds: float, m: Measurement) -> None:
    """Run further trials (indices from spec.trials on) until `seconds` pass."""
    tracer = Tracer()
    records = []
    start = time.perf_counter()
    index = spec.trials
    with installed(tracer, TIMER_TARGETS):
        while time.perf_counter() - start < seconds:
            for arm, k, size in cells(spec):
                m.trials_attempted += 1
                seed = harness.trial_seed_for(spec, arm, k, size, index)
                try:
                    report = harness.run_trial(spec, arm, k, size, seed, trial_index=index, context=ctx)
                except Exception:
                    traceback.print_exc()
                    m.trials_failed += 1
                    return
                records.append(report.to_record())
            index += 1
    m.phase_s = time.perf_counter() - start
    m.phase_trials = len(records)
    m.absorb_timers(tracer)
    m.checks += [(f"trial_phase_{name}", ok) for name, ok in record_checks(records, len(ctx.test))]


def overhead_probe(spec, ctx) -> float:
    """Percent extra wall time of the same trials with full tracing on.

    Runs each cell's trial 0 with the built context twice, once untraced and
    once traced, alternating which goes first, over all cells until the
    untraced calls add up to PROBE_MIN_S. Pairing each call with its twin
    keeps the host's drift in speed, which runs to 10% over seconds, out
    of the comparison.
    """
    jobs = [(a, k, m, harness.trial_seed_for(spec, a, k, m, 0)) for a, k, m in cells(spec)]
    elapsed = {False: 0.0, True: 0.0}
    calls = 0
    while elapsed[False] < PROBE_MIN_S:
        for arm, k, m, seed in jobs:
            for traced in (False, True) if calls % 2 == 0 else (True, False):
                with installed(Tracer(), TRACE_TARGETS if traced else ()):
                    start = time.perf_counter()
                    harness.run_trial(spec, arm, k, m, seed, trial_index=0, context=ctx)
                    elapsed[traced] += time.perf_counter() - start
            calls += 1
    return 100.0 * (elapsed[True] / elapsed[False] - 1.0)


def _serial(spec, seconds: float, trace: bool, work: Path) -> Measurement:
    per_round = len(cells(spec)) * spec.trials
    m = Measurement(trials_per_round=per_round)
    if not trace:
        # Two more setup samples, built side by side in two children: on two
        # cores this costs the wall time of one build.
        spec_path = work / "spec.pickle"
        spec_path.write_bytes(pickle.dumps(spec))
        builds = run_children([[str(HERE / "build_child.py"), str(spec_path)]] * STANDALONE_BUILDS)
        m.build_s += [float(out.split()[-1]) for _, out in builds]

    tracer = Tracer()
    out = work / "round"
    m.trials_attempted += per_round
    try:
        with installed(tracer, TRACE_TARGETS if trace else TIMER_TARGETS):
            wall = in_process_round(spec, out)
    except Exception:
        traceback.print_exc()
        m.trials_failed += per_round
        return m
    ctx = tracer.last_context
    if trace:
        m.spans, m.traced_rounds = tracer.records("bench:"), 1
    m.round_setup.append(m.absorb_timers(tracer))
    m.walls.append(wall)
    m.check_round(out, spec, len(ctx.test), None)
    if trace:
        m.trace_overhead_pct = overhead_probe(spec, ctx)
    else:
        trial_phase(spec, ctx, seconds, m)
    m.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return m


def grid_serial(seed: int, seconds: float, trace: bool, work: Path) -> Measurement:
    spec = harness.default_benchmark(trials=GRID_TRIALS, seed=seed)
    spec = dataclasses.replace(spec, ensemble_sizes=(1, 5))
    return _serial(spec, seconds, trace, work)


def wide_pool(seed: int, seconds: float, trace: bool, work: Path) -> Measurement:
    ini = work / "wide.ini"
    ini.write_text(WIDE_INI)
    data_dir = work / "wide-data"
    run_child(["-m", "pairbag.cli", "generate", "--config", str(ini),
               "--out", str(data_dir), "--seed", str(seed)])
    spec = dataclasses.replace(
        harness.default_benchmark(n_neg=20000, seed=seed),
        source=str(data_dir / "manifest.csv"),
        arms=("transfer",),
        k_shots=(5,),
        ensemble_sizes=(20,),
        trials=WIDE_TRIALS,
    )
    return _serial(spec, seconds, trace, work)


def sweep_parallel(seed: int, seconds: float, trace: bool, work: Path) -> Measurement:
    ini = work / "sweep.ini"
    ini.write_text(SWEEP_INI.format(seed=seed, trials=SWEEP_TRIALS))
    spec = build_spec(load_config(str(ini)))
    per_round = len(cells(spec)) * spec.trials
    m = Measurement(trials_per_round=per_round)

    # The in-process reference: its digests are what the parallel sweep must
    # reproduce. Its trials, with the workers', give trial_ms_p50, and its
    # build is a setup sample.
    tracer = Tracer()
    m.trials_attempted += per_round
    try:
        with installed(tracer, TIMER_TARGETS):
            in_process_round(spec, work / "reference")
    except Exception:
        traceback.print_exc()
        m.trials_failed += per_round
        return m
    ctx = tracer.last_context
    m.absorb_timers(tracer)
    m.check_round(work / "reference", spec, len(ctx.test), None)
    reference = m.digests

    start = time.perf_counter()
    index = 0
    while not m.walls or time.perf_counter() - start < seconds:
        out, spans_dir = work / f"round{index}", work / f"spans{index}"
        spans_dir.mkdir()
        m.trials_attempted += per_round
        args = [str(HERE / "sweep_child.py"), str(spans_dir), str(int(trace)),
                "sweep", "--config", str(ini), "--out", str(out), "--workers", "2"]
        round_start = time.perf_counter()
        try:
            pid = run_child(args)
        except (RuntimeError, subprocess.TimeoutExpired):
            traceback.print_exc()
            m.trials_failed += per_round
            return m
        m.walls.append(time.perf_counter() - round_start)
        spans = load_spans(sorted(spans_dir.glob("spans-*.jsonl")))
        builds = {s["id"]: s["end"] - s["start"] for s in spans if s["name"] == "harness.build_context"}
        for s in spans:
            if s["name"] == "harness.run_trial":
                m.add_trial(s["trial"], s["end"] - s["start"])
        m.build_s += builds.values()
        m.round_setup.append(sum(v for k, v in builds.items() if k.startswith(f"sweep:{pid}:")))
        if trace:
            m.spans += spans
            m.traced_rounds += 1
        m.check_round(out, spec, len(ctx.test), reference)
        index += 1

    if trace:
        m.trace_overhead_pct = overhead_probe(spec, ctx)
    m.peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return m


WORKLOADS = {
    "grid-serial": grid_serial,
    "wide-pool": wide_pool,
    "sweep-parallel": sweep_parallel,
}

def end_to_end(m: Measurement) -> dict[str, float]:
    """The end-to-end metrics of an untraced run that completed every round."""
    trials = m.trials_per_round * len(m.walls) + m.phase_trials
    busy = sum(w - s for w, s in zip(m.walls, m.round_setup)) + m.phase_s
    top = max(r["ensemble_size"] for r in m.records)
    return {
        "setup_s": statistics.median(m.build_s),
        "wall_s": statistics.median(m.walls),
        "trials_per_s": trials / busy,
        "trial_ms_p50": median_of_medians(m.trial_ms.values()),
        "peak_rss_mb": m.peak_rss_mb,
        "acc_pct": statistics.fmean(r["accuracy"] for r in m.records if r["ensemble_size"] == top),
        "rms_cal_pct": statistics.fmean(
            c["rms_error"] for r in m.records for c in r["calibrations"]
        ),
    }


def per_layer(m: Measurement) -> dict[str, float]:
    metrics = layer_metrics(m.spans, m.traced_rounds)
    metrics["trace_overhead_pct"] = m.trace_overhead_pct
    return metrics


def report_lines(m: Measurement) -> list[str]:
    """Human-readable facts that are not metrics: sample counts, tail, digests."""
    latencies = [ms for cell in m.trial_ms.values() for ms in cell]
    lines = [
        f"rounds {len(m.walls)}  trials/round {m.trials_per_round}  "
        f"trial-phase trials {m.phase_trials} in {m.phase_s:.3f} s  "
        f"setup samples {len(m.build_s)}  trial samples {len(latencies)} "
        f"in {len(m.trial_ms)} cells"
    ]
    tail = tail_percentile(latencies)
    if tail is None:
        lines.append(f"trial_ms tail: fewer than 100 trial samples ({len(latencies)}), not reported")
    else:
        lines.append(f"trial_ms_p{tail[0]:g} {tail[1]:.3f} ms (pooled, n={len(latencies)})")
    for name, digest in (m.digests or {}).items():
        lines.append(f"sha256 {name} {digest}")
    for name, passed in m.checks:
        if not passed:
            lines.append(f"check FAILED: {name}")
    return lines
