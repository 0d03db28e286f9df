"""Pure arithmetic of the benchmark: FLOP counts, percentiles, self time, layer totals.

Nothing here imports pairbag or numpy, so the benchmark's own tests run in
milliseconds and a span file can be re-analysed without the package.
"""

from __future__ import annotations

import functools
import math
import re
import statistics
from collections import defaultdict

# Metric names as BENCHMARK.json allows them: a letter or digit first, then
# at most 63 more letters, digits, '_', '.' or '-'.
METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def valid_metric_name(name: str) -> bool:
    return METRIC_NAME.fullmatch(name) is not None


@functools.lru_cache(maxsize=None)
def loss_and_gradient_flops(extractor_sizes: tuple[int, ...], head_hidden: int, rows: int) -> int:
    """Matrix-product FLOPs (2 per multiply-add) of one `loss_and_gradient` call.

    Counts the products the function computes, whatever the arm: both
    siamese branches forward through the extractor, the head forward, the
    head backward (weight grads of both head layers, input grads of both),
    and per branch the extractor backward (weight grads of every layer,
    input grads of every layer but the first). Bias adds, activations and
    the loss are left out. A computed count, not a hardware counter.
    """
    ext = list(zip(extractor_sizes[1:], extractor_sizes[:-1]))
    f, h = extractor_sizes[-1], head_hidden
    ext_forward = sum(o * i for o, i in ext)
    ext_backward = ext_forward + sum(o * i for o, i in ext[1:])
    head_forward = 2 * f * h + h
    head_backward = 2 * h + 2 * (2 * f * h)
    macs_per_row = 2 * ext_forward + 2 * ext_backward + head_forward + head_backward
    return 2 * rows * macs_per_row


def tail_percentile(samples, min_beyond: int = 10):
    """The highest of p90, p99 and p99.9 with `min_beyond` samples above it.

    Uses the nearest-rank percentile: the value at rank ceil(q * n / 100) of
    the sorted samples. Returns (q, value), or None when even p90 would have
    fewer than `min_beyond` samples beyond it (fewer than 100 samples).
    """
    ordered = sorted(samples)
    n = len(ordered)
    best = None
    for q in (90, 99, 99.9):
        rank = math.ceil(q * n / 100)
        if rank >= 1 and n - rank >= min_beyond:
            best = (q, ordered[rank - 1])
    return best


def median_of_medians(groups) -> float:
    """Median over groups of each group's median.

    Trials of different cells differ in cost by up to 60 times, so the
    median of all latencies pooled falls on the boundary between two cells
    and follows the slowest trial of one and the fastest of the other. The
    median of per-cell medians follows typical trials only.
    """
    return statistics.median(statistics.median(g) for g in groups)


def spread(values) -> dict:
    """Median, quartiles and the quartile distance as a share of the median."""
    values = list(values)
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values * 3)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "iqr_share": (q3 - q1) / abs(med) if med else math.inf,
        "n": len(values),
    }


def self_times(spans: list[dict]) -> dict[str, float]:
    """Per span id: duration minus the part of it covered by its children.

    Children that overlap each other (spans of concurrent callers) are
    merged first, so covered time is never counted twice.
    """
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    out = {}
    for s in spans:
        start, end = s["start"], s["end"]
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(s["id"], ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out[s["id"]] = (end - start) - covered
    return out


def _under(spans: list[dict], ancestor: str) -> set[str]:
    """Ids of spans that have a span named `ancestor` above them."""
    by_id = {s["id"]: s for s in spans}
    memo: dict[str, bool] = {}

    def inside(span_id):
        if span_id not in memo:
            parent = by_id[span_id]["parent"]
            memo[span_id] = parent is not None and (
                by_id[parent]["name"] == ancestor or inside(parent)
            )
        return memo[span_id]

    return {s["id"] for s in spans if inside(s["id"])}


# (metric, unit, better) of every end-to-end metric; order is print order.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("trials_per_s", "1/s", "higher"),
    ("trial_ms_p50", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("acc_pct", "%", "higher"),
    ("rms_cal_pct", "%", "lower"),
)

# (metric, unit, better) of every per-layer metric; order is print order.
LAYER_METRICS = (
    ("harness.build_context_s", "s", "lower"),
    ("harness.context_builds", "count", "lower"),
    ("harness.context_reuse_ratio", "ratio", "higher"),
    ("harness.run_trial_self_s", "s", "lower"),
    ("harness.summarize_s", "s", "lower"),
    ("data.generate_s", "s", "lower"),
    ("data.load_manifest_s", "s", "lower"),
    ("data.manifest_rows", "count", "lower"),
    ("data.draw_s", "s", "lower"),
    ("partition.plan_s", "s", "lower"),
    ("partition.assign_s", "s", "lower"),
    ("learner.pretrain_s", "s", "lower"),
    ("learner.pretrain_steps", "count", "lower"),
    ("learner.fine_tune_s", "s", "lower"),
    ("learner.members_trained", "count", "lower"),
    ("learner.loss_and_gradient_s", "s", "lower"),
    ("learner.steps", "count", "lower"),
    ("learner.gflop_per_s", "GFLOP/s", "higher"),
    ("learner.useful_grad_ratio", "ratio", "higher"),
    ("learner.forward_s", "s", "lower"),
    ("learner.forward_rows", "count", "lower"),
    ("optimize.adam_s", "s", "lower"),
    ("optimize.adam_calls", "count", "lower"),
    ("ensemble.train_self_s", "s", "lower"),
    ("ensemble.member_scores_s", "s", "lower"),
    ("calibrate.records_s", "s", "lower"),
    ("calibrate.errors_s", "s", "lower"),
    ("calibrate.records", "count", "lower"),
    ("cli.write_s", "s", "lower"),
    ("cli.bytes_written", "count", "lower"),
    ("seeding.derive_seed_s", "s", "lower"),
    ("seeding.derive_seed_calls", "count", "lower"),
    ("trace_overhead_pct", "%", "lower"),
)


def layer_metrics(spans: list[dict], rounds: int) -> dict[str, float]:
    """Per-layer metrics of `rounds` traced passes over a workload.

    Times are seconds per round (self time where the name says so), counts
    are per round. Training steps and Adam calls count only those inside
    trials; pretraining has its own pair. trace_overhead_pct is measured
    separately and is not set here.
    """
    selfs = self_times(spans)
    in_pretrain = _under(spans, "learner.pretrain")
    total = defaultdict(float)
    self_total = defaultdict(float)
    count = defaultdict(int)
    attr = defaultdict(float)
    builds = []
    for s in spans:
        name = s["name"]
        duration = s["end"] - s["start"]
        if name in ("learner.loss_and_gradient", "optimize.adam"):
            name += ".pretrain" if s["id"] in in_pretrain else ""
        total[name] += duration
        self_total[name] += selfs[s["id"]]
        count[name] += 1
        for key, value in s["attrs"].items():
            attr[f"{name}.{key}"] += value
        if name == "harness.build_context":
            builds.append(duration)

    per = 1.0 / rounds
    lag = "learner.loss_and_gradient"
    grads = attr[f"{lag}.grad_entries"]
    return {
        "harness.build_context_s": statistics.median(builds) if builds else 0.0,
        "harness.context_builds": count["harness.build_context"] * per,
        "harness.context_reuse_ratio": rounds / len(builds) if builds else 0.0,
        "harness.run_trial_self_s": self_total["harness.run_trial"] * per,
        "harness.summarize_s": total["harness.summarize"] * per,
        "data.generate_s": total["data.generate"] * per,
        "data.load_manifest_s": total["data.load_manifest"] * per,
        "data.manifest_rows": attr["data.load_manifest.rows"] * per,
        "data.draw_s": total["data.draw"] * per,
        "partition.plan_s": total["partition.plan"] * per,
        "partition.assign_s": total["partition.assign"] * per,
        "learner.pretrain_s": total["learner.pretrain"] * per,
        "learner.pretrain_steps": count[f"{lag}.pretrain"] * per,
        "learner.fine_tune_s": total["learner.fine_tune"] * per,
        "learner.members_trained": count["learner.fine_tune"] * per,
        "learner.loss_and_gradient_s": total[lag] * per,
        "learner.steps": count[lag] * per,
        "learner.gflop_per_s": attr[f"{lag}.flops"] / total[lag] / 1e9 if total[lag] else 0.0,
        "learner.useful_grad_ratio": attr[f"{lag}.grad_kept"] / grads if grads else 0.0,
        "learner.forward_s": total["learner.forward"] * per,
        "learner.forward_rows": attr["learner.forward.rows"] * per,
        "optimize.adam_s": total["optimize.adam"] * per,
        "optimize.adam_calls": count["optimize.adam"] * per,
        "ensemble.train_self_s": self_total["ensemble.train"] * per,
        "ensemble.member_scores_s": total["ensemble.member_scores"] * per,
        "calibrate.records_s": total["calibrate.records"] * per,
        "calibrate.errors_s": total["calibrate.errors"] * per,
        "calibrate.records": attr["calibrate.records.rows"] * per,
        "cli.write_s": total["cli.write"] * per,
        "cli.bytes_written": attr["cli.write.bytes"] * per,
        "seeding.derive_seed_s": total["seeding.derive_seed"] * per,
        "seeding.derive_seed_calls": count["seeding.derive_seed"] * per,
    }
