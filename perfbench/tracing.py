"""Spans around pairbag's public functions, recorded from outside the package.

A Tracer replaces a function at the module that imports it (for example
`pairbag.harness.train_ensemble`, the name `run_trial` looks up) with a
wrapper that records one span per call: name, start, end, parent span and
the trial it ran in. Spans stay in memory until `dump` writes them out, so
the only per-call cost is two clock reads and a list append.

Nothing under `src/` is changed: `installed` patches the module attributes
for the duration of a `with` block and restores the originals after it.
"""

from __future__ import annotations

import importlib
import json
import os
import time
from contextlib import contextmanager
from pathlib import Path

from metrics import loss_and_gradient_flops


def _lag_attrs(args, kwargs, result):
    model, pre = args[0], args[1]
    topo = model.topology
    head_only = model.init_mode == "transfer"
    params = topo.param_count
    return {
        "rows": int(pre.shape[0]),
        "flops": loss_and_gradient_flops(topo.extractor_sizes, topo.head_hidden, pre.shape[0]),
        "grad_entries": params,
        "grad_kept": params - topo.extractor_param_count if head_only else params,
    }


def _forward_attrs(args, kwargs, result):
    return {"rows": int(result.shape[0]) if hasattr(result, "shape") else 1}


def _len_attrs(args, kwargs, result):
    return {"rows": len(result)}


def _written_attrs(args, kwargs, result):
    return {"bytes": Path(args[1]).stat().st_size}


# (module, attribute, span name, attribute recorder). Each entry is the name
# a caller inside pairbag looks up, so patching it intercepts that call site.
TRACE_TARGETS = (
    ("pairbag.harness", "build_context", "harness.build_context", None),
    ("pairbag.harness", "run_trial", "harness.run_trial", None),
    ("pairbag.harness", "summarize", "harness.summarize", None),
    ("pairbag.cli", "summarize", "harness.summarize", None),
    ("pairbag.harness", "generate_synthetic", "data.generate", None),
    ("pairbag.harness", "load_manifest", "data.load_manifest", _len_attrs),
    ("pairbag.harness", "draw_k_shot", "data.draw", None),
    ("pairbag.harness", "make_chunk_plan", "partition.plan", None),
    ("pairbag.harness", "assign_chunks", "partition.assign", None),
    ("pairbag.harness", "pretrain_extractor", "learner.pretrain", None),
    ("pairbag.ensemble", "fine_tune", "learner.fine_tune", None),
    ("pairbag.learner", "loss_and_gradient", "learner.loss_and_gradient", _lag_attrs),
    ("pairbag.ensemble", "forward", "learner.forward", _forward_attrs),
    ("pairbag.learner", "adam_step", "optimize.adam", None),
    ("pairbag.harness", "train_ensemble", "ensemble.train", None),
    ("pairbag.harness", "member_scores", "ensemble.member_scores", None),
    ("pairbag.harness", "records_from_scores", "calibrate.records", _len_attrs),
    ("pairbag.harness", "calibration_errors", "calibrate.errors", None),
    ("pairbag.cli", "write_reports_jsonl", "cli.write", _written_attrs),
    ("pairbag.cli", "write_summary_csv", "cli.write", _written_attrs),
    ("pairbag.harness", "derive_seed", "seeding.derive_seed", None),
    ("pairbag.ensemble", "derive_seed", "seeding.derive_seed", None),
)

# The untraced runs time only context builds and trials, which the
# end-to-end metrics setup_s and trial_ms_p50 need.
TIMER_TARGETS = tuple(t for t in TRACE_TARGETS if t[2] in ("harness.build_context", "harness.run_trial"))


def _trial_id(args, kwargs) -> str:
    # run_trial(spec, arm, k, m, trial_seed, trial_index=0, context=None)
    arm, k, m = args[1:4]
    index = kwargs.get("trial_index", args[5] if len(args) > 5 else 0)
    return f"{arm}/k{k}/m{m}/t{index}"


class Tracer:
    """In-memory span recorder for one process.

    A span is a list [name, start, end, parent, trial, attrs]; parent is the
    index of the enclosing span in `spans` or -1, and trial is the id of the
    run_trial call the span ran under, or None.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._trial: str | None = None
        # The benchmark's output checks read the test split from this.
        self.last_context = None

    def clear(self) -> None:
        """Forget recorded spans, as a forked worker must for its parent's."""
        del self.spans[:]
        del self._stack[:]
        self._trial = None

    def wrap(self, name: str, fn, attrs=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        opens_trial = name == "harness.run_trial"

        def traced(*args, **kwargs):
            outer_trial = self._trial
            if opens_trial:
                self._trial = _trial_id(args, kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self._trial, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                self._trial = outer_trial
            if attrs is not None:
                span[5] = attrs(args, kwargs, result)
            if name == "harness.build_context":
                self.last_context = result
            return result

        return traced

    def records(self, source: str = "") -> list[dict]:
        """Spans as dicts whose ids are unique across processes and sources."""
        tag = f"{source}{os.getpid()}:"
        return [
            {
                "id": f"{tag}{i}",
                "name": name,
                "start": start,
                "end": end,
                "parent": f"{tag}{parent}" if parent >= 0 else None,
                "trial": trial,
                "attrs": attrs or {},
            }
            for i, (name, start, end, parent, trial, attrs) in enumerate(self.spans)
        ]

    def dump(self, path: Path, source: str = "") -> None:
        with open(path, "w") as handle:
            for record in self.records(source):
                handle.write(json.dumps(record) + "\n")


def load_spans(paths) -> list[dict]:
    spans = []
    for path in paths:
        with open(path) as handle:
            spans.extend(json.loads(line) for line in handle if line.strip())
    return spans


@contextmanager
def installed(tracer: Tracer, targets=TRACE_TARGETS):
    """Route each target name through the tracer inside the `with` block."""
    saved = []
    try:
        for module_name, attr, span_name, attrs in targets:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(span_name, original, attrs))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
