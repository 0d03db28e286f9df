"""Whole-trial oracle: run_trial must give a straight-line trial's bytes.

oracle_trial redoes one trial without workspaces, executors, cached test
features or in-place updates. It draws, plans and assigns through the
library with run_trial's derived seeds, initializes members with the
library's initializers, trains them with the allocating gradient of
test_learner and the allocating Adam of test_optimize, scores every member
with a batch forward pass over the raw test pairs and calibrates with the
library. The report's JSON bytes must equal run_trial's, in-process, on two
threads at once and through run_experiment with one and two workers.
"""

import dataclasses
import itertools
import json
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import numpy as np
import pytest
from test_learner import oracle_layers, oracle_loss_and_gradient
from test_optimize import adam_oracle

from pairbag import harness, learner
from pairbag.calibrate import calibration_errors, records_from_scores
from pairbag.data import SyntheticSpec, draw_k_shot
from pairbag.harness import (
    ARMS,
    TrialReport,
    build_context,
    default_benchmark,
    run_experiment,
    run_trial,
    trial_seed_for,
)
from pairbag.learner import BaseModel, init_scratch, init_transfer
from pairbag.optimize import smooth_target
from pairbag.partition import assign_chunks, base_training_set, make_chunk_plan
from pairbag.seeding import ASSIGN_STREAM, DRAW_STREAM, PLAN_STREAM, TRAIN_STREAM, derive_seed

SPEC = dataclasses.replace(
    default_benchmark(),
    source=SyntheticSpec(d=3, n_pos=12, n_neg=3000, separation=6.0, noise_scale=0.5, seed=9),
    k_shots=(2, 4),
    ensemble_sizes=(1, 3),
    arms=ARMS,
    trials=2,
    test_fraction=0.3,
    seed=9,
    budgets=(("scratch", 2, 6), ("scratch", 4, 4), ("transfer", 2, 5), ("transfer", 4, 3)),
    extractor_hidden=(6, 4),
    head_hidden=6,
    pretrain_budget=20,
    source_size=32,
    source_tasks=4,
)
JOBS = list(itertools.product(SPEC.arms, SPEC.k_shots, SPEC.ensemble_sizes, range(SPEC.trials)))


def oracle_member(init, pre, post, targets, config):
    """Flat weights of `init` after config.iterations allocating Adam steps
    on the full batch; a transfer member steps its head slice alone, in
    float64. A scratch member's gradient is computed in float32, from the
    weights, pairs and targets cast at each step, and widened to float64
    for Adam."""
    topology = init.topology
    frozen = topology.extractor_param_count if init.init_mode == "transfer" else 0
    weights = init.weights
    m = v = np.zeros(weights.size - frozen)
    t = 0
    for _ in range(config.iterations):
        if frozen:
            _, grad = oracle_loss_and_gradient(BaseModel(topology, weights), pre, post, targets)
        else:
            # BaseModel holds float64 weights, so the float32 copy rides on a stand-in.
            model32 = SimpleNamespace(topology=topology, weights=weights.astype(np.float32))
            batch32 = (a.astype(np.float32) for a in (pre, post, targets))
            _, grad32 = oracle_loss_and_gradient(model32, *batch32)
            grad = grad32.astype(np.float64)
        head, m, v, t = adam_oracle(weights[frozen:], grad[frozen:], m, v, t, config)
        weights = np.concatenate([weights[:frozen], head])
    return weights


def oracle_scores(weights, topology, pre, post):
    """Scores of n pairs under one member's flat weights, one layer at a time."""
    mats = oracle_layers(BaseModel(topology, weights))
    n_ext = len(topology.extractor_sizes) - 1

    def extract(x):
        for w, b in mats[:n_ext]:
            x = np.maximum(x @ w.T + b, 0.0)
        return x

    h = np.concatenate([extract(pre), extract(post)], axis=1)
    (w1, b1), (w2, b2) = mats[n_ext:]
    r1 = np.maximum(h @ w1.T + b1, 0.0)
    return learner._sigmoid((r1 @ w2.T + b2)[:, 0])


def oracle_trial(spec, context, arm, k, m, trial_index):
    trial_seed = trial_seed_for(spec, arm, k, m, trial_index)
    train, test = context.train, context.test
    draw = draw_k_shot(train, k, derive_seed(trial_seed, DRAW_STREAM))
    plan = make_chunk_plan(train, k, derive_seed(trial_seed, PLAN_STREAM))
    assignment = assign_chunks(plan, m, derive_seed(trial_seed, ASSIGN_STREAM))
    config = dataclasses.replace(
        spec.train,
        iterations=spec.iteration_budget(arm, k),
        seed=derive_seed(trial_seed, TRAIN_STREAM),
    )
    topology = spec.topology(train.dim)
    scores = []
    overlap = 0
    for i in range(1, m + 1):
        seed = derive_seed(config.seed, i)
        if arm == "scratch":
            init = init_scratch(topology, seed)
        else:
            init = init_transfer(topology, context.pretrained, seed)
        rows = base_training_set(draw, plan, assignment, i)
        overlap += np.intersect1d(context.train_idx[rows], context.test_idx).size
        targets = smooth_target(train.labels[rows], config.alpha)
        weights = oracle_member(init, train.pre[rows], train.post[rows], targets, config)
        scores.append(oracle_scores(weights, topology, test.pre, test.post))
    scores = np.stack(scores)
    accuracy = 100.0 * float(np.mean((scores.mean(axis=0) >= 0.5) == test.labels))
    return TrialReport(
        trial_index=trial_index,
        arm=arm,
        k=k,
        ensemble_size=m,
        accuracy=accuracy,
        calibrations=tuple(
            calibration_errors(records_from_scores(s, test.labels)) for s in scores
        ),
        leakage_overlap=overlap,
    )


def record_bytes(report):
    return json.dumps(report.to_record(), sort_keys=True)


@pytest.fixture(scope="module")
def context():
    return build_context(SPEC)


@pytest.fixture(scope="module")
def expected(context):
    return [record_bytes(oracle_trial(SPEC, context, *job)) for job in JOBS]


def library_trial(context, job):
    arm, k, m, t = job
    seed = trial_seed_for(SPEC, arm, k, m, t)
    return record_bytes(run_trial(SPEC, arm, k, m, seed, t, context=context))


def test_run_trial_matches_oracle(context, expected):
    assert [library_trial(context, job) for job in JOBS] == expected


def test_two_trials_at_once_match_oracle(context, expected, monkeypatch):
    """Trials 0 and 1 of each cell run at once on two threads that share the
    context, and each pair of their members starts scoring together."""
    barrier = threading.Barrier(2, timeout=30)
    real_member_scores = harness.member_scores

    def in_step(*args):
        barrier.wait()
        return real_member_scores(*args)

    monkeypatch.setattr(harness, "member_scores", in_step)
    pairs = list(zip(JOBS[::2], JOBS[1::2]))  # the two trials of one cell
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            got = [
                list(pool.map(lambda job: library_trial(context, job), pair, timeout=60))
                for pair in pairs
            ]
    finally:
        sys.setswitchinterval(interval)
    assert [record for pair in got for record in pair] == expected


@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_matches_oracle(expected, workers):
    assert [record_bytes(r) for r in run_experiment(SPEC, workers=workers)] == expected
