"""Partition-bagging ensembles for extremely imbalanced pre/post pair classification.

The library trains many small siamese pair classifiers, each on the full
k-shot positive set plus one disjoint chunk of the negative pool, and
averages their scores at inference. It ships with calibration diagnostics
(equal-mass-binned RMS/MAD errors), a seeded experiment harness, and a CLI.
"""

from pairbag.data import (
    KShotDraw,
    PairDataset,
    SyntheticSpec,
    draw_k_shot,
    generate_synthetic,
    load_manifest,
    save_manifest,
)
from pairbag.partition import (
    ChunkAssignment,
    ChunkPlan,
    assign_chunks,
    base_training_set,
    make_chunk_plan,
)
from pairbag.learner import (
    BaseModel,
    PretrainedExtractor,
    SiameseTopology,
    default_topology,
    fine_tune,
    forward,
    init_scratch,
    init_transfer,
    pretrain_extractor,
)
from pairbag.optimize import (
    AdamState,
    TrainConfig,
    adam_step,
    gradient,
    loss,
    smooth_target,
)
from pairbag.ensemble import (
    Ensemble,
    member_scores,
    predict_score,
    train_ensemble,
)
from pairbag.calibrate import (
    CalibrationReport,
    PredictionRecord,
    aggregate_calibration,
    calibration_errors,
    records_from_scores,
)
from pairbag.harness import (
    ExperimentSpec,
    SweepSummary,
    TrialReport,
    default_benchmark,
    error_rate_improvement,
    run_experiment,
    run_trial,
    summarize,
)

__version__ = "0.1.0"
