"""Fast proportional-hazards estimation on massive survival data.

The package fits the standard maximum partial likelihood estimator and,
for datasets too large to refit repeatedly, a two-step subsample estimator
driven by residual-based selection probabilities, with a subsample-only
sandwich covariance for inference.
"""

# data: the dataset container, its CSV format and the value check
from .data import CsvSchema, SurvivalDataset, Violation, load_csv, validate, write_csv

# errors
from .errors import (
    CalibrationError,
    CoxSubError,
    CsvError,
    NumericsError,
    PilotError,
    SingularHessianError,
    TwoStepError,
)

# full-data fit: the partial likelihood, its Newton solve and the Breslow hazard
from .partial_likelihood import (
    CoxFit,
    hessian,
    neg_log_partial_likelihood,
    newton_solve,
    score,
)
from .breslow import CumulativeHazard, breslow_cumhaz

# two-step estimator: two_step, and the steps it chains in this order
from .breslow import PilotContext
from .subsampling import (
    TwoStepResult,
    two_step,
    draw_uniform,
    fit_pilot,
    compute_lopt_probs,
    compute_aopt_probs,
    SubsamplePlan,
    draw_weighted,
    Subsample,
    weighted_fit,
    estimate_covariance,
    CovarianceEstimate,
)

# simulation: generated datasets, censoring calibration and replication studies
from .simulation import (
    SimConfig,
    resolve_c0,
    calibrate_c0,
    gen_dataset,
    run_replications,
    ReplicationReport,
    five_number_summary,
    FiveNumberSummary,
)

__version__ = "0.1.0"
