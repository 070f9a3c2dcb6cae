"""Fast proportional-hazards estimation on massive survival data.

The package fits the standard maximum partial likelihood estimator and,
for datasets too large to refit repeatedly, a two-step subsample estimator
driven by residual-based selection probabilities, with a subsample-only
sandwich covariance for inference.
"""

from .breslow import (
    CumulativeHazard,
    PilotContext,
    RiskSetMean,
    breslow_cumhaz,
    pilot_breslow,
    score_residuals,
)
from .data import CsvSchema, SurvivalDataset, Violation, load_csv, validate, write_csv
from .errors import (
    CalibrationError,
    CoxSubError,
    CsvError,
    NumericsError,
    PilotError,
    SingularHessianError,
    TwoStepError,
)
from .partial_likelihood import (
    CoxFit,
    hessian,
    neg_log_partial_likelihood,
    newton_solve,
    score,
)
from .simulation import (
    FiveNumberSummary,
    ReplicationReport,
    SimConfig,
    ar1_covariance,
    calibrate_c0,
    five_number_summary,
    gen_covariates,
    gen_dataset,
    gen_failure_times,
    resolve_c0,
    run_replications,
    true_cumulative_hazard,
)
from .subsampling import (
    CovarianceEstimate,
    Subsample,
    SubsamplePlan,
    TwoStepResult,
    compute_aopt_probs,
    compute_lopt_probs,
    draw_uniform,
    draw_weighted,
    estimate_covariance,
    fit_pilot,
    two_step,
    uniform_plan,
    weighted_fit,
)

__version__ = "0.1.0"
