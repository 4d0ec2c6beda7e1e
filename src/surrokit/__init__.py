"""surrokit: surrogate-index estimation of long-term A/B-test effects.

Estimate day-63 treatment effects from the first T post-allocation days via
linear auto-surrogate models, validate the estimates against a seeded
ground-truth simulator, and evaluate launch-decision agreement between
surrogate and direct reads.
"""

from .errors import (
    ArmLabelConflict,
    ControlAsTreatment,
    DataValidationError,
    DegenerateGroup,
    DegenerateVarianceWarning,
    DuplicateObservation,
    EmptyInput,
    InvalidConfig,
    InvalidCycle,
    InvalidRecall,
    KeyMismatch,
    MalformedRow,
    MissingDay,
    MissingPrePeriod,
    NoControlArm,
    NonFiniteOutcome,
    NoTreatmentArm,
    NumericalError,
    OutOfRange,
    RankDeficient,
    SurrokitError,
    TooFewRows,
    UnknownArm,
    ZeroVariance,
)
from .estimators import (
    DEFAULT_ALPHA,
    SE_FLOOR,
    Z_CRIT_95,
    EffectEstimate,
    SignificanceClass,
    direct_effect,
    estimate_to_record,
    mean_difference_effect,
    panel_reads,
    record_to_estimate,
    surrogate_effect,
    welch_se,
    z_test,
)
from .evaluation import (
    CLASS_ORDER,
    capacity_gain,
    decision_report,
    excess_kurtosis,
    extra_experiments_needed,
    launch_metrics,
    paired_groups,
    scaled_distribution,
)
from .panel import (
    DEFAULT_HORIZON,
    ArmLabel,
    OutcomePanel,
    days_in_range,
    load_panel,
    window,
    write_panel,
)
from .simulator import (
    SimConfig,
    SimulatedExperiment,
    config_from_dict,
    corpus_treatment_arms,
    load_config,
    novelty_profile,
    simulate_experiment,
)
from .surrogate import (
    ModelSource,
    SurrogateModel,
    fit_nested,
    fit_pretest,
    fit_similar,
    predict,
    running_mean_model,
)

__version__ = "0.1.0"
