"""Numerical certification of maximal inequalities for walks on metric
semigroups: instances and axiom checks, exact/Monte-Carlo laws of path
statistics, the rearrangement calculus, inequality checkers with constant
estimators, and a convergence-dichotomy probe."""

from .axioms import (
    AxiomReport,
    GroupMetricClassification,
    classify_group_metric,
    telescoping_slack,
    verify_axioms,
)
from .corpus import (
    CorpusSpec,
    generate_corpus,
    iter_corpus,
    random_hj_parameters,
    threshold_candidates,
)
from .inequalities import (
    HJParameters,
    check_hj,
    check_hj_simple,
    check_mogulskii,
    check_moment_growth,
    check_moment_vs_quantile,
    check_spike_moment_bound,
    check_step_moment_sandwich,
    check_step_quantile_chain,
    check_truncated_quantile_shift,
    check_walk_moment_bound,
    check_walk_quantile_ratio,
    estimate_quantile_ratio_constant,
    moment_growth_multiplier,
    sweep_moment_growth,
    sweep_moment_vs_quantile,
    tight_block_set,
)
from .laws import (
    DiscreteDistribution,
    EnumerationCapError,
    IndependentSequence,
    ScalarLaw,
    exact_functional_law,
    mc_tail_agreement,
    monte_carlo_law,
    sequence_from_config,
    sequence_to_config,
)
from .levy import (
    ConvergenceVerdict,
    WalkConfig,
    WalkResult,
    detect_convergence,
    equivalence_experiment,
    make_schedule,
    simulate_walk,
)
from .rearrange import (
    check_rearrangement_transfer,
    excess_tail_moment,
    rearrangement_at,
    tail_sum_inverse,
    tail_sum_inverse_law,
    truncate,
    truncate_upper,
    TransferTuple,
)
from .reports import (
    ConstantEstimate,
    InequalityReport,
    RatioReport,
    Uncertain,
    canonical_json,
    make_report,
    reports_to_csv,
)
from .rng import derive_seed, uniform_block
from .semigroups import (
    ADJOINED_IDENTITY,
    BrokenMultiplicativeRationals,
    BrokenSubtractionIntegers,
    CarrierMismatchError,
    CompletedMonoid,
    CyclicGroup,
    GraphGroup,
    InstanceSpecError,
    IntegerAdditive,
    MetricSemigroup,
    NotAGroupError,
    PositiveRationalsAdditive,
    RealVectorGroup,
    SymmetricGroup,
    TorusGroup,
    WordMetricGroup,
    adjoin_identity,
    parse_instance,
    standard_word_metric_sym3,
)

__version__ = "0.1.0"
