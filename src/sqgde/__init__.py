"""Differential evolution with a stochastic quasi-gradient mutation operator,
plus test functions, budget-aware metrics, and a benchmark harness."""

from .algos import (
    DEConfig,
    InsufficientPopulation,
    SQGConfig,
    crossover_binomial,
    crossover_exponential,
    mutate_best2,
    mutate_rand1,
    run_de,
    run_sqg,
    sqg_gradient_estimate,
    sqg_mutant,
)
from .core import (
    STREAM_VERSION,
    BudgetedEvaluator,
    BudgetExhausted,
    Population,
    RunTrace,
    SearchSpace,
    best_index,
    derive_seed,
    init_population,
    make_rng,
)
from .harness import (
    ALGORITHM_PRESETS,
    AlgorithmSpec,
    BenchmarkSpec,
    RunRecord,
    default_benchmark_spec,
    execute_run,
    run_benchmark,
    summarize,
)
from .metrics import (
    ErtResult,
    NormalizationUndefined,
    RseTarget,
    bnfv_on_grid,
    estimate_rse_target,
    expected_running_time,
)
from .stats import WilcoxonResult, wilcoxon_signed_rank
from .testfuncs import (
    BASE_FUNCTIONS,
    Composition,
    FunctionDescriptor,
    TestFunction,
    Transform,
    base_eval,
    compose_eval,
    composition_weights,
    custom_function,
    default_suite,
    make_test_function,
    random_rotation,
)

__version__ = "0.1.0"
