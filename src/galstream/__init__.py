"""galstream: a benchmark engine for graph active learning on streaming node data.

Simulates day-level query/retrain/evaluate loops over a static graph with
dynamic node features, across thirteen query strategies, with four-way
node-category evaluation, the cumulative performance index, and a
diversity/user-burden metric suite.
"""

from .burden import (
    QueryLog,
    average_time_gap,
    centrality_burden_correlation,
    coverage_ratio,
    mean_normalized_centrality,
    over_exertion,
    sampling_entropy,
    within_gap_percentage,
)
from .clustering import kcenter_greedy, kmeans, kmedoids
from .config import ExperimentConfig, load_config, validate_config
from .datasets import (
    Dataset,
    DayFrame,
    Split,
    SyntheticConfig,
    generate_synthetic,
    load_dataset,
    make_split,
    save_dataset,
    synthetic_communities,
)
from .exceptions import (
    ConfigError,
    ConvergenceError,
    DataFormatError,
    GalstreamError,
    TrainingDivergedError,
    UndefinedMetricError,
)
from .gcn import (
    GcnParams,
    TrainConfig,
    build_normalized_adjacency,
    embed,
    forward,
    init_params,
    loss_and_gradients,
    train,
)
from .graphs import (
    CENTRALITY_METRICS,
    Graph,
    betweenness_centrality,
    centrality,
    closeness_centrality,
    clustering_coefficient,
    degree_centrality,
    eigenvector_centrality,
    harmonic_centrality,
    load_centrality,
    modularity,
    modularity_partition,
    pagerank,
)
from .harness import (
    build_eval_slices,
    run_experiment,
    run_unit,
)
from .metrics import (
    EVAL_CATEGORIES,
    PERFORMANCE_METRICS,
    EvalSlice,
    accuracy,
    auc_pr,
    auc_roc,
    compute_metric,
    cpi,
    f1_macro,
    f1_micro,
    precision,
    recall,
    rolling_mean_std,
)
from .reports import emit_reports, recompute_reports
from .stats import (
    anova_oneway,
    chi2_survival,
    f_survival,
    kruskal_wallis,
    regularized_incomplete_beta,
    regularized_incomplete_gamma,
)
from .strategies import (
    STRATEGY_NAMES,
    Selection,
    SelectionContext,
    select,
)

__version__ = "0.1.0"
