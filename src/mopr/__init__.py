"""Multi-group proportional representation (MPR) metrics and constrained retrieval.

The package measures how well a retrieved set of items matches the group
proportions of a curated reference dataset, and retrieves top-k items subject
to a bound on that mismatch via a cutting-plane algorithm (MOPR).
"""

from mopr.datamodel import (
    Dataset,
    DatasetSchema,
    Query,
    SyntheticSpec,
    build_balanced_curation,
    generate_synthetic,
    load_dataset,
    load_query,
    reconcile,
    save_dataset,
)
from mopr.similarity import Selection, cosine_similarity, condition_curation, top_k
from mopr.statclasses import (
    FeatureGroups,
    NormalizedStatistic,
    RepStatistic,
    fit_linear_ls,
    fit_mlp,
    fit_tree,
    fit_tree_exact,
    normalize_to_cprime,
)
from mopr.metric import (
    MprReport,
    mpr_closed_form_linear,
    mpr_exact_finite,
    mpr_rkhs,
    mpr_via_oracle,
    signed_weights,
)
from mopr.solver import Cut, LpSolution, round_top_k, solve_ip_exact, solve_lp
from mopr.algorithm import (
    MoprConfig,
    MoprTrace,
    ParetoPoint,
    mmr_retrieve,
    mopr_qp_linear,
    mopr_retrieve,
    pareto_sweep,
)
from mopr.bounds import (
    BoundReport,
    KnownPopulation,
    gap_experiment,
    generalization_bound,
    query_budget,
    rademacher_mc,
    vc_rademacher_bound,
)

__version__ = "0.1.0"
