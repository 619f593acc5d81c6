"""Subspace learning under an attribute budget.

Learners observe r coordinates of each sampled vector and output a rank-k
projector; the library provides the learners, the unbiased correlation
estimators they rely on, spectrum projections, projector-mixture
decomposition, exact loss evaluation, adversarial fixtures, and a seeded
experiment harness with a CLI.
"""

from .decomposition import MixtureDecomposition, decompose, sample_component
from .domain import (
    DomainSpec,
    ProjectionMatrix,
    check_hull_membership,
    projector_from_basis,
    top_k_projector,
    validate_instance,
)
from .evaluation import (
    CoinReport,
    LossReport,
    excess_loss,
    identified_fraction,
    loss,
)
from .harness import (
    ExperimentConfig,
    TrialRecord,
    cli_main,
    emit_csv,
    parse_csv,
    run_sweep,
    run_trial,
)
from .learners import (
    LearnerConfig,
    LearnerTrace,
    bandit_pca,
    capped_simplex_project,
    entropic_project,
    full_info_pca,
    mbeg,
    mbgd,
)
from .oracles import (
    DistributionSpec,
    Moments,
    coin_fixture,
    default_coin_basis,
    dyadic_fixture,
    exact_moments,
    impossibility_fixture,
    load_distribution,
    make_finite_support,
    observe,
    sample_instances,
    save_distribution,
)
from .seeding import make_rng, mix64
from .spectral import EigenSystem, frob_inner, sym_eig, sym_matrix

__version__ = "0.1.0"

__all__ = [
    "CoinReport",
    "DistributionSpec",
    "DomainSpec",
    "EigenSystem",
    "ExperimentConfig",
    "LearnerConfig",
    "LearnerTrace",
    "LossReport",
    "MixtureDecomposition",
    "Moments",
    "ProjectionMatrix",
    "TrialRecord",
    "bandit_pca",
    "capped_simplex_project",
    "check_hull_membership",
    "cli_main",
    "coin_fixture",
    "decompose",
    "default_coin_basis",
    "dyadic_fixture",
    "emit_csv",
    "entropic_project",
    "exact_moments",
    "excess_loss",
    "frob_inner",
    "full_info_pca",
    "identified_fraction",
    "impossibility_fixture",
    "load_distribution",
    "loss",
    "make_finite_support",
    "make_rng",
    "mbeg",
    "mbgd",
    "mix64",
    "observe",
    "parse_csv",
    "projector_from_basis",
    "run_sweep",
    "run_trial",
    "sample_component",
    "sample_instances",
    "save_distribution",
    "sym_eig",
    "sym_matrix",
    "top_k_projector",
    "validate_instance",
]
