"""Numerical spectral analysis of a block operator matrix in truncated Fock space.

The package discretizes the tridiagonal operator matrix acting on
C + L2(Omega) + L2_sym(Omega^2), computes its essential spectrum through the
Schur-complement symbol, cross-checks bound-state counts via the
Birman-Schwinger principle, and evaluates a growth-exponent criterion for
finiteness of the discrete spectrum below the essential spectrum.
"""

from .grid import Grid, PairGrid, make_grid, make_pair_grid
from .model import (
    AssumptionAReport,
    BuiltinModel,
    ModelError,
    ModelEvaluationError,
    ModelSpec,
    builtin_models,
    check_assumption_a,
    load_model,
    mnr_infinite_model,
    model_from_config,
    negate_model,
    sigma2_empty_model,
    synthetic_power_model,
)
from .operators import (
    DiscreteBlocks,
    assemble_A,
    assemble_blocks,
    assemble_full,
    consistency_check_adjoint,
    dump_matrix_csv,
)
from .schur import (
    BSOperator,
    PoleProximityError,
    SchurEval,
    bs_operator,
    delta_at,
    delta_derivative_at,
    delta_values,
    hs_bound_young,
    hs_norm_k,
    k_matrix,
    s_matrix,
    schur_eval,
)
from .spectra import (
    BOUNDARY_BAND,
    CountingResult,
    EssSpecReport,
    ThresholdCounts,
    birman_schwinger_check,
    count_above,
    count_below,
    discrete_spectrum,
    discrete_spectrum_above,
    discrete_spectrum_below,
    essential_spectrum,
    threshold_counts,
)
from .finiteness import (
    ExponentEstimate,
    FinitenessReport,
    estimate_exponents,
    finiteness_verdict,
    locate_t0,
    phi_s,
)
from .verify import (
    FullVsReducedReport,
    SingularSeqConfig,
    h12_decay_bound,
    holder_conjugate,
    oracle_full_vs_reduced,
    singular_sequence_gram,
    singular_sequence_norms,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
