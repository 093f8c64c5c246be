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
    sigma2_empty_model,
)
from .operators import DiscreteBlocks, assemble_A, assemble_blocks
from .schur import (
    PoleProximityError,
    SchurEval,
    bs_operator,
    delta_at,
    delta_at_points,
    delta_values,
    hs_norm_k,
    hs_norm_t,
    k_matrix,
    s_and_derivative,
    s_matrix,
    schur_eval,
)
from .spectra import (
    BOUNDARY_BAND,
    CountingResult,
    EssSpecReport,
    MatrixTooLargeError,
    ThresholdCounts,
    birman_schwinger_check,
    birman_schwinger_sweep,
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
)
from .verify import (
    SingularSeqConfig,
    h12_decay_bound,
    holder_conjugate,
    singular_sequence_norms,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
