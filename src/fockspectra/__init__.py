"""Numerical spectral analysis of a block operator matrix in truncated Fock space.

The package discretizes the tridiagonal operator matrix acting on
C + L2(Omega) + L2_sym(Omega^2), computes its essential spectrum through the
Schur-complement symbol, cross-checks bound-state counts via the
Birman-Schwinger principle, and evaluates a growth-exponent criterion for
finiteness of the discrete spectrum below the essential spectrum.

The exports and submodules load on first use (PEP 562): ``import fockspectra``
runs only this file, and each name imports the submodule that defines it the
first time it is read, so a CLI command pays only for the modules it runs.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# exported name -> submodule that defines it; an exported submodule maps to itself
_EXPORTS = {
    **dict.fromkeys(["blocks"], "blocks"),
    **dict.fromkeys(["grid", "Grid", "PairGrid", "make_grid", "make_pair_grid"], "grid"),
    **dict.fromkeys(["model", "AssumptionAReport", "BuiltinModel", "ModelError",
                     "ModelEvaluationError", "ModelSpec", "builtin_models", "check_assumption_a",
                     "load_model"], "model"),
    **dict.fromkeys(["model_from_config"], "config"),
    **dict.fromkeys(["operators", "DiscreteBlocks", "assemble_A", "assemble_blocks"],
                    "operators"),
    **dict.fromkeys(["schur", "PoleProximityError", "bs_operator", "delta_at",
                     "delta_at_points", "delta_values", "hs_norm_k", "hs_norm_t", "k_matrix",
                     "s_matrix", "schur_eval"], "schur"),
    **dict.fromkeys(["spectra", "BOUNDARY_BAND", "CountingResult", "EssSpecReport",
                     "MatrixTooLargeError", "ThresholdCounts", "birman_schwinger_check",
                     "birman_schwinger_sweep", "discrete_spectrum", "discrete_spectrum_above",
                     "discrete_spectrum_below", "essential_spectrum", "threshold_counts"],
                    "spectra"),
    **dict.fromkeys(["finiteness", "ExponentEstimate", "FinitenessReport", "estimate_exponents",
                     "finiteness_verdict", "locate_t0"], "finiteness"),
    **dict.fromkeys(["verify", "h12_decay_bound", "holder_conjugate", "singular_sequence_norms"],
                    "verify"),
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    source = _EXPORTS.get(name)
    if source is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = _import_module(f"{__name__}.{source}")
    return module if name == source else getattr(module, name)


def __dir__():
    return sorted({*globals(), *__all__})
