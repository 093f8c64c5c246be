"""Parameter-function bundles for the truncated-Fock-space operator matrix.

A model is the data (w0, v0, w1, v1, w2) on Omega = (-a, a)^d together with
the integrability exponent ``epsilon`` entering the coupling condition

    sup_x ||v1(x, .)||_{L^{2+eps}} < inf,   sup_y ||v1(., y)||_{L^{2+4/eps}} < inf.

Function-call convention: for d == 1 the parameter functions receive plain
float arrays; for d >= 2 they receive arrays with a trailing coordinate axis
of length d.  v1 and w2 take two such point arrays (broadcast together).

Built-in models
---------------
``mnr-infinite`` (d=1; infinitely many bound states below the essential
spectrum) and ``sigma2-empty`` (d=1; Sigma_2 empty) are config documents
shipped in the package as models/<name>.cfg, whose header comments derive
them.  Every model, built-in or user, is built by
``config.model_from_config``, which load_model imports on the first load.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Callable

import numpy as np

from . import blocks

W2_SYMMETRY_TOL = 1e-12


class ModelError(ValueError):
    """Invalid model definition (bad config, bad table, broken invariant)."""


class ModelEvaluationError(ModelError):
    """A parameter function produced NaN or infinity at a sample point."""


@dataclass(frozen=True, eq=False)
class ModelSpec:
    """The eight values that define a model: d, a, w0, v0, w1, v1, w2 and epsilon.

    All fields are read-only after construction; instances are safe to share
    across threads.
    """

    d: int
    a: float
    w0: float
    v0: Callable
    w1: Callable
    v1: Callable
    w2: Callable
    epsilon: float = 2.0


@dataclass(frozen=True, eq=False)
class BuiltinModel:
    spec: ModelSpec
    expected: dict


@dataclass(frozen=True)
class AssumptionAReport:
    """Discrete analogues of the two essential-sup coupling norms, and the range of w2."""

    sup_norm_2pe: float
    sup_norm_2p4e: float
    w2_asymmetry: float      # max |w2(x_i, x_j) - w2(x_j, x_i)|
    passed: bool
    w2_min: float            # extremes of the symmetrized samples MeshSamples.W2
    w2_max: float


# ---------------------------------------------------------------------------
# evaluation helpers
# ---------------------------------------------------------------------------


def _as_points(x, d: int) -> np.ndarray:
    """Normalize a point or array of points to shape (..., d)."""
    x = np.asarray(x, dtype=float)
    if d == 1:
        if x.ndim == 0 or x.shape[-1] != 1:
            x = x.reshape(x.shape + (1,))
    elif x.shape[-1] != d:
        raise ValueError(f"expected trailing axis of length {d}, got shape {x.shape}")
    return x


def _as_point(x, d: int) -> np.ndarray:
    """Flatten a single point to shape (d,), checking its coordinate count."""
    pt = np.atleast_1d(np.asarray(x, dtype=float)).reshape(-1)
    if pt.size != d:
        raise ValueError(f"point must have {d} coordinates")
    return pt


def _check_grid(spec: ModelSpec, grid) -> None:
    """ValueError unless grid lies on the model's cube: the same d and a."""
    if grid.d != spec.d or grid.a != spec.a:
        raise ValueError(f"grid on (-{grid.a!r}, {grid.a!r})^{grid.d} does not match the "
                         f"model's cube (-{spec.a!r}, {spec.a!r})^{spec.d}")


def _strip(x: np.ndarray, d: int):
    return x[..., 0] if d == 1 else x


def eval_x(spec: ModelSpec, fn: Callable, pts: np.ndarray) -> np.ndarray:
    """Evaluate a one-point function at pts of shape (..., d); see eval_xy on views."""
    pts = _as_points(pts, spec.d)
    out = np.asarray(fn(_strip(pts, spec.d)))
    return np.broadcast_to(out, pts.shape[:-1]) if out.shape != pts.shape[:-1] else out


def eval_xy(spec: ModelSpec, fn: Callable, xpts: np.ndarray, ypts: np.ndarray) -> np.ndarray:
    """Evaluate a two-point function; xpts and ypts broadcast against each other.

    The result is a read-only view or a new array that the caller owns and
    may overwrite (_owned).  A view spreads the fewer values of a constant or
    of a function that ignores an argument, or holds an argument returned as
    it is.  Any other result is new: a function must not return an array
    that it keeps.
    """
    xpts = _as_points(xpts, spec.d)
    ypts = _as_points(ypts, spec.d)
    shape = np.broadcast_shapes(xpts.shape[:-1], ypts.shape[:-1])
    out = np.asarray(fn(_strip(xpts, spec.d), _strip(ypts, spec.d)))
    if out.shape != shape or np.may_share_memory(out, xpts) or np.may_share_memory(out, ypts):
        return np.broadcast_to(out, shape)
    return out


def _owned(samples: np.ndarray):
    """An eval_xy result as the out= of a float64 step: itself when the caller
    owns it (writeable, by eval_xy's contract), else None for a new array."""
    return samples if samples.flags.writeable and samples.dtype == np.float64 else None


def shared_v1_row(spec: ModelSpec, xs: np.ndarray, ys: np.ndarray):
    """v1(x, y) at the points ys (shape (m, d)) as one row for every x of xs, or None.

    The row is shared when v1 ignores x, which eval_xy shows by spreading
    the samples at xs[:2] from one row (a zero row stride); a single x is
    its own row.
    """
    V = eval_xy(spec, spec.v1, xs[:2, None, :], ys[None, :, :])
    return V[0] if V.shape[0] == 1 or (V.shape[0] > 1 and V.strides[0] == 0) else None


@dataclass(frozen=True, eq=False)
class MeshSamples:
    """Parameter-function samples on a grid, shared by the assembly routines.

    W2 is symmetrized (check_assumption_a reports the raw asymmetry) so that the
    discrete Schur complement built from these samples is exactly the Schur
    complement of the assembled block matrix.  sw is the z-free weight factor
    of every Schur evaluation on the grid.
    """

    w1: np.ndarray     # (N,)
    v0: np.ndarray     # (N,)
    V1: np.ndarray     # (N, N), V1[i, j] = v1(x_i, x_j)
    W2: np.ndarray     # (N, N), symmetrized
    sw: np.ndarray     # (N,), square roots of the quadrature weights


def _sym_w2(spec: ModelSpec, grid, b: slice, cols: slice = slice(None)) -> np.ndarray:
    """MeshSamples.W2[b, cols]: 0.5 * (w2(x, y) + w2(y, x)), as a new array.

    The mirror is added into the first evaluation when that is a new array.
    The sum is commutative in IEEE arithmetic, so W2 is exactly symmetric:
    a block of it equals the transpose of its mirror image.
    """
    X, Y = grid.nodes[b, None, :], grid.nodes[None, cols, :]
    W = eval_xy(spec, spec.w2, X, Y)
    W = np.add(W, eval_xy(spec, spec.w2, Y, X), out=_owned(W), dtype=float)
    W *= 0.5
    return W


@lru_cache(maxsize=1)
def _mesh_samples_cached(spec: ModelSpec, grid) -> MeshSamples:
    nodes = grid.nodes
    w1v = eval_x(spec, spec.w1, nodes).astype(float)
    v0v = np.asarray(eval_x(spec, spec.v0, nodes))
    V1 = np.asarray(eval_xy(spec, spec.v1, nodes[:, None, :], nodes[None, :, :]))
    n = grid.n
    W2 = np.empty((n, n))
    # filled on this thread: the block threads' freed temporaries would stay
    # resident next to W2.  Each row block samples its columns from its
    # diagonal block on and mirrors those right of that block below it, so a
    # pair outside the diagonal blocks is sampled once, not twice.
    for b in blocks.row_blocks(n, n):
        W2[b, b.start:] = _sym_w2(spec, grid, b, slice(b.start, None))
        W2[b.stop:, b] = W2[b, b.stop:].T
    sw = np.sqrt(grid.weights)
    for arr in (w1v, v0v, V1, W2, sw):
        arr.setflags(write=False)
    return MeshSamples(w1=w1v, v0=v0v, V1=V1, W2=W2, sw=sw)


def mesh_samples(spec: ModelSpec, grid) -> MeshSamples:
    """Samples of w1, v0, v1, w2 on a grid, cached for the last grid (by object identity)."""
    _check_grid(spec, grid)
    return _mesh_samples_cached(spec, grid)


@lru_cache(maxsize=16)
def check_assumption_a(spec: ModelSpec, grid) -> AssumptionAReport:
    """Check boundedness/integrability of the parameter functions by quadrature.

    Computes the discrete L^{2+eps} norm of v1(x_i, .) (sup over rows), the
    discrete L^{2+4/eps} norm of v1(., x_j) (sup over columns) and the range
    and symmetry defect of w2, cached, in two passes over the same row blocks
    of node pairs (blocks.map_blocks), so memory is O(N).  The range and the
    defect are symmetric in the pair, so the w2 pass samples w2 and its
    mirror only from each block's diagonal block on: N^2 + N B samples for
    blocks of B rows, not 2 N^2.  It runs apart from the v1 pass: v1's full
    rows among the shorter w2 rows of one pass fragment the heap, and
    essspec at d = 2 then peaked up to 2.9 MB higher in some runs.  Raises
    ModelEvaluationError if any sample is NaN or infinite, and ValueError
    unless the grid lies on the model's cube; returns passed=False if a
    norm overflows or the symmetry defect exceeds W2_SYMMETRY_TOL.
    """
    _check_grid(spec, grid)
    p1, p2 = 2.0 + spec.epsilon, 2.0 + 4.0 / spec.epsilon

    def w2_block(b):
        X, Y = grid.nodes[b, None, :], grid.nodes[None, b.start:, :]
        W = eval_xy(spec, spec.w2, X, Y)
        D = eval_xy(spec, spec.w2, Y, X)
        S = np.add(W, D, dtype=float)
        D = np.subtract(W, D, out=_owned(D), dtype=float)
        asym = np.max(np.abs(D, out=D))
        del W, D
        S *= 0.5                      # rows b of MeshSamples.W2: 0.5 * (W + W.T)
        return -np.min(S), np.max(S), asym    # -min so that one max reduces all three

    def v1_block(b):
        absV = np.abs(eval_xy(spec, spec.v1, grid.nodes[b, None, :], grid.nodes[None, :, :]))
        with np.errstate(over="ignore"):
            power = absV**p1
            row = np.max(power @ grid.weights)
            if p2 != p1:                     # both are 4 at epsilon = 2
                np.power(absV, p2, out=power)
            col = grid.weights[b] @ power
        return (np.max(absV), row), col

    # both passes take blocks sized for w2 and its mirror
    neg_lo, hi, asym = np.max(blocks.map_blocks(w2_block, grid.n, 2 * grid.n), axis=0)
    parts = blocks.map_blocks(v1_block, grid.n, 2 * grid.n)
    v1_max, row = np.max([p for p, _ in parts], axis=0)
    col = np.max(sum(c for _, c in parts))    # partials summed in block order
    others = (spec.w0, eval_x(spec, spec.w1, grid.nodes), eval_x(spec, spec.v0, grid.nodes))
    if not (np.isfinite([neg_lo, hi, v1_max]).all() and all(np.isfinite(v).all() for v in others)):
        raise ModelEvaluationError(
            "Assumption A check failed: NaN or infinity in a parameter-function sample")
    row, col = row ** (1.0 / p1), col ** (1.0 / p2)
    ok = bool(np.isfinite(row) and np.isfinite(col) and asym <= W2_SYMMETRY_TOL)
    return AssumptionAReport(sup_norm_2pe=float(row), sup_norm_2p4e=float(col),
                             w2_asymmetry=float(asym), passed=ok,
                             w2_min=-float(neg_lo), w2_max=float(hi))


# ---------------------------------------------------------------------------
# built-in models
# ---------------------------------------------------------------------------

# each built-in model is the config document models/<name>.cfg shipped with
# the package; its name maps to the facts that the analyses are expected to show
_BUILTIN_EXPECTED = {
    "mnr-infinite": {"m": 0.0, "M": 6.25, "sigma2_empty": False, "discrete_below": "infinite"},
    "sigma2-empty": {"m": 0.0, "M": 4.8, "sigma2_empty": True, "discrete_below": "finite"},
}


@lru_cache(maxsize=None)    # one object per name, which the sample caches key on
def _builtin_spec(name: str) -> ModelSpec:
    from .config import model_from_config

    return model_from_config((Path(__file__).parent / "models" / f"{name}.cfg").read_text())


def builtin_models() -> dict[str, BuiltinModel]:
    """The registry of named built-in models (exactly two)."""
    return {name: BuiltinModel(spec=_builtin_spec(name), expected=expected)
            for name, expected in _BUILTIN_EXPECTED.items()}


def load_model(source: str | Path) -> ModelSpec:
    """A built-in model by name, the config document models/<name>.cfg of the
    package (one object per name), or a user model from a config file; else ModelError."""
    if isinstance(source, str) and source in _BUILTIN_EXPECTED:
        return _builtin_spec(source)
    path = Path(source)
    if not path.exists():
        known = ", ".join(sorted(_BUILTIN_EXPECTED))
        raise ModelError(f"unknown model {source!r}: not a builtin ({known}) and no such file")
    try:
        text = path.read_text()
    except (OSError, ValueError) as exc:        # a directory, no permission, not UTF-8
        raise ModelError(f"cannot read config {source!r}: {exc}") from exc
    from .config import model_from_config

    return model_from_config(text, base_dir=path.parent)
