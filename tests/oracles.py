"""Reference implementations and models that tests compare the package against.

No command runs these: each one assembles a dense matrix, reads the full mesh
samples, rebuilds a quantity by a second route or builds a model with a known
answer, so that a test can check the package's own path against it.
"""

import ast
import dataclasses
from dataclasses import dataclass

import numpy as np

import fockspectra as fs
from fockspectra import config
from fockspectra.blocks import map_blocks
from fockspectra.grid import lattice
from fockspectra.model import eval_xy, mesh_samples
from fockspectra.schur import POLE_TOL
from fockspectra.verify import _level, check_inputs

RANK_BOUND = 3   # discarded vacuum row/column plus the vacuum eigenvalue


def assemble_full(blocks: fs.DiscreteBlocks) -> np.ndarray:
    """Dense Hermitian matrix of the full 3x3 operator, dimension 1 + N + P."""
    n, p = blocks.n, blocks.p
    H = np.zeros((1 + n + p, 1 + n + p), dtype=blocks.dtype)
    H[0, 0] = blocks.h00
    H[0, 1:1 + n] = blocks.h01
    H[1:1 + n, 0] = np.conj(blocks.h01)
    H[1:, 1:] = fs.assemble_A(blocks)
    return H


def fine_range_guard(spec, a: float, samples_per_dim: int) -> tuple[float, float]:
    """Min/max of w2 over a dense closed lattice of Omega^2, in row blocks.

    The range guard essential_spectrum used before spectra._w2_edges, with
    2049 samples per axis at d = 1 and 65 at d = 2: the reference that the
    refined edges must contain.
    """
    pts = lattice(np.linspace(-a, a, samples_per_dim), spec.d)

    def block(b):
        w2 = eval_xy(spec, spec.w2, pts[b, None, :], pts[None, :, :])
        return float(np.min(w2)), float(np.max(w2))

    lo, hi = np.inf, -np.inf
    for lo_b, hi_b in map_blocks(block, pts.shape[0], pts.shape[0]):
        lo, hi = min(lo, lo_b), max(hi, hi_b)
    return lo, hi


def consistency_check_adjoint(blocks, spec, grid, seed: int = 0) -> float:
    """Max deviation between the matrix adjoint and the discretized adjoint formula.

    The continuous adjoint sends f to the symmetric function
    (1/2) v1(x, y)* f(x) + (1/2) v1(y, x)* f(y); in weight-normalized
    coordinates this coincides with the conjugate transpose of the coupling
    block, and the returned deviation should vanish to rounding.
    """
    pair_grid = fs.make_pair_grid(grid)
    rng = np.random.default_rng(seed)
    g = rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n)
    lhs = blocks.h12.conj().T @ g

    ms = mesh_samples(spec, grid)
    f = g / np.sqrt(grid.weights)
    i = pair_grid.pairs[:, 0]
    j = pair_grid.pairs[:, 1]
    formula = 0.5 * np.conj(ms.V1[i, j]) * f[i] + 0.5 * np.conj(ms.V1[j, i]) * f[j]
    rhs = np.sqrt(pair_grid.pair_weights) * formula
    return float(np.max(np.abs(lhs - rhs)))


def plain_expr(text: str, variables: tuple[str, ...]):
    """A config expression evaluated as written: every operation makes a new array.

    config._compile_expr without its in-place rewrite, for expressions that
    compile there; each rewritten expression must equal it bit for bit.
    """
    code = compile(config._FloatLiterals(variables).visit(ast.parse(text, mode="eval")), "<plain>",
                   "eval")

    def fn(**kwargs):
        return eval(code, {"__builtins__": {}, **config._EXPR_FUNCS, **kwargs})

    return fn


def pole_check_reference(W2: np.ndarray, z) -> np.ndarray:
    """W2 - z, after the pole test as the full distance min |W2 - z| (schur._pole_check)."""
    shifted = W2 - z
    dist = float(np.min(np.abs(shifted)))
    if dist < POLE_TOL:
        raise fs.PoleProximityError(z, dist)
    return shifted


def hs_bound_young(spec, grid, z: float) -> float:
    """Young-inequality upper bound for the Hilbert-Schmidt norm of K(z).

    From |v1(x,y)|^2 |v1(y,x)|^2 <= 2/(2+e) |v1(x,y)|^{2+e} + e/(2+e) |v1(y,x)|^{2+4/e}
    and dist(z, ran w2):

        ||K(z)||_HS^2 <= [2 ||v1||_{2+e}^{2+e} + e ||v1~||_{2+4/e}^{2+4/e}]
                          / (4 (2+e) dist^2).
    """
    ms = mesh_samples(spec, grid)
    w = grid.weights
    dist = float(np.min(np.abs(ms.W2 - z)))
    if dist < POLE_TOL:
        raise fs.PoleProximityError(z, dist)
    e = spec.epsilon
    absV = np.abs(ms.V1)
    A = float(w @ (absV ** (2.0 + e)) @ w)
    B = float(w @ (absV ** (2.0 + 4.0 / e)) @ w)
    return float(np.sqrt((2.0 * A + e * B) / (4.0 * (2.0 + e)))) / dist


@dataclass(frozen=True)
class FullVsReducedReport:
    z: float
    count_full: int
    count_reduced: int
    difference: int
    within_rank_bound: bool


def oracle_full_vs_reduced(spec, grid, z_probe: float) -> FullVsReducedReport:
    """Eigenvalue counts below z for the full and reduced matrices.

    The discarded vacuum blocks have rank at most 3, so the counts differ by
    at most 3; essential spectrum and finiteness are untouched.
    """
    blocks = fs.assemble_blocks(spec, grid)
    count_full = fs.threshold_counts(assemble_full(blocks), z_probe).below
    count_reduced = fs.threshold_counts(fs.assemble_A(blocks), z_probe).below
    diff = abs(count_full - count_reduced)
    return FullVsReducedReport(
        z=float(z_probe), count_full=count_full, count_reduced=count_reduced,
        difference=diff, within_rank_bound=bool(diff <= RANK_BOUND),
    )


def singular_sequence_gram(spec, x0, y0, n_max: int) -> np.ndarray:
    """Gram matrix of the psi_n on the union of the aligned grids.

    The supports at distinct levels are disjoint, so this is the identity up
    to quadrature roundoff.
    """
    x0, y0, rho = check_inputs(spec, x0, y0, n_max)
    same = np.array_equal(x0, y0)

    levels = []
    for n in range(1, n_max + 1):
        xn, xw, xa = _level(spec, x0, n, rho)
        if same:
            levels.append(((xn, xw, xa), (xn, xw, xa)))
        else:
            levels.append(((xn, xw, xa), _level(spec, y0, n, rho)))

    def overlap(la, lb):
        (xa_n, xa_w, xa_a), (ya_n, ya_w, ya_a) = la
        (xb_n, xb_w, xb_a), (yb_n, yb_w, yb_a) = lb
        # psi_n psi_m integrates factorwise; distinct levels have disjoint
        # dyadic supports, so only matching-level pairs can contribute
        def axis_ip(an, aw, aa, bn, bw, ba):
            if an.shape != bn.shape or not np.allclose(an, bn):
                return 0.0
            return float(np.sum(aw * aa * ba))
        if same:
            return axis_ip(xa_n, xa_w, xa_a, xb_n, xb_w, xb_a) ** 2
        direct = axis_ip(xa_n, xa_w, xa_a, xb_n, xb_w, xb_a) \
            * axis_ip(ya_n, ya_w, ya_a, yb_n, yb_w, yb_a)
        cross = axis_ip(xa_n, xa_w, xa_a, yb_n, yb_w, yb_a) \
            * axis_ip(ya_n, ya_w, ya_a, xb_n, xb_w, xb_a)
        return direct + cross

    k = len(levels)
    gram = np.zeros((k, k))
    for i in range(k):
        for j in range(k):
            gram[i, j] = overlap(levels[i], levels[j])
    return gram


def synthetic_power_model(beta: float, gamma: float = 1.0, a: float = 1.0,
                          floor: float = 0.0) -> fs.ModelSpec:
    """d=1 model with prescribed growth exponents near the spectral bottom.

    w2 = floor + x^2 + y^2 (exponent alpha = 2), v1 = |y|^beta (exponent
    beta), and w1 is chosen so that the Schur symbol at the bottom equals
    |x|^gamma exactly:

        w1(x) = floor + |x|^gamma + (1/2) * integral |y|^{2 beta} / (x^2 + y^2) dy,

    with the integral in closed form (beta in {1, 2}).  Ground truth for the
    exponent estimators.
    """
    if beta == 1.0:
        def coupling_integral(x):
            ax = np.abs(x)
            return 2.0 * a - 2.0 * ax * np.arctan2(a, ax)
    elif beta == 2.0:
        def coupling_integral(x):
            ax = np.abs(x)
            return 2.0 * a**3 / 3.0 - 2.0 * a * x**2 + 2.0 * ax**3 * np.arctan2(a, ax)
    else:
        raise fs.ModelError("closed-form coupling integral available for beta in {1, 2}")

    return fs.ModelSpec(
        d=1,
        a=a,
        w0=0.0,
        v0=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        w1=lambda x: floor + np.abs(x) ** gamma + 0.5 * coupling_integral(x),
        v1=lambda x, y: np.abs(y) ** beta + 0.0 * x,
        w2=lambda x, y: floor + x**2 + y**2,
        epsilon=2.0,
    )


def negate_model(spec: fs.ModelSpec) -> fs.ModelSpec:
    """Spectral mirror: the negated model's spectrum is minus the original's.

    Negation is exact in floating point, so every spectral quantity of the
    negated model is the exact mirror of the original's.
    """
    return dataclasses.replace(spec, w0=-spec.w0,
                               w1=lambda x, _f=spec.w1: -np.asarray(_f(x)),
                               w2=lambda x, y, _f=spec.w2: -np.asarray(_f(x, y)))
