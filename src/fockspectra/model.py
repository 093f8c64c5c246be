"""Parameter-function bundles for the truncated-Fock-space operator matrix.

A model is the data (w0, v0, w1, v1, w2) on Omega = (-a, a)^d together with
the integrability exponent ``epsilon`` entering the coupling condition

    sup_x ||v1(x, .)||_{L^{2+eps}} < inf,   sup_y ||v1(., y)||_{L^{2+4/eps}} < inf.

Function-call convention: for d == 1 the parameter functions receive plain
float arrays; for d >= 2 they receive arrays with a trailing coordinate axis
of length d.  v1 and w2 take two such point arrays (broadcast together).

Built-in models
---------------
``mnr-infinite``   the d=1 torus model with w1 = 1 + sin^2 x,
                   v1(x, y) = sqrt(3/pi) sin y and
                   w2 = eps(x) + 2 eps(x+y) + eps(y), eps(t) = 1 - cos t.
                   Its coupling constant is tuned so that the Schur symbol
                   vanishes at the bottom of the essential spectrum, which
                   is why its discrete spectrum below 0 is infinite.
``sigma2-empty``   a coupling built from any bounded continuous base w2 so
                   that the Schur symbol vanishes identically at both ends
                   of ran(w2); the essential spectrum is then exactly
                   cl(ran w2) and the Sigma_2 part is empty.
"""

from __future__ import annotations

import ast
import csv
import math
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Callable, Optional

import numpy as np

W2_SYMMETRY_TOL = 1e-12


class ModelError(ValueError):
    """Invalid model definition (bad config, bad table, broken invariant)."""


class ModelEvaluationError(ModelError):
    """A parameter function produced NaN or infinity at a sample point."""


@dataclass(frozen=True, eq=False)
class ModelSpec:
    """Immutable bundle of the five parameter functions on (-a, a)^d.

    All fields are read-only after construction; instances are safe to share
    across workers.
    """

    d: int
    a: float
    w0: float
    v0: Callable
    w1: Callable
    v1: Callable
    w2: Callable
    epsilon: float = 2.0
    t0: Optional[np.ndarray] = None
    name: Optional[str] = None


@dataclass(frozen=True, eq=False)
class BuiltinModel:
    name: str
    spec: ModelSpec
    expected: dict = field(default_factory=dict)


@dataclass(frozen=True)
class AssumptionAReport:
    """Discrete analogues of the two essential-sup coupling norms."""

    sup_norm_2pe: float
    sup_norm_2p4e: float
    w2_asymmetry: float
    passed: bool


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


def _strip(x: np.ndarray, d: int):
    return x[..., 0] if d == 1 else x


def eval_x(spec: ModelSpec, fn: Callable, pts: np.ndarray) -> np.ndarray:
    """Evaluate a one-point function at pts of shape (..., d)."""
    pts = _as_points(pts, spec.d)
    out = np.asarray(fn(_strip(pts, spec.d)))
    return np.broadcast_to(out, pts.shape[:-1]).copy() if out.shape != pts.shape[:-1] else out


def eval_xy(spec: ModelSpec, fn: Callable, xpts: np.ndarray, ypts: np.ndarray) -> np.ndarray:
    """Evaluate a two-point function; xpts and ypts broadcast against each other."""
    xpts = _as_points(xpts, spec.d)
    ypts = _as_points(ypts, spec.d)
    shape = np.broadcast_shapes(xpts.shape[:-1], ypts.shape[:-1])
    out = np.asarray(fn(_strip(xpts, spec.d), _strip(ypts, spec.d)))
    return np.broadcast_to(out, shape).copy() if out.shape != shape else out


@dataclass(frozen=True, eq=False)
class MeshSamples:
    """Parameter-function samples on a grid, shared by the assembly routines.

    W2 is symmetrized (the raw asymmetry is kept in ``w2_asym``) so that the
    discrete Schur complement built from these samples is exactly the Schur
    complement of the assembled block matrix.
    """

    w1: np.ndarray     # (N,)
    v0: np.ndarray     # (N,)
    V1: np.ndarray     # (N, N), V1[i, j] = v1(x_i, x_j)
    W2: np.ndarray     # (N, N), symmetrized
    w2_asym: float


@lru_cache(maxsize=16)
def _mesh_samples_cached(spec: ModelSpec, grid) -> MeshSamples:
    nodes = grid.nodes
    w1v = eval_x(spec, spec.w1, nodes).astype(float)
    v0v = np.asarray(eval_x(spec, spec.v0, nodes))
    X = nodes[:, None, :]
    Y = nodes[None, :, :]
    V1 = np.asarray(eval_xy(spec, spec.v1, X, Y))
    W2 = eval_xy(spec, spec.w2, X, Y).astype(float)
    asym = float(np.max(np.abs(W2 - W2.T))) if W2.size else 0.0
    W2 = 0.5 * (W2 + W2.T)
    for arr in (w1v, v0v, V1, W2):
        arr.setflags(write=False)
    return MeshSamples(w1=w1v, v0=v0v, V1=V1, W2=W2, w2_asym=asym)


def mesh_samples(spec: ModelSpec, grid) -> MeshSamples:
    """Cached samples of w1, v0, v1, w2 on a grid (keyed by object identity)."""
    return _mesh_samples_cached(spec, grid)


def check_assumption_a(spec: ModelSpec, grid) -> AssumptionAReport:
    """Check boundedness/integrability of the parameter functions by quadrature.

    Computes the discrete L^{2+eps} norm of v1(x_i, .) (sup over rows) and the
    discrete L^{2+4/eps} norm of v1(., x_j) (sup over columns).  Raises
    ModelEvaluationError if any sample is NaN or infinite; returns
    passed=False if a norm overflows or the sampled w2 symmetry defect
    exceeds 1e-12.
    """
    ms = mesh_samples(spec, grid)
    samples = [np.asarray(spec.w0), ms.w1, ms.v0, ms.V1, ms.W2]
    for arr in samples:
        if not np.all(np.isfinite(arr)):
            raise ModelEvaluationError(
                "Assumption A check failed: NaN or infinity in a parameter-function sample")
    w = grid.weights
    p1 = 2.0 + spec.epsilon
    p2 = 2.0 + 4.0 / spec.epsilon
    absV = np.abs(ms.V1)
    with np.errstate(over="ignore"):
        row = np.max((absV**p1 @ w)) ** (1.0 / p1)
        col = np.max((w @ absV**p2)) ** (1.0 / p2)
    ok = bool(np.isfinite(row) and np.isfinite(col) and ms.w2_asym <= W2_SYMMETRY_TOL)
    return AssumptionAReport(
        sup_norm_2pe=float(row), sup_norm_2p4e=float(col),
        w2_asymmetry=ms.w2_asym, passed=ok,
    )


# ---------------------------------------------------------------------------
# built-in models
# ---------------------------------------------------------------------------


def mnr_infinite_model() -> ModelSpec:
    """d=1 torus model whose discrete spectrum below the essential minimum is infinite.

    The coupling sqrt(3/pi) sin(y) acts through the integrated variable; with
    this normalization the Schur symbol at z = 0 is exactly 0 at x = 0, so
    the bound states accumulate at the bottom of the essential spectrum.
    """
    c = math.sqrt(3.0 / math.pi)

    def eps(t):
        return 1.0 - np.cos(t)

    return ModelSpec(
        d=1,
        a=math.pi,
        w0=1.0,
        v0=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        w1=lambda x: 1.0 + np.sin(x) ** 2,
        v1=lambda x, y: c * np.sin(y) + 0.0 * x,
        w2=lambda x, y: eps(x) + 2.0 * eps(x + y) + eps(y),
        epsilon=2.0,
        t0=np.zeros(1),
        name="mnr-infinite",
    )


def _zero_one_point(d: int):
    if d == 1:
        return lambda x: np.zeros_like(np.asarray(x, dtype=float))
    return lambda x: np.zeros(np.asarray(x, dtype=float).shape[:-1])


def _sextic_bump(t):
    # nonnegative on (-2, 2), unique zero at 0, interior maxima at +-sqrt(2);
    # its midpoint-rule error terms share a sign, so quadrature of the
    # coupling integral sharpens strictly 4x per grid doubling
    return 2.8 * t**2 - t**4 + 0.1 * t**6


_SEXTIC_PEAK = 2.4          # value of the bump at its interior maximum
_SEXTIC_INTEGRAL = 2.0 * (2.8 * 8.0 / 3.0 - 32.0 / 5.0 + 0.1 * 128.0 / 7.0)


def sigma2_empty_model(base_w2=None, d: int = 1, a: float = 2.0,
                       m: Optional[float] = None, M: Optional[float] = None) -> ModelSpec:
    """Model whose Sigma_2 component of the essential spectrum is empty.

    Given a base w2 with range [m, M], set

        v1 = c (w2 - m)^{1/2} (M - w2)^{1/2},   c^2 = 2 / vol(Omega),
        w1 = m + M - (1/vol) * integral of w2(x, .) over Omega,

    so that the Schur symbol Delta(. ; m) and Delta(. ; M) vanish
    identically; by strict monotonicity in z there is then no root of
    Delta outside [m, M].  The volume factor c generalizes the unit-volume
    construction to arbitrary a.

    The default base is a separable sextic bump with interior extrema
    (m = 0, M = 2.4*2d) whose one-dimensional integrals are known in closed
    form.
    """
    vol = (2.0 * a) ** d
    if base_w2 is None:
        if a != 2.0:
            raise ModelError("the built-in sigma2-empty base is defined for a = 2")

        if d == 1:
            def base_w2(x, y):
                return _sextic_bump(x) + _sextic_bump(y)
        else:
            def base_w2(x, y):
                return np.sum(_sextic_bump(x), axis=-1) + np.sum(_sextic_bump(y), axis=-1)

        m = 0.0
        M = 2.0 * d * _SEXTIC_PEAK

        def w2_mean_over_y(x):
            # (1/vol) * integral of w2(x, y) dy, closed form for the sextic base
            fx = _sextic_bump(x) if d == 1 else np.sum(_sextic_bump(x), axis=-1)
            return fx + d * _SEXTIC_INTEGRAL / (2.0 * a)

    else:
        if m is None or M is None:
            fine = np.linspace(-a, a, 513)
            axes = np.meshgrid(*([fine] * d), indexing="ij")
            pts = np.stack([ax.ravel() for ax in axes], axis=-1)
            if d == 1:
                vals = base_w2(pts[:, 0][:, None], pts[:, 0][None, :])
            else:
                vals = base_w2(pts[:, None, :], pts[None, :, :])
            m = float(np.min(vals)) if m is None else m
            M = float(np.max(vals)) if M is None else M

        n_q = 4096
        hq = 2.0 * a / n_q
        yq = -a + (np.arange(n_q) + 0.5) * hq

        if d == 1:
            def w2_mean_over_y(x, _yq=yq, _hq=hq):
                x = np.asarray(x, dtype=float)
                vals = base_w2(x[..., None], _yq)
                return np.sum(vals, axis=-1) * _hq / vol
        else:
            raise ModelError("user-supplied sigma2-empty bases are limited to d = 1")

    csq = 2.0 / vol
    span_sq = ((M - m) / 2.0) ** 2
    mid = (m + M) / 2.0

    def v1(x, y):
        t = base_w2(x, y)
        return np.sqrt(np.clip(csq * (span_sq - (t - mid) ** 2), 0.0, None))

    def w1(x):
        return m + (M - w2_mean_over_y(x))

    return ModelSpec(
        d=d,
        a=a,
        w0=0.0,
        v0=_zero_one_point(d),
        w1=w1,
        v1=v1,
        w2=base_w2,
        epsilon=2.0,
        t0=np.zeros(d),
        name="sigma2-empty",
    )


_BUILTIN_CACHE: dict[str, BuiltinModel] = {}


def builtin_models() -> dict[str, BuiltinModel]:
    """The registry of named built-in models (exactly two)."""
    if not _BUILTIN_CACHE:
        _BUILTIN_CACHE["mnr-infinite"] = BuiltinModel(
            name="mnr-infinite",
            spec=mnr_infinite_model(),
            expected={"m": 0.0, "M": 6.25, "sigma2_empty": False,
                      "discrete_below": "infinite"},
        )
        _BUILTIN_CACHE["sigma2-empty"] = BuiltinModel(
            name="sigma2-empty",
            spec=sigma2_empty_model(),
            expected={"m": 0.0, "M": 2.0 * _SEXTIC_PEAK, "sigma2_empty": True,
                      "discrete_below": "finite"},
        )
    return dict(_BUILTIN_CACHE)


def synthetic_power_model(beta: float, gamma: float = 1.0, a: float = 1.0,
                          floor: float = 0.0, coeff: float = 1.0) -> ModelSpec:
    """d=1 model with prescribed growth exponents near the spectral bottom.

    w2 = floor + x^2 + y^2 (exponent alpha = 2), v1 = |y|^beta (exponent
    beta), and w1 is chosen so that the Schur symbol at the bottom equals
    coeff * |x|^gamma exactly:

        w1(x) = floor + coeff |x|^gamma + (1/2) * integral |y|^{2 beta} / (x^2 + y^2) dy,

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
        raise ModelError("closed-form coupling integral available for beta in {1, 2}")

    return ModelSpec(
        d=1,
        a=a,
        w0=0.0,
        v0=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        w1=lambda x: floor + coeff * np.abs(x) ** gamma + 0.5 * coupling_integral(x),
        v1=lambda x, y: np.abs(y) ** beta + 0.0 * x,
        w2=lambda x, y: floor + x**2 + y**2,
        epsilon=2.0,
        t0=np.zeros(1),
        name=f"synthetic-a2-b{beta:g}-g{gamma:g}",
    )


def negate_model(spec: ModelSpec) -> ModelSpec:
    """Spectral mirror: the negated model's spectrum is minus the original's.

    A test oracle for the two-sided analysis: negation is exact in floating
    point, so every spectral quantity of the negated model is the exact
    mirror of the original's.
    """
    return ModelSpec(
        d=spec.d,
        a=spec.a,
        w0=-spec.w0,
        v0=spec.v0,
        w1=lambda x, _f=spec.w1: -np.asarray(_f(x)),
        v1=spec.v1,
        w2=lambda x, y, _f=spec.w2: -np.asarray(_f(x, y)),
        epsilon=spec.epsilon,
        t0=spec.t0,
        name=None if spec.name is None else spec.name + "-negated",
    )


# ---------------------------------------------------------------------------
# config documents
# ---------------------------------------------------------------------------

_EXPR_FUNCS = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "sqrt": np.sqrt, "abs": np.abs}
_EXPR_CONSTS = {"pi": math.pi}
_ALLOWED_OPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow, ast.USub, ast.UAdd)


def _compile_expr(text: str, variables: tuple[str, ...]):
    """Compile an arithmetic expression over the given variables.

    Only +, -, *, /, **, the functions sin/cos/exp/sqrt/abs, the constant pi
    and numeric literals are admitted.
    """
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError as exc:
        raise ModelError(f"cannot parse expression {text!r}: {exc}") from exc
    names = set(variables) | set(_EXPR_CONSTS)
    for node in ast.walk(tree):
        if isinstance(node, (ast.Expression, ast.BinOp, ast.UnaryOp, ast.Constant)):
            if isinstance(node, ast.Constant) and not isinstance(node.value, (int, float)):
                raise ModelError(f"non-numeric literal in expression {text!r}")
            continue
        if isinstance(node, _ALLOWED_OPS):
            continue
        if isinstance(node, ast.Call):
            if not (isinstance(node.func, ast.Name) and node.func.id in _EXPR_FUNCS):
                raise ModelError(f"disallowed call in expression {text!r}")
            if node.keywords:
                raise ModelError(f"keyword arguments not allowed in expression {text!r}")
            continue
        if isinstance(node, ast.Name):
            if node.id not in names and node.id not in _EXPR_FUNCS:
                raise ModelError(f"unknown name {node.id!r} in expression {text!r}")
            continue
        if isinstance(node, ast.Load):
            continue
        raise ModelError(f"disallowed syntax ({type(node).__name__}) in expression {text!r}")
    code = compile(tree, "<model-expr>", "eval")

    def fn(**kwargs):
        env = {"__builtins__": {}}
        env.update(_EXPR_FUNCS)
        env.update(_EXPR_CONSTS)
        env.update(kwargs)
        return eval(code, env)

    return fn


class _Table1D:
    def __init__(self, nodes: np.ndarray, values: np.ndarray, a: float, what: str):
        if nodes.size < 2 or np.any(np.diff(nodes) <= 0):
            raise ModelError(f"{what}: table nodes must be strictly increasing")
        if nodes[0] > -a + 1e-12 or nodes[-1] < a - 1e-12:
            raise ModelError(f"{what}: table does not cover Omega = (-{a}, {a})")
        self.nodes, self.values = nodes, values

    def __call__(self, x):
        return np.interp(np.asarray(x, dtype=float), self.nodes, self.values)


class _Table2D:
    def __init__(self, xn, yn, values, a: float, what: str, symmetric: bool = False):
        for nm, nd in (("x", xn), ("y", yn)):
            if nd.size < 2 or np.any(np.diff(nd) <= 0):
                raise ModelError(f"{what}: {nm} nodes must be strictly increasing")
            if nd[0] > -a + 1e-12 or nd[-1] < a - 1e-12:
                raise ModelError(f"{what}: table does not cover Omega = (-{a}, {a})")
        if symmetric:
            if xn.shape != yn.shape or np.any(xn != yn):
                raise ModelError(f"{what}: a symmetric table needs identical x and y nodes")
            asym = float(np.max(np.abs(values - values.T)))
            if asym > W2_SYMMETRY_TOL:
                raise ModelError(
                    f"{what}: tabulated data asymmetric (max deviation {asym:.3e} > {W2_SYMMETRY_TOL})")
        self.xn, self.yn, self.values = xn, yn, values

    def __call__(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        x, y = np.broadcast_arrays(x, y)
        ix = np.clip(np.searchsorted(self.xn, x) - 1, 0, self.xn.size - 2)
        iy = np.clip(np.searchsorted(self.yn, y) - 1, 0, self.yn.size - 2)
        tx = np.clip((x - self.xn[ix]) / (self.xn[ix + 1] - self.xn[ix]), 0.0, 1.0)
        ty = np.clip((y - self.yn[iy]) / (self.yn[iy + 1] - self.yn[iy]), 0.0, 1.0)
        v = self.values
        return ((1 - tx) * (1 - ty) * v[ix, iy] + tx * (1 - ty) * v[ix + 1, iy]
                + (1 - tx) * ty * v[ix, iy + 1] + tx * ty * v[ix + 1, iy + 1])


def _read_table(path: Path, what: str):
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise ModelError(f"{what}: cannot read table {path}: {exc}") from exc
    if not rows:
        raise ModelError(f"{what}: empty table {path}")
    header = [c.strip().lower() for c in rows[0]]
    data = np.array([[float(c) for c in r] for r in rows[1:] if r], dtype=float)
    if header == ["x", "value"]:
        return "1d", data
    if header == ["x", "y", "value"]:
        return "2d", data
    raise ModelError(f"{what}: expected header 'x,value' or 'x,y,value', got {rows[0]}")


def _table_function(path: Path, a: float, what: str, two_point: bool, symmetric: bool):
    kind, data = _read_table(path, what)
    if not two_point:
        if kind != "1d":
            raise ModelError(f"{what}: expected a one-coordinate table")
        return _Table1D(data[:, 0], data[:, 1], a, what)
    if kind == "1d":
        raise ModelError(f"{what}: expected a two-coordinate table")
    xu = np.unique(data[:, 0])
    yu = np.unique(data[:, 1])
    if data.shape[0] != xu.size * yu.size:
        raise ModelError(f"{what}: table is not a complete row-major grid")
    expect_x = np.repeat(xu, yu.size)
    expect_y = np.tile(yu, xu.size)
    if np.any(data[:, 0] != expect_x) or np.any(data[:, 1] != expect_y):
        raise ModelError(f"{what}: table rows are not in row-major node order")
    values = data[:, 2].reshape(xu.size, yu.size)
    return _Table2D(xu, yu, values, a, what, symmetric=symmetric)


def _tokenize_config(text: str):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            i += 1
        elif ch == "#":
            while i < n and text[i] != "\n":
                i += 1
        elif ch in "{}=,":
            tokens.append((ch, ch))
            i += 1
        elif ch == '"':
            j = text.find('"', i + 1)
            if j < 0:
                raise ModelError("unterminated string in config")
            tokens.append(("STR", text[i + 1:j]))
            i = j + 1
        else:
            j = i
            while j < n and text[j] not in ' \t\r\n#{}=,"':
                j += 1
            tokens.append(("WORD", text[i:j]))
            i = j
    return tokens


def _parse_config(text: str) -> dict:
    """Parse the nested key-value document format.

    Grammar: a document is a sequence of ``key = value`` or ``key { ... }``
    entries; values are quoted strings or comma-separated numbers.
    """
    tokens = _tokenize_config(text)
    pos = 0

    def parse_block(top: bool):
        nonlocal pos
        out: dict = {}
        while pos < len(tokens):
            kind, val = tokens[pos]
            if kind == "}":
                if top:
                    raise ModelError("unbalanced '}' in config")
                pos += 1
                return out
            if kind != "WORD":
                raise ModelError(f"expected key, got {val!r}")
            key = val
            pos += 1
            if pos >= len(tokens):
                raise ModelError(f"dangling key {key!r} in config")
            kind, val = tokens[pos]
            if kind == "{":
                pos += 1
                out[key] = parse_block(False)
            elif kind == "=":
                pos += 1
                if pos >= len(tokens):
                    raise ModelError(f"missing value for key {key!r} in config")
                kind, val = tokens[pos]
                if kind == "STR":
                    out[key] = val
                    pos += 1
                elif kind == "WORD":
                    nums = []
                    while True:
                        kind, val = tokens[pos]
                        if kind != "WORD":
                            raise ModelError(f"expected number for key {key!r}")
                        try:
                            nums.append(float(val))
                        except ValueError as exc:
                            raise ModelError(f"bad number {val!r} for key {key!r}") from exc
                        pos += 1
                        if pos < len(tokens) and tokens[pos][0] == ",":
                            pos += 1
                        else:
                            break
                    out[key] = nums[0] if len(nums) == 1 else nums
                else:
                    raise ModelError(f"bad value for key {key!r}")
            else:
                raise ModelError(f"expected '=' or '{{' after key {key!r}")
        if not top:
            raise ModelError("unbalanced '{' in config")
        return out

    return parse_block(True)


def _function_entry(entry, a: float, d: int, base_dir: Path, what: str,
                    two_point: bool, symmetric: bool = False):
    if isinstance(entry, (int, float)):
        value = float(entry)
        if two_point:
            return lambda x, y, _v=value: _v + 0.0 * (np.asarray(x, dtype=float)[..., 0] if d > 1 else np.asarray(x, dtype=float)) + 0.0 * (np.asarray(y, dtype=float)[..., 0] if d > 1 else np.asarray(y, dtype=float))
        return lambda x, _v=value: _v + 0.0 * (np.asarray(x, dtype=float)[..., 0] if d > 1 else np.asarray(x, dtype=float))
    if not isinstance(entry, dict):
        raise ModelError(f"{what}: expected a number or an expr/table section")
    if "expr" in entry:
        text = entry["expr"]
        if not isinstance(text, str):
            raise ModelError(f"{what}: expr must be a quoted string")
        if d == 1:
            variables = ("x", "y") if two_point else ("x",)
            fn = _compile_expr(text, variables)
            if two_point:
                return lambda x, y, _f=fn: _f(x=x, y=y)
            return lambda x, _f=fn: _f(x=x)
        if d == 2:
            variables = ("x1", "x2", "y1", "y2") if two_point else ("x1", "x2")
            fn = _compile_expr(text, variables)
            if two_point:
                return lambda x, y, _f=fn: _f(x1=x[..., 0], x2=x[..., 1], y1=y[..., 0], y2=y[..., 1])
            return lambda x, _f=fn: _f(x1=x[..., 0], x2=x[..., 1])
        raise ModelError(f"{what}: expression models support d in {{1, 2}}")
    if "table" in entry:
        if d != 1:
            raise ModelError(f"{what}: tabulated functions are limited to d = 1")
        return _table_function(base_dir / entry["table"], a, what, two_point, symmetric)
    raise ModelError(f"{what}: function section needs 'expr' or 'table'")


def model_from_config(text: str, base_dir: Path | str = ".") -> ModelSpec:
    """Build a ModelSpec from a config document string."""
    doc = _parse_config(text)
    base_dir = Path(base_dir)
    if "domain" not in doc or "functions" not in doc:
        raise ModelError("config needs 'domain' and 'functions' sections")
    dom = doc["domain"]
    try:
        d = int(dom["d"])
        a = float(dom["a"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelError("domain section needs numeric 'd' and 'a'") from exc
    if d < 1:
        raise ModelError("domain dimension must be positive")
    if a <= 0:
        raise ModelError("domain half-width must be positive")
    fns = doc["functions"]
    missing = [k for k in ("w0", "v0", "w1", "v1", "w2") if k not in fns]
    if missing:
        raise ModelError(f"functions section is missing {missing}")
    w0 = fns["w0"]
    if isinstance(w0, dict):
        w0 = float(_compile_expr(w0.get("expr", ""), ())())
    if not isinstance(w0, (int, float)):
        raise ModelError("w0 must be a real constant")
    epsilon = float(doc.get("epsilon", 2.0))
    if epsilon <= 0:
        raise ModelError("epsilon must be positive")
    t0 = doc.get("t0")
    if t0 is not None:
        t0 = np.atleast_1d(np.asarray(t0, dtype=float))
        if t0.size != d:
            raise ModelError(f"t0 must have {d} coordinates")
    return ModelSpec(
        d=d,
        a=a,
        w0=float(w0),
        v0=_function_entry(fns["v0"], a, d, base_dir, "v0", two_point=False),
        w1=_function_entry(fns["w1"], a, d, base_dir, "w1", two_point=False),
        v1=_function_entry(fns["v1"], a, d, base_dir, "v1", two_point=True),
        w2=_function_entry(fns["w2"], a, d, base_dir, "w2", two_point=True, symmetric=True),
        epsilon=epsilon,
        t0=t0,
        name=doc.get("name") if isinstance(doc.get("name"), str) else None,
    )


def load_model(source: str | Path) -> ModelSpec:
    """Load a built-in model by name, or a user model from a config file."""
    if isinstance(source, str) and source in builtin_models():
        return builtin_models()[source].spec
    path = Path(source)
    if not path.exists():
        known = ", ".join(sorted(builtin_models()))
        raise ModelError(f"unknown model {source!r}: not a builtin ({known}) and no such file")
    return model_from_config(path.read_text(), base_dir=path.parent)
