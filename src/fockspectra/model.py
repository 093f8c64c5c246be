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
``sigma2-empty``   the d=1 model on (-2, 2) with a separable sextic base w2
                   and a coupling built from it so that the Schur symbol
                   vanishes identically at both ends of ran(w2); the
                   essential spectrum is then exactly cl(ran w2) and the
                   Sigma_2 part is empty.
"""

from __future__ import annotations

import ast
import csv
import math
import operator
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from . import blocks

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


@dataclass(frozen=True, eq=False)
class BuiltinModel:
    spec: ModelSpec
    expected: dict = field(default_factory=dict)


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


def _strip(x: np.ndarray, d: int):
    return x[..., 0] if d == 1 else x


def eval_x(spec: ModelSpec, fn: Callable, pts: np.ndarray) -> np.ndarray:
    """Evaluate a one-point function at pts of shape (..., d); see eval_xy on views."""
    pts = _as_points(pts, spec.d)
    out = np.asarray(fn(_strip(pts, spec.d)))
    return np.broadcast_to(out, pts.shape[:-1]) if out.shape != pts.shape[:-1] else out


def eval_xy(spec: ModelSpec, fn: Callable, xpts: np.ndarray, ypts: np.ndarray) -> np.ndarray:
    """Evaluate a two-point function; xpts and ypts broadcast against each other.

    A function that ignores an argument (or a constant) returns fewer values
    than the broadcast shape; they are spread to it as a read-only view, not
    copied, so callers that write into the result take a copy first.
    """
    xpts = _as_points(xpts, spec.d)
    ypts = _as_points(ypts, spec.d)
    shape = np.broadcast_shapes(xpts.shape[:-1], ypts.shape[:-1])
    out = np.asarray(fn(_strip(xpts, spec.d), _strip(ypts, spec.d)))
    return np.broadcast_to(out, shape) if out.shape != shape else out


@dataclass(frozen=True, eq=False)
class MeshSamples:
    """Parameter-function samples on a grid, shared by the assembly routines.

    W2 is symmetrized (check_assumption_a reports the raw asymmetry) so that the
    discrete Schur complement built from these samples is exactly the Schur
    complement of the assembled block matrix.
    """

    w1: np.ndarray     # (N,)
    v0: np.ndarray     # (N,)
    V1: np.ndarray     # (N, N), V1[i, j] = v1(x_i, x_j)
    W2: np.ndarray     # (N, N), symmetrized


def _sym_w2(spec: ModelSpec, grid, b: slice, cols: slice = slice(None)) -> np.ndarray:
    """MeshSamples.W2[b, cols]: 0.5 * (w2(x, y) + w2(y, x)), as a new array.

    The sum is commutative in IEEE arithmetic, so W2 is exactly symmetric:
    a block of it equals the transpose of its mirror image.
    """
    X, Y = grid.nodes[b, None, :], grid.nodes[None, cols, :]
    W = np.add(eval_xy(spec, spec.w2, X, Y), eval_xy(spec, spec.w2, Y, X), dtype=float)
    W *= 0.5
    return W


@lru_cache(maxsize=16)
def _mesh_samples_cached(spec: ModelSpec, grid) -> MeshSamples:
    nodes = grid.nodes
    w1v = eval_x(spec, spec.w1, nodes).astype(float)
    v0v = np.asarray(eval_x(spec, spec.v0, nodes))
    V1 = np.asarray(eval_xy(spec, spec.v1, nodes[:, None, :], nodes[None, :, :]))
    n = grid.n
    W2 = np.empty((n, n))
    # filled on this thread: the pool's freed block temporaries would stay
    # resident next to W2.  Each row block samples its columns from its
    # diagonal block on and mirrors those right of that block below it, so a
    # pair outside the diagonal blocks is sampled once, not twice.
    for b in blocks.row_blocks(n, n):
        W2[b, b.start:] = _sym_w2(spec, grid, b, slice(b.start, None))
        W2[b.stop:, b] = W2[b, b.stop:].T
    for arr in (w1v, v0v, V1, W2):
        arr.setflags(write=False)
    return MeshSamples(w1=w1v, v0=v0v, V1=V1, W2=W2)


def mesh_samples(spec: ModelSpec, grid) -> MeshSamples:
    """Cached samples of w1, v0, v1, w2 on a grid (keyed by object identity)."""
    return _mesh_samples_cached(spec, grid)


@lru_cache(maxsize=16)
def check_assumption_a(spec: ModelSpec, grid) -> AssumptionAReport:
    """Check boundedness/integrability of the parameter functions by quadrature.

    Computes the discrete L^{2+eps} norm of v1(x_i, .) (sup over rows), the
    discrete L^{2+4/eps} norm of v1(., x_j) (sup over columns) and the range
    and symmetry defect of w2, cached, in two passes over the same row blocks
    of node pairs on the block pool, so memory is O(N).  The range and the
    defect are symmetric in the pair, so the w2 pass samples w2 and its
    mirror only from each block's diagonal block on: N^2 + N B samples for
    blocks of B rows, not 2 N^2.  It runs apart from the v1 pass: v1's full
    rows among the shorter w2 rows of one pass fragment the heap, and
    essspec at d = 2 then peaked up to 2.9 MB higher in some runs.  Raises
    ModelEvaluationError if any sample is NaN or infinite; returns
    passed=False if a norm overflows or the symmetry defect exceeds
    W2_SYMMETRY_TOL.
    """
    p1, p2 = 2.0 + spec.epsilon, 2.0 + 4.0 / spec.epsilon

    def w2_block(b):
        X, Y = grid.nodes[b, None, :], grid.nodes[None, b.start:, :]
        W = eval_xy(spec, spec.w2, X, Y).astype(float)
        D = eval_xy(spec, spec.w2, Y, X).astype(float)
        S = W + D
        asym = np.max(np.abs(np.subtract(W, D, out=D), out=D))
        del W, D
        S *= 0.5                      # rows b of MeshSamples.W2: 0.5 * (W + W.T)
        return -np.min(S), np.max(S), asym    # -min so that one max reduces all three

    def v1_block(b):
        absV = np.abs(eval_xy(spec, spec.v1, grid.nodes[b, None, :], grid.nodes[None, :, :]))
        with np.errstate(over="ignore"):
            row, col = np.max(absV**p1 @ grid.weights), grid.weights[b] @ absV**p2
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


def _zero(x):
    return np.zeros_like(np.asarray(x, dtype=float))


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
        v0=_zero,
        w1=lambda x: 1.0 + np.sin(x) ** 2,
        v1=lambda x, y: c * np.sin(y) + 0.0 * x,
        w2=lambda x, y: eps(x) + 2.0 * eps(x + y) + eps(y),
        epsilon=2.0,
        t0=np.zeros(1),
    )


def _sextic_bump(t):
    # nonnegative on (-2, 2), unique zero at 0, interior maxima at +-sqrt(2);
    # its midpoint-rule error terms share a sign, so quadrature of the
    # coupling integral sharpens strictly 4x per grid doubling
    return 2.8 * t**2 - t**4 + 0.1 * t**6


_SEXTIC_PEAK = 2.4          # value of the bump at its interior maximum
_SEXTIC_INTEGRAL = 2.0 * (2.8 * 8.0 / 3.0 - 32.0 / 5.0 + 0.1 * 128.0 / 7.0)


def sigma2_empty_model() -> ModelSpec:
    """d=1 model on (-2, 2) whose Sigma_2 component of the essential spectrum is empty.

    The base w2(x, y) = b(x) + b(y), with b the sextic bump, has range
    [m, M] = [0, 2 * 2.4].  With

        v1 = c (w2 - m)^{1/2} (M - w2)^{1/2},   c^2 = 2 / vol(Omega),
        w1 = m + M - (1/vol) * integral of w2(x, .) over Omega,

    the Schur symbols Delta(. ; m) and Delta(. ; M) vanish identically; by
    strict monotonicity in z there is then no root of Delta outside [m, M].
    The mean of w2 over y is b(x) plus the closed-form integral of b over
    (-2, 2), divided by vol = 4.
    """
    a = 2.0
    m, M = 0.0, 2.0 * _SEXTIC_PEAK
    csq = 2.0 / (2.0 * a)
    span_sq = ((M - m) / 2.0) ** 2
    mid = (m + M) / 2.0

    def w2(x, y):
        return _sextic_bump(x) + _sextic_bump(y)

    def v1(x, y):
        t = w2(x, y)
        return np.sqrt(np.clip(csq * (span_sq - (t - mid) ** 2), 0.0, None))

    def w1(x):
        return m + (M - (_sextic_bump(x) + _SEXTIC_INTEGRAL / (2.0 * a)))

    return ModelSpec(d=1, a=a, w0=0.0, v0=_zero, w1=w1, v1=v1, w2=w2,
                     epsilon=2.0, t0=np.zeros(1))


_BUILTIN_CACHE: dict[str, BuiltinModel] = {}


def builtin_models() -> dict[str, BuiltinModel]:
    """The registry of named built-in models (exactly two)."""
    if not _BUILTIN_CACHE:
        _BUILTIN_CACHE["mnr-infinite"] = BuiltinModel(
            spec=mnr_infinite_model(),
            expected={"m": 0.0, "M": 6.25, "sigma2_empty": False,
                      "discrete_below": "infinite"},
        )
        _BUILTIN_CACHE["sigma2-empty"] = BuiltinModel(
            spec=sigma2_empty_model(),
            expected={"m": 0.0, "M": 2.0 * _SEXTIC_PEAK, "sigma2_empty": True,
                      "discrete_below": "finite"},
        )
    return dict(_BUILTIN_CACHE)


# ---------------------------------------------------------------------------
# config documents
# ---------------------------------------------------------------------------

_EXPR_FUNCS = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "sqrt": np.sqrt, "abs": np.abs}
_EXPR_CONSTS = {"pi": math.pi}
_FOLD = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
         ast.Div: operator.truediv, ast.Pow: operator.pow,
         ast.USub: operator.neg, ast.UAdd: operator.pos}
_ALLOWED_OPS = tuple(_FOLD)


class _FloatLiterals(ast.NodeTransformer):
    """Make every literal and pi a float and fold the operators between them.

    Exact integer arithmetic on literals is unbounded: 9**9**9 has 370
    million digits, and the CLI would compute them all before converting to
    float.  In floats it overflows at once, and folding moves the overflow to
    compile time, where it becomes a ModelError.  So does a complex result,
    the power of a negative constant to a fractional exponent: every
    arithmetic between constants is folded, so no complex value can arise
    when the expression is evaluated.
    """

    def _fold(self, value, node):
        if isinstance(value, complex):
            raise ArithmeticError(f"{value} is not real")
        return ast.copy_location(ast.Constant(value), node)

    def visit_Constant(self, node):
        return self._fold(float(node.value), node)

    def visit_Name(self, node):
        return self._fold(_EXPR_CONSTS[node.id], node) if node.id in _EXPR_CONSTS else node

    def visit_UnaryOp(self, node):
        self.generic_visit(node)
        if isinstance(node.operand, ast.Constant):
            return self._fold(_FOLD[type(node.op)](node.operand.value), node)
        return node

    def visit_BinOp(self, node):
        self.generic_visit(node)
        if isinstance(node.left, ast.Constant) and isinstance(node.right, ast.Constant):
            return self._fold(_FOLD[type(node.op)](node.left.value, node.right.value), node)
        return node


def _compile_expr(text: str, variables: tuple[str, ...]):
    """Compile an arithmetic expression over the given variables.

    Only +, -, *, /, **, the functions sin/cos/exp/sqrt/abs called on one
    argument each, the constant pi and numeric literals are admitted.  A
    second argument would be numpy's output array, which the function would
    overwrite.  Literals are floats, and arithmetic between them is done
    once, here.
    """
    try:
        tree = ast.parse(text, mode="eval")
    except (SyntaxError, ValueError, RecursionError, MemoryError) as exc:
        raise ModelError(f"cannot parse expression {text!r}: {exc}") from exc
    names = set(variables) | set(_EXPR_CONSTS)
    callees = set()
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
            if len(node.args) != 1 or node.keywords:
                raise ModelError(f"{node.func.id} takes exactly one argument in expression {text!r}")
            callees.add(node.func)
            continue
        if isinstance(node, ast.Name):
            if node.id not in names and node not in callees:
                raise ModelError(f"unknown name {node.id!r} in expression {text!r}")
            continue
        if isinstance(node, ast.Load):
            continue
        raise ModelError(f"disallowed syntax ({type(node).__name__}) in expression {text!r}")
    try:
        code = compile(_FloatLiterals().visit(tree), "<model-expr>", "eval")
    except ArithmeticError as exc:
        raise ModelError(f"constant arithmetic fails in expression {text!r}: {exc}") from exc
    except RecursionError as exc:
        raise ModelError(f"expression nested too deeply: {text!r}") from exc

    def fn(**kwargs):
        return eval(code, {"__builtins__": {}, **_EXPR_FUNCS, **kwargs})

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
    except (OSError, ValueError, csv.Error) as exc:     # ValueError: a NUL in the name, not UTF-8
        raise ModelError(f"{what}: cannot read table {path}: {exc}") from exc
    if not rows:
        raise ModelError(f"{what}: empty table {path}")
    header = [c.strip().lower() for c in rows[0]]
    if header not in (["x", "value"], ["x", "y", "value"]):
        raise ModelError(f"{what}: expected header 'x,value' or 'x,y,value', got {rows[0]}")
    try:
        data = np.array([[float(c) for c in r] for r in rows[1:] if r], dtype=float)
    except ValueError as exc:
        raise ModelError(f"{what}: bad number or ragged row in table {path}: {exc}") from exc
    if data.ndim != 2 or data.shape[1] != len(header):
        raise ModelError(f"{what}: table {path} needs rows of {len(header)} numbers")
    return ("1d" if len(header) == 2 else "2d"), data


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
    entries; values are quoted strings or comma-separated finite numbers.
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
                        kind, val = tokens[pos] if pos < len(tokens) else ("", "")
                        if kind != "WORD":
                            raise ModelError(f"expected number for key {key!r}")
                        try:
                            nums.append(float(val))
                        except ValueError as exc:
                            raise ModelError(f"bad number {val!r} for key {key!r}") from exc
                        if not math.isfinite(nums[-1]):
                            raise ModelError(f"number {val!r} for key {key!r} is not finite")
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

    try:
        return parse_block(True)
    except RecursionError as exc:
        raise ModelError("config sections nested too deeply") from exc


def _function_entry(entry, a: float, d: int, base_dir: Path, what: str,
                    two_point: bool, symmetric: bool = False):
    if isinstance(entry, (int, float)):
        # eval_x / eval_xy spread the constant over the sample shape
        value = float(entry)
        if two_point:
            return lambda x, y: value
        return lambda x: value
    if not isinstance(entry, dict):
        raise ModelError(f"{what}: expected a number or an expr/table section")
    for key in ("expr", "table"):
        if key in entry and not isinstance(entry[key], str):
            raise ModelError(f"{what}: {key} must be a quoted string")
    if "expr" in entry:
        text = entry["expr"]
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
    dom, fns = doc["domain"], doc["functions"]
    if not (isinstance(dom, dict) and isinstance(fns, dict)):
        raise ModelError("'domain' and 'functions' must be { ... } sections")
    d, a = dom.get("d"), dom.get("a")
    if not (isinstance(d, float) and isinstance(a, float)):
        raise ModelError("domain section needs one number each for 'd' and 'a'")
    if not (d >= 1 and d.is_integer()):
        raise ModelError(f"domain dimension must be a positive integer (got {d!r})")
    if a <= 0:
        raise ModelError("domain half-width must be positive")
    d = int(d)
    missing = [k for k in ("w0", "v0", "w1", "v1", "w2") if k not in fns]
    if missing:
        raise ModelError(f"functions section is missing {missing}")
    w0 = fns["w0"]
    if isinstance(w0, dict):
        if not isinstance(w0.get("expr"), str):
            raise ModelError("w0: expr must be a quoted string")
        w0 = _compile_expr(w0["expr"], ())()
    if not (isinstance(w0, float) and math.isfinite(w0)):
        raise ModelError("w0 must be a finite real constant")
    epsilon = doc.get("epsilon", 2.0)
    if not (isinstance(epsilon, float) and epsilon > 0):
        raise ModelError("epsilon must be one positive number")
    t0 = doc.get("t0")
    if t0 is not None:
        if not isinstance(t0, (float, list)):
            raise ModelError(f"t0 must be {d} numbers")
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
