"""The config language of user models: a nested key-value document whose
functions are arithmetic expressions or tabulated data.

``model.load_model`` imports this module only for a config path, so the
built-in models load without compiling it.  Every malformed document or
expression is a ModelError.
"""

from __future__ import annotations

import ast
import csv
import math
import operator
from pathlib import Path

import numpy as np

from .model import W2_SYMMETRY_TOL, ModelError, ModelSpec

_EXPR_FUNCS = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "sqrt": np.sqrt, "abs": np.abs}
_EXPR_CONSTS = {"pi": math.pi}
_FOLD = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
         ast.Div: operator.truediv, ast.Pow: operator.pow,
         ast.USub: operator.neg, ast.UAdd: operator.pos}
_ALLOWED_OPS = tuple(_FOLD)
MAX_EXPR_CHARS = 2048     # longer expressions are refused unparsed


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
    once, here.  An expression longer than MAX_EXPR_CHARS is refused before
    it is parsed, and an error quotes at most its first 60 characters.
    """
    shown = repr(text[:60]) + ("..." if len(text) > 60 else "")
    if len(text) > MAX_EXPR_CHARS:
        raise ModelError(f"expression longer than {MAX_EXPR_CHARS} characters: {shown}")
    try:
        tree = ast.parse(text, mode="eval")
    except (SyntaxError, ValueError, RecursionError, MemoryError) as exc:
        raise ModelError(f"cannot parse expression {shown}: {exc}") from exc
    names = set(variables) | set(_EXPR_CONSTS)
    callees = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Expression, ast.BinOp, ast.UnaryOp, ast.Constant)):
            if isinstance(node, ast.Constant) and not isinstance(node.value, (int, float)):
                raise ModelError(f"non-numeric literal in expression {shown}")
            continue
        if isinstance(node, _ALLOWED_OPS):
            continue
        if isinstance(node, ast.Call):
            if not (isinstance(node.func, ast.Name) and node.func.id in _EXPR_FUNCS):
                raise ModelError(f"disallowed call in expression {shown}")
            if len(node.args) != 1 or node.keywords:
                raise ModelError(f"{node.func.id} takes exactly one argument in expression {shown}")
            callees.add(node.func)
            continue
        if isinstance(node, ast.Name):
            if node.id not in names and node not in callees:
                raise ModelError(f"unknown name {node.id!r} in expression {shown}")
            continue
        if isinstance(node, ast.Load):
            continue
        raise ModelError(f"disallowed syntax ({type(node).__name__}) in expression {shown}")
    try:
        code = compile(_FloatLiterals().visit(tree), "<model-expr>", "eval")
    except ArithmeticError as exc:
        raise ModelError(f"constant arithmetic fails in expression {shown}: {exc}") from exc
    except RecursionError as exc:
        raise ModelError(f"expression nested too deeply: {shown}") from exc

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
