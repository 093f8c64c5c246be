"""The config language of every model, built-in or user: a nested key-value
document whose functions are arithmetic expressions or tabulated data.

Loading a config makes one pass per stage: _parse_config reads the document
in one token loop, _compile_expr checks and folds each expression in one
pass (_FloatLiterals) and compiles it to a plain function of its variables,
and _table_function reads and checks each table.  Every model loads
through here: ``model.load_model`` reads a built-in one from the package's
models/<name>.cfg.  Every malformed document, expression or table is a
ModelError.
"""

from __future__ import annotations

import ast
import csv
import math
import operator
import re
from functools import partial
from pathlib import Path

import numpy as np

from .model import W2_SYMMETRY_TOL, ModelError, ModelSpec

_EXPR_FUNCS = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "sqrt": np.sqrt, "abs": np.abs}
_EXPR_CONSTS = {"pi": math.pi}
_FOLD = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
         ast.Div: operator.truediv, ast.Pow: operator.pow,
         ast.USub: operator.neg, ast.UAdd: operator.pos}
MAX_EXPR_CHARS = 2048     # longer expressions are refused unparsed
# an expression's variables by (d, two_point): the x coordinates, then the y ones
_VARIABLES = {(1, False): ("x",), (1, True): ("x", "y"),
              (2, False): ("x1", "x2"), (2, True): ("x1", "x2", "y1", "y2")}
# a comment, a string (unterminated if it lacks its closing quote), a
# punctuator or a word; whitespace, which no token matches, is space, tab, CR and LF
_TOKEN = re.compile(r'#[^\n]*|"[^"]*"?|[{}=,]|[^ \t\r\n#{}=,"]+')

# each operator's augmented form, for a temporary on its left, and its ufunc,
# for one on its right or its only operand
_IN_PLACE = {ast.Add: (operator.iadd, np.add), ast.Sub: (operator.isub, np.subtract),
             ast.Mult: (operator.imul, np.multiply), ast.Div: (operator.itruediv, np.divide),
             ast.Pow: (operator.ipow, np.power)}
_UNARY_UFUNCS = {ast.USub: np.negative, ast.UAdd: np.positive}


def _fits(t, u=0.0) -> bool:
    """Whether t, a temporary, can hold the result of an operation with u: a
    float64 array of the result's shape (u a constant or float64 too)."""
    if type(t) is not np.ndarray or t.dtype != np.float64:
        return False
    return type(u) is float or (u.dtype == np.float64 and (
        u.shape == t.shape or np.broadcast(t, u).shape == t.shape))


def _binary(op, ip, ufunc):
    """The call op(u, v), writing into whichever of u, v is a temporary that fits.

    A left temporary takes the augmented operator, so ``t **= c`` takes the
    scalar-exponent fast paths of ``t ** c`` (sqrt for 0.5, which differs from
    a plain power at -0 and -inf), whatever np.power itself does; the
    operands keep their order.
    """
    def bind(u, v, left, right):
        if left and _fits(u, v):
            return partial(ip, u, v)
        if right and _fits(v, u):
            return partial(ufunc, u, v, out=v)
        return partial(op, u, v)

    return bind


def _unary(op, ufunc):
    return lambda t: partial(ufunc, t, out=t) if _fits(t) else partial(op, t)


# the names the rewritten expressions call; none of them can be a user name
_IN_PLACE_CALLS = {
    **{f"_{op.__name__}": _binary(_FOLD[op], ip, uf) for op, (ip, uf) in _IN_PLACE.items()},
    **{f"_{op.__name__}": _unary(_FOLD[op], uf) for op, uf in _UNARY_UFUNCS.items()},
    **{f"_{name}": _unary(fn, fn) for name, fn in _EXPR_FUNCS.items()},
}


class _FloatLiterals(ast.NodeTransformer):
    """Check an expression over the given variables, make every literal and pi
    a float and fold the operators between them, in one pass: a ModelError
    names the first node met that is not a number, a variable, pi, an
    operator of _FOLD or a call of one _EXPR_FUNCS function on one argument.

    Exact integer arithmetic on literals is unbounded: 9**9**9 has 370
    million digits, and the CLI would compute them all before converting to
    float.  In floats it overflows at once, and folding moves the overflow to
    compile time, where it becomes a ModelError.  So does a complex result,
    the power of a negative constant to a fractional exponent: every
    arithmetic between constants is folded, so no complex value can arise
    when the expression is evaluated.
    """

    def __init__(self, variables: tuple[str, ...]):
        self.variables = variables

    def generic_visit(self, node):
        # the root and the operators have no visit_ method; no other node is admitted
        if not isinstance(node, (ast.Expression, *_FOLD)):
            raise ModelError(f"disallowed syntax ({type(node).__name__})")
        return super().generic_visit(node)

    def _fold(self, value, node):
        if isinstance(value, complex):
            raise ArithmeticError(f"{value} is not real")
        return ast.copy_location(ast.Constant(value), node)

    def visit_Constant(self, node):
        if not isinstance(node.value, (int, float)):
            raise ModelError("non-numeric literal")
        return self._fold(float(node.value), node)

    def visit_Name(self, node):
        if node.id in _EXPR_CONSTS:
            return self._fold(_EXPR_CONSTS[node.id], node)
        if node.id not in self.variables:
            raise ModelError(f"unknown name {node.id!r}")
        return node

    def visit_Call(self, node):
        if not (isinstance(node.func, ast.Name) and node.func.id in _EXPR_FUNCS):
            raise ModelError("disallowed call")
        if len(node.args) != 1 or node.keywords:
            raise ModelError(f"{node.func.id} takes exactly one argument")
        node.args = [self.visit(node.args[0])]
        return node

    def visit_UnaryOp(self, node):
        super().generic_visit(node)
        if isinstance(node.operand, ast.Constant):
            return self._fold(_FOLD[type(node.op)](node.operand.value), node)
        return node

    def visit_BinOp(self, node):
        super().generic_visit(node)
        if isinstance(node.left, ast.Constant) and isinstance(node.right, ast.Constant):
            return self._fold(_FOLD[type(node.op)](node.left.value, node.right.value), node)
        return node


def _temporary(node) -> bool:
    """Whether node evaluates to a new array: not a name (a view of the
    caller's points) and not a constant."""
    return not isinstance(node, (ast.Name, ast.Constant))


class _InPlace(ast.NodeTransformer):
    """Make each operation on a temporary write into it.

    The result of a BinOp, UnaryOp or Call is a temporary of the expression,
    so the operation that consumes it may overwrite it: ``t + u`` becomes
    ``np.add(t, u, out=t)`` and ``sin(t)`` ``np.sin(t, out=t)`` whenever t
    has the result's shape and dtype (decided per call, as the shapes are
    only known then).  Each numpy operation, its operands and their order
    stay as written, so every result keeps its bits; an expression over a
    row block of points then holds one block, not one per operation.  A
    helper of _IN_PLACE_CALLS picks the call and the expression makes it, so
    numpy's floating-point warnings still name <model-expr>.
    """

    def _call(self, name, args, node):
        pick = ast.Call(ast.Name(name, ast.Load()), args, [])
        return ast.copy_location(ast.Call(pick, [], []), node)

    def visit_BinOp(self, node):
        self.generic_visit(node)
        left, right = _temporary(node.left), _temporary(node.right)
        if not (left or right):
            return node
        return self._call(f"_{type(node.op).__name__}",
                          [node.left, node.right, ast.Constant(left), ast.Constant(right)], node)

    def visit_UnaryOp(self, node):
        self.generic_visit(node)
        if not _temporary(node.operand):
            return node
        return self._call(f"_{type(node.op).__name__}", [node.operand], node)

    def visit_Call(self, node):
        self.generic_visit(node)
        if not _temporary(node.args[0]):
            return node
        return self._call(f"_{node.func.id}", node.args, node)


def _compile_expr(text: str, variables: tuple[str, ...]):
    """Compile an arithmetic expression into a function of the given variables.

    Only +, -, *, /, **, the functions sin/cos/exp/sqrt/abs called on one
    argument each, the constant pi and numeric literals are admitted.  A
    second argument would be numpy's output array, which the function would
    overwrite.  Literals are floats, and arithmetic between them is done
    once, here.  Each operation on an intermediate result writes into it
    (_InPlace), never into a variable, a view of the caller's points.  The
    result is one lambda of the variables.  An expression longer than
    MAX_EXPR_CHARS is refused unparsed; an error quotes at most 60 characters.
    """
    shown = repr(text[:60]) + ("..." if len(text) > 60 else "")
    if len(text) > MAX_EXPR_CHARS:
        raise ModelError(f"expression longer than {MAX_EXPR_CHARS} characters: {shown}")
    try:
        tree = ast.parse(text, mode="eval")
    except (SyntaxError, ValueError, RecursionError, MemoryError) as exc:
        raise ModelError(f"cannot parse expression {shown}: {exc}") from exc
    try:
        body = _InPlace().visit(_FloatLiterals(variables).visit(tree)).body
        params = ast.arguments(posonlyargs=[], args=[ast.arg(v) for v in variables],
                               kwonlyargs=[], kw_defaults=[], defaults=[])
        code = compile(ast.fix_missing_locations(ast.Expression(ast.Lambda(params, body))),
                       "<model-expr>", "eval")
    except ModelError as exc:
        raise ModelError(f"{exc} in expression {shown}") from None
    except ArithmeticError as exc:
        raise ModelError(f"constant arithmetic fails in expression {shown}: {exc}") from exc
    except RecursionError as exc:
        raise ModelError(f"expression nested too deeply: {shown}") from exc
    return eval(code, {"__builtins__": {}, **_EXPR_FUNCS, **_IN_PLACE_CALLS})


def _cell(nodes: np.ndarray, p):
    """The interpolation cell of each point p among the nodes, and p's fraction across it."""
    p = np.asarray(p, dtype=float)
    i = np.clip(np.searchsorted(nodes, p) - 1, 0, nodes.size - 2)
    return i, np.clip((p - nodes[i]) / (nodes[i + 1] - nodes[i]), 0.0, 1.0)


class _Table2D:
    """Bilinear interpolation of values[i, j], given at (xn[i], yn[j])."""

    def __init__(self, xn: np.ndarray, yn: np.ndarray, values: np.ndarray):
        self.xn, self.yn, self.values = xn, yn, values

    def __call__(self, x, y):
        # cells and fractions of the unbroadcast points; the four terms sum into
        # one array, so a row block of x against a row of y holds three blocks
        ix, tx = _cell(self.xn, x)
        iy, ty = _cell(self.yn, y)
        sx, sy = 1 - tx, 1 - ty
        out = sx * sy
        out *= self.values[ix, iy]
        for wx, wy, i, j in ((tx, sy, ix + 1, iy), (sx, ty, ix, iy + 1), (tx, ty, ix + 1, iy + 1)):
            term = wx * wy
            term *= self.values[i, j]
            out += term
        return out


def _check_axis(nodes: np.ndarray, a: float, what: str, axis: str):
    if nodes.size < 2 or np.any(np.diff(nodes) <= 0):
        raise ModelError(f"{what}: table {axis} nodes must be strictly increasing")
    if nodes[0] > -a + 1e-12 or nodes[-1] < a - 1e-12:
        raise ModelError(f"{what}: table does not cover Omega = (-{a}, {a})")


def _table_function(path: Path, a: float, what: str, two_point: bool, symmetric: bool):
    """np.interp on a one-point table, _Table2D on a row-major two-point one."""
    header = ["x", "y", "value"] if two_point else ["x", "value"]
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except (OSError, ValueError, csv.Error) as exc:     # ValueError: a NUL in the name, not UTF-8
        raise ModelError(f"{what}: cannot read table {path}: {exc}") from exc
    if not rows or [c.strip().lower() for c in rows[0]] != header:
        raise ModelError(f"{what}: table {path} needs the header {','.join(header)!r}")
    try:
        data = np.array([[float(c) for c in r] for r in rows[1:] if r], dtype=float)
    except ValueError as exc:
        raise ModelError(f"{what}: bad number or ragged row in table {path}: {exc}") from exc
    if data.ndim != 2 or data.shape[1] != len(header) or not np.isfinite(data).all():
        raise ModelError(f"{what}: table {path} needs rows of {len(header)} finite numbers")
    if not two_point:
        nodes, values = data.T.copy()
        _check_axis(nodes, a, what, "x")
        return partial(np.interp, xp=nodes, fp=values)
    xu, yu = np.unique(data[:, 0]), np.unique(data[:, 1])
    if data.shape[0] != xu.size * yu.size:
        raise ModelError(f"{what}: table is not a complete row-major grid")
    if np.any(data[:, 0] != np.repeat(xu, yu.size)) or np.any(data[:, 1] != np.tile(yu, xu.size)):
        raise ModelError(f"{what}: table rows are not in row-major node order")
    values = data[:, 2].reshape(xu.size, yu.size)
    _check_axis(xu, a, what, "x")
    _check_axis(yu, a, what, "y")
    if symmetric:
        if xu.shape != yu.shape or np.any(xu != yu):
            raise ModelError(f"{what}: a symmetric table needs identical x and y nodes")
        asym = float(np.max(np.abs(values - values.T)))
        if asym > W2_SYMMETRY_TOL:
            raise ModelError(
                f"{what}: tabulated data asymmetric (max deviation {asym:.3e} > {W2_SYMMETRY_TOL})")
    return _Table2D(xu, yu, values)


def _parse_config(text: str) -> dict:
    """Parse the nested key-value document format.

    Grammar: a document is a sequence of ``key = value`` or ``key { ... }``
    entries; values are quoted strings or comma-separated finite numbers.
    One loop reads the tokens, keeping the sections open at each point on a
    stack; a key given twice keeps its last value.
    """
    tokens = [t for t in _TOKEN.findall(text) if t[0] != "#"]
    # an unterminated string runs to the end of the text, so it is the last token
    if tokens and (tokens[-1] == '"' or tokens[-1][0] == '"' != tokens[-1][-1]):
        raise ModelError("unterminated string in config")
    tokens += ["", ""]      # the end, and the look-ahead past it
    stack, i = [{}], 0
    while tokens[i]:
        key, sep, value = tokens[i:i + 3]
        if key == "}":
            if len(stack) == 1:
                raise ModelError("unbalanced '}' in config")
            stack.pop()
            i += 1
        elif key[0] in '{=,"':
            raise ModelError(f"expected key, got {key.strip(chr(34))!r}")
        elif not sep:
            raise ModelError(f"dangling key {key!r} in config")
        elif sep == "{":
            section = stack[-1][key] = {}
            stack.append(section)
            i += 2
        elif sep != "=":
            raise ModelError(f"expected '=' or '{{' after key {key!r}")
        elif not value:
            raise ModelError(f"missing value for key {key!r} in config")
        elif value[0] == '"':
            stack[-1][key] = value[1:-1]
            i += 3
        elif value[0] in "{}=,":
            raise ModelError(f"bad value for key {key!r}")
        else:
            nums, i = [], i + 1         # tokens[i] is the '=' or ',' before each number
            while not nums or tokens[i] == ",":
                word = tokens[i + 1]
                if not word or word[0] in '{}=,"':
                    raise ModelError(f"expected number for key {key!r}")
                try:
                    nums.append(float(word))
                except ValueError as exc:
                    raise ModelError(f"bad number {word!r} for key {key!r}") from exc
                if not math.isfinite(nums[-1]):
                    raise ModelError(f"number {word!r} for key {key!r} is not finite")
                i += 2
            stack[-1][key] = nums[0] if len(nums) == 1 else nums
    if len(stack) > 1:
        raise ModelError("unbalanced '{' in config")
    return stack[0]


def _function_entry(entry, a: float, d: int, base_dir: Path, what: str,
                    two_point: bool, symmetric: bool = False):
    if isinstance(entry, (int, float)):
        # eval_x / eval_xy spread the constant over the sample shape
        value = float(entry)
        return (lambda x, y: value) if two_point else (lambda x: value)
    if not isinstance(entry, dict):
        raise ModelError(f"{what}: expected a number or an expr/table section")
    for key in ("expr", "table"):
        if key in entry and not isinstance(entry[key], str):
            raise ModelError(f"{what}: {key} must be a quoted string")
    if "expr" in entry:
        if (d, two_point) not in _VARIABLES:
            raise ModelError(f"{what}: expression models support d in {{1, 2}}")
        fn = _compile_expr(entry["expr"], _VARIABLES[d, two_point])
        # at d = 2 each coordinate of each point is a variable of its own
        return fn if d == 1 else lambda *pts: fn(*(p[..., k] for p in pts for k in (0, 1)))
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
    return ModelSpec(
        d=d,
        a=a,
        w0=float(w0),
        v0=_function_entry(fns["v0"], a, d, base_dir, "v0", two_point=False),
        w1=_function_entry(fns["w1"], a, d, base_dir, "w1", two_point=False),
        v1=_function_entry(fns["v1"], a, d, base_dir, "v1", two_point=True),
        w2=_function_entry(fns["w2"], a, d, base_dir, "w2", two_point=True, symmetric=True),
        epsilon=epsilon,
    )
