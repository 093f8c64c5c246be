import dataclasses
import fnmatch
import math
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fockspectra as fs
from fockspectra import blocks, cli, config
from conftest import make_decoupled, random_trig_model, simpson
from oracles import (mnr_infinite_reference, negate_model, plain_expr,
                     sigma2_empty_reference, synthetic_power_model)


def test_builtin_registry_has_exactly_two():
    names = sorted(fs.builtin_models())
    assert names == ["mnr-infinite", "sigma2-empty"]
    # one object per name: the sample caches key on it
    assert all(fs.load_model(name) is fs.builtin_models()[name].spec for name in names)


def _bits(values) -> np.ndarray:
    return np.ascontiguousarray(values, dtype=float).view(np.uint64)


@pytest.mark.parametrize("name, reference", [("mnr-infinite", mnr_infinite_reference),
                                             ("sigma2-empty", sigma2_empty_reference)])
def test_each_shipped_config_matches_its_reference_closures(name, reference):
    # the built-ins are config documents: an edit to one cannot move its
    # model, not by one bit of one sample on either rule or at random points
    spec, ref = fs.load_model(name), reference()
    assert (spec.d, spec.a, spec.w0, spec.epsilon) == (ref.d, ref.a, ref.w0, ref.epsilon)
    grids = [fs.make_grid(1, spec.a, n, rule) for rule, sizes in (
        ("midpoint", [*range(2, 65), 100, 255, 256, 1024]),
        ("gauss-legendre", [*range(2, 65), 127, 512])) for n in sizes]
    points = [(g.nodes, g.nodes[:, None, :], g.nodes[None, :, :]) for g in grids]
    rng = np.random.default_rng(20)
    x, y = rng.uniform(-spec.a, spec.a, (2, 200_000, 1))
    points.append((x, x, y))
    for nodes, xs, ys in points:
        for f in ("w1", "v0"):
            assert np.array_equal(_bits(fs.model.eval_x(spec, getattr(spec, f), nodes)),
                                  _bits(fs.model.eval_x(ref, getattr(ref, f), nodes))), f
        for f in ("v1", "w2"):
            assert np.array_equal(_bits(fs.model.eval_xy(spec, getattr(spec, f), xs, ys)),
                                  _bits(fs.model.eval_xy(ref, getattr(ref, f), xs, ys))), f


def test_every_shipped_model_file_is_package_data():
    # a non-editable install copies only the files that a package-data glob names
    tomllib = pytest.importorskip("tomllib")        # Python 3.11 on
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
        globs = tomllib.load(fh)["tool"]["setuptools"]["package-data"]["fockspectra"]
    package = Path(fs.__file__).parent
    shipped = sorted(p.relative_to(package).as_posix() for p in (package / "models").iterdir())
    assert shipped == sorted(f"models/{name}.cfg" for name in fs.builtin_models())
    assert all(any(fnmatch.fnmatch(f, glob) for glob in globs) for f in shipped)


def test_mesh_samples_are_cached_for_one_grid_only(mnr):
    # every command solves on one grid, and one entry is 85 MB at the d = 2 cap
    first = fs.make_grid(1, mnr.a, 8)
    samples = weakref.ref(fs.model.mesh_samples(mnr, first))
    assert fs.model.mesh_samples(mnr, first) is samples()
    fs.model.mesh_samples(mnr, fs.make_grid(1, mnr.a, 8))
    assert samples() is None


def test_load_unknown_name_raises():
    with pytest.raises(fs.ModelError):
        fs.load_model("no-such-model")


def test_mnr_fields(mnr):
    assert mnr.d == 1
    assert mnr.a == math.pi
    assert float(mnr.w1(np.array(0.0))) == 1.0
    assert float(mnr.w2(np.array(0.0), np.array(0.0))) == 0.0
    # coupling depends on the integrated variable and vanishes at the origin
    assert abs(float(mnr.v1(np.array(1.3), np.array(0.0)))) == 0.0
    assert abs(float(mnr.v1(np.array(0.0), np.array(1.0)))
               - math.sqrt(3 / math.pi) * math.sin(1.0)) < 1e-15


def test_w2_symmetry_sampled(mnr, s2e):
    rng = np.random.default_rng(7)
    for spec in (mnr, s2e):
        x = rng.uniform(-spec.a, spec.a, 200)
        y = rng.uniform(-spec.a, spec.a, 200)
        d = np.abs(np.asarray(spec.w2(x, y)) - np.asarray(spec.w2(y, x)))
        assert np.max(d) <= 1e-12


def test_sigma2_empty_circle_identity(s2e):
    # v1^2 + c^2 (w2 - (m+M)/2)^2 = c^2 ((M-m)/2)^2 with c^2 = 2/vol(Omega)
    rng = np.random.default_rng(3)
    x = rng.uniform(-s2e.a, s2e.a, 300)
    y = rng.uniform(-s2e.a, s2e.a, 300)
    m, M = 0.0, 4.8
    csq = 2.0 / (2 * s2e.a)
    w2 = np.asarray(s2e.w2(x, y))
    lhs = np.asarray(s2e.v1(x, y)) ** 2 + csq * (w2 - (m + M) / 2) ** 2
    assert np.max(np.abs(lhs - csq * ((M - m) / 2) ** 2)) <= 1e-12


def test_check_assumption_a_zero_coupling():
    spec = make_decoupled(lambda x: x, lambda x, y: 1.0 + 0 * x * y)
    g = fs.make_grid(1, 1.0, 16)
    rep = fs.check_assumption_a(spec, g)
    assert rep.passed
    assert rep.sup_norm_2pe == 0.0
    assert rep.sup_norm_2p4e == 0.0


def test_check_assumption_a_mnr_simpson_oracle(mnr):
    # independent oracle: composite Simpson of |v1(x, .)|^4 on 10^6+1 nodes
    g = fs.make_grid(1, mnr.a, 64)
    rep = fs.check_assumption_a(mnr, g)
    y = np.linspace(-mnr.a, mnr.a, 1_000_001)
    h = y[1] - y[0]
    vals = np.abs(math.sqrt(3 / math.pi) * np.sin(y)) ** 4
    oracle = simpson(vals, h) ** 0.25
    assert rep.passed
    assert abs(rep.sup_norm_2pe - oracle) < 1e-9 * oracle


def test_check_assumption_a_nan_raises():
    def bad_v1(x, y):
        out = np.full(np.broadcast_shapes(np.shape(x), np.shape(y)), np.nan)
        return out

    spec = fs.ModelSpec(d=1, a=1.0, w0=0.0,
                        v0=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
                        w1=lambda x: 0.0 * x, v1=bad_v1, w2=lambda x, y: 1.0 + 0 * x * y)
    g = fs.make_grid(1, 1.0, 8)
    with pytest.raises(fs.ModelEvaluationError):
        fs.check_assumption_a(spec, g)


def test_norm_refinement_consistency(mnr):
    g1 = fs.make_grid(1, mnr.a, 64)
    g2 = fs.make_grid(1, mnr.a, 128)
    r1 = fs.check_assumption_a(mnr, g1)
    r2 = fs.check_assumption_a(mnr, g2)
    assert abs(r1.sup_norm_2pe - r2.sup_norm_2pe) < 5e-3
    assert abs(r1.sup_norm_2p4e - r2.sup_norm_2p4e) < 5e-3


def test_asymmetric_w2_fails_check():
    spec = make_decoupled(lambda x: x, lambda x, y: 1.0 + 1e-6 * (x - y))
    g = fs.make_grid(1, 1.0, 8)
    rep = fs.check_assumption_a(spec, g)
    assert not rep.passed
    assert rep.w2_asymmetry > 1e-12


CONFIG_EXPR = """
# toy expression model
domain {
  d = 1
  a = 1.5
}
functions {
  w0 = 0.25
  v0 { expr = "cos(pi * x / 3)" }
  w1 { expr = "x * x" }
  v1 { expr = "sin(x) * cos(y)" }
  w2 { expr = "2 + cos(x) * cos(y)" }
}
epsilon = 2.0
t0 = 0.0
"""


def test_config_expression_model(tmp_path):
    path = tmp_path / "model.cfg"
    path.write_text(CONFIG_EXPR)
    spec = fs.load_model(path)
    assert spec.d == 1 and spec.a == 1.5 and spec.w0 == 0.25
    assert abs(float(spec.w1(np.array(0.5))) - 0.25) < 1e-15
    assert abs(float(spec.v1(np.array(0.3), np.array(0.4)))
               - math.sin(0.3) * math.cos(0.4)) < 1e-15
    rep = fs.check_assumption_a(spec, fs.make_grid(1, 1.5, 16))
    assert rep.passed


@pytest.mark.parametrize("line", ["t0 = 0.0", "t0 = 7.5", 't0 = "a"', "t0 = 1, 2", 'name = "m"'])
def test_config_loads_and_ignores_a_t0_or_name_line(line):
    # locate_t0 finds t0 from w2 alone; a t0 line of an older config reads as name does
    spec = fs.model_from_config(CONFIG_EXPR.replace("t0 = 0.0", line))
    fields = [f.name for f in dataclasses.fields(spec)]
    assert fields == ["d", "a", "w0", "v0", "w1", "v1", "w2", "epsilon"]
    assert (spec.d, spec.a, spec.w0, spec.epsilon) == (1, 1.5, 0.25, 2.0)


CONFIG_D2_Y_ONLY = """
domain { d = 2  a = 1 }
functions {
  w0 = 0
  v0 = 0.25
  w1 { expr = "1 + 0.1 * (x1 * x1 + x2 * x2)" }
  v1 { expr = "0.5 * (y1 * y1 + y2 * y2)" }
  w2 { expr = "x1 * x1 + x2 * x2 + y1 * y1 + y2 * y2" }
}
"""


def test_eval_xy_spreads_a_function_of_y_only_as_a_read_only_view():
    spec = fs.model_from_config(CONFIG_D2_Y_ONLY)
    g = fs.make_grid(2, 1.0, 6)
    X, Y = g.nodes[:, None, :], g.nodes[None, :, :]
    V = fs.model.eval_xy(spec, spec.v1, X, Y)
    assert V.shape == (g.n, g.n) and V.strides[0] == 0
    assert not V.flags.writeable
    with pytest.raises(ValueError):
        V[0, 0] = 1.0

    # mesh_samples equals, bit for bit, what it built when eval_x/eval_xy copied
    def copied(out, shape):
        return np.broadcast_to(np.asarray(out), shape).copy()

    shape = (g.n, g.n)
    W2 = copied(spec.w2(X, Y), shape)
    expected = {
        "w1": copied(spec.w1(g.nodes), (g.n,)),
        "v0": 0.25 + 0.0 * g.nodes[..., 0],          # the former constant lambda
        "V1": copied(spec.v1(X, Y), shape),
        "W2": 0.5 * (W2 + W2.T),
    }
    ms = fs.model.mesh_samples(spec, g)
    for name, ref in expected.items():
        got = getattr(ms, name)
        assert got.dtype == ref.dtype and got.shape == ref.shape, name
        assert got.tobytes() == ref.tobytes(), name


@pytest.mark.parametrize("d", [1, 2])
def test_config_constants_are_returned_as_is(d):
    w2 = "x * x + y * y" if d == 1 else "x1 * x1 + x2 * x2 + y1 * y1 + y2 * y2"
    spec = fs.model_from_config(
        f"domain {{ d = {d}  a = 1 }}\nfunctions {{\n  w0 = 0\n  v0 = 0.25\n  w1 = 3\n"
        f'  v1 = -0.5\n  w2 {{ expr = "{w2}" }}\n}}\n')
    pts = fs.make_grid(d, 1.0, 5).nodes
    arg = pts[:, 0] if d == 1 else pts
    assert spec.v0(arg) == 0.25 and spec.w1(arg) == 3.0 and spec.v1(arg, arg) == -0.5
    for fn, value in ((spec.v0, 0.25), (spec.w1, 3.0)):
        vals = fs.model.eval_x(spec, fn, pts)
        assert vals.shape == (pts.shape[0],) and not vals.flags.writeable
        assert vals.tobytes() == (value + 0.0 * pts[:, 0]).tobytes()
    vals = fs.model.eval_xy(spec, spec.v1, pts[:, None, :], pts[None, :, :])
    assert vals.shape == (pts.shape[0],) * 2
    assert vals.tobytes() == (-0.5 + 0.0 * pts[:, None, 0] + 0.0 * pts[None, :, 0]).tobytes()


def test_config_decoupled_zero_coupling(tmp_path):
    text = """
domain { d = 1  a = 1.0 }
functions {
  w0 = 0.0
  v0 = 0.0
  w1 = 0.0
  v1 = 0.0
  w2 = 1.0
}
"""
    path = tmp_path / "dec.cfg"
    path.write_text(text)
    spec = fs.load_model(path)
    g = fs.make_grid(1, 1.0, 8)
    assert fs.check_assumption_a(spec, g).passed
    assert float(fs.delta_at(spec, g, 0.1, -1.0)) == 1.0


def _write_csv(path, header, rows):
    path.write_text("\n".join([header] + [",".join(repr(float(c)) for c in r) for r in rows]) + "\n")


def test_config_table_model(tmp_path):
    xs = np.linspace(-1.0, 1.0, 21)
    _write_csv(tmp_path / "w1.csv", "x,value", [(x, x * x) for x in xs])
    rows = [(x, y, 2.0 + x * y) for x in xs for y in xs]
    _write_csv(tmp_path / "w2.csv", "x,y,value", rows)
    rows_v = [(x, y, x + y) for x in xs for y in xs]
    _write_csv(tmp_path / "v1.csv", "x,y,value", rows_v)
    cfg = """
domain { d = 1  a = 1.0 }
functions {
  w0 = 0.0
  v0 = 0.0
  w1 { table = "w1.csv" }
  v1 { table = "v1.csv" }
  w2 { table = "w2.csv" }
}
"""
    path = tmp_path / "tab.cfg"
    path.write_text(cfg)
    spec = fs.load_model(path)
    # multilinear interpolation between table nodes
    assert abs(float(spec.w1(np.array(0.05))) - 0.5 * (0.0**2 + 0.1**2)) < 1e-12
    assert abs(float(spec.w2(np.array(0.1), np.array(0.3))) - 2.03) < 1e-12
    assert fs.check_assumption_a(spec, fs.make_grid(1, 1.0, 8)).passed


def test_config_table_not_covering_domain(tmp_path):
    xs = np.linspace(-0.5, 0.5, 11)
    _write_csv(tmp_path / "w1.csv", "x,value", [(x, x) for x in xs])
    cfg = """
domain { d = 1  a = 1.0 }
functions {
  w0 = 0.0
  v0 = 0.0
  w1 { table = "w1.csv" }
  v1 = 0.0
  w2 = 1.0
}
"""
    path = tmp_path / "bad.cfg"
    path.write_text(cfg)
    with pytest.raises(fs.ModelError, match="cover"):
        fs.load_model(path)


def test_config_asymmetric_w2_table(tmp_path):
    xs = np.linspace(-1.0, 1.0, 5)
    rows = [(x, y, x - y) for x in xs for y in xs]   # antisymmetric: invalid
    _write_csv(tmp_path / "w2.csv", "x,y,value", rows)
    cfg = """
domain { d = 1  a = 1.0 }
functions {
  w0 = 0.0
  v0 = 0.0
  w1 = 0.0
  v1 = 0.0
  w2 { table = "w2.csv" }
}
"""
    path = tmp_path / "asym.cfg"
    path.write_text(cfg)
    with pytest.raises(fs.ModelError, match="asymmetric"):
        fs.load_model(path)


def test_config_malformed(tmp_path):
    path = tmp_path / "broken.cfg"
    path.write_text("domain { d = 1 a = ")
    with pytest.raises(fs.ModelError):
        fs.load_model(path)
    # a table cell that is not a number, a short row, and rows of the wrong length
    path.write_text(CONFIG_TABLE_W2)
    for table in ("x,y,value\n-1,-1,a\n", "x,y,value\n-1,-1\n1,1,1\n", "x,y,value\n-1,-1\n"):
        (tmp_path / "w2.csv").write_text(table)
        with pytest.raises(fs.ModelError):
            fs.load_model(path)


CONFIG_TABLE_W2 = """
domain { d = 1  a = 1.0 }
functions {
  w0 = 0.0
  v0 = 0.0
  w1 = 0.0
  v1 = 0.0
  w2 { table = "w2.csv" }
}
"""


# each table's name, then its header and its value at (x, y)
_D1_TABLES = (("w1", "x,value", lambda x, y: 1.0 + 0.1 * x * x),
              ("v1", "x,y,value", lambda x, y: 2.0 * y * y),
              ("w2", "x,y,value", lambda x, y: x * x + y * y))


def _table_model(tmp_path, nodes, cell=None):
    """A d = 1 config whose w1, v1 and w2 are tables on the given nodes; cell,
    if given, replaces one entry of one table: (name, row, column, value)."""
    for name, header, f in _D1_TABLES:
        pts = [(x,) for x in nodes] if header == "x,value" else [(x, y) for x in nodes for y in nodes]
        rows = [[*p, f(p[0], p[-1])] for p in pts]
        if cell is not None and cell[0] == name:
            rows[cell[1]][cell[2]] = cell[3]
        _write_csv(tmp_path / f"{name}.csv", header, rows)
    path = tmp_path / "tables.cfg"
    path.write_text("domain { d = 1  a = 1.0 }\nfunctions {\n  w0 = 0\n  v0 = 0\n"
                    + "".join(f'  {name} {{ table = "{name}.csv" }}\n' for name, _, _ in _D1_TABLES)
                    + "}\n")
    return path


@pytest.mark.parametrize("cell", [("v1", 20 * 41 + 20, 2, math.nan), ("w1", 3, 1, math.inf),
                                  ("w2", 0, 2, -math.inf), ("w1", 20, 0, math.nan)],
                         ids=["nan", "inf", "-inf", "nan-node"])
def test_config_table_entries_must_be_finite(tmp_path, cell):
    # a v1 nan at (0, 0) once passed check-model at n = 8, whose nodes miss it,
    # and failed essspec at n = 32 with an analysis error (exit 2); a nan node
    # compares false, so it passed the check for increasing nodes
    path = _table_model(tmp_path, np.linspace(-1.0, 1.0, 41), cell)
    with pytest.raises(fs.ModelError, match="finite"):
        fs.load_model(path)
    assert cli.main(["check-model", "--model", str(path), "--n", "8",
                     "--out", str(tmp_path / "out")]) == 1


def test_tabulated_two_point_function_holds_three_row_blocks(tmp_path, monkeypatch):
    # the cell fractions come from the unbroadcast points, and the bilinear sum
    # writes its four terms into one array: that array, one term and the
    # term's table gather
    monkeypatch.setattr(blocks, "_cpu_count", lambda: 1)
    spec = fs.load_model(_table_model(tmp_path, np.linspace(-1.0, 1.0, 41)))
    g = fs.make_grid(1, spec.a, 1024)
    rows = blocks.row_blocks(g.n, g.n)[0]
    block = (rows.stop - rows.start) * g.n * 8
    x = np.linspace(-0.9, 0.9, rows.stop - rows.start)[:, None]
    y = g.nodes[None, :, 0]

    def peak(fn):
        fn()
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(lambda: spec.v1(x, y)) <= 3.25 * block
    # the symbol at points adds its w2 block
    pts = np.linspace(-0.9, 0.9, 2 * (rows.stop - rows.start))[:, None]
    assert peak(lambda: fs.delta_at_points(spec, g, pts, -0.5)) <= 4.25 * block + (256 << 10)


@pytest.mark.parametrize("text, expected", [
    ('a { b { c = 1 } d = "s" } e { }', {"a": {"b": {"c": 1.0}, "d": "s"}, "e": {}}),
    ("k = 1\nk = 2\ns { x = 1 }\ns { y = 2 }", {"k": 2.0, "s": {"y": 2.0}}),
    ("v = 1, -2.5 ,3e2\nw = 4", {"v": [1.0, -2.5, 300.0], "w": 4.0}),
    ("a = 1# note\nb#\n= 2#y\n", {"a": 1.0, "b": 2.0}),
    ('e = "x +\n  y # kept"', {"e": "x +\n  y # kept"}),
    ("a\fb = 1\r\n\tc = 2", {"a\fb": 1.0, "c": 2.0}),
    ('a = "x', "unterminated string"),
    ("a = 1 }", "unbalanced '}'"),
    ("a { b { c = 1 }", "unbalanced '{'"),
    ("{ a = 1 }", "expected key"),
    ("a = {", "bad value"),
], ids=["nested", "repeated-key", "comma-list", "hash-ends-word", "multiline-string",
        "form-feed-in-word", "unterminated-string", "unbalanced-close", "unbalanced-open",
        "open-for-key", "open-for-value"])
def test_parse_config_grammar(text, expected):
    if isinstance(expected, str):
        with pytest.raises(fs.ModelError, match=expected):
            config._parse_config(text)
    else:
        assert config._parse_config(text) == expected


def test_config_rejects_unknown_names(tmp_path):
    cfg = """
domain { d = 1  a = 1.0 }
functions {
  w0 = 0.0
  v0 = 0.0
  w1 { expr = "EXPR" }
  v1 = 0.0
  w2 = 1.0
}
"""
    path = tmp_path / "evil.cfg"
    # a second argument would be numpy's output array: cos(x, x) overwrites x;
    # a negative constant to a fractional power folds to a complex number
    for expr in ("__import__", "cos(x, x)", "sqrt()", "sin", "(-8)**(1/3)", "x + (-pi) ** 0.5",
                 "1 / (0 * pi)"):
        path.write_text(cfg.replace("EXPR", expr))
        with pytest.raises(fs.ModelError):
            fs.load_model(path)


def _expr_config(expr):
    return ("domain { d = 1  a = 1.0 }\nfunctions {\n  w0 = 0\n  v0 = 0\n  w1 = 1\n  v1 = 0\n"
            f'  w2 {{ expr = "{expr}" }}\n}}\n')


def _balanced_sum(terms):
    if terms == 1:
        return "x * y"
    return f"({_balanced_sum(terms // 2)} + {_balanced_sum(terms - terms // 2)})"


def test_long_expression_is_refused_before_it_is_parsed(monkeypatch):
    expr = _balanced_sum(2**12)       # about 45k characters, each of them parseable
    assert len(expr) > config.MAX_EXPR_CHARS
    parsed = []
    parse = config.ast.parse
    monkeypatch.setattr(config.ast, "parse",
                        lambda text, *args, **kw: parsed.append(text) or parse(text, *args, **kw))
    with pytest.raises(fs.ModelError, match="characters") as info:
        fs.model_from_config(_expr_config(expr))
    assert expr not in parsed
    assert expr[:60] in str(info.value) and expr[:61] not in str(info.value)


@pytest.mark.parametrize("expr", ["x+" * 1000 + "x", "x + " * 30 + "y(x)", "(" * 300 + "x"])
def test_expression_errors_quote_at_most_60_characters(expr):
    # too deeply nested, a disallowed call, unparseable: each quotes the expression's start
    with pytest.raises(fs.ModelError) as info:
        fs.model_from_config(_expr_config(expr))
    assert expr[:60] in str(info.value) and expr[:61] not in str(info.value)
    assert len(str(info.value)) < 200


def _expr_trees(names):
    leaves = st.sampled_from([*names, "0.5", "2", "3", "pi", "1e308"])

    def extend(inner):
        ops, funcs = st.sampled_from("+-*/"), st.sampled_from(sorted(config._EXPR_FUNCS))
        return st.one_of(
            st.tuples(inner, ops, inner).map("({0[0]} {0[1]} {0[2]})".format),
            inner.map("-({})".format),
            st.tuples(funcs, inner).map("{0[0]}({0[1]})".format),
            st.tuples(inner, st.sampled_from(["2", "0.5", "-1", "3"])).map("({0[0]}) ** {0[1]}".format),
            inner.map("2 ** ({})".format))

    return st.recursive(leaves, extend, max_leaves=12)


_EXPR_VARS = {1: (("x",), ("y",)), 2: (("x1", "x2"), ("y1", "y2"))}
_expr_values = st.one_of(st.sampled_from([-0.0, 0.0, math.inf, -math.inf, math.nan, 1e-310]),
                         st.floats(-4.0, 4.0))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), d=st.sampled_from([1, 2]))
def test_in_place_expressions_equal_the_plain_evaluation_bit_for_bit(data, d):
    # x variables are views of (B, 1, d) points and y variables of (1, N, d)
    # points, as _function_entry passes them, so each operation broadcasts
    # the way a row block does; the rewrite writes only into its temporaries
    xnames, ynames = _EXPR_VARS[d]
    text = data.draw(_expr_trees(xnames + ynames))
    try:
        fn = config._compile_expr(text, xnames + ynames)
    except fs.ModelError:             # constant arithmetic that fails, as in the oracle
        return
    X = np.array(data.draw(st.lists(_expr_values, min_size=3 * d, max_size=3 * d))).reshape(3, 1, d)
    Y = np.array(data.draw(st.lists(_expr_values, min_size=4 * d, max_size=4 * d))).reshape(1, 4, d)
    before = X.tobytes() + Y.tobytes()
    kwargs = {**{n: X[..., k] for k, n in enumerate(xnames)},
              **{n: Y[..., k] for k, n in enumerate(ynames)}}
    with np.errstate(all="ignore"):
        got = np.asarray(fn(**kwargs))
        want = np.asarray(plain_expr(text, xnames + ynames)(**kwargs))
    assert (got.shape, got.dtype) == (want.shape, want.dtype), text
    assert got.tobytes() == want.tobytes(), text
    assert X.tobytes() + Y.tobytes() == before, text


_config_keys = st.sampled_from(["domain", "functions", "d", "a", "w0", "v0", "w1", "v1", "w2",
                                "expr", "table", "epsilon", "t0", "name"])
_config_values = st.one_of(
    st.lists(st.sampled_from(["0", "1", "2", "1.5", "-1", "nan", "inf", "1e999"]),
             min_size=1, max_size=3).map(", ".join),
    st.sampled_from(['"x"', '"a"', '""', '"x * y"', '"cos(x, y)"', '"(-8)**(1/3)"',
                     '"sin(x) + pi"', '"9**9**9"', '"1/0"', '"w2.csv"']))


def _config_sections(inner):
    entry = st.one_of(st.tuples(_config_keys, _config_values).map(" = ".join),
                      st.tuples(_config_keys, inner).map(lambda kv: f"{kv[0]} {{ {kv[1]} }}"))
    return st.lists(entry, max_size=4).map("\n".join)


# documents that follow the grammar, ending in a stray token or not
_config_docs = st.tuples(st.recursive(_config_sections(st.just("")), _config_sections, max_leaves=12),
                         st.sampled_from(["", ",", "=", "{", "}", "# c", '"'])).map(" ".join)


@settings(max_examples=300, deadline=5000)
@given(text=st.one_of(st.text(max_size=200), _config_docs,
                      _config_docs.map(lambda tail: CONFIG_EXPR + tail)))
def test_model_from_config_returns_a_spec_or_raises_model_error(text, tmp_path_factory):
    # keys given twice take the last value, so a tail appended to a valid
    # config replaces its sections; the tables it names do not exist
    base = tmp_path_factory.getbasetemp()
    try:
        spec = fs.model_from_config(text, base_dir=base / "no-tables")
    except fs.ModelError:
        return
    assert isinstance(spec, fs.ModelSpec)


def test_negate_model_mirrors_spectrum():
    rng = np.random.default_rng(11)
    spec = random_trig_model(rng)
    neg = negate_model(spec)
    g = fs.make_grid(1, spec.a, 10)
    ev = np.linalg.eigvalsh(fs.assemble_A(fs.assemble_blocks(spec, g)))
    evn = np.linalg.eigvalsh(fs.assemble_A(fs.assemble_blocks(neg, g)))
    assert np.allclose(ev, -evn[::-1], atol=1e-12)


def test_synthetic_power_model_symbol():
    spec = synthetic_power_model(beta=2.0, gamma=1.0)
    fine = fs.make_grid(1, spec.a, 4096)
    for x in (0.2, 0.05):
        val = fs.delta_at(spec, fine, x, 0.0)
        assert abs(val - x) < 1e-5
    with pytest.raises(fs.ModelError):
        synthetic_power_model(beta=1.5)


_GRID_ENTRY_POINTS = {
    "check_assumption_a": lambda spec, g: fs.check_assumption_a(spec, g),
    "mesh_samples": lambda spec, g: fs.model.mesh_samples(spec, g),
    "delta_values": lambda spec, g: fs.delta_values(spec, g, -1.0),
    "delta_at_points": lambda spec, g: fs.delta_at_points(spec, g, np.zeros((1, 1)), -1.0),
    "delta_at_points slope": lambda spec, g: fs.delta_at_points(
        spec, g, np.zeros((1, 1)), -1.0, slope=True),
    "estimate_exponents": lambda spec, g: fs.estimate_exponents(spec, g, None, np.zeros(1)),
    "essential_spectrum": lambda spec, g: fs.essential_spectrum(spec, g),
    "hs_norm_t": lambda spec, g: fs.hs_norm_t(spec, g, -1.0),
    "finiteness_verdict": lambda spec, g: fs.finiteness_verdict(
        spec, [fs.make_grid(1, spec.a, 4), fs.make_grid(1, spec.a, 8), g], None),
    "discrete_spectrum_below": lambda spec, g: fs.discrete_spectrum_below(spec, g, 0.0),
    "birman_schwinger_check": lambda spec, g: fs.birman_schwinger_check(spec, g, -1.0),
}


@pytest.mark.parametrize("entry", sorted(_GRID_ENTRY_POINTS))
@pytest.mark.parametrize("d, a", [(1, 1.0), (1, 2.0 * math.pi), (2, math.pi)])
def test_a_grid_of_another_cube_is_refused(mnr, entry, d, a):
    # on mnr-infinite (a = pi) a grid on (-1, 1) read m = 0.0039 and M = 3.415,
    # and a d = 2 grid failed in an unrelated matmul
    with pytest.raises(ValueError, match="does not match the model's cube"):
        _GRID_ENTRY_POINTS[entry](mnr, fs.make_grid(d, a, 8))
