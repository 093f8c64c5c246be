"""Command-line front end: model checks, spectra, counting and report emission.

Commands
--------
essspec       essential spectrum (Sigma_1 bounds, Sigma_2 roots and hull)
discrete      eigenvalues outside the essential spectrum (below and/or above)
bs-check      three-way Birman-Schwinger counting agreement at z (or a sweep)
finiteness    exponent estimation and the finiteness verdict
singular-seq  singular-sequence decay table
check-model   coupling-norm (Assumption A style) validation
list-models   names of the built-in models

All commands write ``report.txt`` plus command-specific CSV files into the
output directory and print the report to stdout.  Exit status: 0 success,
1 usage error, 2 analysis failure.  Outputs are deterministic: identical
invocations produce byte-identical files.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import finiteness, schur, spectra, verify
from . import grid as grid_mod
from . import model as model_mod

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_ANALYSIS = 2

CLI_N_CAP = {1: 256, 2: 48}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


class UsageError(ValueError):
    pass


def _fmt(x) -> str:
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    if isinstance(x, np.integer):
        return str(int(x))
    return str(x)


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(c) for c in row) + "\n")


class _Report:
    def __init__(self, command: str, args):
        self.lines = [f"command: {command}",
                      f"model: {args.model}",
                      f"n_per_dim: {args.n}",
                      f"rule: {args.rule}"]

    def kv(self, key, value):
        self.lines.append(f"{key}: {_fmt(value)}")

    def section(self, name):
        self.lines.append("")
        self.lines.append(f"== {name} ==")

    def write(self, out_dir: Path):
        text = "\n".join(self.lines) + "\n"
        (out_dir / "report.txt").write_text(text)
        sys.stdout.write(text)


def _load(args):
    try:
        spec = model_mod.load_model(args.model)
    except model_mod.ModelError as exc:
        raise UsageError(str(exc)) from exc
    cap = CLI_N_CAP.get(spec.d)
    if cap is None:
        raise UsageError(f"the CLI supports d in {sorted(CLI_N_CAP)}; model has d = {spec.d}")
    if not 2 <= args.n <= cap:
        raise UsageError(f"--n must lie in [2, {cap}] for d = {spec.d} (got {args.n})")
    g = grid_mod.make_grid(spec.d, spec.a, args.n, args.rule)
    return spec, g


def _require_assumption_a(spec, g, report):
    chk = model_mod.check_assumption_a(spec, g)
    report.section("assumption-check")
    report.kv("sup_norm_2pe", chk.sup_norm_2pe)
    report.kv("sup_norm_2p4e", chk.sup_norm_2p4e)
    report.kv("w2_asymmetry", chk.w2_asymmetry)
    report.kv("passed", chk.passed)
    if not chk.passed:
        raise model_mod.ModelError(
            "Assumption A check failed: coupling norms or w2 symmetry out of bounds")
    return chk


def _node_columns(d: int):
    return ["x"] if d == 1 else [f"x{k}" for k in range(d)]


def _cmd_list_models(args) -> int:
    for name, bm in sorted(model_mod.builtin_models().items()):
        sys.stdout.write(f"{name}: expected {bm.expected}\n")
    return EXIT_OK


def _cmd_check_model(args, out_dir: Path) -> int:
    spec, g = _load(args)
    report = _Report("check-model", args)
    _require_assumption_a(spec, g, report)
    report.write(out_dir)
    return EXIT_OK


def _cmd_essspec(args, out_dir: Path) -> int:
    spec, g = _load(args)
    report = _Report("essspec", args)
    _require_assumption_a(spec, g, report)
    ess = spectra.essential_spectrum(spec, g)
    report.section("sigma1")
    report.kv("m", ess.m)
    report.kv("M", ess.M)
    report.section("sigma2")
    report.kv("left_roots", len(ess.left_roots))
    report.kv("right_roots", len(ess.right_roots))
    for lo, hi in ess.sigma2_hull:
        report.kv("hull_interval", f"[{_fmt(lo)}, {_fmt(hi)}]")
    report.section("summary")
    report.kv("sess_min", ess.sess_min)
    report.kv("sess_max", ess.sess_max)

    cols = _node_columns(spec.d)
    _write_csv(out_dir / "sigma2.csv", ["side"] + cols + ["root"],
               [("left" if z < ess.m else "right", *pt, z) for pt, z in ess.sigma2_roots])
    if args.delta_z:
        zs = [float(t) for t in args.delta_z.split(",")]
    else:
        zs = [ess.sess_min - 1.0, ess.sess_max + 1.0]
    vals = schur.delta_values(spec, g, zs)
    rows = [(*g.nodes[i], z, row[i]) for z, row in zip(zs, vals) for i in range(g.n)]
    _write_csv(out_dir / "delta_profile.csv", cols + ["z", "delta"], rows)
    report.write(out_dir)
    return EXIT_OK


def _cmd_discrete(args, out_dir: Path) -> int:
    spec, g = _load(args)
    report = _Report("discrete", args)
    _require_assumption_a(spec, g, report)
    ess = spectra.essential_spectrum(spec, g)
    report.section("sigma1")
    report.kv("m", ess.m)
    report.kv("M", ess.M)
    report.kv("sess_min", ess.sess_min)
    report.kv("sess_max", ess.sess_max)
    for side, solve, edge in (("below", spectra.discrete_spectrum_below, ess.sess_min),
                              ("above", spectra.discrete_spectrum_above, ess.sess_max)):
        if args.side in (side, "both"):
            ev = solve(spec, g, edge)
            report.section(f"discrete-{side}")
            report.kv("count", ev.size)
            for v in ev:
                report.kv("eigenvalue", float(v))
    report.write(out_dir)
    return EXIT_OK


def _cmd_bs_check(args, out_dir: Path) -> int:
    if (args.z is None) == (args.z_sweep is None):
        raise UsageError("bs-check needs exactly one of --z or --z-sweep")
    if args.z is not None:
        zs = [args.z]
    else:
        try:
            lo, hi, count = args.z_sweep.split(":")
            zs = list(np.linspace(float(lo), float(hi), int(count)))
        except ValueError as exc:
            raise UsageError(f"bad --z-sweep {args.z_sweep!r}: expected lo:hi:count") from exc
        if not zs:
            raise UsageError(f"bad --z-sweep {args.z_sweep!r}: count must be at least 1")
    if not np.all(np.isfinite(zs)):
        raise UsageError("every z must be finite")
    spec, g = _load(args)
    pg = grid_mod.make_pair_grid(g)
    report = _Report("bs-check", args)
    _require_assumption_a(spec, g, report)
    report.section("counting-checks")
    rows = []
    all_agree = True
    for res in spectra.birman_schwinger_sweep(spec, g, pg, [float(z) for z in zs]):
        rows.append((res.z, res.count_A, res.count_S, res.count_T, res.boundary,
                     str(res.agree).lower()))
        report.kv("z", res.z)
        report.kv("count_A", res.count_A)
        report.kv("count_S", res.count_S)
        report.kv("count_T", res.count_T)
        report.kv("agree", str(res.agree).lower())
        all_agree = all_agree and res.agree
    _write_csv(out_dir / "counting.csv",
               ["z", "count_A", "count_S", "count_T", "boundary", "agree"], rows)
    report.write(out_dir)
    if not all_agree:
        sys.stderr.write("bs-check: counting identity FAILED\n")
        return EXIT_ANALYSIS
    return EXIT_OK


def _cmd_finiteness(args, out_dir: Path) -> int:
    if args.levels < 3:
        raise UsageError(f"--levels must be at least 3 (got {args.levels})")
    spec, g = _load(args)
    if args.delta is not None and not 0.0 < args.delta < spec.a:
        raise UsageError(f"--delta must lie in (0, a) = (0, {spec.a!r}) (got {args.delta!r})")
    report = _Report("finiteness", args)
    _require_assumption_a(spec, g, report)
    ess = spectra.essential_spectrum(spec, g)
    t0 = finiteness.locate_t0(spec, g, ess)
    if t0 is None:
        report.section("minimizer")
        report.kv("t0", "not-located")
        report.write(out_dir)
        sys.stderr.write("finiteness: no unique diagonal minimizer located\n")
        return EXIT_ANALYSIS
    est = finiteness.estimate_exponents(spec, g, ess, t0, delta=args.delta)
    grids = [grid_mod.make_grid(spec.d, spec.a, args.n * 2**k, args.rule)
             for k in range(args.levels)]
    fin = finiteness.finiteness_verdict(spec, grids, ess, est)
    report.section("exponents")
    report.kv("t0", ",".join(_fmt(float(t)) for t in est.t0))
    report.kv("alpha_hat", est.alpha_hat)
    report.kv("beta_hat", est.beta_hat)
    report.kv("gamma_hat", "unavailable" if est.gamma_hat is None else est.gamma_hat)
    report.kv("fit_r2", ",".join(_fmt(float(r)) for r in est.fit_r2))
    report.kv("delta_radius", est.delta_radius)
    report.kv("critical_energy", est.e_star)
    report.section("verdict")
    report.kv("criterion_lhs", fin.criterion_lhs)
    report.kv("criterion_rhs", fin.criterion_rhs)
    report.kv("margin", fin.margin)
    report.kv("hs_cauchy", fin.hs_cauchy)
    for n_k, hs in fin.hs_trend:
        report.kv("hs_norm_T", f"n={n_k} {_fmt(hs)}")
    report.kv("integral_test_finite", fin.integral_test_finite)
    report.kv("integral_test_agrees", fin.integral_test_agrees)
    report.kv("verdict", fin.verdict)
    rows = []
    for r, a_, b_, g_ in est.shells:
        rows.append(("alpha", r, a_))
        rows.append(("beta", r, b_))
        rows.append(("gamma", r, g_))
    _write_csv(out_dir / "exponents.csv", ["exponent", "shell_radius", "statistic"], rows)
    report.write(out_dir)
    return EXIT_OK


def _cmd_singular_seq(args, out_dir: Path) -> int:
    for flag, value in (("--n-max", args.n_max), ("--quad-depth", args.quad_depth)):
        if value < 1:
            raise UsageError(f"{flag} must be at least 1 (got {value})")
    spec, g = _load(args)
    try:
        x0, y0 = (np.array([float(t) for t in s.split(",")]) for s in (args.x0, args.y0 or args.x0))
    except ValueError as exc:
        raise UsageError(f"bad --x0/--y0: {exc}") from exc
    if x0.size != spec.d or y0.size != spec.d or not np.all(np.abs(np.r_[x0, y0]) < spec.a):
        raise UsageError(f"--x0 and --y0 must each be {spec.d} coordinate(s) inside "
                         f"(-a, a) = ({-spec.a!r}, {spec.a!r})")
    report = _Report("singular-seq", args)
    chk = _require_assumption_a(spec, g, report)
    cfg = verify.SingularSeqConfig(x0=x0, y0=y0, n_max=args.n_max,
                                   quad_depth=args.quad_depth)
    rows = verify.singular_sequence_norms(spec, cfg)
    report.section("singular-seq")
    out_rows = []
    for n, h12, h22 in rows:
        bound = verify.h12_decay_bound(chk.sup_norm_2pe, n, spec.d, spec.epsilon)
        out_rows.append((n, h12, h22, bound))
        report.kv("level", f"n={n} h12={_fmt(h12)} h22_shift={_fmt(h22)} bound={_fmt(bound)}")
    _write_csv(out_dir / "singular_seq.csv",
               ["n", "norm_h12", "norm_h22_shift", "bound"], out_rows)
    report.write(out_dir)
    return EXIT_OK


def _build_parser() -> _Parser:
    parser = _Parser(prog="fockspectra",
                     description="spectral analysis of the truncated-Fock-space operator matrix")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--model", required=True,
                       help="builtin name or path to a model config file")
        p.add_argument("--n", type=int, default=32, help="nodes per dimension")
        p.add_argument("--rule", choices=("midpoint", "gauss-legendre"), default="midpoint")
        p.add_argument("--out", default=".", help="output directory")

    p = sub.add_parser("essspec", help="essential spectrum")
    common(p)
    p.add_argument("--delta-z", default=None,
                   help="comma-separated z values for the symbol profile CSV")

    p = sub.add_parser("discrete", help="discrete spectrum outside the essential spectrum")
    common(p)
    p.add_argument("--side", choices=("below", "above", "both"), default="both")

    p = sub.add_parser("bs-check", help="Birman-Schwinger counting agreement")
    common(p)
    p.add_argument("--z", type=float, default=None)
    p.add_argument("--z-sweep", default=None,
                   help="lo:hi:count (use --z-sweep=-1:-0.3:4 for negative lo)")

    p = sub.add_parser("finiteness", help="finiteness criterion for the discrete spectrum")
    common(p)
    p.add_argument("--levels", type=int, default=3, help="refinement levels (>= 3)")
    p.add_argument("--delta", type=float, default=None, help="shell radius bound in (0, a)")

    p = sub.add_parser("singular-seq", help="singular sequence decay table")
    common(p)
    p.add_argument("--x0", required=True, help="center x0 (comma-separated coordinates)")
    p.add_argument("--y0", default=None, help="center y0, defaults to x0")
    p.add_argument("--n-max", type=int, default=6)
    p.add_argument("--quad-depth", type=int, default=128)

    p = sub.add_parser("check-model", help="validate a model's coupling norms")
    common(p)

    sub.add_parser("list-models", help="list builtin models")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK

    handlers = {
        "essspec": _cmd_essspec,
        "discrete": _cmd_discrete,
        "bs-check": _cmd_bs_check,
        "finiteness": _cmd_finiteness,
        "singular-seq": _cmd_singular_seq,
        "check-model": _cmd_check_model,
    }
    try:
        if args.command == "list-models":
            return _cmd_list_models(args)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        return handlers[args.command](args, out_dir)
    except (UsageError, spectra.MatrixTooLargeError) as exc:
        sys.stderr.write(f"fockspectra: usage error: {exc}\n")
        return EXIT_USAGE
    except Exception as exc:  # analysis-level failure, message from the module
        sys.stderr.write(f"fockspectra: {type(exc).__name__}: {exc}\n")
        return EXIT_ANALYSIS


if __name__ == "__main__":
    sys.exit(main())
