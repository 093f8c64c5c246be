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
invocations produce byte-identical files.  The output directory is created
only once the arguments and the model have passed their checks, so a
command refused for them creates nothing.

Each command imports the analysis modules it runs inside its handler, so a
process loads only those.  The process entry (``python -m fockspectra.cli``
or the ``fockspectra`` script, which call main() without arguments) freezes
the heap its imports left behind, numpy's above all: no garbage collection,
the one at exit included, walks those objects again.
"""

from __future__ import annotations

import argparse
import gc
import sys
from pathlib import Path

import numpy as np

from . import grid as grid_mod
from . import model as model_mod

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_ANALYSIS = 2

CLI_N_CAP = {1: 256, 2: 48}
Z_SWEEP_CAP = 1024      # most z values of one bs-check --z-sweep


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
    def __init__(self, args):
        self.out = Path(args.out)
        self.lines = [f"command: {args.command}",
                      f"model: {args.model}",
                      f"n_per_dim: {args.n}",
                      f"rule: {args.rule}"]

    def kv(self, key, value):
        self.lines.append(f"{key}: {_fmt(value)}")

    def section(self, name):
        self.lines += ["", f"== {name} =="]

    def write(self):
        text = "\n".join(self.lines) + "\n"
        (self.out / "report.txt").write_text(text)
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


def _begin(args, spec, g):
    """Create --out and open the report with its header and assumption check.

    Called once a command's own checks have passed: a refused one creates nothing.
    """
    report = _Report(args)
    try:
        report.out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"--out {args.out!r} cannot be created as a directory: {exc}") from exc
    chk = model_mod.check_assumption_a(spec, g)
    report.section("assumption-check")
    report.kv("sup_norm_2pe", chk.sup_norm_2pe)
    report.kv("sup_norm_2p4e", chk.sup_norm_2p4e)
    report.kv("w2_asymmetry", chk.w2_asymmetry)
    report.kv("passed", chk.passed)
    if not chk.passed:
        raise model_mod.ModelError(
            "Assumption A check failed: coupling norms or w2 symmetry out of bounds")
    return report, chk


def _node_columns(d: int):
    return ["x"] if d == 1 else [f"x{k}" for k in range(d)]


def _cmd_list_models(args) -> int:
    for name, bm in sorted(model_mod.builtin_models().items()):
        sys.stdout.write(f"{name}: expected {bm.expected}\n")
    return EXIT_OK


def _cmd_check_model(args) -> int:
    spec, g = _load(args)
    report, _ = _begin(args, spec, g)
    report.write()
    return EXIT_OK


def _cmd_essspec(args) -> int:
    from . import schur, spectra

    spec, g = _load(args)
    report, _ = _begin(args, spec, g)
    ess = spectra.essential_spectrum(spec, g)
    report.section("sigma1")
    report.kv("m", ess.m)
    report.kv("M", ess.M)
    report.section("sigma2")
    report.kv("left_roots", ess.left.rows.size)
    report.kv("right_roots", ess.right.rows.size)
    for lo, hi in ess.sigma2_hull:
        report.kv("hull_interval", f"[{_fmt(lo)}, {_fmt(hi)}]")
    report.section("summary")
    report.kv("sess_min", ess.sess_min)
    report.kv("sess_max", ess.sess_max)

    cols = _node_columns(spec.d)
    _write_csv(report.out / "sigma2.csv", ["side"] + cols + ["root"],
               [(name, *g.nodes[r], z) for name, side in (("left", ess.left), ("right", ess.right))
                for r, z in zip(*side)])
    zs = [ess.sess_min - 1.0, ess.sess_max + 1.0]
    vals = schur.delta_values(spec, g, zs)
    rows = [(*g.nodes[i], z, row[i]) for z, row in zip(zs, vals) for i in range(g.n)]
    _write_csv(report.out / "delta_profile.csv", cols + ["z", "delta"], rows)
    report.write()
    return EXIT_OK


def _cmd_discrete(args) -> int:
    from . import spectra

    spec, g = _load(args)
    report, _ = _begin(args, spec, g)
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
    report.write()
    return EXIT_OK


def _cmd_bs_check(args) -> int:
    from . import spectra

    if args.z is not None:
        zs = [args.z]
    else:
        try:
            lo, hi, count = args.z_sweep.split(":")
            lo, hi, count = float(lo), float(hi), int(count)
        except ValueError as exc:
            raise UsageError(f"bad --z-sweep {args.z_sweep!r}: expected lo:hi:count") from exc
        if not 1 <= count <= Z_SWEEP_CAP:
            raise UsageError(f"bad --z-sweep {args.z_sweep!r}: "
                             f"count must lie in [1, {Z_SWEEP_CAP}]")
        zs = list(np.linspace(lo, hi, count))
    if not np.all(np.isfinite(zs)):
        raise UsageError("every z must be finite")
    spec, g = _load(args)
    try:
        spectra.check_reduced_matrix_fits(spec, g)
    except spectra.MatrixTooLargeError as exc:
        raise UsageError(str(exc)) from exc
    report, _ = _begin(args, spec, g)
    report.section("counting-checks")
    results = spectra.birman_schwinger_sweep(spec, g, [float(z) for z in zs])
    header = ["z", "count_A", "count_S", "count_T", "boundary", "agree"]
    rows = [(res.z, res.count_A, res.count_S, res.count_T, res.boundary, str(res.agree).lower())
            for res in results]
    for row in rows:
        for key, value in zip(header, row):
            if key != "boundary":
                report.kv(key, value)
    _write_csv(report.out / "counting.csv", header, rows)
    report.write()
    if not all(res.agree for res in results):
        sys.stderr.write("bs-check: counting identity FAILED\n")
        return EXIT_ANALYSIS
    return EXIT_OK


def _cmd_finiteness(args) -> int:
    from . import finiteness, spectra

    if args.levels < 3:
        raise UsageError(f"--levels must be at least 3 (got {args.levels})")
    spec, g = _load(args)
    finest = 4 * CLI_N_CAP[spec.d]      # nodes per axis of --levels 3 at the --n cap
    if args.levels > (finest // args.n).bit_length():       # n 2^(levels - 1) > finest
        raise UsageError(f"--levels {args.levels} refines --n {args.n} past {finest} nodes "
                         f"per axis, the finest grid allowed for d = {spec.d}")
    report, _ = _begin(args, spec, g)
    ess = spectra.essential_spectrum(spec, g)
    t0 = finiteness.locate_t0(spec, ess)
    if t0 is None:
        report.section("minimizer")
        report.kv("t0", "not-located")
        report.write()
        sys.stderr.write("finiteness: no unique diagonal minimizer located\n")
        return EXIT_ANALYSIS
    est = finiteness.estimate_exponents(spec, g, ess, t0)
    grids = [grid_mod.make_grid(spec.d, spec.a, args.n * 2**k, args.rule)
             for k in range(args.levels)]
    fin = finiteness.finiteness_verdict(spec, grids, est)
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
    _write_csv(report.out / "exponents.csv", ["exponent", "shell_radius", "statistic"], rows)
    report.write()
    return EXIT_OK


def _cmd_singular_seq(args) -> int:
    from . import verify

    spec, g = _load(args)
    try:
        y0 = args.x0 if args.y0 is None else args.y0
        x0, y0 = (np.array([float(t) for t in s.split(",")]) for s in (args.x0, y0))
        verify.check_inputs(spec, x0, y0, args.n_max)
    except ValueError as exc:
        raise UsageError(f"bad --x0/--y0/--n-max: {exc}") from exc
    report, chk = _begin(args, spec, g)
    rows = verify.singular_sequence_norms(spec, x0, y0, args.n_max)
    report.section("singular-seq")
    out_rows = []
    for n, h12, h22 in rows:
        bound = verify.h12_decay_bound(chk.sup_norm_2pe, n, spec.d, spec.epsilon)
        out_rows.append((n, h12, h22, bound))
        report.kv("level", f"n={n} h12={_fmt(h12)} h22_shift={_fmt(h22)} bound={_fmt(bound)}")
    _write_csv(report.out / "singular_seq.csv",
               ["n", "norm_h12", "norm_h22_shift", "bound"], out_rows)
    report.write()
    return EXIT_OK


def _build_parser() -> _Parser:
    parser = _Parser(prog="fockspectra",
                     description="spectral analysis of the truncated-Fock-space operator matrix")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)
        p.add_argument("--model", required=True,
                       help="builtin name or path to a model config file")
        p.add_argument("--n", type=int, default=32, help="nodes per dimension")
        p.add_argument("--rule", choices=grid_mod.RULES, default="midpoint")
        p.add_argument("--out", default=".", help="output directory")
        return p

    command("essspec", _cmd_essspec, "essential spectrum")

    p = command("discrete", _cmd_discrete, "discrete spectrum outside the essential spectrum")
    p.add_argument("--side", choices=("below", "above", "both"), default="both")

    p = command("bs-check", _cmd_bs_check, "Birman-Schwinger counting agreement")
    z = p.add_mutually_exclusive_group(required=True)
    z.add_argument("--z", type=float)
    z.add_argument("--z-sweep", help="lo:hi:count (use --z-sweep=-1:-0.3:4 for negative lo)")

    p = command("finiteness", _cmd_finiteness, "finiteness criterion for the discrete spectrum")
    p.add_argument("--levels", type=int, default=3, help="refinement levels (>= 3)")

    p = command("singular-seq", _cmd_singular_seq, "singular sequence decay table")
    p.add_argument("--x0", required=True, help="center x0 (comma-separated coordinates)")
    p.add_argument("--y0", default=None, help="center y0, defaults to x0")
    p.add_argument("--n-max", type=int, default=6)

    command("check-model", _cmd_check_model, "validate a model's coupling norms")
    sub.add_parser("list-models", help="list builtin models").set_defaults(run=_cmd_list_models)
    return parser


def main(argv=None) -> int:
    """Run one command; argv None reads sys.argv and marks the process entry."""
    if argv is None:
        gc.freeze()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    try:
        return args.run(args)
    except UsageError as exc:
        sys.stderr.write(f"fockspectra: usage error: {exc}\n")
        return EXIT_USAGE
    except Exception as exc:  # analysis-level failure, message from the module
        sys.stderr.write(f"fockspectra: {type(exc).__name__}: {exc}\n")
        return EXIT_ANALYSIS


if __name__ == "__main__":
    sys.exit(main())
