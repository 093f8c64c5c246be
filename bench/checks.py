"""Output checks for the benchmark's fockspectra commands.

Two kinds of check, both independent of how the program computes its numbers:

* facts the mathematics fixes: the three Birman-Schwinger counts agree with
  no eigenvalue in the boundary band; ``count_A`` at z equals the number of
  ``discrete --side below`` eigenvalues below z at the same n (a check across
  commands); the built-ins' m and M match their declared values to the grid's
  O(h^2); models with an empty Sigma_2 report no roots; singular-sequence
  norms stay under the Hoelder decay bound;
* reference values committed in ``reference.json`` for every command whose
  arguments do not depend on the seed: integers and strings exactly, floats
  to ``|got - ref| <= FLOAT_ATOL + FLOAT_RTOL * |ref|``.  CSV files are
  compared through their row count and per-column sum, min and max.

Each check returns a list of problems; an empty list means the command passed.
"""

from __future__ import annotations

import csv
import math
import re
from pathlib import Path

FLOAT_RTOL = 1e-7
FLOAT_ATOL = 1e-9

# The benchmark's d=2 config models (paths relative to the checkout root).
D2_BOTH = "bench/models/d2-sigma2-both.cfg"
D2_EMPTY = "bench/models/d2-sigma2-empty.cfg"
# Config models whose Sigma_2 is empty by construction.
SIGMA2_EMPTY_CONFIGS = {D2_EMPTY}
# Config models whose w2 = |x|^2 + |y|^2 has its unique minimizer at the origin.
ORIGIN_MINIMIZER_CONFIGS = {D2_EMPTY}

_SPLIT = re.compile(r"[\s,:=\[\]]+")
_INT = re.compile(r"^-?\d+$")


def arg(args: list, name: str):
    """Value of ``--name value`` or ``--name=value`` in a CLI argument list."""
    for i, a in enumerate(args):
        if a == name:
            return args[i + 1]
        if a.startswith(name + "="):
            return a[len(name) + 1:]
    return None


def parse_report(text: str) -> list:
    """report.txt as (section, key, value) triples; the header has section ''."""
    section, out = "", []
    for line in text.splitlines():
        if line.startswith("== ") and line.endswith(" =="):
            section = line[3:-3]
        elif ": " in line:
            key, value = line.split(": ", 1)
            out.append((section, key, value))
    return out


def values(report: list, section: str, key: str) -> list:
    return [v for s, k, v in report if s == section and k == key]


def read_csv(path: Path) -> tuple[list, list]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def snapshot(out_dir: Path) -> dict:
    """The comparable content of one command's outputs."""
    snap = {"report.txt": (out_dir / "report.txt").read_text().splitlines()}
    for path in sorted(out_dir.glob("*.csv")):
        header, rows = read_csv(path)
        cols = {}
        for j, name in enumerate(header):
            try:
                col = [float(r[j]) for r in rows]
            except ValueError:
                continue
            cols[name] = [math.fsum(col), min(col, default=0.0), max(col, default=0.0)]
        snap[path.name] = {"rows": len(rows), "columns": cols}
    return snap


def _close(got: float, ref: float) -> bool:
    if math.isnan(ref):
        return math.isnan(got)
    if math.isinf(ref):
        return got == ref
    return abs(got - ref) <= FLOAT_ATOL + FLOAT_RTOL * abs(ref)


def _tokens_match(got: str, ref: str) -> bool:
    gt, rt = _SPLIT.split(got), _SPLIT.split(ref)
    if len(gt) != len(rt):
        return False
    for g, r in zip(gt, rt):
        if _INT.match(r) or _INT.match(g):
            if g != r:
                return False
            continue
        try:
            rf = float(r)
        except ValueError:
            if g != r:
                return False
            continue
        try:
            if not _close(float(g), rf):
                return False
        except ValueError:
            return False
    return True


def compare(snap: dict, ref: dict) -> list:
    problems = []
    if sorted(snap) != sorted(ref):
        return [f"output files {sorted(snap)} != reference {sorted(ref)}"]
    got, want = snap["report.txt"], ref["report.txt"]
    if len(got) != len(want):
        problems.append(f"report.txt has {len(got)} lines, reference {len(want)}")
    else:
        problems += [f"report.txt line {i + 1}: {g!r} != reference {w!r}"
                     for i, (g, w) in enumerate(zip(got, want)) if not _tokens_match(g, w)]
    for name in sorted(set(snap) - {"report.txt"}):
        g, w = snap[name], ref[name]
        if g["rows"] != w["rows"] or sorted(g["columns"]) != sorted(w["columns"]):
            problems.append(f"{name}: {g['rows']} rows / columns {sorted(g['columns'])} "
                            f"!= reference {w['rows']} / {sorted(w['columns'])}")
            continue
        for col, stats in g["columns"].items():
            if not all(_close(a, b) for a, b in zip(stats, w["columns"][col])):
                problems.append(f"{name}: column {col} sum/min/max {stats} "
                                f"!= reference {w['columns'][col]}")
    return problems[:20]


def _sigma1_vs_expected(report: list, args: list, builtins: dict) -> list:
    """m and M of a built-in against its declared values, within (M - m) h^2."""
    model = arg(args, "--model")
    if model not in builtins:
        return []
    info = builtins[model]
    m_exp, M_exp = info["expected"]["m"], info["expected"]["M"]
    h = 2.0 * info["a"] / int(arg(args, "--n"))
    tol = (M_exp - m_exp) * h * h
    problems = []
    for key, exp in (("m", m_exp), ("M", M_exp)):
        got = float(values(report, "sigma1", key)[0])
        if abs(got - exp) > tol:
            problems.append(f"{key} = {got!r} differs from the declared {exp!r} by more than {tol:.3e}")
    return problems


def check_command(args: list, out_dir: Path, ctx: dict, builtins: dict) -> list:
    """Implementation-independent checks of one command's outputs.

    ``ctx`` carries facts between the commands of one pass: the
    ``discrete --side below`` eigenvalues keyed by (model, n).
    """
    command, model, n = args[0], arg(args, "--model"), arg(args, "--n")
    report = parse_report((out_dir / "report.txt").read_text())
    problems = []
    if values(report, "assumption-check", "passed") != ["True"]:
        problems.append("assumption check did not pass")

    if command == "discrete":
        problems += _sigma1_vs_expected(report, args, builtins)
        for side, edge, outside in (("below", "sess_min", float.__lt__),
                                     ("above", "sess_max", float.__gt__)):
            section = f"discrete-{side}"
            counts = values(report, section, "count")
            if not counts:
                continue
            ev = [float(v) for v in values(report, section, "eigenvalue")]
            limit = float(values(report, "sigma1", edge)[0])
            if int(counts[0]) != len(ev) or ev != sorted(ev):
                problems.append(f"{section}: count {counts[0]} vs {len(ev)} sorted eigenvalues")
            if not all(outside(v, limit) for v in ev):
                problems.append(f"{section}: an eigenvalue is not outside {edge} = {limit!r}")
            if side == "below":
                ctx[(model, n)] = ev

    elif command == "bs-check":
        _, rows = read_csv(out_dir / "counting.csv")
        sweep = arg(args, "--z-sweep")
        if sweep is not None and len(rows) != int(sweep.split(":")[2]):
            problems.append(f"counting.csv has {len(rows)} rows for sweep {sweep}")
        below = ctx.get((model, n))
        if below is None:
            problems.append("no discrete --side below run at the same model and n precedes it")
        for z, c_a, c_s, c_t, boundary, agree in rows:
            if agree != "true" or boundary != "0" or not c_a == c_s == c_t:
                problems.append(f"z={z}: counts A/S/T {c_a}/{c_s}/{c_t}, "
                                f"boundary {boundary}, agree {agree}")
            if below is not None and int(c_a) != sum(v < float(z) for v in below):
                problems.append(f"z={z}: count_A {c_a} != {sum(v < float(z) for v in below)} "
                                "discrete eigenvalues below z")

    elif command == "essspec":
        problems += _sigma1_vs_expected(report, args, builtins)
        left = int(values(report, "sigma2", "left_roots")[0])
        right = int(values(report, "sigma2", "right_roots")[0])
        empty = (model in SIGMA2_EMPTY_CONFIGS
                 or builtins.get(model, {}).get("expected", {}).get("sigma2_empty", False))
        if empty and left + right:
            problems.append(f"Sigma_2 should be empty, got {left} left and {right} right roots")
        _, roots = read_csv(out_dir / "sigma2.csv")
        if len(roots) != left + right:
            problems.append(f"sigma2.csv has {len(roots)} rows for {left} + {right} roots")

    elif command == "finiteness":
        hs = [float(v.split()[1]) for v in values(report, "verdict", "hs_norm_T")]
        if len(hs) != int(arg(args, "--levels")):
            problems.append(f"{len(hs)} HS-trend levels")
        if model in ORIGIN_MINIMIZER_CONFIGS:
            t0 = [float(t) for t in values(report, "exponents", "t0")[0].split(",")]
            if max(abs(t) for t in t0) > 1e-6:
                problems.append(f"t0 = {t0} is not the origin")
            if values(report, "exponents", "gamma_hat") == ["unavailable"]:
                problems.append("gamma_hat unavailable")
            if not all(math.isfinite(v) for v in hs):
                problems.append(f"HS trend {hs} is not finite")

    elif command == "singular-seq":
        _, rows = read_csv(out_dir / "singular_seq.csv")
        levels = [int(r[0]) for r in rows]
        h12 = [float(r[1]) for r in rows]
        h22 = [float(r[2]) for r in rows]
        bound = [float(r[3]) for r in rows]
        if levels != list(range(1, int(arg(args, "--n-max")) + 1)):
            problems.append(f"levels {levels}")
        if not all(math.isfinite(a) and 0.0 <= a <= b for a, b in zip(h12, bound)):
            problems.append(f"||H12 psi_n|| {h12} exceeds the decay bound {bound}")
        if not all(b < a for a, b in zip(h22, h22[1:])):
            problems.append(f"||(H22 - z0) psi_n|| {h22} does not decrease")
    return problems
