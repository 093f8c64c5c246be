"""fockspectra benchmark: CLI workloads run as subprocesses, end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --write-reference

Run from the root of a checkout.  Every command is a fresh
``python -m fockspectra.cli`` process, so interpreter start and the
numpy/scipy import count the way users pay them.  A run repeats its
workload's command sequence (a "pass") until ``--seconds`` have elapsed and
reports medians over the passes.  Every output is checked (see checks.py); a
command fails when it exits non-zero or fails a check, and failures are
counted, never retried.

``--trace 0`` reports the end-to-end metrics:
  wall_s       sum over the workload's commands of each command's median wall
               time over the passes
  setup_s      median wall time of fresh interpreters (SETUP_REPS_PER_PASS before
               each pass) that only ``import fockspectra`` and ``load_model``
               the workload's models
  peak_rss_mb  largest max-RSS of any single command in the run (os.wait4)

``--trace 1`` runs each command twice, untraced and traced (tracer.py), in
separate processes, and reports per-layer metrics from the traced spans.

The last line of stdout is the JSON result; the lines before it give the
provenance and the per-command medians.  The seed draws the bs-check sweep
endpoints and the singular-sequence centre; nothing else is random.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from checks import D2_BOTH, D2_EMPTY  # noqa: E402
from tracer import LAYERS  # noqa: E402

WORKDIR = ROOT / ".bench_work"
REFERENCE = HERE / "reference.json"
# Setup interpreters per pass; spreading them over the run keeps one slow
# moment of the machine from setting setup_s.
SETUP_REPS_PER_PASS = 1
# Untraced runs make at least this many passes, so per-command medians drop
# one stalled pass.
MIN_PASSES = 3
# No pass starts after this many seconds, and any child still running this
# long after the run began is killed, so a run ends inside 180 s.
PASS_START_LIMIT_S = 120.0
RUN_DEADLINE_S = 170.0

# Arguments drawn from the seed; commands with them have no committed reference.
SEEDED = {"bs-check", "singular-seq"}


def _sweep(rng: random.Random, lo: float, hi: float, count: int = 16) -> str:
    mid = 0.5 * (lo + hi)
    return f"--z-sweep={rng.uniform(lo, mid)!r}:{rng.uniform(mid, hi)!r}:{count}"


def _centre(rng: random.Random) -> str:
    return f"--x0={rng.uniform(-0.5, 0.5)!r},{rng.uniform(-0.5, 0.5)!r}"


# Why each workload exists, and which layers it isolates, is in NOTES.md.
WORKLOADS = {
    # One large dense (N+P) eigensolve per side; no bisection or shell work.
    "dense-discrete": lambda rng: [
        ["discrete", "--model", "mnr-infinite", "--n", "80", "--side", "both"],
        ["discrete", "--model", "sigma2-empty", "--n", "64", "--side", "both"],
    ],
    # Many moderate solves: every z re-assembles and re-solves the same A.
    # mnr-infinite's window overlaps its eigenvalues -0.0142 and -0.0017.
    "bs-sweep": lambda rng: [
        ["discrete", "--model", "mnr-infinite", "--n", "48", "--side", "below"],
        ["bs-check", "--model", "mnr-infinite", "--n", "48", _sweep(rng, -0.03, -5e-4)],
        ["discrete", "--model", "sigma2-empty", "--n", "48", "--side", "below"],
        ["bs-check", "--model", "sigma2-empty", "--n", "48", _sweep(rng, -1.0, -0.01)],
    ],
    # Symbol sampling and bisection, no dense eigensolve; d=1 runs are import-bound.
    "essspec": lambda rng: [
        ["essspec", "--model", D2_BOTH, "--n", "32"],
        ["essspec", "--model", D2_EMPTY, "--n", "48"],
        ["essspec", "--model", "mnr-infinite", "--n", "256"],
        ["essspec", "--model", "sigma2-empty", "--n", "256"],
    ],
    # The only workload that reaches the finiteness and verify layers.
    "finiteness": lambda rng: [
        ["finiteness", "--model", D2_EMPTY, "--n", "16", "--levels", "3"],
        ["finiteness", "--model", "sigma2-empty", "--n", "32", "--levels", "3"],
        ["singular-seq", "--model", D2_EMPTY, "--n", "16", "--n-max", "8", _centre(rng)],
    ],
}


def child_env() -> dict:
    """Environment of every child: package on the path, BLAS pinned to nproc threads.

    FOCKSPECTRA_THREADS alone does not reach BLAS under the CLI, because the
    package imports numpy before cli.main() copies it into the BLAS variables.
    """
    nproc = str(len(os.sched_getaffinity(0)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "FOCKSPECTRA_THREADS"):
        env[var] = nproc
    return env


def spawn(argv: list, env: dict, deadline: float, stderr_path: Path) -> tuple[int, float, float]:
    """Run one child to completion: (exit code, wall seconds, max RSS in MB).

    The child's own max-RSS comes from os.wait4, not from the cumulative
    RUSAGE_CHILDREN high-water mark.  A child still running at ``deadline``
    (a time.monotonic() value) is killed and reported with exit code -9.
    """
    with open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def _stderr_tail(path: Path) -> str:
    lines = path.read_text(errors="replace").strip().splitlines()
    return lines[-1] if lines else ""


class Run:
    """State of one benchmark run: counts, failures, context for checks."""

    def __init__(self, workload: str, seed: int, env: dict, builtins: dict, reference: dict):
        self.cmds = WORKLOADS[workload](random.Random(seed))
        self.env = env
        self.builtins = builtins
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.problems: list = []

    def fail(self, args: list, problems: list) -> None:
        self.failed += 1
        self.problems.append(f"{' '.join(args)}: " + "; ".join(problems[:5]))

    def check(self, args: list, out_dir: Path, ctx: dict) -> list:
        problems = checks.check_command(args, out_dir, ctx, self.builtins)
        key = " ".join(args)
        if args[0] not in SEEDED:
            if key in self.reference:
                problems += checks.compare(checks.snapshot(out_dir), self.reference[key])
            else:
                problems.append("no committed reference for this command")
        return problems

    def untraced_pass(self, pass_dir: Path, deadline: float) -> tuple[list, float]:
        """One pass of plain CLI subprocesses: wall time of each command, and peak RSS."""
        ctx, walls, peak = {}, [], 0.0
        for i, args in enumerate(self.cmds):
            out = pass_dir / f"c{i}"
            self.attempted += 1
            rc, wall, rss = spawn([sys.executable, "-m", "fockspectra.cli", *args,
                                   "--out", str(out)], self.env, deadline, pass_dir / f"c{i}.err")
            walls.append(wall)
            peak = max(peak, rss)
            if rc != 0:
                self.fail(args, [f"exit {rc}: {_stderr_tail(pass_dir / f'c{i}.err')}"])
                continue
            problems = self.check(args, out, ctx)
            if problems:
                self.fail(args, problems)
        return walls, peak

    def traced_pass(self, pass_dir: Path, deadline: float, index: int) -> dict:
        """One pass where every command runs untraced and traced, in-process under tracer.py.

        The first process after a pause runs slower (on the measuring machine,
        0.25 s of work took 1 s), so the pass starts with one discarded run of
        its first command, and the order of the two runs alternates from
        command to command and pass to pass.  Either bias would otherwise
        land in trace.overhead_frac.
        """
        spawn([sys.executable, "-m", "fockspectra.cli", *self.cmds[0], "--out",
               str(pass_dir / "warm-up")], self.env, deadline, pass_dir / "warm-up.err")
        ctx, records = {}, []
        for i, args in enumerate(self.cmds):
            runs = {}
            for mode in (("untraced", "traced"), ("traced", "untraced"))[(i + index) % 2]:
                out = pass_dir / f"c{i}-{mode}"
                summary = pass_dir / f"c{i}-{mode}.json"
                flag = ["--traced"] if mode == "traced" else []
                self.attempted += 1
                rc, _, _ = spawn([sys.executable, str(HERE / "tracer.py"), str(summary), *flag,
                                  "--", *args, "--out", str(out)],
                                 self.env, deadline, pass_dir / f"c{i}-{mode}.err")
                if rc != 0:
                    self.fail(args, [f"{mode} tracer exit {rc}: "
                                     f"{_stderr_tail(pass_dir / f'c{i}-{mode}.err')}"])
                    continue
                runs[mode] = json.loads(summary.read_text())
                if runs[mode]["rc"] != 0:
                    self.fail(args, [f"{mode} exit {runs[mode]['rc']}: "
                                     f"{_stderr_tail(pass_dir / f'c{i}-{mode}.err')}"])
            if "untraced" in runs and runs["untraced"]["rc"] == 0:
                problems = self.check(args, pass_dir / f"c{i}-untraced", ctx)
                if problems:
                    self.fail(args, ["untraced: " + "; ".join(problems)])
            if all(mode in runs and runs[mode]["rc"] == 0 for mode in ("untraced", "traced")):
                t = runs["traced"]
                problems = [f"traced {name} differs from untraced" for name in
                            _differing_files(pass_dir / f"c{i}-untraced", pass_dir / f"c{i}-traced")]
                if t["missing"] or t["unwrapped"]:
                    problems.append(f"tracer missing {t['missing']}, unwrapped {t['unwrapped']}")
                if problems:
                    self.fail(args, problems)
            if len(runs) == 2:
                records.append((args, runs["untraced"], runs["traced"]))
        return layer_metrics(records)


def _differing_files(a: Path, b: Path) -> list:
    names = sorted({p.name for p in a.iterdir()} | {p.name for p in b.iterdir()})
    return [n for n in names
            if not ((a / n).is_file() and (b / n).is_file()
                    and (a / n).read_bytes() == (b / n).read_bytes())]


# Per-layer metrics beyond <layer>.calls and <layer>.self_s, with their units.
EXTRA_LAYER_METRICS = {
    "spectra.eigvals_hermitian.dim_max": "dim",
    "spectra.eigvals_hermitian.gflop": "GFLOP_computed",
    "spectra.eigvals_hermitian.a_sized_calls": "count",
    "operators.assemble_A.mb": "MB_computed",
    "spectra.essential_spectrum.rss_hwm_mb": "MB",
    "model.mesh_samples.misses": "count",
    "model.mesh_samples.rss_hwm_mb": "MB",
    "cli.import_s": "s",
    "trace.overhead_frac": "fraction",
    "trace.span_cost_frac": "frac_computed",
    "process.threads": "count",
    "process.blas_threads": "count",
}


def layer_names() -> dict:
    units = {}
    for mod, fnames in LAYERS.items():
        for fname in fnames:
            units[f"{mod}.{fname}.calls"] = "count"
            units[f"{mod}.{fname}.self_s"] = "s"
    units.update(EXTRA_LAYER_METRICS)
    return units


def layer_metrics(records: list) -> dict:
    """Per-layer values of one traced pass, from (args, untraced, traced) summaries.

    Self time is a span's duration minus the durations of its child spans
    (calls are synchronous, so children tile part of their parent).
    dim_max, gflop (sum of 4/3 D^3) and mb (D^2 * itemsize) are computed from
    array shapes, not measured.
    """
    vals = {name: 0 if unit in ("count", "dim") else 0.0 for name, unit in layer_names().items()}
    untraced_s = traced_s = span_cost_s = 0.0
    imports, threads, blas = [], [], []
    for _, untraced, traced in records:
        untraced_s += untraced["main_s"]
        traced_s += traced["main_s"]
        imports.append(traced["import_s"])
        threads.append(traced["os_threads"])
        blas += traced["blas_threads"]
        spans = traced["spans"]
        span_cost_s += len(spans) * traced["span_cost_s"]
        child_s = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_s[parent] += end - start
        a_dims = {s[4]["dim"] for s in spans if s[0] == "operators.assemble_A"}
        for (name, start, end, _, attrs), inner in zip(spans, child_s):
            vals[f"{name}.calls"] += 1
            vals[f"{name}.self_s"] += (end - start) - inner
            if name == "spectra.eigvals_hermitian":
                dim = attrs["dim"]
                vals[f"{name}.dim_max"] = max(vals[f"{name}.dim_max"], dim)
                vals[f"{name}.gflop"] += 4.0 / 3.0 * dim**3 / 1e9
                vals[f"{name}.a_sized_calls"] += dim in a_dims
            elif name == "operators.assemble_A":
                vals[f"{name}.mb"] = max(vals[f"{name}.mb"], attrs["bytes"] / 1e6)
            if "rss_rise_mb" in attrs:
                key = f"{name}.rss_hwm_mb"
                vals[key] = max(vals[key], attrs["rss_rise_mb"])
            if "miss" in attrs:
                vals[f"{name}.misses"] += attrs["miss"]
    vals["cli.import_s"] = statistics.median(imports) if imports else 0.0
    vals["trace.overhead_frac"] = (traced_s - untraced_s) / untraced_s if untraced_s else 0.0
    vals["trace.span_cost_frac"] = span_cost_s / traced_s if traced_s else 0.0
    vals["process.threads"] = max(threads, default=0)
    vals["process.blas_threads"] = min((b for b in blas if b is not None), default=0)
    return vals


def measure_setup(models: list, env: dict, deadline: float, work: Path) -> list:
    """Wall times of fresh interpreters that only import fockspectra and load the models."""
    code = "import fockspectra\n" + "".join(f"fockspectra.load_model({m!r})\n" for m in models)
    times = []
    for i in range(SETUP_REPS_PER_PASS):
        rc, wall, _ = spawn([sys.executable, "-c", code], env, deadline, work / f"setup{i}.err")
        if rc != 0:
            raise RuntimeError(f"setup interpreter failed: {_stderr_tail(work / f'setup{i}.err')}")
        times.append(wall)
    return times


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _proc_field(path: str, key: str) -> str:
    with open(path) as fh:
        for line in fh:
            if line.startswith(key):
                return line.split(":", 1)[1].strip()
    return "unknown"


def host_provenance(env: dict, probe: dict) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total": _proc_field("/proc/meminfo", "MemTotal:"),
        "cpu_model": _proc_field("/proc/cpuinfo", "model name"),
        "platform": platform.platform(),
        "python": probe["python"],
        "numpy": probe["numpy"],
        "scipy": probe["scipy"],
        "openblas": probe["openblas"],
        "blas_threads": [lib.get("threads") for lib in probe["openblas"]],
        "os_threads_after_import": probe["os_threads"],
        "thread_env": {k: env[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                           "MKL_NUM_THREADS", "FOCKSPECTRA_THREADS")},
        "git_commit": git_commit(),
    }


def run_probe(env: dict, deadline: float, work: Path) -> dict:
    """Import the package once (untimed warm-up) and read versions and built-in facts."""
    out = work / "probe.json"
    rc, _, _ = spawn([sys.executable, str(HERE / "tracer.py"), str(out), "--probe"],
                     env, deadline, work / "probe.err")
    if rc != 0:
        raise RuntimeError(f"cannot import fockspectra: {_stderr_tail(work / 'probe.err')}")
    return json.loads(out.read_text())


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def benchmark(opts) -> int:
    deadline = time.monotonic() + RUN_DEADLINE_S
    work = WORKDIR / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        env = child_env()
        probe = run_probe(env, deadline, work)
        print("provenance: " + json.dumps(host_provenance(env, probe), sort_keys=True))
        reference = json.loads(REFERENCE.read_text())
        run = Run(opts.workload, opts.seed, env, probe["builtins"], reference)
        models = sorted({checks.arg(a, "--model") for a in run.cmds})
        setup_times = []

        min_passes = 1 if opts.trace else MIN_PASSES
        start = time.perf_counter()
        per_pass, peak = [], 0.0
        while len(per_pass) < min_passes or (time.perf_counter() - start < opts.seconds
                                             and time.perf_counter() - start < PASS_START_LIMIT_S):
            pass_dir = work / f"pass{len(per_pass)}"
            pass_dir.mkdir()
            if opts.trace:
                per_pass.append(run.traced_pass(pass_dir, deadline, len(per_pass)))
            else:
                setup_times += measure_setup(models, env, deadline, pass_dir)
                pass_walls, pass_peak = run.untraced_pass(pass_dir, deadline)
                per_pass.append(pass_walls)
                peak = max(peak, pass_peak)
            shutil.rmtree(pass_dir)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"passes: {len(per_pass)}  ops: {run.attempted}  failed: {run.failed}  "
          f"fail_frac: {run.failed / run.attempted!r}")
    for problem in run.problems[:20]:
        print(f"FAILED {problem}")
    if opts.trace:
        units = layer_names()
        metrics = {name: metric(statistics.median(p[name] for p in per_pass), unit)
                   for name, unit in units.items()}
    else:
        # Each command's median over the passes, so one stalled pass does not
        # move the result; wall_s is the sum of these medians.
        cmd_medians = [statistics.median(ws) for ws in zip(*per_pass)]
        by_command = {}
        for walls in per_pass:
            for args, wall in zip(run.cmds, walls):
                by_command.setdefault(args[0].replace("-", "_") + "_s", []).append(wall)
        for name, ws in sorted(by_command.items()):
            print(f"{name}: {statistics.median(ws)!r} s (median of {len(ws)} invocations)")
        print("pass walls: " + json.dumps(per_pass))
        print("setup walls: " + json.dumps(setup_times))
        metrics = {
            "wall_s": metric(math.fsum(cmd_medians), "s"),
            "setup_s": metric(statistics.median(setup_times), "s"),
            "peak_rss_mb": metric(peak, "MB"),
        }
    for name, m in metrics.items():
        print(f"{name}: {m['value']!r} {m['unit']}")
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


def write_reference() -> int:
    """Record every seed-independent command's outputs as the committed reference."""
    deadline = time.monotonic() + 3600.0
    work = WORKDIR / "reference"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = child_env()
    reference = {}
    try:
        for workload in WORKLOADS:
            for args in WORKLOADS[workload](random.Random(0)):
                key = " ".join(args)
                if args[0] in SEEDED or key in reference:
                    continue
                out = work / f"c{len(reference)}"
                rc, _, _ = spawn([sys.executable, "-m", "fockspectra.cli", *args, "--out", str(out)],
                                 env, deadline, work / "err")
                if rc != 0:
                    raise RuntimeError(f"{key}: exit {rc}: {_stderr_tail(work / 'err')}")
                reference[key] = checks.snapshot(out)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(reference)} references to {REFERENCE.relative_to(ROOT)}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="record the outputs of the seed-independent commands")
    opts = parser.parse_args(argv)
    if not (ROOT / "src" / "fockspectra" / "__init__.py").is_file():
        sys.stderr.write("bench: src/fockspectra not found; run from a fockspectra checkout\n")
        return 2
    if opts.write_reference:
        return write_reference()
    if opts.workload is None:
        parser.error("--workload is required")
    try:
        return benchmark(opts)
    except (RuntimeError, OSError, ValueError) as exc:
        sys.stderr.write(f"bench: {type(exc).__name__}: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
