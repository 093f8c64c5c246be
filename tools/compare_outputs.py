"""Compare the CLI outputs of two checkouts byte for byte.

    python tools/compare_outputs.py PARENT CHANGE

Runs every command of the README's CLI section, every benchmark workload
command for seeds 0 and 1 (``WORKLOADS`` in bench/run.py) and the commands of
``EXTRA`` (the dense ``discrete``/``bs-check`` legs at d = 2 and on
Gauss-Legendre nodes, a two-sided ``discrete`` with over a hundred roots
above M, ``singular-seq`` with two centres at d = 1 and d = 2 and with one
fixed centre through deep levels at d = 2, and a d = 1
model with Sigma_2 roots on both sides, ``D1_BOTH``, and ``finiteness`` on
that model, on Gauss-Legendre nodes and with more than three levels, a
d = 2 model whose v1 depends on x, ``D2_COUPLED``, that d = 1 model as
tables, ``D1_TABLE``, and one refused command per kind of refusal, so that
the exit codes and usage messages are compared too) as
``python -m fockspectra.cli`` in each checkout: from its root, with its own
``src/`` on the path, BLAS threads pinned as the benchmark pins them, and a
fresh output directory per command (``list-models`` takes no ``--out``).
The exit code, stdout, stderr (with the checkout's path and the output
directory masked) and every output file must be equal.  Prints each command
that differs, with the first SHOWN differing lines of each differing output
and the largest relative difference between the numbers of those lines, and
exits 1 if any does.
"""

from __future__ import annotations

import importlib.util
import itertools
import math
import random
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

SEEDS = (0, 1)
SHOWN = 5       # differing lines printed per differing output
NUMBER = re.compile(rb"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf")
# kept next to this tool, not in bench/models, and given by an absolute path so that
# every compared checkout reads the same file whether or not it has one of its own
D1_BOTH = str(Path(__file__).resolve().parent / "d1-sigma2-both.cfg")
D2_COUPLED = str(Path(__file__).resolve().parent / "d2-coupled.cfg")
D1_TABLE = str(Path(__file__).resolve().parent / "d1-table.cfg")

# paths that neither the README nor the benchmark runs; 0.2-2 s each, the refusals less
EXTRA = (
    ["discrete", "--model", "bench/models/d2-sigma2-both.cfg", "--n", "12", "--side", "both"],
    ["discrete", "--model", "bench/models/d2-sigma2-empty.cfg", "--n", "10", "--side", "both"],
    ["bs-check", "--model", "bench/models/d2-sigma2-both.cfg", "--n", "6", "--z-sweep=-3:-1.4:4"],
    ["discrete", "--model", "mnr-infinite", "--n", "40", "--rule", "gauss-legendre"],
    ["bs-check", "--model", "sigma2-empty", "--n", "20", "--rule", "gauss-legendre",
     "--z", "-0.5"],
    # 127 roots above M at twice the dense-discrete workload's N
    ["discrete", "--model", "sigma2-empty", "--n", "128", "--side", "both"],
    # the two-centre singular sequence (x0 != y0), at d = 1 and d = 2
    ["singular-seq", "--model", "mnr-infinite", "--n", "24", "--x0", "1.0", "--y0=-1.2",
     "--n-max", "5"],
    ["singular-seq", "--model", "bench/models/d2-sigma2-both.cfg", "--n", "8", "--x0=0.1,-0.2",
     "--y0=0.3,0.2", "--n-max", "4"],
    # one seed-independent centre at d = 2, through rings 2^-24 of the bump scale
    ["singular-seq", "--model", "bench/models/d2-sigma2-both.cfg", "--n", "8", "--x0=0,0",
     "--n-max", "24"],
    # 98 roots below m and 92 above M at n = 256, advanced by the same Newton steps
    ["essspec", "--model", D1_BOTH, "--n", "256"],
    ["discrete", "--model", D1_BOTH, "--n", "64", "--side", "both"],
    # finiteness on a d = 1 config model, on Gauss-Legendre nodes, and past --levels 3
    # at d = 1 and d = 2, inside the bound on the finest grid
    ["finiteness", "--model", D1_BOTH, "--n", "32", "--levels", "3"],
    ["finiteness", "--model", "mnr-infinite", "--n", "24", "--rule", "gauss-legendre",
     "--levels", "3"],
    ["finiteness", "--model", "mnr-infinite", "--n", "16", "--levels", "5"],
    ["finiteness", "--model", "bench/models/d2-sigma2-both.cfg", "--n", "8", "--levels", "4"],
    # every other d = 2 model's v1 ignores x: the symbol's per-block coupling at d = 2
    ["essspec", "--model", D2_COUPLED, "--n", "16"],
    ["discrete", "--model", D2_COUPLED, "--n", "10", "--side", "both"],
    ["finiteness", "--model", D2_COUPLED, "--n", "8", "--levels", "3"],
    # no other command reads a table: one-point (np.interp) and bilinear ones
    ["essspec", "--model", D1_TABLE, "--n", "64"],
    ["discrete", "--model", D1_TABLE, "--n", "32", "--side", "both"],
    ["bs-check", "--model", D1_TABLE, "--n", "16", "--z", "-0.11"],
    ["finiteness", "--model", D1_TABLE, "--n", "16", "--levels", "3"],
    # refusals, in well under a second each: the exit code and stderr of argparse's
    # errors and of the checks before and after the model loads
    ["bs-check", "--model", "mnr-infinite", "--n", "8", "--z", "nan"],
    ["bs-check", "--model", "mnr-infinite", "--n", "8"],
    ["bs-check", "--model", "mnr-infinite", "--n", "8", "--z", "-0.5", "--z-sweep=-1:-0.5:4"],
    ["bs-check", "--model", "mnr-infinite", "--n", "8", "--z-sweep=-1:-0.5:0"],
    ["finiteness", "--model", "mnr-infinite", "--n", "16", "--levels", "2"],
    ["finiteness", "--model", "mnr-infinite", "--n", "16", "--levels", "8"],
    ["essspec", "--model", "mnr-infinite", "--n", "257"],
    ["essspec", "--model", "no-such-model"],
    ["singular-seq", "--model", "mnr-infinite", "--n", "8", "--x0", "4.0"],
    ["bs-check", "--model", "bench/models/d2-sigma2-both.cfg", "--n", "48", "--z", "-2"],
)


def _bench_run(tree: Path):
    """bench/run.py of a checkout as a module, writing no bytecode under bench/."""
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec = importlib.util.spec_from_file_location("bench_run", tree / "bench" / "run.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def _without_out(argv: list) -> list:
    i = argv.index("--out") if "--out" in argv else len(argv)
    return argv[:i] + argv[i + 2:]


def readme_commands(tree: Path) -> list:
    """The argv of each ``fockspectra`` line of the README's CLI block, without --out."""
    text = (tree / "README.md").read_text()
    block = re.search(r"^## CLI\n.*?^```sh\n(.*?)^```", text, re.M | re.S).group(1)
    return [_without_out(shlex.split(line)[1:]) for line in block.splitlines()
            if line.startswith("fockspectra ")]


def commands(tree: Path) -> list:
    """The README commands, each workload's commands for SEEDS, then EXTRA, each once."""
    workloads = _bench_run(tree).WORKLOADS
    cmds = readme_commands(tree) + [argv for make in workloads.values() for seed in SEEDS
                                    for argv in make(random.Random(seed))] + list(EXTRA)
    return [list(argv) for argv in dict.fromkeys(map(tuple, cmds))]


def _run(tree: Path, env: dict, argv: list, out: Path) -> dict:
    """One command in one checkout: exit code, stdout, masked stderr and output files."""
    extra = [] if argv[0] == "list-models" else ["--out", str(out)]
    proc = subprocess.run([sys.executable, "-m", "fockspectra.cli", *argv, *extra], cwd=tree,
                          env=env, capture_output=True, timeout=600)
    files = {str(p.relative_to(out)): p.read_bytes()
             for p in sorted(out.rglob("*")) if p.is_file()} if out.exists() else {}
    stderr = proc.stderr.replace(str(out).encode(), b"<out>").replace(str(tree).encode(), b"<tree>")
    return {"exit code": proc.returncode, "stdout": proc.stdout, "stderr": stderr, "files": files}


def _as_bytes(output) -> bytes:
    """An exit code, stream or file as bytes; a file missing in one checkout is empty."""
    if output is None:
        return b""
    return output if isinstance(output, bytes) else str(output).encode()


def explain(old: bytes, new: bytes) -> list:
    """The first SHOWN differing lines of two outputs and a summary of their numbers.

    The summary is the largest relative difference |a - b| / max(|a|, |b|)
    between the numbers of the differing lines that hold equally many.
    """
    pairs = [(a, b) for a, b in itertools.zip_longest(old.splitlines(), new.splitlines(),
                                                      fillvalue=b"") if a != b]
    text = [f"    - {a.decode(errors='replace')}\n    + {b.decode(errors='replace')}"
            for a, b in pairs[:SHOWN]]
    if len(pairs) > SHOWN:
        text.append(f"    ... {len(pairs) - SHOWN} more differing lines")
    numbers = [(float(x), float(y)) for a, b in pairs
               if len(xs := NUMBER.findall(a)) == len(ys := NUMBER.findall(b))
               for x, y in zip(xs, ys)]
    diffs = [abs(x - y) / max(abs(x), abs(y)) for x, y in numbers if x != y]
    rel = max((d for d in diffs if not math.isnan(d)), default=0.0)     # nan and inf tokens
    return text + [f"    largest relative difference between numbers: {rel:.3e}"]


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        sys.stderr.write(__doc__)
        return 2
    trees = [Path(t).resolve() for t in args]
    change = trees[1]
    child_env = _bench_run(change).child_env()
    envs = [dict(child_env, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
            for tree in trees]
    cmds = commands(change)
    differ = 0
    with tempfile.TemporaryDirectory(prefix="compare-outputs-") as tmp:
        for i, argv in enumerate(cmds):
            parent, new = (_run(tree, env, argv, Path(tmp) / side / f"c{i}")
                           for tree, env, side in zip(trees, envs, ("parent", "change")))
            outputs = {k: (parent[k], new[k]) for k in parent if k != "files"}
            outputs.update((f"file {name}", (parent["files"].get(name), new["files"].get(name)))
                           for name in sorted(parent["files"].keys() | new["files"].keys()))
            fields = [k for k, (a, b) in outputs.items() if a != b]
            if fields:
                differ += 1
                print(f"DIFFERS: {shlex.join(argv)}: {', '.join(fields)}")
                for field in fields:
                    print(f"  {field}:", *explain(*map(_as_bytes, outputs[field])), sep="\n")
    print(f"{len(cmds)} commands compared, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
