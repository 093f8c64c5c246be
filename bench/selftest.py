"""Self-tests of the benchmark harness.  From the root of a checkout:

    PYTHONPATH=src python -m pytest bench/selftest.py -q

The file name keeps these tests out of the repository's own test collection.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run as bench  # noqa: E402
from tracer import Tracer  # noqa: E402

D2_EMPTY = bench.D2_EMPTY

# Small instances of every CLI command the workloads use.
SMALL_COMMANDS = [
    ["essspec", "--model", "mnr-infinite", "--n", "32"],
    ["discrete", "--model", "sigma2-empty", "--n", "16", "--side", "both"],
    ["bs-check", "--model", "mnr-infinite", "--n", "16", "--z-sweep=-0.5:-0.1:3"],
    ["finiteness", "--model", D2_EMPTY, "--n", "8", "--levels", "3"],
    ["singular-seq", "--model", D2_EMPTY, "--n", "8", "--n-max", "4", "--x0=0.1,-0.2"],
]


def test_no_module_keeps_an_unwrapped_original():
    import fockspectra.cli  # noqa: F401  (load every module that binds a traced name)

    tracer = Tracer().install()
    try:
        assert tracer.missing == []
        assert tracer.unwrapped_sites() == []
    finally:
        tracer.restore()
    # restore puts the originals back, so the check above can see them
    assert "fockspectra.finiteness.delta_at -> schur.delta_at" in tracer.unwrapped_sites()


@pytest.mark.parametrize("args", SMALL_COMMANDS, ids=lambda a: a[0])
def test_traced_outputs_are_byte_identical(args, tmp_path):
    env = bench.child_env()
    untraced, traced = tmp_path / "untraced", tmp_path / "traced"
    subprocess.run([sys.executable, "-m", "fockspectra.cli", *args, "--out", str(untraced)],
                   cwd=bench.ROOT, env=env, check=True, stdout=subprocess.DEVNULL)
    summary = tmp_path / "summary.json"
    subprocess.run([sys.executable, str(HERE / "tracer.py"), str(summary), "--traced", "--",
                    *args, "--out", str(traced)],
                   cwd=bench.ROOT, env=env, check=True, stdout=subprocess.DEVNULL)
    result = json.loads(summary.read_text())
    assert result["rc"] == 0 and result["missing"] == [] and result["unwrapped"] == []
    assert any(span[0] == "cli.main" for span in result["spans"])
    names = sorted(p.name for p in untraced.iterdir())
    assert names == sorted(p.name for p in traced.iterdir())
    for name in names:
        assert (untraced / name).read_bytes() == (traced / name).read_bytes(), name


def test_reference_comparison_tolerates_ulps_not_counts(tmp_path):
    (tmp_path / "report.txt").write_text("count: 2\neigenvalue: -0.0141737917831459\n")
    (tmp_path / "x.csv").write_text("z,count\n-0.5,1\n")
    ref = checks.snapshot(tmp_path)
    (tmp_path / "report.txt").write_text("count: 2\neigenvalue: -0.0141737917831460\n")
    assert checks.compare(checks.snapshot(tmp_path), ref) == []
    (tmp_path / "report.txt").write_text("count: 3\neigenvalue: -0.0141737917831459\n")
    assert checks.compare(checks.snapshot(tmp_path), ref)
    (tmp_path / "report.txt").write_text("count: 2\neigenvalue: -0.0141737\n")
    assert checks.compare(checks.snapshot(tmp_path), ref)


def test_declared_per_layer_metrics_match_the_traced_output():
    declared = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == bench.layer_names()
    assert sorted(w["name"] for w in declared["workloads"]) == sorted(bench.WORKLOADS)
