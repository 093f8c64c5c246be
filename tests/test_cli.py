
import argparse
import ast
import gc
import importlib.util
import json
import os
import random
import re
import shlex
import subprocess
import sys
import types
from pathlib import Path

import pytest

import fockspectra
from fockspectra import cli, operators, spectra, verify

README = Path(__file__).resolve().parents[1] / "README.md"

NAN_CONFIG = """
domain { d = 1  a = 1.0 }
functions {
  w0 = 0.0
  v0 = 0.0
  w1 = 0.0
  v1 { expr = "sqrt(0 - 1 - x * 0 - y * 0)" }
  w2 = 1.0
}
"""

VALID_CONFIG = """
domain { d = 1  a = 1.0 }
functions {
  w0 = 0.0
  v0 = 0.0
  w1 = 1.0
  v1 { expr = "0.5 * sin(x) * cos(y)" }
  w2 { expr = "2 + x * x + y * y" }
}
"""


def _child_env():
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))


def test_list_models(capsys):
    assert cli.main(["list-models"]) == 0
    out = capsys.readouterr().out
    assert "mnr-infinite" in out and "sigma2-empty" in out


def test_check_model_ok(tmp_path):
    rc = cli.main(["check-model", "--model", "mnr-infinite", "--n", "24",
                   "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "report.txt").exists()
    cfg = tmp_path / "valid.cfg"
    cfg.write_text(VALID_CONFIG)
    assert cli.main(["check-model", "--model", str(cfg), "--out", str(tmp_path)]) == 0


def test_essspec_mnr(tmp_path, capsys):
    rc = cli.main(["essspec", "--model", "mnr-infinite", "--n", "32",
                   "--out", str(tmp_path)])
    assert rc == 0
    report = (tmp_path / "report.txt").read_text()
    assert "== sigma1 ==" in report and "== sigma2 ==" in report
    assert "sess_min" in report
    assert (tmp_path / "sigma2.csv").exists()
    assert (tmp_path / "delta_profile.csv").read_text().splitlines()[0] == "x,z,delta"


def test_essspec_profile_is_one_below_and_one_above_the_essential_spectrum(tmp_path, capsys):
    rc = cli.main(["essspec", "--model", "sigma2-empty", "--n", "16", "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "delta_profile.csv").read_text().splitlines()
    assert len(lines) == 1 + 2 * 16
    report = dict(line.split(": ") for line in (tmp_path / "report.txt").read_text().splitlines()
                  if ": " in line)
    zs = [float(report["sess_min"]) - 1.0, float(report["sess_max"]) + 1.0]
    assert [line.split(",")[1] for line in lines[1::16]] == [repr(z) for z in zs]
    assert cli.main(["essspec", "--model", "sigma2-empty", "--delta-z=-1.0,6.0"]) == 1
    assert "unrecognized arguments" in capsys.readouterr().err


def test_essspec_nan_model_exit_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(NAN_CONFIG)
    rc = cli.main(["essspec", "--model", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "Assumption A" in err


def test_bs_check_agree_line(tmp_path, capsys):
    rc = cli.main(["bs-check", "--model", "mnr-infinite", "--n", "24",
                   "--z", "-0.25", "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "agree: true" in out
    lines = (tmp_path / "counting.csv").read_text().splitlines()
    assert lines[0] == "z,count_A,count_S,count_T,boundary,agree"
    assert lines[1].endswith("true")


def test_bs_check_sweep(tmp_path):
    rc = cli.main(["bs-check", "--model", "mnr-infinite", "--n", "16",
                   "--z-sweep=-1.0:-0.3:4", "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "counting.csv").read_text().splitlines()
    assert len(lines) == 5


def test_bs_check_refuses_a_sweep_count_past_its_cap_before_building_it(tmp_path, monkeypatch,
                                                                       capsys):
    # the count is checked before np.linspace builds the z list, so no count
    # can exhaust memory; the cap itself reaches the sweep
    swept = []

    def sweep(spec, g, zs):
        swept.append(len(zs))
        return []

    monkeypatch.setattr(spectra, "birman_schwinger_sweep", sweep)
    argv = ["bs-check", "--model", "mnr-infinite", "--n", "4", "--out", str(tmp_path)]
    assert cli.main([*argv, "--z-sweep=-1:-0.5:1025"]) == 1
    assert "count must lie in [1, 1024]" in capsys.readouterr().err
    assert swept == []
    assert cli.main([*argv, "--z-sweep=-1:-0.5:1024"]) == 0
    assert swept == [1024]


@pytest.mark.parametrize("sub", ["", "sub"])
def test_an_out_that_cannot_be_a_directory_is_a_usage_error(sub, tmp_path, capsys):
    # --out naming a file, or a path below one, exits 1 before any analysis
    taken = tmp_path / "file"
    taken.write_text("")
    out = taken / sub if sub else taken
    assert cli.main(["essspec", "--model", "mnr-infinite", "--n", "8", "--out", str(out)]) == 1
    assert "usage error: --out" in capsys.readouterr().err
    assert taken.read_text() == ""


def test_discrete_command(tmp_path):
    rc = cli.main(["discrete", "--model", "mnr-infinite", "--n", "12",
                   "--out", str(tmp_path)])
    assert rc == 0
    report = (tmp_path / "report.txt").read_text()
    assert "== discrete-below ==" in report and "== discrete-above ==" in report


def test_discrete_both_sides_never_assembles_A(tmp_path, monkeypatch):
    def refuse(blocks):
        raise AssertionError("discrete assembled the dense reduced matrix")

    monkeypatch.setattr(operators, "assemble_A", refuse)
    rc = cli.main(["discrete", "--model", "mnr-infinite", "--n", "12",
                   "--side", "both", "--out", str(tmp_path)])
    assert rc == 0


def test_bs_check_sweep_eigensolves_A_once(tmp_path, monkeypatch):
    dims = []
    original = spectra.eigvals_hermitian
    monkeypatch.setattr(spectra, "eigvals_hermitian",
                        lambda matrix: dims.append(len(matrix)) or original(matrix))
    rc = cli.main(["bs-check", "--model", "mnr-infinite", "--n", "12",
                   "--z-sweep=-1.0:-0.3:16", "--out", str(tmp_path)])
    assert rc == 0
    assert len((tmp_path / "counting.csv").read_text().splitlines()) == 17
    assert dims.count(12 + 12 * 13 // 2) == 1     # N + P for N = 12


def test_bs_check_refuses_a_matrix_beyond_physical_memory(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(spectra, "_physical_memory_bytes", lambda: 10**5)
    monkeypatch.setattr(operators, "assemble_A", lambda blocks: pytest.fail("A was allocated"))
    # the dense coupling block is (N, P): the refusal must come before it too
    monkeypatch.setattr(operators, "assemble_blocks",
                        lambda *args: pytest.fail("the coupling block was allocated"))
    rc = cli.main(["bs-check", "--model", "mnr-infinite", "--n", "12",
                   "--z", "-0.25", "--out", str(tmp_path)])
    assert rc == 1
    assert "physical memory" in capsys.readouterr().err


def test_bs_check_refuses_an_oversized_matrix_before_sampling_the_grid(tmp_path, monkeypatch,
                                                                      capsys):
    # even a float64 A at the d = 2 cap needs far more than physical memory: the
    # refusal comes from the dimensions alone, before the N x N samples are built
    for module in (spectra, operators):
        monkeypatch.setattr(module, "mesh_samples", lambda *args: pytest.fail("sampled the grid"))
    model = README.parent / "bench" / "models" / "d2-sigma2-both.cfg"
    rc = cli.main(["bs-check", "--model", str(model), "--n", "48", "--z", "-2",
                   "--out", str(tmp_path)])
    assert rc == 1
    assert "physical memory" in capsys.readouterr().err


def test_config_literal_overflow_exits_1_without_hanging(tmp_path):
    # exact integer arithmetic would compute 9**9**9 for hours before overflowing
    cfg = tmp_path / "huge.cfg"
    cfg.write_text(NAN_CONFIG.replace('"sqrt(0 - 1 - x * 0 - y * 0)"', '"x * y * 9**9**9"'))
    proc = subprocess.run([sys.executable, "-m", "fockspectra.cli", "check-model",
                           "--model", str(cfg), "--out", str(tmp_path / "out")],
                          capture_output=True, text=True, env=_child_env(), timeout=60)
    assert proc.returncode == 1
    assert "9**9**9" in proc.stderr


SCIPY_FREE_SCRIPT = """
import sys
from fockspectra import cli
for argv in {argvs!r}:
    assert cli.main(argv) == 0, argv
print(sorted(m for m in sys.modules if m.startswith("scipy") or (m + ".").startswith("numpy.ma.")))
"""


def test_analysis_commands_load_no_scipy(tmp_path):
    # every command runs without importing scipy or numpy.ma (10-15 ms a
    # process, which np.median pays): essspec and discrete (whose four
    # Sigma_2 roots above M on mnr-infinite take the hull's median gap),
    # bs-check (one z and a sweep), finiteness (d = 1 and the d = 2 cluster
    # check), singular-seq, check-model and list-models
    cfg = tmp_path / "d2.cfg"
    cfg.write_text('domain { d = 2  a = 1 }\nfunctions {\n  w0 = 0\n  v0 = 0\n'
                   '  w1 { expr = "1 + 0.1 * (x1 * x1 + x2 * x2)" }\n'
                   '  v1 { expr = "0.5 * (y1 * y1 + y2 * y2)" }\n'
                   '  w2 { expr = "x1 * x1 + x2 * x2 + y1 * y1 + y2 * y2" }\n}\n')
    out = str(tmp_path / "out")
    argvs = [
        ["essspec", "--model", "mnr-infinite", "--n", "16", "--out", out],
        ["discrete", "--model", "mnr-infinite", "--n", "16", "--side", "both", "--out", out],
        ["bs-check", "--model", "mnr-infinite", "--n", "16", "--z", "-0.25", "--out", out],
        ["bs-check", "--model", "mnr-infinite", "--n", "12", "--z-sweep=-1:-0.2:5", "--out", out],
        ["finiteness", "--model", "sigma2-empty", "--n", "8", "--levels", "3", "--out", out],
        ["finiteness", "--model", str(cfg), "--n", "4", "--levels", "3", "--out", out],
        ["singular-seq", "--model", "mnr-infinite", "--n", "16", "--x0", "1.0",
         "--n-max", "3", "--out", out],
        ["check-model", "--model", "mnr-infinite", "--n", "16", "--out", out],
        ["list-models"],
    ]
    proc = subprocess.run([sys.executable, "-c", SCIPY_FREE_SCRIPT.format(argvs=argvs)],
                          capture_output=True, text=True, env=_child_env(), timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


LOADED_MODULES_SCRIPT = """
import sys
{code}
print(" ".join(sorted(m.removeprefix("fockspectra.") for m in sys.modules
                      if m.split(".")[0] == "fockspectra")))
"""

CLI_BASE = {"fockspectra", "cli", "model", "blocks", "grid", "config"}


LOAD_CASES = [
    ("import fockspectra; fockspectra.load_model('mnr-infinite')",
     {"fockspectra", "model", "blocks", "config"}),
    ("import fockspectra; fockspectra.load_model(CFG)",
     {"fockspectra", "model", "blocks", "config"}),
    (["list-models"], CLI_BASE),
    (["check-model", "--model", "mnr-infinite", "--n", "8"], CLI_BASE),
    (["check-model", "--model", "CFG", "--n", "8"], CLI_BASE),
    (["essspec", "--model", "mnr-infinite", "--n", "8"], CLI_BASE | {"spectra", "schur"}),
    (["discrete", "--model", "mnr-infinite", "--n", "8"], CLI_BASE | {"spectra", "schur"}),
    (["bs-check", "--model", "mnr-infinite", "--n", "6", "--z", "-0.25"],
     CLI_BASE | {"spectra", "schur", "operators"}),
    (["finiteness", "--model", "sigma2-empty", "--n", "8"],
     CLI_BASE | {"spectra", "schur", "finiteness"}),
    (["singular-seq", "--model", "mnr-infinite", "--n", "8", "--x0", "1.0", "--n-max", "2"],
     CLI_BASE | {"verify"}),
]


@pytest.mark.parametrize("path, expected", [
    pytest.param(path, expected, id=path if isinstance(path, str) else " ".join(path))
    for path, expected in LOAD_CASES])
def test_each_path_loads_only_the_modules_it_runs(path, expected, tmp_path):
    # names, not times: essspec, discrete and bs-check load neither finiteness
    # nor verify, singular-seq none of spectra, schur and finiteness, and the
    # config language loads for every model, a built-in one included
    cfg = tmp_path / "valid.cfg"
    cfg.write_text(VALID_CONFIG)
    if isinstance(path, str):
        code = path.replace("CFG", repr(str(cfg)))
    else:
        argv = [str(cfg) if a == "CFG" else a for a in path]
        if argv[0] != "list-models":
            argv += ["--out", str(tmp_path / "out")]
        code = f"from fockspectra import cli\nassert cli.main({argv!r}) == 0"
    proc = subprocess.run([sys.executable, "-c", LOADED_MODULES_SCRIPT.format(code=code)],
                          capture_output=True, text=True, env=_child_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert set(proc.stdout.splitlines()[-1].split()) == expected


# prints how many threads a command starts (only map_blocks starts any) and
# whether it imported concurrent.futures
COUNT_HELPERS_SCRIPT = """\
import sys, threading
from fockspectra import blocks, cli
blocks._cpu_count = lambda: 2
starts = []
start = threading.Thread.start
threading.Thread.start = lambda self: (starts.append(self.name), start(self))[1]
assert cli.main({argv!r}) == 0
print(len(starts), 'concurrent.futures' in sys.modules)
"""


def _count_helpers(argv):
    proc = subprocess.run([sys.executable, "-c", COUNT_HELPERS_SCRIPT.format(argv=argv)],
                          capture_output=True, text=True, env=_child_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    helpers, futures = proc.stdout.splitlines()[-1].split()
    return int(helpers), futures == "True"


@pytest.mark.parametrize("model, n", [("mnr-infinite", "80"), ("sigma2-empty", "64")])
def test_d1_discrete_starts_no_block_pool(model, n, tmp_path):
    # every kernel of d = 1 discrete fits in one row block, so no helper
    # thread and none of the freed blocks they leave behind appear; two CPUs
    # are claimed so that helpers would start on any machine
    argv = ["discrete", "--model", model, "--n", n, "--side", "both", "--out", str(tmp_path)]
    assert _count_helpers(argv) == (0, False)


def test_d2_finiteness_imports_no_concurrent_futures(tmp_path):
    # its shell statistics and HS trend map many row blocks on helper threads
    cfg = README.parent / "bench" / "models" / "d2-sigma2-empty.cfg"
    argv = ["finiteness", "--model", str(cfg), "--n", "16", "--levels", "3", "--out", str(tmp_path)]
    helpers, futures = _count_helpers(argv)
    assert helpers > 0 and not futures


@pytest.mark.parametrize("argv, rc", [
    pytest.param(argv, rc, id=" ".join(argv)) for argv, rc in [
        (["check-model", "--model", "mnr-infinite", "--n", "8"], 0),
        (["singular-seq", "--model", "mnr-infinite", "--x0", "1.0", "--n-max", "0"], 1),
        (["check-model", "--model", "no-such-model"], 1),
        (["essspec", "--model", "ASYMMETRIC_W2"], 2)]])
def test_process_entry_matches_main(argv, rc, tmp_path, capsys):
    # python -m fockspectra.cli freezes the heap first; its exit code, stdout,
    # stderr and files are those of an in-process main(argv), which does not
    cfg = tmp_path / "asymmetric.cfg"
    cfg.write_text(VALID_CONFIG.replace("2 + x * x + y * y", "2 + x + y * y"))
    argv = [str(cfg) if a == "ASYMMETRIC_W2" else a for a in argv]
    frozen = gc.get_freeze_count()
    assert cli.main([*argv, "--out", str(tmp_path / "in")]) == rc
    assert gc.get_freeze_count() == frozen
    inner = capsys.readouterr()
    proc = subprocess.run([sys.executable, "-m", "fockspectra.cli", *argv,
                           "--out", str(tmp_path / "entry")],
                          capture_output=True, text=True, env=_child_env(), timeout=120)
    assert proc.returncode == rc
    assert (proc.stdout, proc.stderr) == (inner.out, inner.err)
    assert (proc.stdout == "") == (rc != 0) and (proc.stderr == "") == (rc == 0)
    files = sorted(p.name for p in (tmp_path / "in").glob("*"))
    assert files == sorted(p.name for p in (tmp_path / "entry").glob("*"))
    for name in files:
        assert (tmp_path / "in" / name).read_bytes() == (tmp_path / "entry" / name).read_bytes()


ENTRY_FREEZE_SCRIPT = """
import gc, runpy, sys
sys.argv = ["fockspectra", "list-models"]
try:
    runpy.run_module("fockspectra.cli", run_name="__main__")
except SystemExit as exc:
    assert exc.code == 0, exc.code
print(gc.get_freeze_count() > 0)
"""


def test_module_entry_freezes_the_import_time_heap():
    proc = subprocess.run([sys.executable, "-c", ENTRY_FREEZE_SCRIPT],
                          capture_output=True, text=True, env=_child_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    *listing, frozen = proc.stdout.splitlines()
    assert [line.split(":")[0] for line in listing] == ["mnr-infinite", "sigma2-empty"]
    assert frozen == "True"


LAZY_NAMESPACE_SCRIPT = """
import sys
import fockspectra
assert sorted(m for m in sys.modules if m.startswith("fockspectra")) == ["fockspectra"]
spec = fockspectra.model.load_model("mnr-infinite")     # a submodule as the first access
print(spec.d, sorted(m for m in sys.modules if m.startswith("fockspectra")))
"""


def test_lazy_namespace_resolves_every_export():
    proc = subprocess.run([sys.executable, "-c", LAZY_NAMESPACE_SCRIPT],
                          capture_output=True, text=True, env=_child_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ("1 ['fockspectra', 'fockspectra.blocks', 'fockspectra.config', "
                           "'fockspectra.model']\n")
    names = dir(fockspectra)
    for name in fockspectra.__all__:
        assert name in names
        value = getattr(fockspectra, name)
        if isinstance(value, types.ModuleType):
            assert value is sys.modules[f"fockspectra.{name}"]
        elif callable(value):          # the definition in its submodule
            assert getattr(sys.modules[value.__module__], name) is value
    with pytest.raises(AttributeError):
        getattr(fockspectra, "no_such_name")


def test_finiteness_command(tmp_path):
    rc = cli.main(["finiteness", "--model", "mnr-infinite", "--n", "16",
                   "--levels", "3", "--out", str(tmp_path)])
    assert rc == 0
    report = (tmp_path / "report.txt").read_text()
    assert "verdict:" in report
    assert "finite-predicted" not in report.split("verdict:")[-1]
    lines = (tmp_path / "exponents.csv").read_text().splitlines()
    assert lines[0] == "exponent,shell_radius,statistic"


def test_finiteness_refuses_fewer_than_three_levels_before_any_work(tmp_path, monkeypatch,
                                                                     capsys):
    monkeypatch.setattr(cli.model_mod, "load_model", lambda source: pytest.fail("model loaded"))
    for levels in ("2", "0", "-1"):
        rc = cli.main(["finiteness", "--model", "sigma2-empty", "--n", "16",
                       "--levels", levels, "--out", str(tmp_path)])
        assert rc == 1
        assert "--levels must be at least 3" in capsys.readouterr().err


@pytest.mark.parametrize("model, n, levels, rc", [
    # the finest grid, n 2^(levels - 1) nodes per axis, may reach 1024 at d = 1
    # and 192 at d = 2: the finest grid of --levels 3 at the --n cap
    ("mnr-infinite", "16", "8", 1),
    ("mnr-infinite", "16", "1000000000", 1),
    ("mnr-infinite", "256", "4", 1),
    ("bench/models/d2-sigma2-both.cfg", "48", "4", 1),
    ("bench/models/d2-sigma2-both.cfg", "8", "6", 1),
    ("mnr-infinite", "16", "7", 2),                     # allowed: the analysis is reached
    ("bench/models/d2-sigma2-both.cfg", "48", "3", 2),
    ("bench/models/d2-sigma2-both.cfg", "8", "5", 2),
])
def test_finiteness_refuses_a_finest_grid_past_the_cap_run_before_any_analysis(
        model, n, levels, rc, tmp_path, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise RuntimeError("analysis reached")

    for mod, name in ((cli.model_mod, "check_assumption_a"), (spectra, "essential_spectrum")):
        monkeypatch.setattr(mod, name, refuse)
    if model.endswith(".cfg"):
        model = str(README.parent / model)
    argv = ["finiteness", "--model", model, "--n", n, "--levels", levels, "--out", str(tmp_path)]
    assert cli.main(argv) == rc
    err = capsys.readouterr().err
    assert ("past" in err and "nodes per axis" in err) if rc == 1 else "analysis reached" in err


def test_a_config_that_cannot_be_read_exits_1(tmp_path, capsys):
    binary = tmp_path / "latin1.cfg"
    binary.write_bytes(VALID_CONFIG.encode() + b"# \xb5 in Latin-1, not UTF-8\n")
    for source in (tmp_path, binary):
        with pytest.raises(fockspectra.ModelError, match="cannot read config"):
            fockspectra.load_model(source)
        rc = cli.main(["check-model", "--model", str(source), "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "usage error: cannot read config" in capsys.readouterr().err


def test_singular_seq_refuses_a_level_whose_h22_shift_cancels_to_zero(tmp_path, capsys):
    # mnr-infinite's w2 - z0 at x0 = 0 is a sum of 1 - cos t terms, which
    # cancel to 0.0 below t ~ 1e-8: from level 28 on the rows used to read
    # h22_shift=0.0, rounding presented as decay
    argv = ["singular-seq", "--model", "mnr-infinite", "--n", "16", "--x0", "0.0"]
    assert cli.main([*argv, "--n-max", "40", "--out", str(tmp_path / "a")]) == 2
    assert "exactly 0 at level n = 28 after nonzero levels" in capsys.readouterr().err
    assert cli.main([*argv, "--n-max", "27", "--out", str(tmp_path / "b")]) == 0
    assert "h22_shift=0.0 " not in (tmp_path / "b" / "report.txt").read_text()


@pytest.mark.parametrize("argv", [
    ["essspec", "--n", "1"],
    ["essspec", "--n", "0"],
    ["discrete", "--n", "-4"],
    ["singular-seq", "--x0", "1.0,2.0"],
    ["singular-seq", "--x0", "abc"],
    ["singular-seq", "--x0", "1.0", "--y0", "1.0,2.0"],
    ["singular-seq", "--x0", "1.0", "--y0", "abc"],
    ["singular-seq", "--x0", "4.0"],                    # outside Omega = (-pi, pi)
    ["singular-seq", "--x0", "1.0", "--y0=-3.5"],
    ["singular-seq", "--x0", "1.0", "--y0="],           # empty, not absent: no fallback to x0
    ["singular-seq", "--x0", "1.0", "--n-max", "0"],
    ["singular-seq", "--x0", "1.0", "--n-max", "-2"],
    # level 45 on has annulus cells narrower than the float spacing at x0 = 1
    ["singular-seq", "--x0", "1.0", "--n-max", "70"],
    # the squared bump amplitude 2^n passes the float range from level 1024 at x0 = 0
    ["singular-seq", "--x0", "0.0", "--n-max", "1060"],
    ["bs-check", "--z-sweep=-1:-0.5:0"],
    ["bs-check", "--z", "nan"],
    # a config: VALID_CONFIG with one line appended; a later key replaces an earlier one
    ["check-model", "--model", "config:epsilon = 2,"],
    ["check-model", "--model", 'config:epsilon = "x"'],
    ["check-model", "--model", "config:epsilon = 1, 2"],
    ["check-model", "--model", "config:functions = 2"],
    ["check-model", "--model", "config:domain { d = 1.5  a = 1 }"],
    ["check-model", "--model", "config:domain { d = 1  a = nan }"],
    ["check-model", "--model", "config:functions { w0 = 0 v0 = inf w1 = 1 v1 = 0 w2 = 2 }"],
    ["check-model", "--model",
     'config:functions { w0 { expr = "sqrt(0 - 1)" } v0 = 0 w1 = 1 v1 = 0 w2 = 2 }'],
    ["check-model", "--model", "config:functions { w0 { expr = 1 } v0 = 0 w1 = 1 v1 = 0 w2 = 2 }"],
    ["check-model", "--model", "config:functions { w0 = 0 v0 = 0 w1 = 1 v1 = 0 w2 { table = 3 } }"],
    ["check-model", "--model",
     'config:functions { w0 = 0 v0 = 0 w1 = 1 v1 { expr = "cos(x, y)" } w2 = 2 }'],
    ["check-model", "--model",
     'config:functions { w0 = 0 v0 = 0 w1 { expr = "x + (-8)**(1/3)" } v1 = 0 w2 = 2 }'],
], ids=" ".join)
def test_bad_numeric_arguments_exit_1_before_any_analysis(argv, tmp_path, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        pytest.fail("analysis ran before the arguments were checked")

    for mod, name in ((cli.model_mod, "check_assumption_a"), (spectra, "essential_spectrum"),
                      (verify, "singular_sequence_norms")):
        monkeypatch.setattr(mod, name, refuse)
    if argv[-1].startswith("config:"):
        cfg = tmp_path / "model.cfg"
        cfg.write_text(VALID_CONFIG + argv[-1].removeprefix("config:") + "\n")
        argv = [*argv[:-1], str(cfg)]
    rc = cli.main([argv[0], "--model", "mnr-infinite", *argv[1:], "--out", str(tmp_path)])
    assert rc == 1
    assert "usage error" in capsys.readouterr().err


def test_singular_seq_command(tmp_path):
    rc = cli.main(["singular-seq", "--model", "mnr-infinite", "--n", "24",
                   "--x0", "1.0", "--n-max", "4", "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "singular_seq.csv").read_text().splitlines()
    assert lines[0] == "n,norm_h12,norm_h22_shift,bound"
    assert len(lines) == 5
    rc = cli.main(["singular-seq", "--model", "mnr-infinite", "--n", "24",
                   "--x0", "1.0", "--y0=-1.2", "--n-max", "3",
                   "--out", str(tmp_path / "pair")])
    assert rc == 0


def test_usage_error_exit_1(capsys):
    assert cli.main(["essspec"]) == 1          # missing --model
    assert cli.main(["bs-check", "--model", "mnr-infinite"]) == 1   # no z
    assert cli.main(["essspec", "--model", "mnr-infinite", "--n", "500"]) == 1
    for flag in ("--z-lo", "--z-hi", "--bisection-tol"):     # the root search has no window
        assert cli.main(["essspec", "--model", "mnr-infinite", flag, "1e-6"]) == 1


# one command per kind of refusal: argparse's, those before the model loads and
# those after it; tools/compare_outputs.py runs each of them too
REFUSED = [
    ["bs-check", "--model", "mnr-infinite", "--n", "8", "--z", "nan"],
    ["bs-check", "--model", "mnr-infinite", "--n", "8"],
    ["bs-check", "--model", "mnr-infinite", "--n", "8", "--z", "-0.5", "--z-sweep=-1:-0.5:4"],
    ["bs-check", "--model", "mnr-infinite", "--n", "8", "--z-sweep=-1:-0.5:0"],
    ["finiteness", "--model", "mnr-infinite", "--n", "16", "--levels", "2"],
    ["finiteness", "--model", "mnr-infinite", "--n", "16", "--levels", "8"],
    ["essspec", "--model", "mnr-infinite", "--n", "257"],
    ["essspec", "--model", "no-such-model"],
    ["singular-seq", "--model", "mnr-infinite", "--n", "8", "--x0", "4.0"],
    # a reduced matrix of 105249.6 GiB, refused before the Assumption A pass
    ["bs-check", "--model", "bench/models/d2-sigma2-both.cfg", "--n", "48", "--z", "-2"],
]


@pytest.mark.parametrize("argv", REFUSED, ids=" ".join)
def test_a_refused_command_creates_nothing(argv, tmp_path, capsys):
    argv = [str(README.parent / a) if a.endswith(".cfg") else a for a in argv]
    assert cli.main([*argv, "--out", str(tmp_path / "new" / "out")]) == 1
    assert "error" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_help_exits_0_and_creates_nothing(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for argv in (["--help"], ["bs-check", "--help"], ["essspec", "--out", "new", "--help"]):
        assert cli.main(argv) == 0
        assert "usage: fockspectra" in capsys.readouterr().out
    assert list(tmp_path.iterdir()) == []


def test_rule_choices_are_the_grid_rules():
    parser = cli._build_parser()
    commands = next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    rules = {name: next(a.choices for a in p._actions if "--rule" in a.option_strings)
             for name, p in commands.items() if name != "list-models"}
    assert len(rules) == 6 and all(choices == fockspectra.grid.RULES for choices in rules.values())


def test_bs_check_takes_one_of_z_and_z_sweep_before_the_model_loads(tmp_path, monkeypatch,
                                                                    capsys):
    monkeypatch.setattr(cli.model_mod, "load_model", lambda source: pytest.fail("model loaded"))
    argv = ["bs-check", "--model", "mnr-infinite", "--out", str(tmp_path / "out")]
    assert cli.main([*argv, "--z", "-0.5", "--z-sweep=-1:-0.5:4"]) == 1
    assert "argument --z-sweep: not allowed with argument --z" in capsys.readouterr().err
    assert cli.main(argv) == 1
    assert "one of the arguments --z --z-sweep is required" in capsys.readouterr().err


def test_shell_radius_and_annulus_cells_are_not_options(capsys):
    for argv in (["finiteness", "--model", "mnr-infinite", "--delta", "0.5"],
                 ["singular-seq", "--model", "mnr-infinite", "--x0", "1.0", "--quad-depth", "64"]):
        assert cli.main(argv) == 1
        assert "unrecognized arguments" in capsys.readouterr().err


def test_determinism_byte_identical(tmp_path):
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    for d in (d1, d2):
        rc = cli.main(["essspec", "--model", "mnr-infinite", "--n", "24",
                       "--out", str(d)])
        assert rc == 0
    for name in ("report.txt", "sigma2.csv", "delta_profile.csv"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def _readme_block(heading, lang):
    text = README.read_text()
    match = re.search(rf"^## {heading}\n.*?^```{lang}\n(.*?)^```", text, re.M | re.S)
    assert match, f"README has no {lang} block under ## {heading}"
    return match.group(1)


def _parser_and_readme_flags():
    parser = cli._build_parser()
    subparsers = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction)).choices.values()
    accepted = {opt for p in (parser, *subparsers) for a in p._actions for opt in a.option_strings}
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", README.read_text()))
    return accepted, named


def test_readme_names_only_flags_the_parser_accepts():
    accepted, named = _parser_and_readme_flags()
    assert named - accepted == set()


def test_readme_names_every_flag_the_parser_accepts():
    accepted, named = _parser_and_readme_flags()
    assert accepted - named - {"-h", "--help"} == set()


def test_every_export_is_used_outside_the_tests():
    # a name in fockspectra.__all__ must be used by the package's own code
    # (its definition aside), named in the README, or traced as a bench layer
    code = [p.read_text() for p in Path(fockspectra.__file__).parent.glob("*.py")
            if p.name != "__init__.py"]
    readme = README.read_text()
    tracer = (README.parent / "bench" / "tracer.py").read_text()
    layers = ast.literal_eval(re.search(r"^LAYERS = (\{.*?^\})", tracer, re.M | re.S).group(1))
    traced = {name for names in layers.values() for name in names}

    def used(name):
        word = re.compile(rf"\b{name}\b")
        definition = re.compile(rf"^\s*(def|class) {name}\b|^{name}\s*[:=]", re.M)
        in_code = sum(len(word.findall(text)) - len(definition.findall(text)) for text in code)
        return in_code > 0 or word.search(readme) is not None or name in traced

    assert [name for name in fockspectra.__all__ if not used(name)] == []


def test_readme_cli_commands_and_library_sketch_run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)        # each --out, given or the default ".", lands here
    commands = [shlex.split(line) for line in _readme_block("CLI", "sh").splitlines()
                if line.startswith("fockspectra ")]
    assert len(commands) >= 7
    for _, *argv in commands:
        assert cli.main(argv) == 0, argv
    exec(_readme_block("Library sketch", "python"), {})


def test_compare_tool_runs_every_readme_and_bench_command():
    root = README.parent
    spec = importlib.util.spec_from_file_location("compare_outputs",
                                                  root / "tools" / "compare_outputs.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    listed = tool.commands(root)
    for line in _readme_block("CLI", "sh").splitlines():
        if line.startswith("fockspectra "):
            argv = shlex.split(line)[1:]
            if "--out" in argv:
                del argv[argv.index("--out"):argv.index("--out") + 2]
            assert argv in listed, line
    workloads = tool._bench_run(root).WORKLOADS
    names = [w["name"] for w in json.loads((root / "BENCHMARK.json").read_text())["workloads"]]
    assert sorted(names) == sorted(workloads)
    for name in names:
        for seed in (0, 1):
            for argv in workloads[name](random.Random(seed)):
                assert argv in listed, (name, seed, argv)
    # and both dense legs at d = 2 and on Gauss-Legendre nodes, which neither set runs
    for argv in tool.EXTRA:
        assert argv in listed, argv
    # and every refusal of test_a_refused_command_creates_nothing
    for argv in REFUSED:
        assert argv in tool.EXTRA, argv
    for leg in ("discrete", "bs-check"):
        assert any(argv[0] == leg and "bench/models/d2-sigma2-both.cfg" in argv
                   for argv in listed), leg
        assert any(argv[0] == leg and "gauss-legendre" in argv for argv in listed), leg
    # and the two-centre singular sequence at d = 1 and d = 2
    for d, model in ((1, "mnr-infinite"), (2, "bench/models/d2-sigma2-both.cfg")):
        assert any(argv[0] == "singular-seq" and model in argv
                   and any(a.startswith("--y0") for a in argv) for argv in tool.EXTRA), d
    # and a two-sided discrete run at n >= 128, twice the dense-discrete workload's n
    assert any(argv[0] == "discrete" and argv[argv.index("--side") + 1] == "both"
               and int(argv[argv.index("--n") + 1]) >= 128
               for argv in tool.EXTRA if "--side" in argv), "no --side both at n >= 128"
    # and finiteness past three levels and on Gauss-Legendre nodes
    runs = [argv for argv in listed if argv[0] == "finiteness"]
    assert any(int(argv[argv.index("--levels") + 1]) > 3 for argv in runs)
    assert any("gauss-legendre" in argv for argv in runs)
    # and essspec and discrete on a d = 1 model with Sigma_2 roots on both sides
    assert {argv[0] for argv in tool.EXTRA if tool.D1_BOTH in argv} >= {"essspec", "discrete"}
    spec = fockspectra.load_model(tool.D1_BOTH)
    ess = fockspectra.essential_spectrum(spec, fockspectra.make_grid(spec.d, spec.a, 32))
    assert spec.d == 1 and ess.left.rows.size > 0 and ess.right.rows.size > 0
