
import argparse
import ast
import os
import re
import shlex
import subprocess
import sys
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


def test_essspec_delta_z_profile(tmp_path):
    rc = cli.main(["essspec", "--model", "sigma2-empty", "--n", "16",
                   "--delta-z=-1.0,6.0", "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "delta_profile.csv").read_text().splitlines()
    assert len(lines) == 1 + 2 * 16
    zs = {line.split(",")[1] for line in lines[1:]}
    assert zs == {"-1.0", "6.0"}


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


def test_config_literal_overflow_exits_1_without_hanging(tmp_path):
    # exact integer arithmetic would compute 9**9**9 for hours before overflowing
    cfg = tmp_path / "huge.cfg"
    cfg.write_text(NAN_CONFIG.replace('"sqrt(0 - 1 - x * 0 - y * 0)"', '"x * y * 9**9**9"'))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-m", "fockspectra.cli", "check-model",
                           "--model", str(cfg), "--out", str(tmp_path / "out")],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 1
    assert "9**9**9" in proc.stderr


SCIPY_FREE_SCRIPT = """
import sys
from fockspectra import cli
for argv in {argvs!r}:
    assert cli.main(argv) == 0, argv
print(sorted(m for m in sys.modules if m.startswith("scipy")))
"""


def test_analysis_commands_load_no_scipy(tmp_path):
    # every command runs without importing scipy: essspec, discrete,
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
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", SCIPY_FREE_SCRIPT.format(argvs=argvs)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


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


@pytest.mark.parametrize("argv", [
    ["essspec", "--n", "1"],
    ["essspec", "--n", "0"],
    ["discrete", "--n", "-4"],
    ["singular-seq", "--x0", "1.0,2.0"],
    ["singular-seq", "--x0", "abc"],
    ["singular-seq", "--x0", "1.0", "--y0", "1.0,2.0"],
    ["singular-seq", "--x0", "1.0", "--y0", "abc"],
    ["singular-seq", "--x0", "4.0"],                    # outside Omega = (-pi, pi)
    ["singular-seq", "--x0", "1.0", "--quad-depth", "0"],
    ["singular-seq", "--x0", "1.0", "--quad-depth", "-2"],
    ["singular-seq", "--x0", "1.0", "--n-max", "0"],
    ["finiteness", "--delta", "0"],
    ["finiteness", "--delta", "5"],
    ["bs-check", "--z-sweep=-1:-0.5:0"],
    ["bs-check", "--z", "nan"],
    # a config: VALID_CONFIG with one line appended; a later key replaces an earlier one
    ["check-model", "--model", "config:epsilon = 2,"],
    ["check-model", "--model", 'config:epsilon = "x"'],
    ["check-model", "--model", "config:epsilon = 1, 2"],
    ["check-model", "--model", 'config:t0 = "a"'],
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


def test_readme_names_only_flags_the_parser_accepts():
    parser = cli._build_parser()
    subparsers = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction)).choices.values()
    accepted = {opt for p in (parser, *subparsers) for a in p._actions for opt in a.option_strings}
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", README.read_text()))
    assert named - accepted == set()


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
