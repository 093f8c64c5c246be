
from fockspectra import cli, spectra

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


def test_list_models(capsys):
    assert cli.main(["list-models"]) == 0
    out = capsys.readouterr().out
    assert "mnr-infinite" in out and "sigma2-empty" in out


def test_check_model_ok(tmp_path):
    rc = cli.main(["check-model", "--model", "mnr-infinite", "--n", "24",
                   "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "report.txt").exists()


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


def test_discrete_both_sides_solve_once(tmp_path, monkeypatch):
    calls = []
    original = spectra.eigvals_hermitian
    monkeypatch.setattr(spectra, "eigvals_hermitian",
                        lambda matrix: calls.append(1) or original(matrix))
    rc = cli.main(["discrete", "--model", "mnr-infinite", "--n", "12",
                   "--side", "both", "--out", str(tmp_path)])
    assert rc == 0
    assert len(calls) == 1


def test_finiteness_command(tmp_path):
    rc = cli.main(["finiteness", "--model", "mnr-infinite", "--n", "16",
                   "--levels", "3", "--out", str(tmp_path)])
    assert rc == 0
    report = (tmp_path / "report.txt").read_text()
    assert "verdict:" in report
    assert "finite-predicted" not in report.split("verdict:")[-1]
    lines = (tmp_path / "exponents.csv").read_text().splitlines()
    assert lines[0] == "exponent,shell_radius,statistic"


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


def test_determinism_byte_identical(tmp_path):
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    for d in (d1, d2):
        rc = cli.main(["essspec", "--model", "mnr-infinite", "--n", "24",
                       "--out", str(d)])
        assert rc == 0
    for name in ("report.txt", "sigma2.csv", "delta_profile.csv"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()
