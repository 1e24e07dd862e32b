"""Command-line interface: JSON/CSV output, exit codes, determinism."""

import json
import math
import os
import subprocess
import sys

import pytest


def run_cli(*args, env=None):
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run(
        [sys.executable, "-m", "ellipoly.cli", *args],
        capture_output=True,
        text=True,
        env=full_env,
    )


def test_version():
    p = run_cli("--version")
    assert p.returncode == 0
    assert "0.1.0" in p.stdout


def test_gram_json_schema():
    p = run_cli("gram", "--family", "legendre", "--a", "2", "--b", "1",
                "--nmax", "4")
    assert p.returncode == 0
    doc = json.loads(p.stdout)
    assert doc["meta"]["version"]
    assert doc["meta"]["convention"] == "normalized"
    assert doc["meta"]["params"]["c"] == pytest.approx(math.sqrt(3.0))
    data = doc["data"]
    assert len(data["matrix"]) == 5
    # complex entries serialize as [re, im]
    assert len(data["matrix"][0][0]) == 2
    assert data["max_offdiag"] < 1e-10
    assert max(data["diag_relative_errors"]) < 1e-10


def test_norms_flat_anchor():
    p = run_cli("norms", "--family", "chebyshev-t", "--a", "2", "--b", "1",
                "--n", "0")
    doc = json.loads(p.stdout)
    assert doc["meta"]["convention"] == "flat"
    assert abs(doc["data"]["norm"][0] - math.pi * math.log(3.0)) < 1e-12


def test_norms_csv_table(tmp_path):
    out = tmp_path / "norms.csv"
    p = run_cli("norms", "--family", "gegenbauer", "--alpha", "0",
                "--a", "2", "--b", "1", "--nmax", "2", "--format", "csv",
                "--output", str(out))
    assert p.returncode == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "n,norm"
    assert float(lines[1].split(",")[1]) == 1.0
    assert abs(float(lines[2].split(",")[1]) - 5.0 / 3.0) < 1e-13


def test_output_dir_environment(tmp_path):
    p = run_cli("norms", "--family", "legendre", "--a", "2", "--b", "1",
                "--n", "1", "--output", "rel.json",
                env={"ELLIPOLY_OUTPUT_DIR": str(tmp_path)})
    assert p.returncode == 0
    assert (tmp_path / "rel.json").exists()


def test_eval_scaled_argument():
    p = run_cli("eval", "--family", "chebyshev-u", "--a", "2", "--b", "1",
                "--n", "1", "--z", "0.5", "0.25", "--scale-by-c")
    doc = json.loads(p.stdout)
    re, im = doc["data"]["value"]
    c = math.sqrt(3.0)
    assert abs(re - 1.0 / c) < 1e-13 and abs(im - 0.5 / c) < 1e-13


def test_selberg_direct_routes():
    p = run_cli("selberg", "--alpha", "0", "--a", "2", "--b", "1",
                "--N", "2", "--direct")
    doc = json.loads(p.stdout)["data"]
    assert abs(doc["value"] - 2.5) < 1e-10
    assert abs(doc["direct_value"] - 2.5) < 1e-9


def test_nonfinite_result_exits_one():
    """A NaN or infinity is not JSON: the command fails instead of printing it."""
    p = run_cli("selberg", "--alpha", "0", "--a", "2", "--b", "1", "--N", "2000")
    assert p.returncode == 1
    assert p.stdout == ""
    assert "not finite" in p.stderr
    assert "Traceback" not in p.stderr


@pytest.mark.parametrize("args", [
    ("norms", "--family", "gegenbauer", "--alpha", "0", "--a", "2", "--b", "1",
     "--nmax", "800", "--format", "csv"),
    ("limits", "--regime", "hermite", "--n", "200", "--m", "200", "--format", "csv"),
], ids=["norms", "limits"])
def test_nonfinite_csv_exits_one(args):
    """CSV output refuses NaN and infinity the way JSON output does."""
    p = run_cli(*args)
    assert p.returncode == 1
    assert p.stdout == ""
    assert "not finite" in p.stderr
    assert "Traceback" not in p.stderr


def test_norm_overflow_exits_one():
    """q^(2n+2) in the Chebyshev-U norm leaves the double range at n = 700."""
    p = run_cli("norms", "--family", "chebyshev-u", "--a", "2", "--b", "1", "--n", "700")
    assert p.returncode == 1
    assert "not finite" in p.stderr
    assert "Traceback" not in p.stderr


def test_selberg_value_overflow_exits_one():
    """log Z_300 is finite but Z_300 itself exceeds the double range."""
    p = run_cli("selberg", "--alpha", "0", "--a", "2", "--b", "1", "--N", "300")
    assert p.returncode == 1
    assert p.stdout == ""
    assert "overflows" in p.stderr
    assert "Traceback" not in p.stderr


def test_hessenberg_bandwidth():
    p = run_cli("hessenberg", "--basis", "gegenbauer", "--alpha", "1",
                "--a", "2", "--b", "1", "--nmax", "8")
    doc = json.loads(p.stdout)["data"]
    assert doc["bandwidth"] == 2


def test_limits_csv_rows_decrease(tmp_path):
    out = tmp_path / "lim.csv"
    p = run_cli("limits", "--regime", "realline", "--n", "2", "--m", "2",
                "--alpha", "0", "--format", "csv", "--output", str(out))
    assert p.returncode == 0
    rows = out.read_text().strip().splitlines()
    assert rows[0] == "parameter,residual"
    resid = [float(r.split(",")[1]) for r in rows[1:]]
    assert len(resid) == 3 and resid[0] > resid[1] > resid[2]


def test_contour_deviation_small():
    p = run_cli("contour", "--a", "2", "--b", "1", "--n", "3", "--m", "3")
    doc = json.loads(p.stdout)["data"]
    assert doc["deviation"] < 1e-10
    assert "n_theta" not in doc


def test_contour_has_no_rule_size_flag():
    """The trapezoid size follows from the degrees, so there is no flag."""
    assert "--n-theta" not in run_cli("contour", "-h").stdout
    p = run_cli("contour", "--n", "1", "--m", "1", "--n-theta", "64")
    assert p.returncode == 1


def test_cli_import_leaves_scipy_out():
    """scipy serves only the verify oracle; importing the CLI skips it."""
    p = subprocess.run(
        [sys.executable, "-c", "import ellipoly.cli, sys; print('scipy' in sys.modules)"],
        capture_output=True, text=True)
    assert p.returncode == 0
    assert p.stdout.strip() == "False"


def test_verify_subset_exit_zero():
    p = run_cli("verify", "--checks", "turan_determinant", "heine_average")
    assert p.returncode == 0
    doc = json.loads(p.stdout)["data"]
    assert doc["all_passed"] is True
    assert [c["name"] for c in doc["checks"]] == ["turan_determinant",
                                                  "heine_average"]


def test_verify_unknown_check_exits_one():
    p = run_cli("verify", "--checks", "nosuch")
    assert p.returncode == 1
    assert "no checks match" in p.stderr


def test_bad_arguments_exit_one():
    assert run_cli("gram", "--family", "nosuch").returncode == 1
    assert run_cli("eval", "--family", "gegenbauer", "--alpha", "0",
                   "--a", "1", "--b", "2", "--n", "0", "--z", "0").returncode == 1
    assert run_cli("nosuchcommand").returncode == 1


def test_gram_deterministic_bytes():
    args = ("gram", "--family", "gegenbauer", "--alpha", "0.5",
            "--a", "2", "--b", "1", "--nmax", "6")
    assert run_cli(*args).stdout == run_cli(*args).stdout


@pytest.mark.parametrize("args", [
    ("limits", "--regime", "realline", "--n", "0", "--m", "-2"),
    ("norms", "--family", "legendre", "--nmax", "-1"),
    ("eval", "--family", "legendre", "--n", "2", "--z", "1", "2", "3"),
], ids=["limits_negative_degree", "norms_negative_nmax", "eval_three_numbers"])
def test_invalid_input_exits_one_with_message(args):
    p = run_cli(*args)
    assert p.returncode == 1
    assert p.stdout == ""
    assert "ellipoly: error:" in p.stderr
    assert "Traceback" not in p.stderr


@pytest.mark.parametrize("command", ["limits", "selberg"])
def test_degree_sized_commands_take_no_rule_flags(command):
    """limits and selberg size their rules from the degree."""
    p = run_cli(command, "-h")
    assert p.returncode == 0
    assert "--n-radial" not in p.stdout and "--n-angular" not in p.stdout


def test_selberg_past_the_monic_factor_range_exits_one():
    """At a = 1000 the monic factors overflow alone, yet log Z_150 is finite;
    only Z_150 itself is out of range, so the command refuses it cleanly."""
    p = run_cli("selberg", "--a", "1000", "--b", "1", "--alpha", "0", "--N", "150")
    assert p.returncode == 1
    assert p.stdout == ""
    assert "only log Z_N is representable" in p.stderr
    assert "Traceback" not in p.stderr


@pytest.mark.parametrize("family", [("gegenbauer", "--alpha", "0.5"),
                                    ("jacobi-minus", "--alpha", "0.5"), ("chebyshev-u",)],
                         ids=lambda f: f[0])
def test_norms_table_is_the_per_degree_closed_norm(capsys, family):
    """The one-pass --nmax table prints exactly the per-degree closed_norm values."""
    from ellipoly import chebyshev_u, closed_norm, gegenbauer, jacobi_half, make_params
    from ellipoly.cli import main

    assert main(["norms", "--family", *family, "--nmax", "600", "--a", "1", "--b", "0.5",
                 "--format", "csv"]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    fam = {"gegenbauer": gegenbauer(0.5), "jacobi-minus": jacobi_half(0.5, -1),
           "chebyshev-u": chebyshev_u()}[family[0]]
    p = make_params(1.0, 0.5)
    assert [int(n) for n, _ in rows] == list(range(601))
    assert [float(v) for _, v in rows] == [closed_norm(fam, p, n) for n in range(601)]
