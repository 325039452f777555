import json
import subprocess
import sys
from pathlib import Path

import pytest

from deformedw.cli import main

CONFIG = """
[suites]
characters = true
zeta = true

[characters]
k_values = 2
cutoff = 10

[zeta]
n_values = 2
order_m = 3
"""


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_list_suites(capsys):
    code, out = run_cli(["list-suites"], capsys)
    assert code == 0
    for name in ("relations", "characters", "zeta", "limit2"):
        assert name in out


def test_verify_exit_zero_and_report(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text(CONFIG)
    out_path = tmp_path / "report.json"
    code, out = run_cli(["verify", "--config", str(cfg),
                         "--out", str(out_path)], capsys)
    assert code == 0
    assert "total:" in out
    body = json.loads(out_path.read_text())
    assert body["schema"] == 1
    assert body["summary"]["fail"] == 0
    assert all(c["status"] == "pass" for c in body["checks"])
    assert "timings_ms" not in body


def test_verify_reports_are_byte_identical(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text(CONFIG)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    run_cli(["verify", "--config", str(cfg), "--out", str(p1)], capsys)
    run_cli(["verify", "--config", str(cfg), "--out", str(p2)], capsys)
    assert p1.read_bytes() == p2.read_bytes()


def test_verify_parallel_merge_deterministic(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text(CONFIG)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    run_cli(["verify", "--config", str(cfg), "--out", str(p1)], capsys)
    run_cli(["verify", "--config", str(cfg), "--out", str(p2), "--jobs", "2"],
            capsys)
    assert p1.read_bytes() == p2.read_bytes()


def test_verify_no_suites_errors(tmp_path, capsys):
    cfg = tmp_path / "empty.ini"
    cfg.write_text("[suites]\n")
    code = main(["verify", "--config", str(cfg)])
    assert code == 2


def test_verify_suite_flag_overrides(tmp_path, capsys):
    out_path = tmp_path / "zeta.json"
    code, _ = run_cli(["verify", "--suite", "zeta", "--out", str(out_path)],
                      capsys)
    assert code == 0
    body = json.loads(out_path.read_text())
    assert {c["suite"] for c in body["checks"]} <= {"zeta", "zeta-vac"}


def test_verify_repeated_suite_flag_runs_once(tmp_path, capsys):
    once, twice = tmp_path / "once.json", tmp_path / "twice.json"
    run_cli(["verify", "--suite", "characters", "--out", str(once)], capsys)
    run_cli(["verify", "--suite", "characters", "--suite", "characters",
             "--out", str(twice)], capsys)
    assert twice.read_bytes() == once.read_bytes()
    assert len(json.loads(once.read_text())["checks"]) == 12


def test_dump_objects(capsys):
    code, out = run_cli(["dump", "g:N=2:k=2:mu=1:nu=1", "--order", "4"], capsys)
    assert code == 0
    body = json.loads(out)
    assert body["coefficients"][0] == "1"
    assert body["coefficients"][1]["coeffs"][0] == "-2"

    code, out = run_cli(["dump", "f:N=2:i=1:j=1", "--order", "2"], capsys)
    assert code == 0
    body = json.loads(out)
    # f_1 = (1-q)(1-1/t)/(1+p) at the default point: exact rational string
    from deformedw.exact import rat
    q, t = rat(3, 2), rat(5, 3)
    p = q / t
    assert body["coefficients"][1] == str((1 - q) * (1 - 1 / t) / (1 + p))

    code, out = run_cli(["dump", "bernoulli", "--order", "3"], capsys)
    body = json.loads(out)
    assert body["values"] == {"1": "1/6", "2": "1/30", "3": "1/42"}


def test_dump_unknown_id(capsys):
    assert main(["dump", "nonsense:a=1"]) == 2


@pytest.mark.parametrize("ident, message", [
    ("gamma:N=3:a=1", "pole of gamma"),   # gamma(s^1) sits on a pole
    ("gamma:N=3", "missing key 'a'"),
])
def test_dump_bad_input_fails_cleanly(capsys, ident, message):
    assert main(["dump", ident]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"dump {ident!r}: {message}\n"


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("args, golden", [
    (["f:N=3:i=1:j=2", "--order", "3"], "dump_f_N3_i1_j2_order3.json"),
    (["gamma:N=3:a=2"], "dump_gamma_N3_a2.json"),
    (["wvac:N=3:i=1"], "dump_wvac_N3_i1.json"),
    (["g:N=3:k=2:mu=1:nu=2", "--order", "4"],
     "dump_g_N3_k2_mu1_nu2_order4.json"),
])
def test_dump_matches_golden_output(capsys, args, golden):
    # Q(s) values print their rational and s parts and cyclotomic values
    # their rational coefficients; the files hold the output of the
    # Fraction-coordinate representations these bytes must keep
    code, out = run_cli(["dump"] + args, capsys)
    assert code == 0
    assert out == (GOLDEN / golden).read_text()


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "deformedw.cli",
                           "list-suites"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "characters" in proc.stdout


@pytest.mark.parametrize("text, reason", [
    (None, "No such file or directory"),
    ("zeta = true\n" + CONFIG, "no section headers"),
], ids=["missing", "no-section-header"])
def test_verify_bad_config_file_fails_cleanly(tmp_path, capsys, text,
                                              reason):
    out_path = tmp_path / "r.json"
    cfg = tmp_path / "c.ini"
    if text is not None:
        cfg.write_text(text)
    assert main(["verify", "--config", str(cfg),
                 "--out", str(out_path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert reason in err and str(cfg) in err
    assert not out_path.exists()


@pytest.mark.parametrize("flag", ["-3", "0", "abc"])
def test_verify_rejects_bad_job_count(tmp_path, capsys, flag):
    out_path = tmp_path / "r.json"
    assert main(["verify", "--suite", "zeta", "--out", str(out_path),
                 "--jobs", flag]) == 2
    assert "must be an integer >= 1" in capsys.readouterr().err
    assert not out_path.exists()
