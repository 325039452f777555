import configparser
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from deformedw import cli
from deformedw.cli import main, stray_sections
from deformedw.suites import SUITES, check_options

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


def test_verify_jobs_pool_has_no_more_workers_than_suites(monkeypatch):
    # a fork pool starts all its workers at the first submit; a recorder in
    # place of ProcessPoolExecutor maps in this process, so none starts
    import concurrent.futures
    sizes = []

    class Recorder:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorder)
    cp = configparser.ConfigParser()
    cp.read_string(CONFIG)
    report, _ = cli.run_suites(["characters"], cp, jobs=64)
    assert report.records and sizes == []
    report, _ = cli.run_suites(["characters", "zeta"], cp, jobs=64)
    assert report.records and sizes == [2]


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


def test_verify_small_report_is_golden(tmp_path, capsys):
    # limit1, limit2 (reduction and correlator order), relations (to N = 4,
    # where gamma_ladder reaches gamma_at), fusion, f-identities (the gamma
    # series), poles (the claimed roots, from structfn.delta_terms),
    # zalgebra (the roots of unity), characters and zeta (the Bernoulli
    # table read once per identity) at small sizes, all nine suites;
    # verify_small.json holds the report of an earlier version, so a change
    # that moves any verdict, detail or truncation shows here
    out_path = tmp_path / "report.json"
    code, _ = run_cli(["verify", "--config", str(GOLDEN / "verify_small.ini"),
                       "--out", str(out_path)], capsys)
    assert code == 0
    assert out_path.read_bytes() == (GOLDEN / "verify_small.json").read_bytes()


def test_console_entry_point():
    # the subprocess imports the package the tests import, installed or not
    src = Path(cli.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-m", "deformedw.cli",
                           "list-suites"], capture_output=True, text=True,
                          env=env)
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


ROOT = Path(__file__).resolve().parent.parent


def _perfbench_inputs():
    spec = importlib.util.spec_from_file_location(
        "perfbench_inputs", ROOT / "perfbench" / "inputs.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _selected_sections(text):
    cp = configparser.ConfigParser()
    cp.read_string(text)
    return [(name, cp[name]) for name, on in cp["suites"].items()
            if on == "true" and cp.has_section(name)]


def _shipped_and_benchmark_configs():
    texts = [(ROOT / "configs" / "default.ini").read_text()]
    inputs = _perfbench_inputs()
    for workload in inputs.WORKLOADS:
        for seed in (0, 1, 7):
            for rep in (0, 3):
                texts.append(inputs.Inputs(workload, seed, rep).config_text())
    return texts


def test_shipped_and_benchmark_configs_pass_the_option_check():
    checked = set()
    for text in _shipped_and_benchmark_configs():
        for name, section in _selected_sections(text):
            check_options(name, section)
            checked.add(name)
    assert checked == set(SUITES)


@pytest.mark.parametrize("section, line", [
    ("zeta", "n_valuez = 2"),             # unknown key
    ("zeta", "n_values = two"),           # integer list
    ("relations", "n_values = 1 2"),      # ranks below 2
    ("relations", "n_values ="),          # empty list: checks nothing
    ("characters", "k_values ="),
    ("characters", "k_values = 0"),       # levels below 1
    ("characters", "cutoff = 3 4"),       # one integer
    ("zalgebra", "order = -1"),           # negative count
    ("limit2", "nk_pairs = 2;3"),         # (N, k) pairs
    ("limit2", "correlator_nk_pairs = 1,2"),
    ("zeta", "points = 3/2,5/3,1"),       # (q, t) points
    ("fusion", "points = 1/0,2"),
    ("poles", "points = 2,-2"),           # degenerate point
    ("limit2", "nk_pairs = 2,0"),         # level zero
    ("limit2", "correlator_nk_pairs = 2,0"),
    ("zalgebra", "nk_pairs = 2,0"),
    ("zeta", "order_m = 0"),              # order below 1
    ("poles", "n_values = 4"),            # order 14 too small at N = 4
    ("poles", "order = 3"),               # too small at every rank
    ("characters", "cutoff = 0"),         # compares the leading 1 alone
    ("f-identities", "order = 0"),        # compares x^0 alone, 1 = 1
    ("limit2", "correlator_order_x = 0"),  # only products of 1-point values
    ("limit2", "order_x = 0"),            # only words fixed by construction
    ("zalgebra", "order = 0"),            # compares zeta^0 alone, 1 = 1
    ("fusion", "window = 0"),             # skips pairs at the default level
    ("relations", "window = 0"),          # the same floor, per key pair
    ("relations", "window_rank1 = 1"),    # below level_rank1 = 3 / 2
])
def test_verify_bad_option_fails_cleanly(tmp_path, capsys, section, line):
    out_path = tmp_path / "r.json"
    cfg = tmp_path / "c.ini"
    cfg.write_text(f"[suites]\n{section} = true\n\n[{section}]\n{line}\n")
    assert main(["verify", "--config", str(cfg),
                 "--out", str(out_path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    key, _, value = (part.strip() for part in line.partition("="))
    assert f"[{section}]" in err and key in err and str(cfg) in err
    if key != "n_valuez":
        assert repr(value) in err
    assert not out_path.exists()


def test_verify_checks_options_before_any_suite_runs(tmp_path, capsys):
    # the bad section sorts after the good one: nothing may run first
    out_path = tmp_path / "r.json"
    cfg = tmp_path / "c.ini"
    cfg.write_text(CONFIG + "\n[zalgebra]\norder = x\n")
    assert main(["verify", "--config", str(cfg), "--suite", "characters",
                 "--suite", "zalgebra", "--out", str(out_path)]) == 2
    captured = capsys.readouterr()
    assert "[zalgebra] order = 'x'" in captured.err
    assert captured.out == "" and not out_path.exists()


def test_shipped_and_benchmark_configs_have_no_stray_section():
    for text in _shipped_and_benchmark_configs():
        cp = configparser.ConfigParser()
        cp.read_string(text)
        assert cp.sections() and not stray_sections(cp)


@pytest.mark.parametrize("section", ["charactrs", "zetaa", "Suites"])
def test_verify_rejects_unknown_section(tmp_path, capsys, section):
    # a misspelled suite section must not run its suite on the defaults
    out_path = tmp_path / "r.json"
    cfg = tmp_path / "c.ini"
    cfg.write_text(CONFIG + f"\n[{section}]\ncutoff = 10\n")
    assert main(["verify", "--config", str(cfg),
                 "--out", str(out_path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert f"[{section}]" in captured.err and str(cfg) in captured.err
    assert captured.out == "" and not out_path.exists()


def test_poles_order_message_names_both_keys(tmp_path, capsys):
    cfg = tmp_path / "c.ini"
    cfg.write_text("[suites]\npoles = true\n\n[poles]\nn_values = 2 4\n"
                   "order = 10\n")
    assert main(["verify", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "order = '10' with n_values = '2 4'" in err and "18" in err


def test_verify_rejects_non_boolean_suite_flag(tmp_path, capsys):
    # "ture" used to drop the suite silently and run the others
    out_path = tmp_path / "r.json"
    cfg = tmp_path / "c.ini"
    cfg.write_text(CONFIG.replace("zeta = true", "zeta = ture"))
    assert main(["verify", "--config", str(cfg),
                 "--out", str(out_path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert "[suites] zeta = 'ture'" in captured.err
    assert captured.out == "" and not out_path.exists()


def test_verify_checks_out_path_before_any_suite_runs(tmp_path, capsys,
                                                      monkeypatch):
    ran = []
    monkeypatch.setitem(SUITES, "characters",
                        (lambda cfg: ran.append(cfg) or [], "stub"))
    out_path = tmp_path / "nodir" / "x.json"
    for out in (out_path, tmp_path):
        assert main(["verify", "--suite", "characters",
                     "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.count("\n") == 1
        assert f"--out {str(out)!r}" in captured.err
        assert captured.out == ""
    assert not ran and not out_path.parent.exists()
