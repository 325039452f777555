"""Tests of the benchmark itself: the seeded inputs, the expected record
counts, the tracer and the output check.

    python3 -m pytest -q perfbench/check_perfbench.py

The file name keeps it out of the package's own test collection.
"""

from __future__ import annotations

import json
import random
import re
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import inputs as gen                 # noqa: E402
import run                           # noqa: E402
import spec                          # noqa: E402


# -- seeded inputs

@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_same_seed_same_inputs(workload):
    a, b = gen.Inputs(workload, 7, 2), gen.Inputs(workload, 7, 2)
    assert a.config_text() == b.config_text()
    assert a.point == b.point and a.limit2_pairs == b.limit2_pairs


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_seeds_and_repetitions_change_inputs(workload):
    by_seed = {gen.Inputs(workload, seed).config_text() for seed in range(20)}
    by_rep = {gen.Inputs(workload, 1, rep).config_text() for rep in range(20)}
    assert len(by_seed) > 10 and len(by_rep) > 10


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_points_and_levels_are_valid(workload):
    for seed in range(300):
        inp = gen.Inputs(workload, seed)
        q, t = inp.point
        for x in (q, t):
            assert x not in (0, 1, -1)
            assert 0 < x.numerator <= gen.MAX_TERM
            assert x.denominator <= gen.MAX_TERM
        assert not gen.prime_support(q) & gen.prime_support(t)
        assert not gen.is_rational_square(q / t)
        levels = [k for _, k in inp.limit2_pairs]
        assert set(levels) <= set(gen.LEVELS)
        # the two rank-2 pairs label distinct limit2 cases
        assert inp.limit2_pairs[0] != inp.limit2_pairs[1]


def test_degenerate_points_are_rejected():
    assert not gen.is_generic_point(Fraction(2), Fraction(1))
    assert not gen.is_generic_point(Fraction(-1), Fraction(3))
    assert not gen.is_generic_point(Fraction(2, 3), Fraction(3, 5))   # 3 shared
    assert not gen.is_generic_point(Fraction(4), Fraction(1, 9))     # p = 36
    assert gen.is_generic_point(Fraction(2, 7), Fraction(3, 5))


def test_generator_covers_the_whole_domain():
    """Every generic point of the domain is drawn: the generator excludes
    only degenerate points."""
    domain = {(Fraction(a, b), Fraction(c, d))
              for a in range(1, 8) for b in range(1, 8)
              for c in range(1, 8) for d in range(1, 8)}
    domain = {(q, t) for q, t in domain if gen.is_generic_point(q, t)}
    rng = random.Random(0)
    drawn = {gen.draw_point(rng) for _ in range(20000)}
    assert drawn == domain


# -- expected record counts against the suites themselves

SMALL = {
    "relations": {"n_values": "2 3", "window_rank1": "1", "level_rank1": "1",
                  "window": "1", "level": "1", "points": "2/7,3/5"},
    "f-identities": {"n_values": "2 3", "order": "4"},
    "poles": {"n_values": "2", "order": "10", "points": "2/7,3/5"},
    "fusion": {"n_values": "2 3", "window": "1", "level": "1"},
    "limit1": {"n_values": "2 3", "window": "1", "order_h": "2"},
    "limit2": {"nk_pairs": "2,1; 3,1", "order_x": "2",
               "correlator_nk_pairs": "2,1", "correlator_points": "2",
               "correlator_order_x": "2"},
    "zalgebra": {"n_values": "2", "order": "4", "nk_pairs": "2,1; 3,1"},
    "characters": {"k_values": "2 3", "cutoff": "6"},
    "zeta": {"n_values": "2 3", "order_m": "2", "points": "2/7,3/5"},
}


@pytest.mark.parametrize("suite", sorted(SMALL))
def test_expected_count_matches_suite(suite):
    from deformedw.suites import SUITES
    records = SUITES[suite][0](SMALL[suite])
    assert gen.expected_count(suite, SMALL[suite]) == len(records)
    assert all(r.status == "pass" for r in records)


# -- tracer, in a fresh interpreter because it rebinds the package

TRACER_PROBE = r"""
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from tracer import Tracer
tr = Tracer()
tr.install()
from deformedw import exact, fock, limits, relations, structfn, suites, \
    wcurrents
out = {
    "unwrapped": tr.unwrapped(),
    "aliases": [exact.QuadExt.__rmul__ is exact.QuadExt.__mul__,
                exact.Cyc.__radd__ is exact.Cyc.__add__,
                wcurrents.kernel_coeffs is fock.kernel_coeffs,
                relations.pinned_mode_value is wcurrents.pinned_mode_value,
                relations.f_series is structfn.f_series,
                limits.f_series is structfn.f_series],
    "wrapped": [hasattr(f, "__wrapped__") for f in (
                exact.QuadExt.__mul__, fock.kernel_coeffs,
                structfn.f_series, suites.SUITES["relations"][0])],
}
suites.SUITES["relations"][0]({"n_values": "2", "window_rank1": "1",
    "level_rank1": "1", "window": "1", "level": "1", "points": "2/7,3/5"})
s = tr.summary()
roots = sum(e - b for nid, b, e, parent, case in tr.spans if parent == -1)
out.update(calls=s["calls"], self_ns=sum(tr.self_ns), roots_ns=roots,
           cases=tr.cases, case_ids={c for *_, c in tr.spans} != {-1},
           cache_entries_max=s["cache_entries_max"],
           distinct=s["distinct_profiles"])
print(json.dumps(out))
"""


@pytest.fixture(scope="module")
def probe():
    out = subprocess.run(
        [sys.executable, "-c", TRACER_PROBE, str(HERE), str(ROOT / "src")],
        capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def test_tracer_leaves_no_original_unwrapped(probe):
    assert probe["unwrapped"] == []
    assert all(probe["aliases"])
    assert all(probe["wrapped"])


def test_tracer_counts_and_spans(probe):
    calls = probe["calls"]
    assert calls["exact.QuadExt.__mul__"] > 0
    assert calls["exact.HbarSeries.__mul__"] == 0
    assert calls["suites.suite_relations"] == 1
    assert calls["wcurrents.ModeEngine.value"] >= probe["distinct"] > 0
    assert probe["cache_entries_max"] > 0
    # self times partition the root spans exactly
    assert probe["self_ns"] == probe["roots_ns"]
    # each case is labelled by the record its suite call returned
    assert any(c.startswith("w1wj:N=2") for c in probe["cases"])
    assert probe["case_ids"]


# -- output check

class FakeChild(run.Child):
    def __init__(self, stamps, status=0):
        super().__init__(0.0, 1.0, status, None, stamps)


def _report(tmp_path, statuses, suites=("relations",)):
    path = tmp_path / "report.json"
    path.write_text(json.dumps({
        "checks": [{"suite": "w1wj", "case": f"c{i}", "status": s}
                   for i, s in enumerate(statuses)],
        "timings_ms": {name: 1 for name in suites}}))
    return path


def test_check_report_counts_failures_and_missing(tmp_path):
    inp = gen.Inputs("relations", 1)
    n = inp.expected_records()
    ok = FakeChild({"t_main": 0.5, "t_done": 1.0, "rc": 0})
    assert run.check_report(ok, inp, _report(tmp_path, ["pass"] * n)) == \
        (n, 0, [])
    bad = FakeChild({"t_main": 0.5, "t_done": 1.0, "rc": 1})
    _, failed, problems = run.check_report(
        bad, inp, _report(tmp_path, ["pass"] * (n - 2) + ["fail"]))
    assert failed == 2 and problems
    raised = FakeChild({"t_main": 0.5, "error": "Traceback\nValueError: x"})
    assert run.check_report(raised, inp, tmp_path / "none.json")[1] == n


def test_benchmark_json_is_generated_from_spec():
    on_disk = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert on_disk == spec.benchmark_json()
    assert [w["name"] for w in on_disk["workloads"]] == list(gen.WORKLOADS)
    metrics = on_disk["end_to_end"] + on_disk["per_layer"]
    names = [m["name"] for m in metrics] + \
        [w["name"] for w in on_disk["workloads"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n)
               for n in names)
    assert all(re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"])
               for m in metrics)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in on_disk["workloads"])
    assert 1 <= len(on_disk["per_layer"]) <= 128
    assert all(m["bound"] <= 0.25 for m in on_disk["end_to_end"])
    setup = [m for m in on_disk["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in on_disk["end_to_end"])


def test_refuses_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "limit2",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout.strip() == ""
