"""What the benchmark measures: workloads, metrics, bounds and the call
expectations of the traced run.  BENCHMARK.json is generated from this file
(``python3 perfbench/run.py --write-benchmark-json``)."""

from __future__ import annotations

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 40

WORKLOADS = [
    ("relations",
     "Where verify spends its time: ModeEngine.value over Q(s) (QuadExt), "
     "kernel_coeffs and pinned pairs on warm caches; never touches "
     "HbarSeries or Cyc."),
    ("limit2",
     "hbar series over the cyclotomic field: HbarSeries, Cyc, series, "
     "f_series, g_series, reduction_sides; never touches QuadExt, so it "
     "bypasses changes to the Q(s) path."),
    ("mix-jobs2",
     "All nine suites through verify --jobs 2 with its pool; the only "
     "workload reaching zalg, characters, zeta, limit1, poles and fusion; "
     "short-lived contexts keep caches cold."),
]

# (name, unit, better, bound)
END_TO_END = [
    # times: on the shared 2-core machine measured, speed drifts by 20-40 %
    # in phases of half a minute and more, which no run length removes
    # (README.md)
    ("wall_s", "s", "lower", 0.25),
    ("cpu_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    # 1 - error_rate: a metric that is 0 on a correct run has no usable
    # relative bound, so the benchmark reports its complement
    ("pass_rate", "ratio", "higher", 0.01),
]

MICRO = ["exact.rat_muladd_us", "exact.quad_mul_us", "exact.quad_inv_us",
         "exact.cyc_mul_us", "exact.cyc_inv_us", "exact.hbar_mul_us",
         "exact.hbar_inv_us"]

# call counts only
COUNTED = ["exact.QuadExt.__mul__", "exact.QuadExt.inverse",
           "exact.Cyc.__mul__", "exact.Cyc.inverse",
           "exact.HbarSeries.__mul__", "exact.HbarSeries.inverse",
           "context.ScalarCtx.__init__", "wcurrents.ModeEngine.__init__"]

# call counts and self time
SPANNED = ["series.LaurentWindow.__mul__", "series.series_exp",
           "series.rational_reconstruct",
           "structfn.LogKernel.resum", "structfn.GammaFactors.value",
           "structfn.f_series", "structfn.g_series",
           "structfn.check_f_identities",
           "fock.kernel_coeffs", "fock.lambda_correlator",
           "wcurrents.ModeEngine.value", "wcurrents.pinned_block",
           "wcurrents.pinned_mode_value",
           "wcurrents.pinned_mode_value_resummed",
           "wcurrents.two_current_mode_table", "wcurrents.composite_no_mode",
           "relations.lhs_mode_table", "relations.rhs_mode_table",
           "relations.w2wj_rhs_paper_form",
           "limits.reduction_sides", "limits.z_algebra_expression",
           "zalg.gl_bracket", "zalg.verify_principal_relations",
           "characters.verify_char_identity", "zeta.verify_zeta_identity"]

SUITES = ["relations", "f-identities", "poles", "fusion", "limit1", "limit2",
          "zalgebra", "characters", "zeta"]


def per_layer_specs() -> list:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = [(name, "us", "lower") for name in MICRO]
    out += [(f"{name}.calls", "count", "lower") for name in COUNTED]
    for name in SPANNED:
        out += [(f"{name}.calls", "count", "lower"),
                (f"{name}.self_s", "s", "lower")]
    out += [
        ("context.cache_entries_max", "count", "lower"),
        ("wcurrents.ModeEngine.value.distinct_ratio", "ratio", "higher"),
        ("wcurrents.resummed_share", "ratio", "lower"),
    ]
    out += [(f"suites.{name}.total_s", "s", "lower") for name in SUITES]
    out += [
        ("report.Report.to_json.total_s", "s", "lower"),
        ("cli.pool_efficiency", "ratio", "higher"),
        ("trace.overhead", "ratio", "lower"),
    ]
    return out


# Traced-run self-test: names that must record at least one call on a
# workload, and names that must record none.
_ENGINE = ["wcurrents.ModeEngine.__init__", "wcurrents.ModeEngine.value",
           "context.ScalarCtx.__init__", "cli.main",
           "report.Report.to_json"]
EXPECT_CALLED = {
    "relations": _ENGINE + [
        "suites.suite_relations", "exact.QuadExt.__mul__",
        "exact.QuadExt.inverse", "fock.kernel_coeffs",
        "structfn.LogKernel.resum", "structfn.GammaFactors.value",
        "wcurrents.pinned_block", "wcurrents.pinned_mode_value",
        "wcurrents.two_current_mode_table", "wcurrents.composite_no_mode",
        "relations.lhs_mode_table", "relations.rhs_mode_table",
        "relations.w2wj_rhs_paper_form"],
    "limit2": _ENGINE + [
        "suites.suite_limit2", "exact.HbarSeries.__mul__",
        "exact.HbarSeries.inverse", "exact.Cyc.__mul__", "exact.Cyc.inverse",
        "series.series_exp", "structfn.f_series",
        "structfn.g_series", "limits.reduction_sides",
        "limits.z_algebra_expression"],
    "mix-jobs2": _ENGINE + SPANNED + COUNTED +
    [f"suites.suite_{name.replace('-', '_')}" for name in SUITES],
}
EXPECT_ZERO = {
    "relations": ["exact.HbarSeries.__mul__", "exact.HbarSeries.inverse",
                  "exact.Cyc.__mul__", "exact.Cyc.inverse"],
    "limit2": ["exact.QuadExt.__mul__", "exact.QuadExt.inverse"],
    "mix-jobs2": [],
}


def benchmark_json() -> dict:
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in per_layer_specs()],
    }
