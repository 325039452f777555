"""Benchmark of `deformedw verify` on seeded workloads.

    python3 perfbench/run.py --workload relations --seed 1 --seconds 40 --trace 0

Every sample runs in a fresh interpreter started on perfbench/runner.py, which
imports the package from src/ and calls the public entry point cli.main.
With --trace 0 the run reports the end-to-end metrics; with --trace 1 it
reports the per-layer metrics from one untraced run, one traced run at
--jobs 1 and the exact-layer microbenchmarks.  Each run checks every verdict
and the record count.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

--workload all runs every workload in turn; --write-benchmark-json writes
BENCHMARK.json from spec.py.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from importlib.util import find_spec
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
sys.path.insert(0, str(HERE))

import spec                                  # noqa: E402
from inputs import WORKLOADS, Inputs         # noqa: E402

DEADLINE_S = 170          # a run must end within 180 s
SETUP_SAMPLES = 7         # set-up-only interpreters per untraced run
POLL_S = 0.05


class Child:
    """One finished runner process: its stamps and resource usage."""

    def __init__(self, t_spawn, t_exit, status, rusage, stamps):
        self.t_spawn = t_spawn
        self.t_exit = t_exit
        self.status = status
        self.rusage = rusage
        self.stamps = stamps

    @property
    def ok(self) -> bool:
        return self.status == 0 and bool(self.stamps) and \
            "error" not in self.stamps

    @property
    def setup_s(self):
        t = self.stamps.get("t_main")
        return None if t is None else t - self.t_spawn

    @property
    def wall_s(self) -> float:
        return self.stamps.get("t_done", self.t_exit) - self.t_spawn

    @property
    def cpu_s(self) -> float:
        ru = self.rusage
        return ru.ru_utime + ru.ru_stime if ru else 0.0

    @property
    def peak_rss_mb(self) -> float:
        # Linux reports ru_maxrss in KiB; for a reaped child it is the peak
        # of its largest process, pool workers included
        return self.rusage.ru_maxrss / 1024 if self.rusage else 0.0


def _env() -> dict:
    env = dict(os.environ)
    env.pop("DWNV_JOBS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep)
                      if p])
    env["PYTHONHASHSEED"] = "0"
    return env


def _reap(pid: int, deadline: float):
    """Wait for pid; kill its process group at the deadline.  Returns the
    exit status and the rusage of the whole process tree."""
    while True:
        done, status, rusage = os.wait4(pid, os.WNOHANG)
        if done:
            break
        if time.monotonic() > deadline:
            os.killpg(pid, signal.SIGKILL)
            _, status, rusage = os.wait4(pid, 0)
            break
        time.sleep(POLL_S)
    # pool workers share the child's process group; none may outlive it
    for _ in range(100):
        try:
            os.killpg(pid, signal.SIGKILL)
        except ProcessLookupError:
            break
        time.sleep(POLL_S)
    return os.waitstatus_to_exitcode(status), rusage


def spawn(mode: str, inputs_path: Path, tag: str, deadline: float) -> Child:
    stamps_path = WORK / f"{tag}.stamps.json"
    stamps_path.unlink(missing_ok=True)
    with open(WORK / f"{tag}.log", "w") as log:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "runner.py"), mode, str(inputs_path),
             str(stamps_path)],
            cwd=ROOT, env=_env(), stdout=log, stderr=subprocess.STDOUT,
            start_new_session=True)
        try:
            status, rusage = _reap(proc.pid, deadline)
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            os.wait4(proc.pid, 0)
            raise
        proc.returncode = status
        t_exit = time.monotonic()
    try:
        stamps = json.loads(stamps_path.read_text())
    except (OSError, ValueError):
        stamps = {}
    return Child(t_spawn, t_exit, status, rusage, stamps)


# -- output check


def check_report(child: Child, inputs: Inputs, report_path: Path):
    """(records expected, records not passing or missing, problems)."""
    expected = inputs.expected_records()
    if not child.ok:
        why = child.stamps.get("error") or f"runner exit status {child.status}"
        return expected, expected, [why.strip().splitlines()[-1]]
    try:
        body = json.loads(report_path.read_text())
        checks = body["checks"]
    except (OSError, ValueError, KeyError) as exc:
        return expected, expected, [f"unreadable report: {exc}"]
    problems = []
    bad = sum(1 for c in checks if c.get("status") != "pass")
    if bad:
        problems.append(f"{bad} records not pass")
    if len(checks) != expected:
        problems.append(f"{len(checks)} records, expected {expected}")
    if sorted(body.get("timings_ms", {})) != inputs.suites:
        problems.append("timings do not list the selected suites")
    fails = sum(1 for c in checks if c.get("status") == "fail")
    if child.stamps.get("rc") != (1 if fails else 0):
        problems.append(f"exit code {child.stamps.get('rc')}")
    failed = min(expected, bad + abs(len(checks) - expected))
    if problems and not failed:
        failed = expected
    return expected, failed, problems


def pool_efficiency(report_path: Path, jobs: int, wall_s: float) -> float:
    timings = json.loads(report_path.read_text()).get("timings_ms", {})
    return sum(timings.values()) / 1000 / (jobs * wall_s)


# -- runs


class Rep:
    """Files of one repetition: its inputs, config and report."""

    def __init__(self, workload: str, seed: int, rep: int):
        self.inputs = Inputs(workload, seed, rep)
        self.tag = f"{workload}-{seed}-{rep}"
        self.config_path = WORK / f"{self.tag}.ini"
        self.report_path = WORK / f"{self.tag}.report.json"
        self.inputs_path = WORK / f"{self.tag}.inputs.json"
        self.config_path.write_text(self.inputs.config_text())
        q, t = self.inputs.point
        self.inputs_path.write_text(json.dumps({
            "config_path": str(self.config_path),
            "report_path": str(self.report_path),
            "spans_path": str(WORK / f"{self.tag}.spans.json"),
            "jobs": self.inputs.jobs,
            "point": [str(q), str(t)],
            "limit2_pair": self.inputs.limit2_pairs[0],
        }))


class Run:
    def __init__(self, workload: str, seed: int, seconds: float):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.t_start = time.monotonic()
        self.deadline = self.t_start + DEADLINE_S
        self.attempted = 0
        self.failed = 0
        self.problems = []
        WORK.mkdir(exist_ok=True)

    def spawn(self, mode: str, rep: Rep) -> Child:
        return spawn(mode, rep.inputs_path, f"{rep.tag}.{mode}", self.deadline)

    def verify(self, mode: str, rep: Rep) -> Child:
        """One verify invocation, checked record by record."""
        rep.report_path.unlink(missing_ok=True)
        child = self.spawn(mode, rep)
        expected, failed, problems = check_report(child, rep.inputs,
                                                  rep.report_path)
        self.attempted += expected
        self.failed += failed
        self.problems += [f"{rep.tag} {mode}: {p}" for p in problems]
        return child

    def end_to_end(self) -> dict:
        first = Rep(self.workload, self.seed, 0)
        self.spawn("setup", first)           # writes the bytecode cache
        setups = [self.spawn("setup", first) for _ in range(SETUP_SAMPLES)]
        runs = []
        while True:
            runs.append(self.verify("run", Rep(self.workload, self.seed,
                                               len(runs))))
            elapsed = time.monotonic() - self.t_start
            if elapsed + runs[-1].wall_s > min(self.seconds, DEADLINE_S / 2):
                break
        setup = [c.setup_s for c in setups + runs if c.setup_s is not None]
        if len(setup) < len(setups) + len(runs):
            self.problems.append("set-up stamps missing")
        med = statistics.median
        return {
            "wall_s": med(c.wall_s for c in runs),
            "cpu_s": med(c.cpu_s for c in runs),
            "setup_s": med(setup) if setup else 0.0,
            "peak_rss_mb": med(c.peak_rss_mb for c in runs),
            "pass_rate": 1 - self.failed / self.attempted,
        }

    def per_layer(self) -> dict:
        rep = Rep(self.workload, self.seed, 0)
        plain = self.verify("run", rep)
        efficiency = pool_efficiency(rep.report_path, rep.inputs.jobs,
                                     plain.wall_s) if plain.ok else 0.0
        traced = self.verify("trace", rep)
        micro = self.spawn("micro", rep)
        if not micro.ok or not all(micro.stamps["checks"].values()):
            self.problems.append(f"microbenchmark operands: {micro.stamps}")
        summary = traced.stamps.get("trace")
        if summary is None:
            self.problems.append("traced run wrote no call summary")
            summary = {"calls": {}, "self_s": {}, "total_s": {},
                       "suite_total_s": {}, "distinct_profiles": 0,
                       "cache_entries_max": 0, "unwrapped": []}
        self.problems += self_test(self.workload, summary)
        if self.problems:
            self.failed = max(self.failed, 1)
        return layer_metrics(summary, micro.stamps.get("micro_us", {}),
                             efficiency,
                             traced.cpu_s / plain.cpu_s if plain.cpu_s else 0.0)


def self_test(workload: str, summary: dict) -> list:
    """Tracer checks: nothing left unwrapped, expected names called, and
    the scalar types a workload must not touch left alone."""
    calls = summary["calls"]
    problems = [f"unwrapped original at {where}"
                for where in summary["unwrapped"]]
    problems += [f"{name} recorded no call on {workload}"
                 for name in spec.EXPECT_CALLED[workload]
                 if not calls.get(name)]
    problems += [f"{name} recorded {calls[name]} calls on {workload}"
                 for name in spec.EXPECT_ZERO[workload] if calls.get(name)]
    return problems


def layer_metrics(summary, micro_us, efficiency, overhead) -> dict:
    calls, self_s = summary["calls"], summary["self_s"]
    out = {name: micro_us.get(name, 0.0) for name in spec.MICRO}
    for name in spec.COUNTED:
        out[f"{name}.calls"] = calls.get(name, 0)
    for name in spec.SPANNED:
        out[f"{name}.calls"] = calls.get(name, 0)
        out[f"{name}.self_s"] = self_s.get(name, 0.0)
    value_calls = calls.get("wcurrents.ModeEngine.value", 0)
    pinned = calls.get("wcurrents.pinned_mode_value", 0)
    out["context.cache_entries_max"] = summary["cache_entries_max"]
    out["wcurrents.ModeEngine.value.distinct_ratio"] = \
        summary["distinct_profiles"] / value_calls if value_calls else 0.0
    out["wcurrents.resummed_share"] = \
        calls.get("wcurrents.pinned_mode_value_resummed", 0) / pinned \
        if pinned else 0.0
    for name in spec.SUITES:
        out[f"suites.{name}.total_s"] = summary["suite_total_s"].get(name, 0.0)
    out["report.Report.to_json.total_s"] = \
        summary["total_s"].get("report.Report.to_json", 0.0)
    out["cli.pool_efficiency"] = efficiency
    out["trace.overhead"] = overhead
    return out


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    run = Run(workload, seed, seconds)
    if trace:
        values = run.per_layer()
        units = {n: u for n, u, _ in spec.per_layer_specs()}
    else:
        values = run.end_to_end()
        units = {n: u for n, u, _, _ in spec.END_TO_END}
    for problem in run.problems:
        print(f"problem: {problem}")
    return {
        "correct": not run.problems and run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }


def describe_environment() -> str:
    # exact.RAT is gmpy2.mpq when gmpy2 imports, else fractions.Fraction
    rat = "fractions.Fraction" if find_spec("gmpy2") is None else "gmpy2.mpq"
    return (f"python {platform.python_version()}, nproc {os.cpu_count()}, "
            f"exact.RAT {rat}")


def print_result(workload: str, seed: int, result: dict):
    print(f"# workload {workload}, seed {seed}: "
          f"{result['attempted']} records checked, {result['failed']} "
          f"failed or missing, correct={result['correct']}")
    for name, m in result["metrics"].items():
        print(f"{workload:10s} {name:48s} {m['value']:>14.6g} {m['unit']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=list(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-benchmark-json", action="store_true",
                    help="write BENCHMARK.json from spec.py and stop")
    args = ap.parse_args(argv)
    if args.write_benchmark_json:
        (ROOT / "BENCHMARK.json").write_text(
            json.dumps(spec.benchmark_json(), indent=2) + "\n")
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    if not (SRC / "deformedw" / "cli.py").is_file():
        print(f"no program to measure: {SRC / 'deformedw'} is missing",
              file=sys.stderr)
        return 2
    print(f"# {describe_environment()}")
    names = WORKLOADS if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = measure(name, args.seed, args.seconds,
                                bool(args.trace))
        print_result(name, args.seed, results[name])
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{n}": m for w, r in results.items()
                        for n, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
