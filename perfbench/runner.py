"""One measured process of the benchmark; run.py starts a fresh interpreter
on this file for every sample, so no cache of the program outlives a sample.

    python3 perfbench/runner.py MODE INPUTS_JSON STAMPS_JSON

MODE is one of

* ``setup``  import the CLI and read the inputs, then stop;
* ``run``    the same, then ``cli.main(["verify", ...])``, as a user runs it;
* ``trace``  the same as ``run`` at ``--jobs 1`` with every layer wrapped by
  the tracer; writes the call summary and the spans;
* ``micro``  time single scalar operations on operands taken from the
  workload's own contexts.

The runner writes monotonic-clock stamps to STAMPS_JSON; run.py stamps the
spawn with the same clock, so set-up time counts interpreter start.
"""

from __future__ import annotations

import json
import sys
import time
import traceback


def _dump(path, body):
    with open(path, "w") as fh:
        json.dump(body, fh)


def _verify_args(inputs, jobs):
    return ["verify", "--config", inputs["config_path"],
            "--out", inputs["report_path"], "--jobs", str(jobs),
            "--with-timings"]


def _time_op(op, batch_s=0.02, batches=5):
    """Median microseconds per call of op over several timed batches."""
    n = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(n):
            op()
        if time.perf_counter() - t0 >= batch_s:
            break
        n *= 2
    per_call = []
    for _ in range(batches):
        t0 = time.perf_counter()
        for _ in range(n):
            op()
        per_call.append((time.perf_counter() - t0) / n * 1e6)
    per_call.sort()
    return per_call[len(per_call) // 2]


def micro(inputs) -> dict:
    """Exact-layer microbenchmarks.  Operands: 1 - s^3 and 1 - s^-5 at the
    workload's generic point (Q(s) elements, as in the relations engine) and
    1 - s, 1 - s^3 of its first limit II context (hbar series over the
    cyclotomic field) with their constant terms (cyclotomic elements)."""
    from deformedw.context import ScalarCtx
    from deformedw.exact import RAT
    q, t = (RAT(x) for x in inputs["point"])
    N, k = inputs["limit2_pair"]
    g = ScalarCtx.generic(3, q, t)
    x, y = 1 - g.s_pow(3), 1 - g.s_pow(-5)
    a, b, c = g.q, g.t, g.p
    L = ScalarCtx.limit2(N, k)
    hx, hy = L.one - L.s, L.one - L.s_pow(3)
    cx, cy = hx.coeffs[0], hy.coeffs[0]
    checks = {
        "quad": x * x.inverse() == 1 and x * y == y * x,
        "cyc": cx * cx.inverse() == 1 and cx * cy == cy * cx,
        "hbar": hx * hx.inverse() == L.one and hx * hy == hy * hx,
        "rat": a * b + c == c + b * a,
    }
    ops = {
        "exact.rat_muladd_us": lambda: a * b + c,
        "exact.quad_mul_us": lambda: x * y,
        "exact.quad_inv_us": x.inverse,
        "exact.cyc_mul_us": lambda: cx * cy,
        "exact.cyc_inv_us": cx.inverse,
        "exact.hbar_mul_us": lambda: hx * hy,
        "exact.hbar_inv_us": hx.inverse,
    }
    return {"micro_us": {name: _time_op(op) for name, op in ops.items()},
            "checks": checks}


def main(argv) -> int:
    mode, inputs_path, stamps_path = argv
    from deformedw import cli
    with open(inputs_path) as fh:
        inputs = json.load(fh)
    stamps = {"mode": mode}
    if mode == "setup":
        stamps["t_main"] = time.monotonic()
        _dump(stamps_path, stamps)
        return 0
    if mode == "micro":
        stamps.update(micro(inputs))
        _dump(stamps_path, stamps)
        return 0
    tracer = None
    jobs = inputs["jobs"]
    if mode == "trace":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        jobs = 1
    elif mode != "run":
        raise SystemExit(f"unknown mode {mode!r}")
    stamps["t_main"] = time.monotonic()
    try:
        stamps["rc"] = cli.main(_verify_args(inputs, jobs))
    except Exception:
        stamps["error"] = traceback.format_exc()
    stamps["t_done"] = time.monotonic()
    if tracer is not None:
        stamps["trace"] = tracer.summary()
        _dump(inputs["spans_path"], tracer.span_table())
    _dump(stamps_path, stamps)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
