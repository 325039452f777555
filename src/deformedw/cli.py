"""Batch runner: suite selection, deterministic execution, report emission.

Subcommands:

* ``verify`` runs selected suites against an INI config and writes a JSON
  report (timing-free and byte-reproducible by default) plus a summary to
  stdout; exit code 0 iff nothing failed (inconclusive counts separately).
* ``dump`` prints exact series/value data for a named object.
* ``list-suites`` lists the registry.

The parallelism degree comes from --jobs (default 1); the pool runs whole
suites, and results merge sorted by case key.
"""

from __future__ import annotations

import argparse
import configparser
import json
import os
import sys
import time
from contextlib import ExitStack

from .context import DEFAULT_GENERIC_POINTS, ScalarCtx
from .exact import Cyc, RAT
from .report import Report
from .suites import SUITES, check_options


def load_config(path):
    cp = configparser.ConfigParser()
    text = ""
    if path:
        with open(path) as fh:
            text = fh.read()
        cp.read_string(text, source=path)
    return cp, text


def run_suites(names, cp, jobs=1):
    report = Report()
    timings = {}
    cfgs = [dict(cp[name]) if cp.has_section(name) else {} for name in names]
    # a fork pool starts all its workers at the first submit, so it gets
    # no more workers than suites, and one suite runs in this process
    workers = min(jobs, len(names))
    with ExitStack() as stack:
        run = map
        if workers > 1:
            from concurrent.futures import ProcessPoolExecutor
            pool = stack.enter_context(
                ProcessPoolExecutor(max_workers=workers))
            run = pool.map
        for name, (recs, ms) in zip(names, run(_run_one, names, cfgs)):
            report.extend(recs)
            timings[name] = ms
    return report, timings


def _run_one(name, cfg):
    t0 = time.monotonic()
    recs = SUITES[name][0](cfg)
    return recs, int((time.monotonic() - t0) * 1000)


def stray_sections(cp):
    """Config sections that are neither [suites] nor named after a suite;
    a misspelled suite section would otherwise leave its suite on the
    defaults."""
    return [s for s in cp.sections() if s != "suites" and s not in SUITES]


def cmd_verify(args):
    try:
        cp, text = load_config(args.config)
    except (OSError, UnicodeDecodeError, configparser.Error) as exc:
        # configparser's messages span lines; print them on one
        print(f"verify --config {args.config!r}: {' '.join(str(exc).split())}",
              file=sys.stderr)
        return 2
    stray = stray_sections(cp)
    if stray:
        print(f"verify --config {args.config!r}: unknown section "
              f"[{stray[0]}], neither [suites] nor a suite", file=sys.stderr)
        return 2
    if args.suite:
        # a suite named twice runs once
        names = list(dict.fromkeys(args.suite))
    elif cp.has_section("suites"):
        names = []
        for key in cp["suites"]:
            try:
                on = cp["suites"].getboolean(key)
            except ValueError:
                print(f"verify --config {args.config!r}: [suites] {key} = "
                      f"{cp['suites'][key]!r}: not a boolean (1/yes/true/on "
                      f"or 0/no/false/off)", file=sys.stderr)
                return 2
            if on:
                names.append(key)
    else:
        names = sorted(SUITES)
    unknown = [n for n in names if n not in SUITES]
    if unknown:
        print(f"unknown suites: {', '.join(unknown)}", file=sys.stderr)
        return 2
    if not names:
        print("no suites selected", file=sys.stderr)
        return 2
    for name in names:
        if cp.has_section(name):
            try:
                check_options(name, cp[name])
            except ValueError as exc:
                print(f"verify --config {args.config!r}: {exc}",
                      file=sys.stderr)
                return 2
    try:
        jobs = int(args.jobs)
    except ValueError:
        jobs = 0
    if jobs < 1:
        print(f"--jobs must be an integer >= 1, got {args.jobs!r}",
              file=sys.stderr)
        return 2
    if args.out and (os.path.isdir(args.out) or
                     not os.path.isdir(os.path.dirname(args.out) or ".")):
        print(f"verify --out {args.out!r}: not a file in an existing "
              f"directory", file=sys.stderr)
        return 2
    report, timings = run_suites(sorted(names), cp, jobs)
    payload = report.to_json(config_text=text,
                             timings=timings if args.with_timings else None)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
    for line in report.summary_lines():
        print(line)
    return 0 if report.ok else 1


def _parse_kv(ident):
    parts = ident.split(":")
    kind = parts[0]
    kv = {}
    for part in parts[1:]:
        k, _, v = part.partition("=")
        kv[k] = v
    return kind, kv


def _scalar_json(x):
    if isinstance(x, Cyc):
        return {"cyclotomic_order": x.order,
                "coeffs": [str(c) for c in x.coeffs]}
    from .exact import QuadExt, HbarSeries
    if isinstance(x, QuadExt):
        return {"rational_part": str(x.a), "s_part": str(x.b)}
    if isinstance(x, HbarSeries):
        return {"hbar_coeffs": [_scalar_json(c) if isinstance(c, Cyc)
                                else str(c) for c in x.coeffs],
                "trunc": x.trunc}
    return str(x)


def cmd_dump(args):
    kind, kv = _parse_kv(args.id)
    try:
        body = _dump_body(kind, kv, args.order)
    except KeyError as exc:
        print(f"dump {args.id!r}: missing key {exc.args[0]!r}",
              file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError) as exc:
        print(f"dump {args.id!r}: {exc}", file=sys.stderr)
        return 2
    if body is None:
        print(f"unknown object id {args.id!r}", file=sys.stderr)
        return 2
    json.dump(body, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return 0


def _generic_ctx(kv):
    """The generic context of a dumped object: rank N, and q and t (by
    default the first default generic point)."""
    q, t = DEFAULT_GENERIC_POINTS[0]
    return ScalarCtx.generic(int(kv["N"]), RAT(kv.get("q", q)),
                             RAT(kv.get("t", t)))


def _dump_body(kind, kv, order):
    """The JSON body of one dumped object; None for an unknown kind.  A
    missing key raises KeyError, a bad value or a pole ValueError or
    ArithmeticError."""
    if kind == "f":
        ctx = _generic_ctx(kv)
        from .structfn import f_series
        win = f_series(ctx, int(kv["i"]), int(kv["j"]), order)
        data = [_scalar_json(win.coefficient((n,))) for n in range(order + 1)]
        body = {"object": "f", "N": ctx.N, "i": int(kv["i"]),
                "j": int(kv["j"]), "q": str(ctx.q), "t": str(ctx.t),
                "coefficients": data}
    elif kind == "g":
        from .structfn import g_series
        N, k = int(kv["N"]), int(kv["k"])
        win = g_series(N, k, int(kv["mu"]), int(kv["nu"]), order)
        data = [_scalar_json(win.coefficient((n,))) for n in range(order + 1)]
        body = {"object": "g", "N": N, "k": k, "mu": int(kv["mu"]),
                "nu": int(kv["nu"]), "cyclotomic_order": 2 * N,
                "coefficients": data}
    elif kind == "gamma":
        ctx = _generic_ctx(kv)
        from .structfn import gamma_at
        body = {"object": "gamma", "argument_s_power": int(kv["a"]),
                "value": _scalar_json(gamma_at(ctx, int(kv["a"])))}
    elif kind == "bernoulli":
        from .zeta import bernoulli_table
        table = bernoulli_table(max(order, 1))
        body = {"object": "bernoulli",
                "values": {str(m): str(v) for m, v in table.items()}}
    elif kind == "zeta":
        from .zeta import zeta_value
        body = {"object": "zeta",
                "values": {str(1 - 2 * m): str(zeta_value(m))
                           for m in range(1, max(order, 1) + 1)}}
    elif kind == "char":
        from .characters import dza_character
        ch = dza_character(int(kv["k"]), RAT(kv["j"]), order)
        body = {"object": "char", "k": int(kv["k"]), "j": str(RAT(kv["j"])),
                "resolution": ch.res,
                "coefficients": {str(k2): str(v)
                                 for k2, v in sorted(ch.coeffs.items())}}
    elif kind == "wvac":
        ctx = _generic_ctx(kv)
        from .fock import HighestWeight, hw_eigenvalue_w
        val = hw_eigenvalue_w(ctx, HighestWeight.vacuum(ctx), int(kv["i"]))
        body = {"object": "wvac", "N": ctx.N, "i": int(kv["i"]),
                "value": _scalar_json(val)}
    else:
        return None
    return body


def cmd_list_suites(args):
    for name in sorted(SUITES):
        print(f"{name:14s} {SUITES[name][1]}")
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="deformedw",
        description="exact verification suites for deformed W_N current algebras")
    sub = ap.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run verification suites")
    v.add_argument("--config", help="INI configuration file")
    v.add_argument("--suite", action="append",
                   help="suite name (repeatable; overrides config)")
    v.add_argument("--out", help="write the JSON report here")
    v.add_argument("--jobs", default="1",
                   help="worker processes, one suite each (default 1)")
    v.add_argument("--with-timings", action="store_true",
                   help="include wall times (breaks byte reproducibility)")
    v.set_defaults(fn=cmd_verify)

    d = sub.add_parser("dump", help="dump exact series or values")
    d.add_argument("id", help='object id, e.g. "f:N=3:i=1:j=2" or '
                              '"g:N=2:k=2:mu=1:nu=1" or "bernoulli"')
    d.add_argument("--order", type=int, default=8)
    d.set_defaults(fn=cmd_dump)

    ls = sub.add_parser("list-suites", help="list available suites")
    ls.set_defaults(fn=cmd_list_suites)

    args = ap.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
