"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload relations --seeds 1-10 [--out FILE]

Runs perfbench/run.py once per seed and workload (untraced), then prints for
each metric the median and the interquartile distance as a share of the
median, with quartiles from statistics.quantiles(values, n=4), next to a
third of the metric's bound.  --out writes the runs and the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spec                          # noqa: E402
from inputs import WORKLOADS         # noqa: E402
from run import describe_environment  # noqa: E402


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def one_run(workload: str, seed: int, seconds: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=HERE.parent, capture_output=True, text=True, check=False)
    return json.loads(out.stdout.strip().splitlines()[-1])


def spread(values: list) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=WORKLOADS)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=spec.RUN_SECONDS)
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    body = {}
    for workload in args.workload or WORKLOADS:
        runs = []
        for seed in seeds:
            result = one_run(workload, seed, args.seconds)
            runs.append({"seed": seed, **result})
            print(f"{workload} seed {seed}: correct={result['correct']} " +
                  " ".join(f"{k}={v['value']:.4g}"
                           for k, v in result["metrics"].items()), flush=True)
        summary = {}
        for name, _, _, bound in spec.END_TO_END:
            values = [r["metrics"][name]["value"] for r in runs]
            summary[name] = {"median": statistics.median(values),
                             "spread": spread(values), "bound": bound}
            print(f"  {name:12s} median {summary[name]['median']:.5g}  "
                  f"spread {summary[name]['spread']:.4f}  "
                  f"bound/3 {bound / 3:.4f}", flush=True)
        body[workload] = {"seeds": seeds, "runs": runs, "summary": summary,
                          "all_correct": all(r["correct"] for r in runs)}
    ok = all(w["all_correct"] for w in body.values())
    if args.out:
        body["environment"] = describe_environment()
        Path(args.out).write_text(json.dumps(body, indent=2) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
