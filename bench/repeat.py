#!/usr/bin/env python3
"""Repeat ``bench/run.py`` over several seeds and summarise the spread.

    python3 bench/repeat.py --workload ga-desk --seeds 1-10 --trace 0 \
        --out bench/_work/repeat-ga-desk.json

For every metric it reports the median, the first and third quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread
(q3 - q1) / median, and flags each end-to-end metric whose spread exceeds
the bound in BENCHMARK.json. With ``--baseline FILE`` the summary is merged
into FILE under the workload's name (how ``bench/baseline.json`` is made).
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def parse_seeds(spec: str) -> list[int]:
    seeds = []
    for part in spec.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "repeats": len(values), "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--out", type=Path, default=None)
    parser.add_argument("--baseline", type=Path, default=None)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs = []
    for seed in parse_seeds(args.seeds):
        started = time.monotonic()
        done = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True)
        elapsed = time.monotonic() - started
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        env = next((json.loads(line[len("env: "):]) for line in lines
                    if line.startswith("env: ")), {})
        runs.append({"seed": seed, "exit": done.returncode, "elapsed_s": elapsed,
                     "environment": env, **result})
        print(f"seed {seed}: exit {done.returncode}, {elapsed:.1f} s, "
              f"correct={result['correct']}", flush=True)

    names = list(runs[0]["metrics"])
    metrics = {}
    for name in names:
        summary = summarise([run["metrics"][name]["value"] for run in runs])
        summary["unit"] = runs[0]["metrics"][name]["unit"]
        metrics[name] = summary
        flag = ""
        if name in bounds and summary["spread"] > bounds[name]:
            flag = f"  SPREAD ABOVE BOUND {bounds[name]}"
        elif name in bounds and summary["spread"] > bounds[name] / 3:
            flag = f"  (above a third of bound {bounds[name]})"
        print(f"{name:32s} median {summary['median']:.6g} {summary['unit']}  "
              f"spread {summary['spread']:.4f}{flag}")

    summary = {
        "workload": args.workload, "trace": args.trace, "seconds": seconds,
        "seeds": [run["seed"] for run in runs],
        "environment": {key: value for key, value in runs[0]["environment"].items()
                        if key != "config_hash"},
        "config_hash": {run["seed"]: run["environment"].get("config_hash")
                        for run in runs},
        "all_correct": all(run["correct"] and run["exit"] == 0 for run in runs),
        "run_elapsed_s": summarise([run["elapsed_s"] for run in runs]),
        "metrics": metrics,
    }
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    if args.baseline:
        baseline = (json.loads(args.baseline.read_text())
                    if args.baseline.exists() else {})
        section = "end_to_end" if args.trace == 0 else "per_layer"
        baseline.setdefault(args.workload, {})[section] = summary
        args.baseline.write_text(json.dumps(baseline, indent=1) + "\n")
    return 0 if summary["all_correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
