#!/usr/bin/env python3
"""risjam benchmark: one measured run of one workload.

    python3 bench/run.py --workload ga-desk --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout (``src/risjam`` must exist; nothing is
built). Each repetition is a fresh interpreter (``bench/worker.py``) with
BLAS/OpenMP threads pinned to 1, one at a time; repetitions continue until
``--seconds`` have passed (at least three). The configs are generated from
``--seed``. Every output is checked; a failed check makes the run exit 1.

``--trace 0`` reports the end-to-end metrics, as medians over repetitions:
  setup_s      fresh interpreter start, imports, load_config and build_model;
               before each repetition SETUP_PROBES more interpreters only set
               up, and the median is over all of these set-ups
  wall_s       the job, up to every output file written
  evals_per_s  metric-chain evaluations per second of wall_s (GA: fitness
               evaluations; sweep-oracle: sweep rows)
  peak_rss_mb  peak resident set size of the repetition's process
``--trace 1`` alternates untraced and traced repetitions of the same config
and reports the per-layer metrics of the traced ones (see tracing.py), plus
``trace.overhead_frac``: the median CPU time of the traced jobs over that of
the untraced ones, minus 1 (CPU time, because wall time on a shared host
drifts by more than the overhead).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; everything a run
measured, with the environment it ran in, also goes to
``bench/_work/<workload>-seed<seed>-trace<trace>/result.json``.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, config_text, get_workload

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / "_work"

MIN_REPS = 3
SETUP_PROBES = 2
RUN_DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def metric_units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


class WorkerError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_worker(workload: str, tiny: bool, config: Path, out: Path,
               spans: Path | None, deadline: float, setup_only: bool = False) -> dict:
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    spawned = time.monotonic()
    command = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", workload,
               "--config", str(config), "--out", str(out), "--spawned", repr(spawned)]
    if tiny:
        command.append("--tiny")
    if spans is not None:
        command += ["--spans", str(spans)]
    if setup_only:
        command.append("--setup-only")
    try:
        done = subprocess.run(command, env=worker_env(), capture_output=True,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise WorkerError("repetition did not finish before the run deadline") from exc
    if done.returncode != 0 or not done.stdout.strip():
        raise WorkerError(f"worker exited {done.returncode}:\n{done.stderr[-4000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment(reps: list[dict]) -> dict:
    return {
        "git_commit": git_commit(),
        **(reps[0]["versions"] if reps else {}),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "threads": {var: "1" for var in THREAD_VARS},
        "process_per_repetition": True,
        "config_hash": sorted({rep["config_hash"] for rep in reps}),
    }


def end_to_end(reps: list[dict], setups: list[float]) -> dict:
    per_rep = {
        "setup_s": [r["setup_s"] for r in reps] + setups,
        "wall_s": [r["wall_s"] for r in reps],
        "evals_per_s": [r["evals"] / r["wall_s"] for r in reps],
        "peak_rss_mb": [r["peak_rss_mb"] for r in reps],
    }
    return {name: statistics.median(values) for name, values in per_rep.items()}


def per_layer(pairs: list[tuple[dict, dict]]) -> dict:
    traced = [t["layers"] for _, t in pairs]
    metrics = {name: statistics.median(layer[name] for layer in traced)
               for name in traced[0]}
    metrics["trace.overhead_frac"] = (
        statistics.median(t["job_cpu_s"] for _, t in pairs)
        / statistics.median(u["job_cpu_s"] for u, _ in pairs) - 1.0)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink the workload (the benchmark's own tests)")
    args = parser.parse_args(argv)

    if not (SRC / "risjam" / "__init__.py").is_file():
        print(f"error: no risjam sources at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    started = time.monotonic()
    deadline = started + RUN_DEADLINE_S
    workload = get_workload(args.workload, args.tiny)
    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config = work / "config.ini"
    config.write_text(config_text(workload, args.seed))
    out = work / "out"

    print(f"risjam benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print(f"why: {workload.why}")

    reps: list[dict] = []
    setups: list[float] = []
    pairs: list[tuple[dict, dict]] = []
    error = None
    try:
        while len(reps) < MIN_REPS or time.monotonic() - started < args.seconds:
            if not args.trace:
                setups += [run_worker(args.workload, args.tiny, config, out, None,
                                      deadline, setup_only=True)["setup_s"]
                           for _ in range(SETUP_PROBES)]
            rep = run_worker(args.workload, args.tiny, config, out, None, deadline)
            reps.append(rep)
            line = (f"rep {len(reps)}: setup_s={rep['setup_s']:.4f} "
                    f"wall_s={rep['wall_s']:.4f}")
            if args.trace:
                traced = run_worker(args.workload, args.tiny, config, out,
                                    work / "spans.csv", deadline)
                pairs.append((rep, traced))
                line += f" traced_wall_s={traced['wall_s']:.4f}"
            print(line, flush=True)
    except WorkerError as exc:
        error = str(exc)
        print(f"error: {error}", file=sys.stderr)
    shutil.rmtree(out, ignore_errors=True)

    checks = [c for rep in reps for c in rep["checks"]]
    checks += [c for _, traced in pairs for c in traced["checks"]]
    failed = [c for c in checks if not c["ok"]]
    attempted = len(checks) + (1 if error else 0)
    n_failed = len(failed) + (1 if error else 0)
    for check in failed:
        print(f"check failed: {check['name']} ({check['detail']})", file=sys.stderr)

    values = {}
    if args.trace and pairs:
        values = per_layer(pairs)
    elif reps and not args.trace:
        values = end_to_end(reps, setups)
    units = metric_units()
    metrics = {name: {"value": value, "unit": units[name]}
               for name, value in values.items()}

    for name, metric in metrics.items():
        print(f"{name:32s} {metric['value']:.6g} {metric['unit']}")
    eta = reps[0]["best_eta"] if reps else None
    if eta is not None:
        print(f"{'best_eta_bits_per_j':32s} {eta:.6g} bits/J (GA seed {args.seed})")
    print(f"{'failed_frac':32s} {n_failed / max(attempted, 1):.6g} "
          f"({n_failed} of {attempted} checks)")

    env = environment(reps)
    print("env: " + json.dumps(env))
    (work / "result.json").write_text(json.dumps({
        "workload": args.workload, "why": workload.why, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "tiny": args.tiny,
        "environment": env, "repetitions": reps, "setup_probes_s": setups,
        "traced_repetitions": [t for _, t in pairs], "error": error,
        "metrics": metrics,
    }, indent=1))

    correct = n_failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": n_failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
