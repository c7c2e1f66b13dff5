#!/usr/bin/env python3
"""Run the GA of one benchmark workload over a range of seeds and check each run.

    python3 tools/seed_scan.py [--root CHECKOUT] --workload ga-desk --seeds 1-100

For every seed it builds the config ``bench/workloads.config_text(workload,
seed)`` of this checkout, runs ``run_ga`` of ``CHECKOUT/src`` (by default
this checkout's) in this process, and applies the three checks the
benchmark worker applies to a GA run: the record is feasible, re-scoring
the recorded point with ``evaluate_fitness`` gives zero residuals, and the
best objective never increases over the generations. It prints one line
per seed (feasible, eta in bits/J, the residuals of the re-score, the checks
that failed) and a summary line with the feasible count and the median eta.
The exit code is 1 if any check failed. Run it once with ``--root`` at each
of two checkouts to compare them.
"""

import argparse
import statistics
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))

from workloads import config_text, get_workload  # noqa: E402


def _seeds(text: str) -> range:
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def scan_seed(workload, seed: int, work: Path) -> dict:
    """Run the GA of ``workload`` at ``seed`` and check it as the bench worker
    does; ``risjam`` must be importable."""
    from risjam import config, optimizer, sweeps

    path = work / f"seed{seed}.ini"
    path.write_text(config_text(workload, seed))
    cfg = config.load_config(path)
    model = sweeps.build_model(cfg)
    result = optimizer.run_ga(model, cfg.constraints, cfg.ga)
    _, residuals = optimizer.evaluate_fitness(result.best_solution, model,
                                              cfg.constraints)
    history = result.fitness_history
    checks = {
        "feasible": result.feasible,
        "zero_residuals": all(v == 0.0 for v in residuals.values()),
        "best_objective_non_increasing":
            len(history) == cfg.ga.max_generations
            and all(b <= a for a, b in zip(history, history[1:])),
    }
    return {"seed": seed, "feasible": result.feasible, "eta": result.best_eta,
            "residuals": residuals, "failed": [name for name, ok in checks.items()
                                               if not ok]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=ROOT,
                        help="checkout whose src/ is run (default: this one)")
    parser.add_argument("--workload", required=True, help="a GA workload, e.g. ga-desk")
    parser.add_argument("--seeds", type=_seeds, required=True, help="A-B, inclusive")
    args = parser.parse_args(argv)
    workload = get_workload(args.workload)
    if workload.kind != "ga":
        parser.error(f"{args.workload} is not a GA workload")
    sys.path.insert(0, str(args.root.resolve() / "src"))

    scans = []
    with tempfile.TemporaryDirectory() as work:
        for seed in args.seeds:
            scan = scan_seed(workload, seed, Path(work))
            scans.append(scan)
            residuals = " ".join(f"{name}={value!r}"
                                 for name, value in scan["residuals"].items())
            print(f"seed {seed}: feasible={scan['feasible']} eta={scan['eta']!r} "
                  f"{residuals} failed={','.join(scan['failed']) or '-'}", flush=True)
    etas = [scan["eta"] for scan in scans if scan["eta"] is not None]
    median = statistics.median(etas) if etas else None
    print(f"summary: {sum(scan['feasible'] for scan in scans)}/{len(scans)} feasible, "
          f"{sum(not scan['failed'] for scan in scans)}/{len(scans)} pass every check, "
          f"median eta {median!r} bits/J")
    return 1 if any(scan["failed"] for scan in scans) else 0


if __name__ == "__main__":
    sys.exit(main())
