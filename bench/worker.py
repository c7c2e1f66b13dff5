"""One repetition of a benchmark workload, in a fresh interpreter.

    python3 bench/worker.py --workload ga-desk --config CFG --out DIR \
        --spawned <time.monotonic() taken just before this process started>

Drives the library the way ``risjam.cli`` does (``load_config``, then
``run_optimize``, or ``sweep_*`` plus ``write_sweep_csv``, or ``mean_delay``
plus ``simulate_md1``), checks the outputs and prints one JSON line. With
``--spans FILE`` the run is traced and the spans are written to FILE. With
``--setup-only`` it stops after set-up and reports only ``setup_s``.
"""

import argparse
import json
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import numpy
import scipy

from risjam import config, optimizer, sweeps, traffic

from tracing import Tracer, instrument, layer_metrics
from workloads import MDL_RHOS, get_workload

# Reference readings the sweep-oracle outputs must reproduce, each with half a
# unit of its last quoted digit as tolerance.
DELAY_100_S = (6.51e-4, 0.005e-4)
DELAY_1300_S = (2.055e-3, 0.0005e-3)
DELAY_RATIO_100_1300 = (0.3168, 0.00005)
ORACLE_BLOCKLENGTH = 108
MDL_MAX_REL_ERR = 0.02


def _check(name: str, ok: bool, detail) -> dict:
    return {"name": name, "ok": bool(ok), "detail": str(detail)}


def _close(value, reference) -> bool:
    quoted, tolerance = reference
    return isinstance(value, float) and abs(value - quoted) <= tolerance


# ----------------------------------------------------------------------------
#  Jobs
# ----------------------------------------------------------------------------

def job_ga(cfg, workload) -> dict:
    result = sweeps.run_optimize(cfg)
    evals = cfg.ga.population_size * (result.generations_run + 1) + 1
    return {"evals": evals, "best_eta": result.best_eta}


def job_sweep_oracle(cfg, workload) -> dict:
    rows = 0
    for kind, runner in (("delay-ee", sweeps.sweep_delay_ee),
                         ("rel-beta", sweeps.sweep_reliability_vs_beta),
                         ("sjnr-n", sweeps.sweep_sjnr_vs_n)):
        result = runner(cfg)
        sweeps.write_sweep_csv(result, cfg.output_dir / f"{kind}.csv")
        rows += len(result.rows)

    frame = traffic.FrameParams(cfg.header_time, cfg.bandwidth, cfg.blocklength)
    replicas = cfg.traffic.retransmissions
    service = replicas * frame.duration
    oracle = []
    for i, rho in enumerate(MDL_RHOS):
        rate = rho / service
        analytic = traffic.mean_delay(
            frame, traffic.TrafficParams((rate,), replicas), 1)
        simulated = traffic.simulate_md1(rate, service, workload.md1_arrivals,
                                         seed=cfg.seed + i)
        oracle.append((rho, analytic, simulated))
    return {"evals": rows, "best_eta": None, "oracle": oracle}


# ----------------------------------------------------------------------------
#  Output checks
# ----------------------------------------------------------------------------

def check_ga(cfg, model, output) -> list[dict]:
    out = cfg.output_dir
    record = sweeps.read_solution_record(out / "solution.txt")
    best = optimizer.DecisionVector(
        user_powers=tuple(record["user_powers_w"]),
        phases=tuple(record["phases_rad"]),
        amplitudes=tuple(record["amplitudes"]),
        blocklength=record["blocklength"],
        retransmissions=record["retransmissions"],
    )
    _, violations = optimizer.evaluate_fitness(best, model, cfg.constraints)
    trace = sweeps.read_sweep_csv(out / "convergence.csv")
    column = trace.columns.index("best_objective")
    objectives = [row[column] for row in trace.rows]
    return [
        _check("feasible", record["feasible"] is True, record["feasible"]),
        _check("zero_residuals", all(v == 0.0 for v in violations.values()),
               violations),
        _check("best_objective_non_increasing",
               len(objectives) == cfg.ga.max_generations
               and all(b <= a for a, b in zip(objectives, objectives[1:])),
               f"{len(objectives)} generations"),
    ]


def check_sweep_oracle(cfg, model, output) -> list[dict]:
    result = sweeps.read_sweep_csv(cfg.output_dir / "delay-ee.csv")
    rate_col = result.columns.index("arrival_rate_per_s")
    length_col = result.columns.index("blocklength")
    delay_col = result.columns.index("mean_delay_s")
    delays = {row[rate_col]: row[delay_col] for row in result.rows
              if row[length_col] == ORACLE_BLOCKLENGTH}
    ratio = float(result.metadata.get("delay_ratio_100_1300", "nan"))
    checks = [
        _check("delay_100", _close(delays.get(100.0), DELAY_100_S), delays.get(100.0)),
        _check("delay_1300", _close(delays.get(1300.0), DELAY_1300_S), delays.get(1300.0)),
        _check("delay_ratio_100_1300", _close(ratio, DELAY_RATIO_100_1300), ratio),
    ]
    for rho, analytic, simulated in output["oracle"]:
        err = abs(simulated - analytic) / analytic
        checks.append(_check(f"mdl_rho_{rho}", err <= MDL_MAX_REL_ERR, err))
    return checks


JOBS = {"ga": (job_ga, check_ga), "sweep-oracle": (job_sweep_oracle, check_sweep_oracle)}


# ----------------------------------------------------------------------------
#  One repetition
# ----------------------------------------------------------------------------

def setup(config_path: Path, out_dir: Path):
    cfg = config.load_config(config_path, output_dir=out_dir)
    return cfg, sweeps.build_model(cfg)


def run_rep(workload, config_path: Path, out_dir: Path, spawned: float,
            spans_path: Path | None = None) -> dict:
    job, check = JOBS[workload.kind]
    tracer = Tracer() if spans_path is not None else None
    with instrument(tracer) if tracer is not None else nullcontext():
        with tracer.span("bench:setup") if tracer else nullcontext():
            cfg, model = setup(config_path, out_dir)
        setup_s = time.monotonic() - spawned
        start = time.perf_counter()
        cpu_start = time.process_time()
        with tracer.span("bench:job") if tracer else nullcontext():
            output = job(cfg, workload)
        job_cpu_s = time.process_time() - cpu_start
        wall_s = time.perf_counter() - start
    rep = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "job_cpu_s": job_cpu_s,
        "evals": output["evals"],
        "best_eta": output["best_eta"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "config_hash": cfg.config_hash,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
        "checks": check(cfg, model, output),
    }
    if tracer is not None:
        rep["layers"] = layer_metrics(tracer, cfg.ga.constraint_tolerance,
                                      output["best_eta"] or 0.0)
        tracer.write(spans_path)
    return rep


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--config", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--spans", type=Path, default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    if args.setup_only:
        setup(args.config, args.out)
        print(json.dumps({"setup_s": time.monotonic() - args.spawned}))
        return 0
    rep = run_rep(get_workload(args.workload, args.tiny), args.config, args.out,
                  args.spawned, args.spans)
    print(json.dumps(rep))
    return 0


if __name__ == "__main__":
    sys.exit(main())
