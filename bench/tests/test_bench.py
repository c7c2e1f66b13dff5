"""Tests of the benchmark itself (not of risjam).

    python3 -m pytest -q bench/tests
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import worker  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, config_text, get_workload  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _names(section):
    return {metric["name"] for metric in SPEC[section]}


# ----------------------------------------------------------------------------
#  Self-time arithmetic
# ----------------------------------------------------------------------------

def test_self_time_of_nested_calls():
    ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 9.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    leaf = tracer.wrap("link.bler:leaf", lambda: None)
    inner = tracer.wrap("model.evaluate:inner", leaf)
    other = tracer.wrap("traffic.queue:other", lambda: None)

    def job():
        inner()   # inner [1, 4] holds leaf [2, 3]
        other()   # other [5, 9]

    tracer.wrap("bench:root", job)()   # root [0, 10]

    assert tracer.names == ["bench:root", "model.evaluate:inner",
                            "link.bler:leaf", "traffic.queue:other"]
    assert tracer.parents == [-1, 0, 1, 0]
    assert tracer.self_times() == [10 - 3 - 4, 3 - 1, 1, 4]
    assert tracer.layer_totals() == {"bench": (3.0, 1), "model.evaluate": (2.0, 1),
                                     "link.bler": (1.0, 1), "traffic.queue": (4.0, 1)}
    metrics = layer_metrics(tracer, constraint_tolerance=0.0, best_eta=0.0)
    assert metrics["trace.self_sum_frac"] == (2 + 1 + 4) / 10
    assert metrics["link.bler_s"] == 1.0 and metrics["link.bler_calls"] == 1


def test_span_closes_when_the_call_raises():
    ticks = iter([0.0, 1.0, 2.0, 5.0])
    tracer = Tracer(clock=lambda: next(ticks))

    def fail():
        raise ValueError("boom")

    def job():
        with pytest.raises(ValueError):
            tracer.wrap("link.sjnr:fail", fail)()

    tracer.wrap("bench:root", job)()
    assert tracer.self_times() == [4.0, 1.0]


def test_observer_time_is_charged_to_the_bench_layer():
    ticks = iter([0.0, 1.0, 2.0, 3.0, 7.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    seen = []
    leaf = tracer.wrap("optimizer.decode:leaf", lambda: 5,
                       observe=lambda t, args, result: seen.append(result))

    tracer.wrap("bench:root", leaf)()   # root [0, 10], leaf [1, 2], observe [3, 7]

    assert seen == [5]
    assert tracer.names == ["bench:root", "optimizer.decode:leaf", "bench:observe"]
    assert tracer.layer_totals() == {"bench": (9.0, 2), "optimizer.decode": (1.0, 1)}
    # root glue 10 - 1 - 4 = 5; the observer's 4 s leave the denominator
    metrics = layer_metrics(tracer, constraint_tolerance=0.0, best_eta=0.0)
    assert metrics["trace.self_sum_frac"] == 1 / (10 - 4)


def test_instrument_refuses_a_missing_target(monkeypatch):
    from risjam import optimizer
    from tracing import instrument
    monkeypatch.delattr(optimizer, "rank")
    with pytest.raises(LookupError, match="rank"):
        with instrument(Tracer()):
            pass
    assert not hasattr(optimizer.decode, "__wrapped__")   # wrapped ones restored


# ----------------------------------------------------------------------------
#  Output checks catch planted bad outputs
# ----------------------------------------------------------------------------

def _rep(tmp_path, name):
    workload = get_workload(name, tiny=True)
    config = tmp_path / "config.ini"
    config.write_text(config_text(workload, seed=1))
    out = tmp_path / "out"
    rep = worker.run_rep(workload, config, out, spawned=time.monotonic())
    from risjam import config as risjam_config, sweeps
    cfg = risjam_config.load_config(config, output_dir=out)
    return workload, cfg, sweeps.build_model(cfg), rep


def _failed(checks):
    return {check["name"] for check in checks if not check["ok"]}


def test_ga_checker_flags_an_infeasible_result(tmp_path):
    _, cfg, model, rep = _rep(tmp_path, "ga-desk")
    assert _failed(rep["checks"]) == set()

    solution = cfg.output_dir / "solution.txt"
    text = solution.read_text()
    text = text.replace("feasible = true", "feasible = false")
    text = "\n".join("blocklength = 1000" if line.startswith("blocklength =") else line
                     for line in text.splitlines()) + "\n"
    solution.write_text(text)
    assert _failed(worker.check_ga(cfg, model, None)) == {"feasible", "zero_residuals"}


def test_sweep_checker_flags_a_wrong_delay(tmp_path):
    workload, cfg, model, rep = _rep(tmp_path, "sweep-oracle")
    assert _failed(rep["checks"]) == set()

    csv = cfg.output_dir / "delay-ee.csv"
    lines = csv.read_text().splitlines()
    for i, line in enumerate(lines):
        if line.startswith("100.0,108,"):
            cells = line.split(",")
            cells[3] = repr(float(cells[3]) * 1.01)
            lines[i] = ",".join(cells)
    csv.write_text("\n".join(lines) + "\n")
    output = {"oracle": [(0.5, 1.0, 1.0), (0.8, 1.0, 1.03)]}
    assert _failed(worker.check_sweep_oracle(cfg, model, output)) == {
        "delay_100", "mdl_rho_0.8"}


# ----------------------------------------------------------------------------
#  The command, end to end at tiny sizes
# ----------------------------------------------------------------------------

def _run(cwd, *args):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_each_workload_completes_at_a_tiny_size(name):
    done = _run(ROOT, "--workload", name, "--seed", "1", "--seconds", "0",
                "--trace", "0", "--tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == _names("end_to_end")
    assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_traced_run_reports_every_per_layer_metric():
    done = _run(ROOT, "--workload", "ga-desk", "--seed", "1", "--seconds", "0",
                "--trace", "1", "--tiny")
    assert done.returncode == 0, done.stderr
    metrics = json.loads(done.stdout.strip().splitlines()[-1])["metrics"]
    assert set(metrics) == _names("per_layer")
    assert metrics["optimizer.evals"]["value"] == 300 * 7 + 1
    assert 0.99 < metrics["trace.self_sum_frac"]["value"] <= 1.0


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    done = _run(tmp_path, "--workload", "ga-desk", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert done.returncode != 0
    assert done.stdout == ""
