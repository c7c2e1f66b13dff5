"""
The benchmark worker (``bench/worker.py``) drives the library through its
public calls (``load_config``, ``run_optimize``, the sweeps, ``FrameParams``,
``mean_delay``, ``DecisionVector``, ``evaluate_fitness``, ...) and checks
what they return. A library change that breaks one of those calls or
checks must fail here, in the tier-1 suite, and not only as a failed
benchmark run.
"""

import importlib.util
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def bench():
    # the worker imports its sibling modules by bare name
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(BENCH))
        return _load("worker"), _load("workloads")


@pytest.mark.parametrize("name", ["ga-desk", "sweep-oracle"])
def test_tiny_run_passes_every_check(bench, name, tmp_path):
    worker, workloads = bench
    workload = workloads.get_workload(name, tiny=True)
    config = tmp_path / "config.ini"
    config.write_text(workloads.config_text(workload, seed=1))
    rep = worker.run_rep(workload, config, tmp_path / "out", spawned=time.monotonic())
    assert rep["checks"]
    assert [check for check in rep["checks"] if not check["ok"]] == []
