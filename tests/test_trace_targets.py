"""
The benchmark tracer wraps library functions by name (``bench/tracing.py``,
``_targets``). A refactor that drops or moves one of those names must fail
here, in the tier-1 suite, and not only in a traced benchmark run.
"""

import importlib.util
from pathlib import Path

import pytest

from risjam import sweeps, traffic

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_exists(tracing):
    targets = tracing._targets()
    assert targets
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _layer, _observe in targets
               if vars(owner).get(attr) is None]
    assert missing == []


def test_observers_read_the_calling_contract(tracing, tmp_path):
    # the observers read simulate_md1's third positional argument and the
    # rows of write_sweep_csv's first one
    result = sweeps.SweepResult("pin", ("a", "b"), ([1, 2], [0.5, None]),
                                {"kind": "pin"})
    with tracing.instrument(tracing.Tracer()) as tracer:
        traffic.simulate_md1(100.0, 1e-3, 1000, seed=1)
        path = sweeps.write_sweep_csv(result, tmp_path / "pin.csv")
    assert tracer.counts["md1_arrivals"] == 1000
    data = [line for line in path.read_text().splitlines()
            if not line.startswith("#")]
    assert tracer.counts["rows"] == len(data) - 1 == 2
    assert tracer.counts["bytes_written"] == path.stat().st_size
    assert set(tracer.names) >= {"traffic.md1:simulate_md1",
                                 "sweeps.write:write_sweep_csv"}
