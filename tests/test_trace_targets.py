"""
The benchmark tracer wraps library functions by name (``bench/tracing.py``,
``_targets``). A refactor that drops or moves one of those names must fail
here, in the tier-1 suite, and not only in a traced benchmark run.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_every_trace_target_exists():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = tracing._targets()
    assert targets
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _layer, _observe in targets
               if vars(owner).get(attr) is None]
    assert missing == []
