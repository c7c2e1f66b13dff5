"""Span tracing for the risjam benchmark.

The tracer wraps the library's public functions in the namespaces that call
them (the program itself is not modified), keeps every span in memory and
derives per-layer self times from them: a span's self time is its duration
minus the durations of its direct children. Calls run on one thread, so
children never overlap and their durations add up.

Layer names follow the modules of ``src/risjam``. Each span is named
``<layer>:<function>``. The ``bench`` layer holds the benchmark's own time:
the two roots the worker opens itself, ``bench:setup`` and ``bench:job``, and
the ``bench:observe`` spans in which counters are taken after a wrapped call.
"""

import contextlib
import hashlib
import time
from collections import Counter
from pathlib import Path

ROOT_LAYER = "bench"
OBSERVE_SPAN = f"{ROOT_LAYER}:observe"


class Tracer:
    """In-memory span recorder plus the counters observed at layer boundaries."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._stack = [-1]
        self.counts: Counter = Counter()
        self.genomes: set[bytes] = set()
        self.violations: list[float] = []

    def open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(self.clock())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = self.clock()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def wrap(self, name: str, fn, observe=None):
        """``fn`` recorded as span ``name``. ``observe(tracer, args, result)``
        runs after that span closes, in a span of its own in the ``bench``
        layer, so the benchmark's bookkeeping is never charged to the program."""
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if observe is not None:
                with self.span(OBSERVE_SPAN):
                    observe(self, args, result)
            return result
        traced.__wrapped__ = fn
        return traced

    def self_times(self) -> list[float]:
        own = [end - start for start, end in zip(self.starts, self.ends)]
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= self.ends[index] - self.starts[index]
        return own

    def layer_totals(self) -> dict[str, tuple[float, int]]:
        """Layer -> (summed self time, span count)."""
        totals: dict[str, list] = {}
        for name, own in zip(self.names, self.self_times()):
            entry = totals.setdefault(name.split(":", 1)[0], [0.0, 0])
            entry[0] += own
            entry[1] += 1
        return {layer: (own, calls) for layer, (own, calls) in totals.items()}

    def write(self, path: Path) -> None:
        """All spans as CSV, times in seconds from the first span's start."""
        origin = self.starts[0] if self.starts else 0.0
        with open(path, "w") as handle:
            handle.write("id,parent,name,start_s,end_s\n")
            for index, (name, parent, start, end) in enumerate(
                    zip(self.names, self.parents, self.starts, self.ends)):
                handle.write(f"{index},{parent},{name},{start - origin!r},"
                             f"{end - origin!r}\n")


# ----------------------------------------------------------------------------
#  Counters observed at layer boundaries
# ----------------------------------------------------------------------------

def _see_genome(tracer: Tracer, args, result) -> None:
    digest = hashlib.blake2b(args[0].tobytes(), digest_size=16).digest()
    if digest in tracer.genomes:
        tracer.counts["duplicate_evals"] += 1
    else:
        tracer.genomes.add(digest)


def _see_fitness(tracer: Tracer, args, result) -> None:
    tracer.violations.append(sum(result[1].values()))


def _see_write(tracer: Tracer, args, result) -> None:
    tracer.counts["bytes_written"] += Path(result).stat().st_size
    written = args[0]
    if hasattr(written, "rows"):                  # SweepResult
        tracer.counts["rows"] += len(written.rows)
    elif hasattr(written, "fitness_history"):     # convergence trace
        tracer.counts["rows"] += len(written.fitness_history)


def _see_md1(tracer: Tracer, args, result) -> None:
    tracer.counts["md1_arrivals"] += args[2]


def _targets():
    from risjam import config, model, optimizer, sweeps, traffic
    return [
        (config, "load_config", "config.load", None),
        (model, "ris_ue_channel", "channel.synth", None),
        (model, "ris_bs_channel", "channel.synth", None),
        (model, "jammer_direct_channel", "channel.synth", None),
        (model, "ris_jammer_channel", "channel.synth", None),
        (sweeps, "build_model", "model.build", None),
        (model.SystemModel, "evaluate", "model.evaluate", None),
        (model, "sjnr_all", "link.sjnr", None),
        (sweeps, "uniform_beta_sjnr", "link.sjnr", None),
        (model, "bler", "link.bler", None),
        (sweeps, "bler", "link.bler", None),
        (model, "replica_success", "link.reliability", None),
        (model, "reliability", "link.reliability", None),
        (model, "utilization", "traffic.queue", None),
        (model, "mean_delay", "traffic.queue", None),
        (model, "energy_efficiency", "traffic.queue", None),
        (traffic, "mean_delay", "traffic.queue", None),
        (traffic, "simulate_md1", "traffic.md1", _see_md1),
        (optimizer, "decode", "optimizer.decode", _see_genome),
        (optimizer, "evaluate_fitness", "optimizer.fitness", _see_fitness),
        (optimizer, "rank", "optimizer.rank", None),
        (sweeps, "run_ga", "optimizer.breed", None),
        (sweeps, "run_optimize", "sweeps.compute", None),
        (sweeps, "sweep_delay_ee", "sweeps.compute", None),
        (sweeps, "sweep_reliability_vs_beta", "sweeps.compute", None),
        (sweeps, "sweep_sjnr_vs_n", "sweeps.compute", None),
        (sweeps, "write_sweep_csv", "sweeps.write", _see_write),
        (sweeps, "write_convergence_csv", "sweeps.write", _see_write),
        (sweeps, "solution_record", "sweeps.write", None),
        (sweeps, "write_solution_record", "sweeps.write", _see_write),
    ]


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Route the library's layer calls through ``tracer``; restore on exit.

    A target the library no longer has is an error: its metrics would read 0
    and look like a gain. Update ``_targets`` together with the library.
    """
    saved = []
    try:
        for owner, attr, layer, observe in _targets():
            original = vars(owner).get(attr)
            if original is None:
                raise LookupError(f"trace target {owner.__name__}.{attr} is missing")
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(f"{layer}:{attr}", original, observe))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# ----------------------------------------------------------------------------
#  Per-layer metrics of one traced repetition
# ----------------------------------------------------------------------------

def layer_metrics(tracer: Tracer, constraint_tolerance: float,
                  best_eta: float) -> dict[str, float]:
    """Per-layer metrics of one traced repetition (all but the overhead,
    which needs the untraced twin). Layers the workload never enters read 0."""
    totals = tracer.layer_totals()

    def own(layer):
        return totals.get(layer, (0.0, 0))[0]

    def calls(layer):
        return totals.get(layer, (0.0, 0))[1]

    # Wall time of the traced roots, less the benchmark's own counters
    traced_wall = sum(end - start for parent, start, end
                      in zip(tracer.parents, tracer.starts, tracer.ends)
                      if parent < 0)
    traced_wall -= sum(end - start for name, start, end
                       in zip(tracer.names, tracer.starts, tracer.ends)
                       if name == OBSERVE_SPAN)
    layered = sum(own_s for layer, (own_s, _) in totals.items() if layer != ROOT_LAYER)
    decodes = calls("optimizer.decode")
    evals = len(tracer.violations)
    feasible = sum(v <= constraint_tolerance for v in tracer.violations)
    md1_s = own("traffic.md1")
    return {
        "config.load_s": own("config.load"),
        "channel.synth_s": own("channel.synth"),
        "channel.synth_calls": calls("channel.synth"),
        "optimizer.decode_s": own("optimizer.decode"),
        "optimizer.decode_calls": decodes,
        "optimizer.fitness_self_s": own("optimizer.fitness"),
        "optimizer.breed_s": own("optimizer.breed"),
        "optimizer.rank_s": own("optimizer.rank"),
        "optimizer.rank_calls": calls("optimizer.rank"),
        "optimizer.evals": evals,
        "optimizer.duplicate_eval_frac":
            tracer.counts["duplicate_evals"] / decodes if decodes else 0.0,
        "optimizer.feasible_eval_frac": feasible / evals if evals else 0.0,
        "optimizer.best_eta_bits_per_j": best_eta,
        "model.evaluate_self_s": own("model.evaluate"),
        "model.evaluate_calls": calls("model.evaluate"),
        "link.sjnr_s": own("link.sjnr"),
        "link.sjnr_calls": calls("link.sjnr"),
        "link.bler_s": own("link.bler"),
        "link.bler_calls": calls("link.bler"),
        "link.reliability_s": own("link.reliability"),
        "link.reliability_calls": calls("link.reliability"),
        "traffic.queue_s": own("traffic.queue"),
        "traffic.md1_s": md1_s,
        "traffic.md1_arrivals_per_s":
            tracer.counts["md1_arrivals"] / md1_s if md1_s else 0.0,
        "sweeps.compute_s": own("sweeps.compute"),
        "sweeps.write_s": own("sweeps.write"),
        "sweeps.rows": tracer.counts["rows"],
        "sweeps.bytes_written": tracer.counts["bytes_written"],
        "trace.self_sum_frac": layered / traced_wall if traced_wall else 0.0,
    }
