"""
Experiment sweeps, flat-file persistence and the optimization driver.

Each sweep walks a configured grid with a deterministic beamforming policy
(phases co-phased to the plotted user's cascade, uniform amplitudes) and
emits plot-ready rows. Results serialize to CSV with a few metadata comment
lines (config hash, seed, version, timestamp); re-running with the same
config and seed reproduces every byte except the timestamp.
"""

import csv
import itertools
import re
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from ._version import __version__
from .config import ExperimentConfig, square_geometry
from .link import (_check_powers, _sic_sjnr, bler, polar_weights, reliability,
                   replica_success)
from .model import SystemModel
from .optimizer import OptimizationResult, run_ga

DELAY_EE_COLUMNS = ("arrival_rate_per_s", "blocklength", "utilization",
                    "mean_delay_s", "energy_efficiency_bits_per_j")
REL_BETA_COLUMNS = ("n_elements", "amplitude", "reliability")
SJNR_N_COLUMNS = ("n_elements", "sjnr_user1", "growth_ratio")
CONVERGENCE_COLUMNS = ("generation", "best_objective", "mean_objective",
                       "feasible_fraction")

# Reference readings recorded next to our own results for comparison; these
# depend on unpublished per-point optimizer state and are never asserted.
# Two mutually inconsistent growth readings circulate for the element sweep
# (an overall 13.64% and the 0.61 -> 4.47 endpoints); both are recorded.
REFERENCE_REL_BETA_THRESHOLDS = {4: 43.7, 400: 2.1}
REFERENCE_SJNR = {4: 0.61, 400: 4.47}
REFERENCE_SJNR_GROWTH_PERCENT = 13.64

UNSTABLE_MARKER = "unstable"


@dataclass
class SweepResult:
    """Grid rows plus run metadata; round-trips through CSV unchanged."""

    kind: str
    columns: tuple[str, ...]
    rows: list[tuple]
    metadata: dict[str, str]


# ----------------------------------------------------------------------------
#  Model construction and the fixed beamforming policy
# ----------------------------------------------------------------------------

def build_model(cfg: ExperimentConfig, n_elements: int | None = None) -> SystemModel:
    """System model for the configured scenario; with ``n_elements``, on a
    square RIS of that many elements with the configured pitches and
    carrier instead of the configured array."""
    g = cfg.geometry
    geometry = g if n_elements is None else square_geometry(
        n_elements, g.spacing_h, g.spacing_v, g.carrier_freq)
    return SystemModel(geometry, cfg.scenario, cfg.noise, cfg.header_time,
                       cfg.bandwidth, cfg.payload_bits, cfg.traffic.arrival_rates)


def _policy(cfg: ExperimentConfig, model: SystemModel,
            plotted_user: int) -> tuple[np.ndarray, np.ndarray, tuple[float, ...]]:
    """The fixed policy ``(amplitudes, phases, powers)``: phases co-phased
    to ``cophase_user`` (by default the sweep's ``plotted_user``), amplitude
    ``policy_beta_total / N`` on every element and power ``policy_power_w``
    for every user."""
    user = cfg.sweep.cophase_user if cfg.sweep.cophase_user is not None else plotted_user
    amplitudes, phases = model.co_phased_beam(
        user, cfg.sweep.policy_beta_total / model.n_elements)
    return amplitudes, phases, (cfg.sweep.policy_power_w,) * model.n_users


def _metadata(cfg: ExperimentConfig, kind: str) -> dict[str, str]:
    return {
        "kind": kind,
        "config_hash": cfg.config_hash,
        "seed": str(cfg.seed),
        "version": __version__,
        "created_utc": datetime.now(timezone.utc).isoformat(),
    }


# _sic_sjnr checks the range of what may overflow here
@np.errstate(over="ignore", invalid="ignore")
def uniform_beta_sjnr(model: SystemModel, phases: np.ndarray, powers_w,
                      betas) -> np.ndarray:
    """Per-user SJNR for a grid of uniform per-element amplitudes.

    Equivalent to evaluating the SJNR one amplitude at a time but vectorized
    over the amplitude axis; returns shape (K, len(betas)). Raises
    ValueError and OverflowError as ``link.sjnr_all`` does.
    """
    betas = np.asarray(betas, dtype=float)
    # with uniform amplitude beta every weight is sqrt(beta) times the unit
    # weight, so each term is a scalar product rescaled per grid point and no
    # (len(betas), N) weight matrix is built
    row_unit = model.bs_channel * np.exp(1j * phases)
    s_users = model.ue_channels @ row_unit
    s_jam = row_unit @ model.jammer_channel
    unit_norm_sq = float(np.sum(np.abs(row_unit) ** 2))

    p = _check_powers([powers_w], len(model.ue_channels))[0][:, None]
    received = p * (np.abs(s_users) ** 2)[:, None] * betas[None, :]
    return _sic_sjnr(received, np.sqrt(betas) * s_jam, betas * unit_norm_sq,
                     model.jammer_direct, model.scenario.jammer_power,
                     model.noise)


# ----------------------------------------------------------------------------
#  Sweeps
# ----------------------------------------------------------------------------

def sweep_delay_ee(cfg: ExperimentConfig) -> SweepResult:
    """Mean delay and energy efficiency over (arrival rate, blocklength).

    All users share the swept arrival rate. The replica count comes from
    [sweep] retransmissions (default 1, the value consistent with the
    reference delay numbers). Unstable points carry a marker instead of a
    delay. Each arrival rate is one metric-chain call, which computes the
    policy beam's SJNR once for the whole blocklength grid.
    """
    model = build_model(cfg)
    amplitudes, phases, powers = _policy(cfg, model, model.n_users)
    weights = polar_weights(amplitudes, phases)
    lengths = np.array(sorted(cfg.sweep.blocklength_grid))
    replicas = np.full(lengths.size, cfg.sweep.retransmissions)

    rows: list[tuple] = []
    for rate in sorted(cfg.sweep.arrival_rate_grid):
        chain = model.evaluate_block(weights[None], [powers], lengths, replicas,
                                     arrival_rates=(rate,) * model.n_users)
        # object arrays hold Python floats, and the marker where unstable
        delay = chain.mean_delay[0].astype(object)
        delay[~chain.stable] = UNSTABLE_MARKER
        eta = chain.energy_efficiency.astype(object)
        eta[~chain.stable] = None
        rows.extend(zip(itertools.repeat(float(rate)), lengths.tolist(),
                        chain.utilization[0].tolist(), delay.tolist(), eta.tolist()))

    metadata = _metadata(cfg, "delay-ee")
    delays = {(row[0], row[1]): row[3] for row in rows}
    low, high = delays.get((100.0, 108)), delays.get((1300.0, 108))
    if isinstance(low, float) and isinstance(high, float):
        # ratio between the two highlighted operating points, usually quoted
        # as a percentage
        metadata["delay_ratio_100_1300"] = repr(low / high)
    return SweepResult("delay-ee", DELAY_EE_COLUMNS, rows, metadata)


def sweep_reliability_vs_beta(cfg: ExperimentConfig) -> SweepResult:
    """Reliability against uniform RIS amplitude for each element count
    (``n_elements_grid``, by default 4, 100, 400 and 900).

    Phases are co-phased to the plotted (last by default) user; the smallest
    grid amplitude reaching the reliability threshold is recorded per element
    count in the metadata, next to the reference readings.
    """
    betas = np.asarray(sorted(cfg.sweep.beta_grid), dtype=float)
    metadata = _metadata(cfg, "rel-beta")

    rows: list[tuple] = []
    for n_elements in cfg.sweep.n_elements_grid or (4, 100, 400, 900):
        model = build_model(cfg, n_elements)
        _, phases, powers = _policy(cfg, model, model.n_users)
        gammas = uniform_beta_sjnr(model, phases, powers, betas)
        blers = bler(gammas, cfg.sweep.blocklength, cfg.payload_bits)
        rel = reliability(replica_success(blers), cfg.traffic.retransmissions)

        reached = np.nonzero(rel >= cfg.constraints.rel_thr)[0]
        threshold = float(betas[reached[0]]) if reached.size else None
        metadata[f"threshold_beta_n{n_elements}"] = (
            "none" if threshold is None else repr(threshold))
        reference = REFERENCE_REL_BETA_THRESHOLDS.get(n_elements)
        if reference is not None:
            metadata[f"reference_threshold_beta_n{n_elements}"] = repr(reference)
        rows.extend(zip(itertools.repeat(n_elements), betas.tolist(), rel.tolist()))
    return SweepResult("rel-beta", REL_BETA_COLUMNS, rows, metadata)


def sweep_sjnr_vs_n(cfg: ExperimentConfig) -> SweepResult:
    """First user's SJNR against the RIS element count (``n_elements_grid``,
    by default nine squares from 4 to 900).

    The default policy co-phases to user 1 and spreads a constant total
    amplification uniformly over the elements; policy 'ga' runs the full
    optimizer per point instead. Consecutive growth ratios expose the
    plateau; a row after a zero SJNR has no ratio.
    """
    metadata = _metadata(cfg, "sjnr-n")
    metadata["reference_growth_percent"] = repr(REFERENCE_SJNR_GROWTH_PERCENT)
    rows: list[tuple] = []
    previous = None
    for n_elements in cfg.sweep.n_elements_grid or (4, 16, 36, 64, 100, 196, 400, 625, 900):
        model = build_model(cfg, n_elements)
        if cfg.sweep.policy == "ga":
            result = run_ga(model, cfg.constraints, cfg.ga)
            gamma_1 = float(result.best_report.sjnr[0])
        else:
            gamma_1 = float(model.sjnr(*_policy(cfg, model, 1))[0])
        # no growth ratio after a zero SJNR, as none before the first row
        growth = gamma_1 / previous if previous else None
        rows.append((n_elements, gamma_1, growth))
        previous = gamma_1
        reference = REFERENCE_SJNR.get(n_elements)
        if reference is not None:
            metadata[f"reference_sjnr_n{n_elements}"] = repr(reference)
    return SweepResult("sjnr-n", SJNR_N_COLUMNS, rows, metadata)


# ----------------------------------------------------------------------------
#  CSV persistence
# ----------------------------------------------------------------------------

def _decode_cell(text: str):
    """A CSV cell or a solution-record value: '' and 'none' read as None,
    'true' and 'false' as booleans, anything else as an int, a float or the
    text itself."""
    if text in ("", "none"):
        return None
    if text in ("true", "false"):
        return text == "true"
    if re.fullmatch(r"-?\d+", text):
        return int(text)
    try:
        return float(text)
    except ValueError:
        return text


def _write_csv(path: str | Path, metadata: dict, columns, rows) -> Path:
    """Write ``# key=value`` comment lines, a header row, then the data rows.

    ``csv.writer`` writes None as an empty cell, integers with ``str`` and
    floats (numpy float64 too) as their shortest round-tripping repr, which
    ``_decode_cell`` reads back.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as handle:
        for key, value in metadata.items():
            handle.write(f"# {key}={value}\n")
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(rows)
    return path


def write_sweep_csv(result: SweepResult, path: str | Path) -> Path:
    """Write metadata comment lines, a header row, then the data rows."""
    return _write_csv(path, result.metadata, result.columns, result.rows)


def read_sweep_csv(path: str | Path) -> SweepResult:
    metadata: dict[str, str] = {}
    with open(path, newline="") as handle:
        data_lines = []
        for line in handle:
            if line.startswith("#"):
                key, _, value = line[1:].strip().partition("=")
                metadata[key.strip()] = value
            else:
                data_lines.append(line)
    reader = csv.reader(data_lines)
    columns = tuple(next(reader))
    rows = [tuple(_decode_cell(cell) for cell in row) for row in reader]
    return SweepResult(metadata.get("kind", ""), columns, rows, metadata)


# ----------------------------------------------------------------------------
#  Optimization driver and the solution record
# ----------------------------------------------------------------------------

def write_convergence_csv(result: OptimizationResult, cfg: ExperimentConfig,
                          path: str | Path) -> Path:
    """Per-generation trace; deliberately timestamp-free so identical seeds
    reproduce identical bytes."""
    metadata = {"kind": "convergence", "config_hash": cfg.config_hash,
                "seed": cfg.seed, "version": __version__}
    rows = zip(itertools.count(1), result.fitness_history, result.mean_history,
               result.feasible_fraction_history)
    return _write_csv(path, metadata, CONVERGENCE_COLUMNS, rows)


def _encode_value(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (tuple, list)):
        encoded = ",".join(_encode_value(v) for v in value)
        return encoded + "," if len(value) == 1 else encoded
    return str(value)  # str of a float or float64 is its shortest repr


def _decode_value(text: str):
    if "," in text:
        return tuple(_decode_cell(part) for part in text.split(",") if part != "")
    return _decode_cell(text)


def solution_record(result: OptimizationResult, cfg: ExperimentConfig,
                    model: SystemModel, timestamp: str | None = None) -> dict:
    """Flat key-value view of an optimization outcome (schema risjam-solution/1).

    ``model`` is the one the GA ran on. Per-user metrics are one value per
    user (the joint reliability repeated), and the delays read ``none``
    where a queue is unstable. The record ends with its reporting-only RIS
    output power estimate at the best point, which never enters the energy
    efficiency itself.
    """
    report = result.best_report
    best = result.best_solution
    return {
        "format": "risjam-solution/1",
        "created_utc": timestamp or datetime.now(timezone.utc).isoformat(),
        "config_hash": cfg.config_hash,
        "seed": cfg.seed,
        "version": __version__,
        "feasible": result.feasible,
        "generations_run": result.generations_run,
        "objective": result.best_objective,
        "energy_efficiency_bits_per_j": result.best_eta,
        "user_powers_w": best.user_powers,
        "phases_rad": best.phases,
        "amplitudes": best.amplitudes,
        "blocklength": best.blocklength,
        "retransmissions": best.retransmissions,
        "sjnr": tuple(report.sjnr.tolist()),
        "bler": tuple(report.bler.tolist()),
        "replica_success": float(report.replica_success),
        "reliability": (float(report.reliability),) * model.n_users,
        "utilization": tuple(report.utilization.tolist()),
        "mean_delay_s": (tuple(report.mean_delay.tolist()) if report.stable
                         else (None,) * model.n_users),
        "violation_delay": result.constraint_violations["delay"],
        "violation_reliability": result.constraint_violations["reliability"],
        "violation_utilization": result.constraint_violations["utilization"],
        "violation_power_ordering": result.constraint_violations["power_ordering"],
        "ris_power_estimate_w": model.ris_output_power(best.amplitudes, best.user_powers),
    }


def write_solution_record(record: dict, path: str | Path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [f"{key} = {_encode_value(value)}" for key, value in record.items()]
    path.write_text("\n".join(lines) + "\n")
    return path


def read_solution_record(path: str | Path) -> dict:
    record: dict = {}
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        key, _, value = line.partition(" = ")
        record[key] = _decode_value(value)
    return record


def run_optimize(cfg: ExperimentConfig) -> OptimizationResult:
    """Run the GA and persist convergence trace, solution record, config echo."""
    model = build_model(cfg)
    result = run_ga(model, cfg.constraints, cfg.ga)
    out = cfg.output_dir
    out.mkdir(parents=True, exist_ok=True)
    write_convergence_csv(result, cfg, out / "convergence.csv")
    write_solution_record(solution_record(result, cfg, model), out / "solution.txt")
    (out / "config_echo.txt").write_text(cfg.echo_text())
    return result
