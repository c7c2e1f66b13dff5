"""
Experiment sweeps, flat-file persistence and the optimization driver.

Each sweep walks a configured grid with a deterministic beamforming policy
(phases co-phased to the plotted user's cascade, uniform amplitudes) and
returns its results as columns, one sequence per column name: the numpy
arrays it computed, or short lists. Results serialize to CSV with a few
metadata comment lines (config hash, seed, version, timestamp); the cells
read exactly as ``csv.writer`` writes the rows, and re-running with the
same config and seed reproduces every byte except the timestamp.
"""

import csv
import io
import re
from collections.abc import Sequence
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from ._version import __version__
from .config import MAX_GRID_POINTS, ExperimentConfig, square_geometry
from .link import (_check_beam, _check_powers, _row_blocks, _sic_sjnr, beam_terms,
                   bler, co_phasing_phases, polar_weights, reliability,
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


def _as_list(column):
    # tolist turns the values of a numeric array into Python scalars
    return column.tolist() if isinstance(column, np.ndarray) else column


class SweepRows(Sequence):
    """Read-only row view of a result's columns: each row is a tuple, and
    numeric array columns give Python scalars. ``len`` builds no row; the
    view compares equal to a list of tuples and shows as one."""

    def __init__(self, values: tuple):
        self._values = values

    def __len__(self) -> int:
        return len(self._values[0]) if self._values else 0

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(zip(*(_as_list(column[index]) for column in self._values)))
        index = range(len(self))[index]  # negative indices; IndexError if out of range
        return tuple(_as_list(column[index:index + 1])[0] for column in self._values)

    def __iter__(self):
        return zip(*map(_as_list, self._values))

    def __eq__(self, other) -> bool:
        if isinstance(other, (SweepRows, list)):
            return list(self) == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return repr(list(self))


@dataclass
class SweepResult:
    """A sweep's columns plus run metadata; round-trips through CSV unchanged.

    ``values`` holds one equal-length sequence per name in ``columns``: a
    numpy array where the sweep computed one, or a list. ``rows`` views
    them as tuples.
    """

    kind: str
    columns: tuple[str, ...]
    values: tuple
    metadata: dict[str, str]

    def __post_init__(self):
        self.values = tuple(self.values)
        if (len(self.values) != len(self.columns)
                or len({len(column) for column in self.values}) > 1):
            raise ValueError(f"{self.kind}: {len(self.columns)} column names "
                             f"need as many equal-length columns")

    @property
    def rows(self) -> SweepRows:
        return SweepRows(self.values)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SweepResult):
            return NotImplemented
        return ((self.kind, self.columns, self.metadata)
                == (other.kind, other.columns, other.metadata)
                and self.rows == other.rows)


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
    phases = co_phasing_phases(model.bs_channel, model.ue_channels[user - 1])
    amplitudes = np.full(model.n_elements, cfg.sweep.policy_beta_total / model.n_elements)
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
    ValueError and OverflowError as ``link.sjnr_all`` does, and ValueError
    for betas that are not a 1-D grid of finite, non-negative amplitudes or
    phases that are not N finite values.
    """
    if np.ndim(betas) != 1:
        raise ValueError("the amplitude grid must be a 1-D array")
    if np.shape(phases) != model.bs_channel.shape:
        raise ValueError("channel vectors and beamforming must share one element count")
    betas = _check_beam(betas, np.zeros(len(betas)))[0]
    # with uniform amplitude beta every weight is sqrt(beta) times the unit
    # weight, so each term of the unit beam is rescaled per grid point and no
    # (len(betas), N) weight matrix is built
    unit = polar_weights(np.ones(model.bs_channel.shape), phases)
    gains, reflection, norm = beam_terms(model.ue_channels, model.bs_channel,
                                         model.jammer_channel, unit[None])
    p = _check_powers([powers_w], len(model.ue_channels))[0][:, None]
    return _sic_sjnr(p * gains * betas, np.sqrt(betas) * reflection, betas * norm,
                     model.jammer_direct, model.scenario.jammer_power,
                     model.noise)


# ----------------------------------------------------------------------------
#  Sweeps
# ----------------------------------------------------------------------------

def _check_rows(kind: str, grid, other) -> None:
    """Raise OverflowError, before any row is built, when a sweep over the
    product of two grids has more than ``MAX_GRID_POINTS`` rows."""
    n_rows = len(grid) * len(other)
    if n_rows > MAX_GRID_POINTS:
        raise OverflowError(f"{kind} sweep has {n_rows} rows, above {MAX_GRID_POINTS}")


def _last_at(column: np.ndarray, mask: np.ndarray):
    """The column's value at the last row the mask selects, or None."""
    hits = np.flatnonzero(mask)
    return column[hits[-1]] if hits.size else None


def sweep_delay_ee(cfg: ExperimentConfig) -> SweepResult:
    """Mean delay and energy efficiency over (arrival rate, blocklength).

    All users share the swept arrival rate. The replica count comes from
    [sweep] retransmissions (default 1, the value consistent with the
    reference delay numbers). Unstable points carry a marker instead of a
    delay. The flattened grid is scored in the row blocks of
    ``link._row_blocks``, one metric-chain call per block with one arrival
    rate per point and the policy beam given once as one row, so each call
    forms that beam's terms once, in one ``link.sjnr_all`` call. Raises
    OverflowError above ``MAX_GRID_POINTS`` rows.
    """
    _check_rows("delay-ee", cfg.sweep.arrival_rate_grid, cfg.sweep.blocklength_grid)
    model = build_model(cfg)
    amplitudes, phases, powers = _policy(cfg, model, model.n_users)
    weights = polar_weights(amplitudes, phases)[None]
    lengths = np.array(sorted(cfg.sweep.blocklength_grid))
    rates = np.array(sorted(cfg.sweep.arrival_rate_grid), dtype=float)
    rate_column = np.repeat(rates, lengths.size)
    length_column = np.tile(lengths, rates.size)

    utilizations, delays, etas = [], [], []
    for block in _row_blocks(rate_column.size):
        block_lengths = length_column[block]
        chain = model.evaluate_block(
            weights, [powers], block_lengths,
            np.full(block_lengths.size, cfg.sweep.retransmissions),
            arrival_rates=(rate_column[block],) * model.n_users)
        # object arrays hold Python floats, and the marker where unstable
        delay = chain.mean_delay[0].astype(object)
        delay[~chain.stable] = UNSTABLE_MARKER
        eta = chain.energy_efficiency.astype(object)
        eta[~chain.stable] = None
        utilizations.append(chain.utilization[0])
        delays.append(delay)
        etas.append(eta)
    delay_column = np.concatenate(delays)

    metadata = _metadata(cfg, "delay-ee")
    low, high = (_last_at(delay_column, (rate_column == rate) & (length_column == 108))
                 for rate in (100.0, 1300.0))
    if isinstance(low, float) and isinstance(high, float):
        # ratio between the two highlighted operating points, usually quoted
        # as a percentage
        metadata["delay_ratio_100_1300"] = repr(low / high)
    values = (rate_column, length_column, np.concatenate(utilizations),
              delay_column, np.concatenate(etas))
    return SweepResult("delay-ee", DELAY_EE_COLUMNS, values, metadata)


def sweep_reliability_vs_beta(cfg: ExperimentConfig) -> SweepResult:
    """Reliability against uniform RIS amplitude for each element count
    (``n_elements_grid``, by default 4, 100, 400 and 900).

    Phases are co-phased to the plotted (last by default) user; the smallest
    grid amplitude reaching the reliability threshold is recorded per element
    count in the metadata, next to the reference readings. Raises
    OverflowError above ``MAX_GRID_POINTS`` rows.
    """
    counts = cfg.sweep.n_elements_grid or (4, 100, 400, 900)
    _check_rows("rel-beta", counts, cfg.sweep.beta_grid)
    betas = np.asarray(sorted(cfg.sweep.beta_grid), dtype=float)
    metadata = _metadata(cfg, "rel-beta")
    rels = []
    for n_elements in counts:
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
        rels.append(rel)
    values = (np.repeat(counts, betas.size), np.tile(betas, len(counts)),
              np.concatenate(rels))
    return SweepResult("rel-beta", REL_BETA_COLUMNS, values, metadata)


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
    counts, gammas, growths = [], [], []
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
        counts.append(n_elements)
        gammas.append(gamma_1)
        growths.append(growth)
        previous = gamma_1
        reference = REFERENCE_SJNR.get(n_elements)
        if reference is not None:
            metadata[f"reference_sjnr_n{n_elements}"] = repr(reference)
    return SweepResult("sjnr-n", SJNR_N_COLUMNS, (counts, gammas, growths), metadata)


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


# the characters for which csv.writer (QUOTE_MINIMAL, "\n" line ends) may
# quote a cell
_MAY_QUOTE = re.compile('[,"\r\n]')
# array dtypes whose distinct values are formatted once each
_DEDUPED = (np.dtype(np.int64), np.dtype(np.float64))


def _quoted(text: str) -> str:
    """A cell's text as ``csv.writer`` writes it, quoted where csv quotes it."""
    if _MAY_QUOTE.search(text):
        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="\n").writerow([text])
        text = buffer.getvalue()[:-1]
    return text


def _column_texts(column) -> tuple[np.ndarray, np.ndarray | None]:
    """``(texts, order)``: row i's cell reads ``texts[order[i]]``, or
    ``texts[i]`` where order is None.

    An int64 or float64 array is split into its distinct values by their
    bits (so -0.0 and 0.0 stay apart, and so do NaNs), and each gets its
    ``str`` once: the shortest round-tripping repr for a float. Any other
    column is formatted cell by cell: None as an empty cell, anything else
    as its ``str``.
    """
    if isinstance(column, np.ndarray) and column.dtype in _DEDUPED:
        distinct, order = np.unique(column.view(np.int64), return_inverse=True)
        texts = list(map(str, distinct.view(column.dtype).tolist()))
        return np.array(texts, dtype=object), order
    texts = ["" if value is None else str(value) for value in column]
    if _MAY_QUOTE.search("".join(texts)):
        texts = list(map(_quoted, texts))
    return np.array(texts, dtype=object), None


def _write_csv(result: SweepResult, path: str | Path) -> Path:
    """Write ``# key=value`` comment lines, a header row, then the data rows.

    The bytes are those of ``csv.writer`` with ``lineterminator="\n"`` over
    the rows: None is an empty cell (``""`` alone on its row), integers
    read as their ``str`` and floats (numpy float64 too) as their shortest
    round-tripping repr, which ``_decode_cell`` reads back. The rows are
    formatted and written a row block (``link._row_blocks``) at a time, so a
    file's text never exists whole.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    formatted = [_column_texts(column) for column in result.values]
    if len(formatted) == 1:
        texts, order = formatted[0]
        formatted = [(np.where(texts == "", '""', texts), order)]
    # each cell text carries the separator that follows it
    ends = [","] * (len(formatted) - 1) + ["\n"]
    formatted = [(texts + end, order) for (texts, order), end in zip(formatted, ends)]
    with open(path, "w", newline="\n") as handle:
        for key, value in result.metadata.items():
            handle.write(f"# {key}={value}\n")
        csv.writer(handle, lineterminator="\n").writerow(result.columns)
        for chunk in _row_blocks(len(result.rows)):
            cells = np.empty((chunk.stop - chunk.start, len(formatted)), dtype=object)
            for j, (texts, order) in enumerate(formatted):
                cells[:, j] = texts[chunk] if order is None else texts[order[chunk]]
            handle.write("".join(cells.ravel().tolist()))
    return path


def write_sweep_csv(result: SweepResult, path: str | Path) -> Path:
    """Write metadata comment lines, a header row, then the data rows."""
    return _write_csv(result, path)


def read_sweep_csv(path: str | Path) -> SweepResult:
    """The result a sweep CSV holds, with list columns of decoded cells."""
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
    rows = [tuple(map(_decode_cell, row)) for row in reader]
    if any(len(row) != len(columns) for row in rows):
        raise ValueError(f"{path}: a row's cell count differs from the header's")
    values = [list(column) for column in zip(*rows)] or [[] for _ in columns]
    return SweepResult(metadata.get("kind", ""), columns, values, metadata)


# ----------------------------------------------------------------------------
#  Optimization driver and the solution record
# ----------------------------------------------------------------------------

def write_convergence_csv(result: OptimizationResult, cfg: ExperimentConfig,
                          path: str | Path) -> Path:
    """Per-generation trace; deliberately timestamp-free so identical seeds
    reproduce identical bytes."""
    metadata = {"kind": "convergence", "config_hash": cfg.config_hash,
                "seed": cfg.seed, "version": __version__}
    values = (range(1, len(result.fitness_history) + 1), result.fitness_history,
              result.mean_history, result.feasible_fraction_history)
    return _write_csv(SweepResult("convergence", CONVERGENCE_COLUMNS, values,
                                  metadata), path)


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
