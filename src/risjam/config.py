"""
Experiment configuration: defaults, strict file parsing, unit conversion.

Config files are INI-style with the fixed sections [geometry], [scenario],
[traffic], [fbl], [ga] and [sweep]. Every key has a default matching the
reference simulation setup, so an empty file (or no file) is a complete
configuration. Unknown sections or keys are rejected. Key names carry their
unit (db, dbm, m, hz, s, w, rad, bytes); values are converted to linear SI
at load time and the package computes in SI throughout.
"""

import hashlib
import math
from collections.abc import Callable
from configparser import ConfigParser, Error as ConfigParserError
from dataclasses import dataclass, fields
from math import isqrt
from pathlib import Path
from typing import Any

from .channel import Direction, LinkScenario, RisGeometry
from .link import NoiseConfig
from .optimizer import ConstraintSet, GaSettings
from .traffic import TrafficParams
from .units import db_to_linear, dbm_to_watts


class ConfigError(Exception):
    """Base class for configuration problems (CLI exit code 1)."""


class ConfigNotFoundError(ConfigError):
    pass


class ConfigSyntaxError(ConfigError):
    pass


class UnknownKeyError(ConfigError):
    pass


class ConfigValueError(ConfigError):
    pass


class NonSquareGeometryError(ConfigError):
    """An element count that cannot form a square array where one is required."""


# ----------------------------------------------------------------------------
#  Value parsers: raw string -> typed value, or ValueError. load_config puts
#  "[section] key" in front of the message.
# ----------------------------------------------------------------------------

# A start:stop:step grid with more points than this is rejected before any
# point is built.
MAX_GRID_POINTS = 1_000_000


def _number(text: str) -> float:
    """Finite float. Every float, list and grid value is parsed here."""
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"not a number: {text!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {text!r}")
    return value


def _integer(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"not an integer: {text!r}") from None


def _boolean(text: str) -> bool:
    if text in ("true", "false"):
        return text == "true"
    raise ValueError(f"expected true or false, got {text!r}")


def _numbers(text: str) -> tuple[float, ...]:
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise ValueError("empty list")
    return tuple(_number(p) for p in parts)


def _grid(text: str) -> tuple[float, ...]:
    """'start:stop:step' (stop inclusive) or a comma-separated list."""
    if ":" not in text:
        return _numbers(text)
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError("grid must be start:stop:step")
    start, stop, step = (_number(p) for p in parts)
    if step <= 0 or stop < start:
        raise ValueError("need step > 0 and stop >= start")
    # finite ends can still give an infinite span, so compare before converting
    span = (stop - start) / step + 1e-9
    if span >= MAX_GRID_POINTS:
        raise ValueError(f"grid has more than {MAX_GRID_POINTS} points")
    return tuple(start + i * step for i in range(math.floor(span) + 1))


def _integer_grid(text: str) -> tuple[int, ...]:
    values = _grid(text)
    for v in values:
        if abs(v - round(v)) > 1e-9:
            raise ValueError(f"expected integers, got {v}")
    return tuple(int(round(v)) for v in values)


def _at_least(low: float, parse: Callable = _number, strict: bool = False) -> Callable:
    """``parse``, then reject a value (or any list entry) below ``low``, or
    equal to it when ``strict``."""
    def parse_bounded(text: str):
        value = parse(text)
        for item in value if isinstance(value, tuple) else (value,):
            if item < low or (strict and item == low):
                raise ValueError(f"must be {'>' if strict else '>='} {low}, got {item}")
        return value
    return parse_bounded


def _unless(word: str, parse: Callable) -> Callable:
    """None for the placeholder ``word`` ('' or 'auto'), else ``parse``."""
    return lambda text: None if text == word else parse(text)


def _one_of(*choices: str) -> Callable:
    def parse_choice(text: str) -> str:
        if text not in choices:
            raise ValueError(f"must be one of {choices}, got {text!r}")
        return text
    return parse_choice


def _linear(convert: Callable[[float], float]) -> Callable:
    """A dB or dBm value, converted to a linear ratio or to watts."""
    def parse_level(text: str) -> float:
        try:
            return convert(_number(text))
        except OverflowError:
            raise ValueError(f"too large: {text!r}") from None
    return parse_level


# ----------------------------------------------------------------------------
#  Schema: section -> key -> (default raw string, parser). Raw values are kept
#  in this order for the canonical config echo / hash. Domain rules that the
#  objects built from them (RisGeometry, LinkScenario, TrafficParams,
#  GaSettings, ConstraintSet) enforce are not repeated here.
# ----------------------------------------------------------------------------

SWEEP_KINDS = ("delay-ee", "rel-beta", "sjnr-n")

SCHEMA: dict[str, dict[str, tuple[str, Callable[[str], Any]]]] = {
    "geometry": {
        "n_elements": ("16", _at_least(1, _integer)),  # square array, rows = cols = sqrt(N)
        "n_rows": ("", _unless("", _integer)),         # optional explicit rectangle
        "n_cols": ("", _unless("", _integer)),
        "spacing_h": ("0.25", _number),
        "spacing_v": ("0.25", _number),
        "carrier_freq_hz": ("28e9", _number),
    },
    "scenario": {
        "path_gain_db": ("30", _linear(db_to_linear)),
        "path_loss_exp": ("2", _number),
        "dist_ris_bs_m": ("4", _number),
        "dist_ris_ue_m": ("20, 25", _numbers),
        "dist_jammer_m": ("30", _number),
        "dist_ris_jammer_m": ("", _unless("", _number)),  # empty: reuse dist_jammer_m
        "bs_azimuth_rad": (str(math.pi / 6), _number),
        "bs_elevation_rad": ("0", _number),
        "user_azimuth_rad": (str(math.pi / 2), _numbers),
        "user_elevation_rad": (str(2 * math.pi), _numbers),
        "jammer_azimuth_rad": (str(math.pi / 4), _number),
        "jammer_elevation_rad": (str(math.pi / 2), _number),
        "jammer_power_w": ("5e-3", _number),
        "ris_noise_dbm": ("-100", _linear(dbm_to_watts)),
        "awgn_dbm": ("-100", _linear(dbm_to_watts)),
        "report_ris_power": ("false", _boolean),
    },
    "traffic": {
        "arrival_rate_per_s": ("500", _numbers),
        "retransmissions": ("10", _integer),
        "header_time_s": ("30e-6", _at_least(0)),
        "bandwidth_hz": ("180e3", _at_least(0, strict=True)),
    },
    "fbl": {
        "blocklength": ("108", _at_least(1, _integer)),
        "payload_bytes": ("32", _at_least(1, _integer)),
    },
    "ga": {
        "population_size": ("200", _integer),
        "max_generations": ("100", _integer),
        "crossover_rate": ("0.9", _number),
        "mutation_rate": ("auto", _unless("auto", _number)),  # auto: one expected mutation per genome
        "elite_count": ("2", _integer),
        "rng_seed": ("12345", _at_least(0, _integer)),
        "constraint_tolerance": ("1e-30", _number),
        "function_tolerance": ("1e-30", _number),
        "co_phasing_fraction": ("0.1", _number),
        "mutation_sigma": ("0.1", _at_least(0)),
        "mutation_decay": ("0.99", _at_least(0)),
        "stall_generations": ("50", _at_least(1, _integer)),
        "delay_thr_s": ("1e-3", _number),
        "rel_thr": ("0.99999", _number),
        "beta_max": ("100", _number),
        "p_max_w": ("0.1", _number),
        "p_min_w": ("1e-6", _number),
        "l_max": ("10", _integer),
        "nb_min": ("1", _integer),
        "nb_max": ("1000", _integer),
    },
    "sweep": {
        "kind": ("delay-ee", _one_of(*SWEEP_KINDS)),
        "blocklength_grid": ("60:300:12", _at_least(1, _integer_grid)),
        "arrival_rate_grid": ("100:1300:200", _at_least(0, _grid, strict=True)),
        "beta_grid": ("0:50:0.1", _at_least(0, _grid)),
        # empty: kind-specific default
        "n_elements_grid": ("", _unless("", _at_least(1, _integer_grid))),
        "blocklength": ("360", _at_least(1, _integer)),    # fixed code length for the rel-beta sweep
        "retransmissions": ("1", _at_least(1, _integer)),  # delay-ee sweep replica count
        "policy": ("cophased", _one_of("cophased", "ga")),
        "policy_power_w": ("2.45e-3", _at_least(0, strict=True)),
        "policy_beta_total": ("100", _at_least(0)),
        "cophase_user": ("auto", _unless("auto", _integer)),  # auto: plotted user of the sweep kind
    },
}

PRESETS: dict[str, dict[tuple[str, str], str]] = {
    "desk": {
        ("geometry", "n_elements"): "16",
        ("ga", "population_size"): "200",
        ("ga", "max_generations"): "100",
    },
    "paper": {
        ("geometry", "n_elements"): "400",
        ("ga", "population_size"): "2000",
        ("ga", "max_generations"): "200",
    },
}

# Default element-count grids per sweep kind (all perfect squares).
DEFAULT_N_GRID = {
    "rel-beta": (4, 100, 400, 900),
    "sjnr-n": (4, 16, 36, 64, 100, 196, 400, 625, 900),
    "delay-ee": (),
}


@dataclass(frozen=True)
class SweepSpec:
    kind: str
    blocklength_grid: tuple[int, ...]
    arrival_rate_grid: tuple[float, ...]
    beta_grid: tuple[float, ...]
    n_elements_grid: tuple[int, ...] | None
    blocklength: int
    retransmissions: int
    policy: str
    policy_power_w: float
    policy_beta_total: float
    cophase_user: int | None

    def element_grid(self, kind: str | None = None) -> tuple[int, ...]:
        """Configured element-count grid, or the default of the given sweep kind."""
        if self.n_elements_grid is not None:
            return self.n_elements_grid
        return DEFAULT_N_GRID[kind if kind is not None else self.kind]


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved experiment setup in SI units."""

    geometry: RisGeometry
    scenario: LinkScenario
    noise: NoiseConfig
    traffic: TrafficParams
    header_time: float
    bandwidth: float
    blocklength: int
    payload_bits: int
    ga: GaSettings
    constraints: ConstraintSet
    sweep: SweepSpec
    report_ris_power: bool
    output_dir: Path
    seed: int
    raw: tuple[tuple[str, str, str], ...]  # (section, key, raw value), canonical order

    def echo_text(self) -> str:
        """Canonical key=value rendering of the effective configuration."""
        lines = []
        current = None
        for section, key, value in self.raw:
            if section != current:
                if current is not None:
                    lines.append("")
                lines.append(f"[{section}]")
                current = section
            lines.append(f"{key} = {value}")
        return "\n".join(lines) + "\n"

    @property
    def config_hash(self) -> str:
        digest = hashlib.sha256(self.echo_text().encode()).hexdigest()[:16]
        return f"sha256:{digest}"


def _broadcast(section: str, key: str, values: tuple, n_users: int) -> tuple:
    if len(values) == 1:
        return values * n_users
    if len(values) == n_users:
        return values
    raise ConfigValueError(
        f"[{section}] {key}: expected 1 or {n_users} values, got {len(values)}")


def _square_side(n_elements: int) -> int:
    side = isqrt(n_elements)
    if side * side != n_elements:
        raise NonSquareGeometryError(
            f"element count {n_elements} is not a perfect square; "
            "give n_rows and n_cols explicitly for a rectangular array")
    return side


def square_geometry(n_elements: int, spacing_h: float = 0.25,
                    spacing_v: float = 0.25, carrier_freq: float = 28e9) -> RisGeometry:
    """Square RIS with rows = cols = sqrt(n_elements)."""
    side = _square_side(n_elements)
    return RisGeometry(side, side, spacing_h, spacing_v, carrier_freq)


def _build(what: str, factory: Callable, *args, **kwargs):
    """Construct a domain object, reporting its ValueError as a config error."""
    try:
        return factory(*args, **kwargs)
    except ValueError as exc:
        raise ConfigValueError(f"invalid {what}: {exc}") from exc


# ----------------------------------------------------------------------------
#  Loading
# ----------------------------------------------------------------------------

def _read_file_items(path: Path) -> dict[tuple[str, str], str]:
    if not path.exists():
        raise ConfigNotFoundError(f"config file not found: {path}")
    parser = ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path) as handle:
            parser.read_file(handle)
    except ConfigParserError as exc:
        raise ConfigSyntaxError(f"malformed config {path}: {exc}") from exc
    items: dict[tuple[str, str], str] = {}
    for section in parser.sections():
        if section not in SCHEMA:
            raise UnknownKeyError(f"unknown config section [{section}]")
        for key, value in parser.items(section):
            if key not in SCHEMA[section]:
                raise UnknownKeyError(f"unknown key '{key}' in section [{section}]")
            items[(section, key)] = value.strip()
    return items


def _parse_all(effective: dict[tuple[str, str], str]) -> dict[str, dict[str, Any]]:
    """Every effective raw value, typed by its schema parser."""
    typed: dict[str, dict[str, Any]] = {}
    for section, keys in SCHEMA.items():
        typed[section] = {}
        for key, (_, parse) in keys.items():
            try:
                typed[section][key] = parse(effective[(section, key)])
            except ValueError as exc:
                raise ConfigValueError(f"[{section}] {key}: {exc}") from exc
    return typed


def load_config(path: str | Path | None = None, preset: str | None = None,
                seed: int | None = None,
                output_dir: str | Path = "results") -> ExperimentConfig:
    """Resolve defaults, preset, file and CLI overrides into a typed config.

    Precedence (lowest to highest): built-in defaults, preset, config file,
    explicit ``seed``.
    """
    effective: dict[tuple[str, str], str] = {
        (section, key): default
        for section, keys in SCHEMA.items()
        for key, (default, _) in keys.items()
    }
    if preset is not None:
        if preset not in PRESETS:
            raise ConfigValueError(f"unknown preset {preset!r}; choose from {sorted(PRESETS)}")
        effective.update(PRESETS[preset])
    if path is not None:
        effective.update(_read_file_items(Path(path)))
    if seed is not None:
        effective[("ga", "rng_seed")] = str(int(seed))
    typed = _parse_all(effective)

    geo = typed["geometry"]
    if (geo["n_rows"] is None) != (geo["n_cols"] is None):
        raise ConfigValueError("[geometry] n_rows and n_cols must be given together")
    if geo["n_rows"] is None:
        geometry = _build("geometry", square_geometry, geo["n_elements"],
                          geo["spacing_h"], geo["spacing_v"], geo["carrier_freq_hz"])
    else:
        geometry = _build("geometry", RisGeometry, geo["n_rows"], geo["n_cols"],
                          geo["spacing_h"], geo["spacing_v"], geo["carrier_freq_hz"])

    scen = typed["scenario"]
    n_users = len(scen["dist_ris_ue_m"])
    user_az = _broadcast("scenario", "user_azimuth_rad", scen["user_azimuth_rad"], n_users)
    user_el = _broadcast("scenario", "user_elevation_rad", scen["user_elevation_rad"], n_users)
    scenario = _build(
        "scenario", LinkScenario,
        path_gain_ref=scen["path_gain_db"],
        path_loss_exp=scen["path_loss_exp"],
        dist_ris_bs=scen["dist_ris_bs_m"],
        dist_ris_ue=scen["dist_ris_ue_m"],
        dist_jammer=scen["dist_jammer_m"],
        dir_bs=Direction(scen["bs_azimuth_rad"], scen["bs_elevation_rad"]),
        dir_jammer=Direction(scen["jammer_azimuth_rad"], scen["jammer_elevation_rad"]),
        dir_users=tuple(Direction(a, e) for a, e in zip(user_az, user_el)),
        jammer_power=scen["jammer_power_w"],
        dist_ris_jammer=scen["dist_ris_jammer_m"],
    )

    rates = _broadcast("traffic", "arrival_rate_per_s",
                       typed["traffic"]["arrival_rate_per_s"], n_users)
    traffic = _build("traffic", TrafficParams, rates, typed["traffic"]["retransmissions"])

    ga = typed["ga"]
    # the [ga] keys include the GaSettings fields, spelled the same
    ga_settings = _build("ga settings", GaSettings,
                         **{f.name: ga[f.name] for f in fields(GaSettings)})
    constraints = _build(
        "ga settings", ConstraintSet,
        delay_thr=ga["delay_thr_s"],
        rel_thr=ga["rel_thr"],
        beta_max=ga["beta_max"],
        p_max=ga["p_max_w"],
        l_max=ga["l_max"],
        p_min=ga["p_min_w"],
        nb_min=ga["nb_min"],
        nb_max=ga["nb_max"],
    )

    sweep = SweepSpec(**typed["sweep"])  # the [sweep] keys are the SweepSpec fields
    for n in sweep.n_elements_grid or ():
        _square_side(n)
    if sweep.cophase_user is not None and not 1 <= sweep.cophase_user <= n_users:
        raise ConfigValueError(f"[sweep] cophase_user out of range 1..{n_users}")

    return ExperimentConfig(
        geometry=geometry,
        scenario=scenario,
        noise=NoiseConfig(scen["ris_noise_dbm"], scen["awgn_dbm"]),
        traffic=traffic,
        header_time=typed["traffic"]["header_time_s"],
        bandwidth=typed["traffic"]["bandwidth_hz"],
        blocklength=typed["fbl"]["blocklength"],
        payload_bits=8 * typed["fbl"]["payload_bytes"],
        ga=ga_settings,
        constraints=constraints,
        sweep=sweep,
        report_ris_power=scen["report_ris_power"],
        output_dir=Path(output_dir),
        seed=ga_settings.rng_seed,
        raw=tuple((section, key, effective[(section, key)])
                  for section, keys in SCHEMA.items() for key in keys),
    )
