import dataclasses
import errno
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from risjam import config, optimizer, sweeps
from risjam.channel import RisGeometry
from risjam.cli import main
from risjam.config import ConfigError, load_config, square_geometry
from risjam.optimizer import ConstraintSet, GaSettings
from risjam.sweeps import read_solution_record, read_sweep_csv


def write(tmp_path, text, name="exp.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


def positive(max_value=None):
    return st.floats(min_value=0.0, max_value=max_value, exclude_min=True,
                     allow_infinity=False)


def non_negative():
    return st.floats(min_value=0.0, allow_infinity=False)


PROBABILITY = st.floats(min_value=0.0, max_value=1.0)
# positive values that keep the wavelength c / f finite
CARRIER = st.floats(min_value=1e-299, allow_infinity=False)
# with the defaults (30 dB gain, exponent 2), distances that keep the path
# gain 1000 / d**2 finite. The channels and the SJNR are only checked where a
# command computes them, so a distance, pitch or power need not keep them finite.
DISTANCE = st.floats(min_value=1e-149, allow_infinity=False)
# values that keep the default service time 10 * (header + 108 / bandwidth) finite
HEADER_TIME = st.floats(min_value=0.0, max_value=1e307)
BANDWIDTH = st.floats(min_value=1e-305, allow_infinity=False)
ANGLE = st.floats(allow_nan=False, allow_infinity=False)

# Every float-valued key (lists and float grids given as one value) with the
# finite values it accepts while all other keys keep their defaults.
FLOAT_DOMAINS = {
    ("geometry", "spacing_h"): positive(),
    ("geometry", "spacing_v"): positive(),
    ("geometry", "carrier_freq_hz"): CARRIER,
    # 10**(x / 10) is positive and finite
    ("scenario", "path_gain_db"): st.floats(min_value=-3200.0, max_value=3080.0),
    ("scenario", "path_loss_exp"): non_negative(),
    ("scenario", "dist_ris_bs_m"): DISTANCE,
    ("scenario", "dist_ris_ue_m"): DISTANCE,
    ("scenario", "dist_jammer_m"): DISTANCE,
    ("scenario", "dist_ris_jammer_m"): DISTANCE,
    ("scenario", "bs_azimuth_rad"): ANGLE,
    ("scenario", "bs_elevation_rad"): ANGLE,
    ("scenario", "user_azimuth_rad"): ANGLE,
    ("scenario", "user_elevation_rad"): ANGLE,
    ("scenario", "jammer_azimuth_rad"): ANGLE,
    ("scenario", "jammer_elevation_rad"): ANGLE,
    ("scenario", "jammer_power_w"): non_negative(),
    ("scenario", "ris_noise_dbm"): st.floats(max_value=3000.0, allow_infinity=False),
    ("scenario", "awgn_dbm"): st.floats(max_value=3000.0, allow_infinity=False),
    ("traffic", "arrival_rate_per_s"): positive(),
    ("traffic", "header_time_s"): HEADER_TIME,
    ("traffic", "bandwidth_hz"): BANDWIDTH,
    ("ga", "crossover_rate"): PROBABILITY,
    ("ga", "constraint_tolerance"): non_negative(),
    ("ga", "seeded_fraction"): PROBABILITY,
    ("ga", "delay_thr_s"): positive(),
    ("ga", "rel_thr"): st.floats(min_value=0.0, max_value=1.0,
                                 exclude_min=True, exclude_max=True),
    ("ga", "beta_max"): positive(),
    ("ga", "p_max_w"): st.floats(min_value=1e-6, allow_infinity=False),  # >= p_min_w
    ("ga", "p_min_w"): positive(max_value=0.1),                     # <= p_max_w
    ("sweep", "arrival_rate_grid"): positive(),
    ("sweep", "beta_grid"): non_negative(),
    ("sweep", "policy_power_w"): positive(),
    ("sweep", "policy_beta_total"): non_negative(),
}
INTEGER_GRIDS = (("sweep", "blocklength_grid"), ("sweep", "n_elements_grid"))
LIST_KEYS = (("scenario", "dist_ris_ue_m"), ("scenario", "user_azimuth_rad"),
             ("scenario", "user_elevation_rad"), ("traffic", "arrival_rate_per_s"),
             ("sweep", "arrival_rate_grid"), ("sweep", "beta_grid")) + INTEGER_GRIDS
NON_FINITE_CASES = (
    [(section, key, value) for section, key in [*FLOAT_DOMAINS, *INTEGER_GRIDS]
     for value in ("nan", "inf", "-inf")]
    + [(section, key, "1, nan") for section, key in LIST_KEYS]
    + [("sweep", "beta_grid", "0:inf:1"), ("sweep", "arrival_rate_grid", "1:nan:2")])

# (section, "key = value", expected message): values that used to load and
# then fail at run time, or fail with an error that is no config error
OUT_OF_DOMAIN_CASES = [
    ("geometry", "n_elements = 0", "[geometry] n_elements: must be >= 1"),
    ("geometry", "n_elements = -4", "[geometry] n_elements: must be >= 1"),
    ("geometry", "spacing_h = -0.25", "invalid geometry: element spacings"),
    ("geometry", "carrier_freq_hz = -1", "invalid geometry: carrier frequency"),
    ("scenario", "path_loss_exp = -1", "invalid scenario: path loss exponent must be non-negative"),
    ("scenario", "dist_ris_ue_m = 0", "invalid scenario: user distances must be positive"),
    ("scenario", "dist_ris_jammer_m = 0", "invalid scenario: RIS-jammer distance must be positive"),
    ("scenario", "user_azimuth_rad = 1, 2, 3",
     "[scenario] user_azimuth_rad: expected 1 or 2 values, got 3"),
    ("traffic", "arrival_rate_per_s = 1, 2, 3",
     "[traffic] arrival_rate_per_s: expected 1 or 2 values, got 3"),
    ("scenario", "path_gain_db = 4000", "[scenario] path_gain_db: too large"),
    ("scenario", "awgn_dbm = 4000", "[scenario] awgn_dbm: too large"),
    ("traffic", "header_time_s = -1e-6", "[traffic] header_time_s: must be >= 0"),
    ("traffic", "bandwidth_hz = 0", "[traffic] bandwidth_hz: must be > 0"),
    ("fbl", "blocklength = 0", "[fbl] blocklength: must be >= 1"),
    ("fbl", "payload_bytes = 0", "[fbl] payload_bytes: must be >= 1"),
    ("ga", "rng_seed = -1", "invalid ga settings: rng_seed must be non-negative"),
    ("ga", "max_generations = -1", "invalid ga settings: generation count must be non-negative"),
    ("ga", "seeded_fraction = 2",
     "invalid ga settings: seeded-beam fraction must be a probability"),
    ("ga", "rel_thr = 1", "invalid ga settings: reliability threshold must lie in (0, 1)"),
    ("ga", "p_min_w = 0.2", "invalid ga settings: need 0 < p_min <= p_max"),
    ("sweep", "blocklength = 0", "[sweep] blocklength: must be >= 1"),
    ("sweep", "retransmissions = 0", "[sweep] retransmissions: must be >= 1"),
    ("sweep", "policy_power_w = 0", "[sweep] policy_power_w: must be > 0"),
    ("sweep", "policy_power_w = -1", "[sweep] policy_power_w: must be > 0"),
    ("sweep", "policy_beta_total = -1", "[sweep] policy_beta_total: must be >= 0"),
    ("sweep", "blocklength_grid = 0, 60", "[sweep] blocklength_grid: must be >= 1"),
    ("sweep", "arrival_rate_grid = 0, 100", "[sweep] arrival_rate_grid: must be > 0"),
    ("sweep", "beta_grid = -1:1:1", "[sweep] beta_grid: must be >= 0"),
    ("sweep", "n_elements_grid = 0, 4", "[sweep] n_elements_grid: must be >= 1"),
    ("sweep", "n_elements_grid = -4", "[sweep] n_elements_grid: must be >= 1"),
    ("sweep", "cophase_user = 3", "[sweep] cophase_user out of range 1..2"),
]


CHANNEL_RANGE = "invalid scenario: a synthesized channel entry is not finite"
SJNR_RANGE = "a user's interference-plus-noise power or SJNR is not finite"

# (section, "key = value", command, message): values that used to load and
# then end the command as an internal error (exit 3). The channels and the
# SJNR are checked where a command computes them, so those cases load.
OVERFLOW_CASES = [
    ("geometry", "carrier_freq_hz = 1e-300", ["optimize"],
     "invalid geometry: carrier frequency must be positive and finite, with a finite wavelength"),
    ("scenario", "dist_ris_ue_m = 1e-300", ["optimize"],
     "invalid scenario: path gain must be finite at every distance"),
    ("scenario", "dist_jammer_m = 1e-300", ["optimize"],
     "invalid scenario: path gain must be finite at every distance"),
    ("scenario", "dist_ris_bs_m = 1e-300", ["optimize"],
     "invalid scenario: path gain must be finite at every distance"),
    ("ga", "nb_max = 100000000000000000000", ["optimize"],
     "invalid ga settings: need 1 <= nb_min <= nb_max <= 2**52"),
    ("ga", "l_max = 100000000000000000000", ["optimize"],
     "invalid ga settings: maximum retransmission count must lie in 1..2**16"),
    ("sweep", "blocklength_grid = 100000000000000000000", ["sweep", "delay-ee"],
     "[sweep] blocklength_grid: expected integers up to 2**53, got 1e+20"),
    ("traffic", "header_time_s = 1e308", ["mdl-oracle"],
     "invalid traffic: the service time retransmissions * "
     "(header_time_s + blocklength / bandwidth_hz) is not finite"),
    ("scenario", "path_gain_db = 3000", ["optimize"], SJNR_RANGE),
    ("geometry", "spacing_h = 1e308", ["optimize"], CHANNEL_RANGE),
    # the jamming floor overflows while the received powers stay finite
    ("scenario", "jammer_power_w = 1e305", ["optimize"], SJNR_RANGE),
    # run_ga bounds the population array before allocating it
    ("ga", "population_size = 1000000000000", ["optimize"],
     "population_size 1000000000000 x genome dimension 36 is above 2**26 genes"),
    ("geometry", "n_elements = 1000000000000", ["optimize"],
     "invalid geometry: element count 1000000000000 is above 2**20"),
]
# The same for the sweeps, whose fixed policy and own element grids (up to
# 900 elements) reach ranges the configured array does not; ids name the sweep.
SWEEP_OVERFLOW_CASES = [
    *(("sweep", "policy_power_w = 1e306", ["sweep", kind], SJNR_RANGE)
      for kind in ("delay-ee", "rel-beta", "sjnr-n")),
    *(("geometry", "spacing_h = 1.5e306", ["sweep", kind], CHANNEL_RANGE)
      for kind in ("sjnr-n", "rel-beta")),
    ("sweep", "n_elements_grid = 4, 1000000000000", ["sweep", "sjnr-n"],
     "invalid [sweep] n_elements_grid entry: element count 1000000000000 is above 2**20"),
]


class TestDefaults:
    def test_no_file_gives_reference_defaults(self):
        cfg = load_config()
        assert cfg.geometry.carrier_freq == 28e9
        assert (cfg.geometry.n_rows, cfg.geometry.n_cols) == (4, 4)
        assert cfg.geometry.spacing_h == 0.25
        assert cfg.geometry.wavelength == pytest.approx(0.0107, abs=1e-5)
        assert cfg.scenario.path_gain_ref == pytest.approx(1000.0, rel=1e-12)
        assert cfg.scenario.path_loss_exp == 2.0
        assert cfg.scenario.dist_ris_bs == 4.0
        assert cfg.scenario.dist_ris_ue == (20.0, 25.0)
        assert cfg.scenario.dist_jammer == 30.0
        assert cfg.scenario.effective_dist_ris_jammer == 30.0
        assert cfg.scenario.jammer_power == 5e-3
        assert cfg.scenario.dir_bs.azimuth == pytest.approx(math.pi / 6)
        assert cfg.scenario.dir_users[0].elevation == pytest.approx(2 * math.pi)
        assert cfg.noise.awgn_var == pytest.approx(1e-13, rel=1e-9)
        assert cfg.noise.ris_thermal_var == pytest.approx(1e-13, rel=1e-9)
        assert cfg.traffic.arrival_rates == (500.0, 500.0)
        assert cfg.traffic.retransmissions == 10
        assert cfg.header_time == 30e-6
        assert cfg.bandwidth == 180e3
        assert cfg.blocklength == 108
        assert cfg.payload_bits == 256
        assert cfg.constraints.delay_thr_s == 1e-3
        assert cfg.constraints.rel_thr == 0.99999
        assert cfg.constraints.beta_max == 100.0
        assert cfg.constraints.p_max_w == 0.1
        assert cfg.constraints.l_max == 10
        assert cfg.ga.constraint_tolerance == 1e-30

    def test_every_ga_key_is_read(self):
        # a [ga] key is a GaSettings or a ConstraintSet field, so no key loads
        # and is then ignored
        ga_fields, constraint_fields = ({f.name for f in dataclasses.fields(cls)}
                                        for cls in (GaSettings, ConstraintSet))
        assert not ga_fields & constraint_fields
        assert set(config.SCHEMA["ga"]) == ga_fields | constraint_fields

    def test_schema_defaults_equal_dataclass_defaults(self):
        # each of these defaults is written twice: as a SCHEMA string and as
        # a dataclass field default
        cfg = load_config()
        assert cfg.ga == GaSettings()
        assert cfg.constraints == ConstraintSet()
        assert cfg.geometry == RisGeometry(4, 4)

    def test_empty_file_equals_builtin_defaults(self, tmp_path):
        cfg_file = load_config(write(tmp_path, ""))
        cfg_default = load_config()
        assert cfg_file.config_hash == cfg_default.config_hash
        assert cfg_file.echo_text() == cfg_default.echo_text()

    def test_single_override_changes_only_that_key(self, tmp_path):
        cfg = load_config(write(tmp_path, "[traffic]\narrival_rate_per_s = 100\n"))
        base = load_config()
        assert cfg.traffic.arrival_rates == (100.0, 100.0)
        diff = [(a, b) for a, b in zip(cfg.raw, base.raw) if a != b]
        assert diff == [(("traffic", "arrival_rate_per_s", "100"),
                         ("traffic", "arrival_rate_per_s", "500"))]


class TestErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.ini")

    def test_malformed_syntax(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(write(tmp_path, "[geometry\nn_elements = 4\n"))

    def test_unknown_key(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(write(tmp_path, "[geometry]\nbogus = 1\n"))

    def test_unknown_section(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(write(tmp_path, "[wormholes]\nmass = 1\n"))

    def test_non_square_element_count(self, tmp_path):
        with pytest.raises(ConfigError, match=(
                r"^invalid geometry: element count 5 is not a perfect square; "
                r"give n_rows for a rectangular array$")):
            load_config(write(tmp_path, "[geometry]\nn_elements = 5\n"))

    def test_non_square_sweep_grid(self, tmp_path):
        # no sweep reads n_rows, so the message does not offer it
        with pytest.raises(ConfigError, match=(
                r"^invalid \[sweep\] n_elements_grid entry: element count 12 "
                r"is not a perfect square$")):
            load_config(write(tmp_path, "[sweep]\nn_elements_grid = 4,12\n"))

    def test_bad_number(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(write(tmp_path, "[scenario]\npath_gain_db = many\n"))

    def test_rows_without_cols(self, tmp_path):
        # n_rows alone gives the rectangle; it must divide n_elements (16)
        with pytest.raises(ConfigError,
                           match=r"^\[geometry\] n_rows = 3 does not divide n_elements = 16$"):
            load_config(write(tmp_path, "[geometry]\nn_rows = 3\n"))
        with pytest.raises(ConfigError, match=r"^\[geometry\] n_rows: must be >= 1"):
            load_config(write(tmp_path, "[geometry]\nn_rows = 0\n"))
        cfg = load_config(write(tmp_path, "[geometry]\nn_rows = 2\n"))
        assert (cfg.geometry.n_rows, cfg.geometry.n_cols) == (2, 8)

    @pytest.mark.parametrize("setting,message", [
        ("[geometry]\nn_elements = 16\nn_rows = 2\nn_cols = 3",
         "unknown key 'n_cols' in section [geometry]"),
        ("[scenario]\nreport_ris_power = true",
         "unknown key 'report_ris_power' in section [scenario]"),
        ("[geometry]\nn_rows = 3",
         "[geometry] n_rows = 3 does not divide n_elements = 16"),
        ("[ga]\nl_max = 65537",
         "invalid ga settings: maximum retransmission count must lie in 1..2**16"),
        *((f"[ga]\n{key} = {value}", f"unknown key '{key}' in section [ga]")
          for key, value in [("mutation_rate", "auto"), ("mutation_sigma", "0.1"),
                             ("mutation_decay", "0.99"), ("co_phasing_fraction", "0.1"),
                             ("function_tolerance", "1e-30"), ("stall_generations", "50")]),
    ], ids=["n_cols", "report_ris_power", "n_rows", "l_max", "mutation_rate",
            "mutation_sigma", "mutation_decay", "co_phasing_fraction",
            "function_tolerance", "stall_generations"])
    def test_removed_key_or_bound_exits_1(self, tmp_path, capsys, setting, message):
        path = write(tmp_path, f"{setting}\n")
        out = tmp_path / "out"
        assert main(["optimize", "--config", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            load_config(preset="galactic")

    def test_bad_sweep_kind(self, tmp_path, capsys):
        # the CLI's positional argument is the only sweep selector
        path = write(tmp_path, "[sweep]\nkind = delay-ee\n")
        with pytest.raises(ConfigError):
            load_config(path)
        assert main(["sweep", "delay-ee", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == (
            "config error: unknown key 'kind' in section [sweep]\n")

    @pytest.mark.parametrize("section,key,value", NON_FINITE_CASES)
    def test_non_finite_value_names_key(self, tmp_path, section, key, value):
        with pytest.raises(ConfigError, match=rf"^\[{section}\] {key}: not a finite"):
            load_config(write(tmp_path, f"[{section}]\n{key} = {value}\n"))

    def test_non_finite_delay_threshold_exits_1(self, tmp_path, capsys):
        # with separated users this config is feasible; a NaN threshold used
        # to drop the delay constraint and report feasible = true
        path = write(tmp_path, "\n".join([
            "[scenario]", "user_azimuth_rad = 1.0, 1.5707963267948966",
            "[ga]", "delay_thr_s = nan", ""]))
        out = tmp_path / "out"
        assert main(["optimize", "--config", str(path), "--out", str(out)]) == 1
        assert "config error: [ga] delay_thr_s: not a finite number" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("content,message", [
        (None, "cannot read config"),  # a directory
        (b"[geometry]\n# caf\xe9\n", "malformed config"),  # Latin-1
    ], ids=["directory", "not-utf8"])
    def test_unreadable_file_exits_1(self, tmp_path, capsys, content, message):
        path = tmp_path / "exp.ini"
        if content is None:
            path.mkdir()
        else:
            path.write_bytes(content)
        with pytest.raises(ConfigError):
            load_config(path)
        out = tmp_path / "out"
        assert main(["optimize", "--config", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"config error: {message} {path}")
        assert not out.exists()

    @pytest.mark.parametrize("text,message", [
        ("[sweep]\npolicy = 50%",
         "[sweep] policy: must be one of ('cophased', 'ga'), got '50%'"),
        ("[ga]\npopulation_size = 7\nmax_generations = %(population_size)s",
         "[ga] max_generations: not an integer: '%(population_size)s'"),
        ("[DEFAULT]\nrng_seed = 3\n[ga]\npopulation_size = 7",
         "unknown config section [DEFAULT]"),
        ("[scenario]\ndist_ris_ue_m = 20,\n    25",
         "[scenario] dist_ris_ue_m: a value must fit on one line"),
    ], ids=["percent", "interpolation", "default-section", "continuation"])
    def test_dialect_outside_the_subset_exits_1(self, tmp_path, capsys, text, message):
        # a value is its literal text on one line, and [DEFAULT] is no section
        path = write(tmp_path, f"{text}\n")
        out = tmp_path / "out"
        assert main(["optimize", "--config", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", [["optimize"], ["sweep", "sjnr-n"]],
                             ids=["optimize", "sweep"])
    def test_out_is_a_file_exits_1_before_any_work(self, tmp_path, capsys, monkeypatch,
                                                   command):
        def computed(*args):
            raise AssertionError("built a model before checking --out")
        monkeypatch.setattr(sweeps, "build_model", computed)
        out = tmp_path / "out"
        out.write_text("kept\n")
        assert main([*command, "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"config error: cannot write outputs to {out}: Not a directory\n")
        assert out.read_text() == "kept\n"

    @pytest.mark.parametrize("command", [["optimize"], ["sweep", "sjnr-n"]],
                             ids=["optimize", "sweep"])
    def test_unwritable_out_exits_1(self, tmp_path, capsys, monkeypatch, command):
        # a directory that cannot be made; as root a real one would be writable
        def refuse(self, *args, **kwargs):
            raise PermissionError(errno.EACCES, "Permission denied", str(self))
        monkeypatch.setattr(Path, "mkdir", refuse)
        path = write(tmp_path, "[ga]\npopulation_size = 7\nmax_generations = 1\n"
                               "[sweep]\nn_elements_grid = 4\n")
        out = tmp_path / "out"
        assert main([*command, "--config", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"config error: cannot write outputs to {out}: Permission denied\n")
        assert not out.exists()

    @pytest.mark.parametrize("section,setting,message", OUT_OF_DOMAIN_CASES,
                             ids=[f"{s}.{v}" for s, v, _ in OUT_OF_DOMAIN_CASES])
    def test_out_of_domain_value(self, tmp_path, section, setting, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            load_config(write(tmp_path, f"[{section}]\n{setting}\n"))

    @pytest.mark.parametrize(
        "section,setting,command,message", OVERFLOW_CASES + SWEEP_OVERFLOW_CASES,
        ids=[f"{s}.{v.split()[0]}" for s, v, _, _ in OVERFLOW_CASES]
        + [f"{s}.{v.split()[0]}-{c[-1]}" for s, v, c, _ in SWEEP_OVERFLOW_CASES])
    def test_overflowing_value_exits_1(self, tmp_path, capsys, section, setting,
                                       command, message):
        path = write(tmp_path, f"[{section}]\n{setting}\n")
        out = tmp_path / "out"
        assert main([*command, "--config", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    def test_grid_point_cap(self, tmp_path, monkeypatch):
        arange = np.arange

        def bounded_arange(*args, **kwargs):
            # fails instead of allocating if a grid is built before its size is checked
            assert max(args) <= config.MAX_GRID_POINTS
            return arange(*args, **kwargs)
        monkeypatch.setattr(config.np, "arange", bounded_arange)
        for grid in ("1:1e12:1", "0:1e308:1e-308", "-1e308:1e308:1", "0:1000000:1"):
            with pytest.raises(ConfigError, match=r"\[sweep\] beta_grid: grid has more"):
                load_config(write(tmp_path, f"[sweep]\nbeta_grid = {grid}\n"))
        # the largest grid the benchmark uses
        cfg = load_config(write(tmp_path, "[sweep]\nbeta_grid = 0:50:0.001\n"))
        assert len(cfg.sweep.beta_grid) == 50_001
        # the cap is inclusive; 21 is the size of the default blocklength grid
        monkeypatch.setattr(config, "MAX_GRID_POINTS", 21)
        cfg = load_config(write(tmp_path, "[sweep]\nbeta_grid = 0:20:1\n"))
        assert len(cfg.sweep.beta_grid) == len(cfg.sweep.blocklength_grid) == 21
        with pytest.raises(ConfigError, match="more than 21 points"):
            load_config(write(tmp_path, "[sweep]\nbeta_grid = 0:21:1\n"))


SEPARATED_USERS = "user_azimuth_rad = 1.0, 1.5707963267948966"
# a small GA whose every row holds a SIC-balanced seed
SMALL_GA = "[ga]\npopulation_size = 8\nmax_generations = 2\nseeded_fraction = 1\n"


def numeric_cells(path):
    """Every int and float value in a sweep CSV, convergence.csv or solution.txt."""
    if path.suffix == ".csv":
        cells = [cell for row in read_sweep_csv(path).rows for cell in row]
    else:
        record = read_solution_record(path)
        cells = [item for value in record.values()
                 for item in (value if isinstance(value, tuple) else (value,))]
    return [c for c in cells if isinstance(c, (int, float)) and not isinstance(c, bool)]


class TestComputedRange:
    """The channels and the SJNR are checked where a command computes them."""

    @pytest.mark.parametrize("setting", [
        "path_gain_db = -3000",                      # the seed weights overflow when squared
        f"dist_ris_bs_m = 1e300\n{SEPARATED_USERS}",  # they underflow to zero
    ], ids=["path_gain_db", "dist_ris_bs_m"])
    def test_unscalable_balanced_seed_ends_infeasible(self, tmp_path, setting):
        path = write(tmp_path, f"[scenario]\n{setting}\n{SMALL_GA}")
        assert main(["optimize", "--config", str(path), "--out", str(tmp_path / "out")]) == 2

    def test_ris_power_estimate_beyond_float_range_reads_inf(self, tmp_path):
        # the SJNR stays finite, but the jammer's incident power summed over
        # the amplified elements does not
        path = write(tmp_path, "\n".join([
            "[scenario]", "path_gain_db = 5", "jammer_power_w = 1.7e308",
            SEPARATED_USERS, SMALL_GA]))
        out = tmp_path / "out"
        assert main(["optimize", "--config", str(path), "--out", str(out)]) == 2
        assert read_solution_record(out / "solution.txt")["ris_power_estimate_w"] == math.inf

    @settings(max_examples=150, deadline=None)
    @given(path_gain_db=FLOAT_DOMAINS[("scenario", "path_gain_db")],
           jammer_power_w=FLOAT_DOMAINS[("scenario", "jammer_power_w")],
           policy_power_w=FLOAT_DOMAINS[("sweep", "policy_power_w")],
           spacing_h=FLOAT_DOMAINS[("geometry", "spacing_h")])
    def test_no_loadable_value_ends_as_internal_error(
            self, tmp_path_factory, path_gain_db, jammer_power_w, policy_power_w, spacing_h):
        work = tmp_path_factory.mktemp("range")
        path = write(work, "\n".join([
            "[geometry]", f"spacing_h = {spacing_h!r}",
            "[scenario]", f"path_gain_db = {path_gain_db!r}",
            f"jammer_power_w = {jammer_power_w!r}", SEPARATED_USERS, SMALL_GA,
            "[sweep]", "n_elements_grid = 4, 900", "beta_grid = 0:50:25",
            f"policy_power_w = {policy_power_w!r}", ""]))
        for command in (["optimize"], ["sweep", "sjnr-n"], ["sweep", "rel-beta"]):
            out = work / command[-1]
            code = main([*command, "--config", str(path), "--out", str(out)])
            assert code in (0, 1, 2), command
            if code == 0:
                for artifact in out.iterdir():
                    if artifact.suffix in (".csv", ".txt") and artifact.name != "config_echo.txt":
                        assert all(map(math.isfinite, numeric_cells(artifact))), artifact


class TestConversionsAndOverrides:
    def test_db_dbm_and_bytes(self, tmp_path):
        cfg = load_config(write(tmp_path, "\n".join([
            "[scenario]", "path_gain_db = 20", "awgn_dbm = -90",
            "[fbl]", "payload_bytes = 10", ""])))
        assert cfg.scenario.path_gain_ref == pytest.approx(100.0, rel=1e-12)
        assert cfg.noise.awgn_var == pytest.approx(1e-12, rel=1e-9)
        assert cfg.payload_bits == 80

    def test_byte_order_mark_is_allowed(self, tmp_path):
        path = tmp_path / "bom.ini"
        path.write_bytes("\ufeff[ga]\npopulation_size = 7\n".encode())
        assert load_config(path).ga.population_size == 7

    def test_rectangle_geometry(self, tmp_path):
        cfg = load_config(write(tmp_path, "[geometry]\nn_elements = 6\nn_rows = 2\n"))
        assert (cfg.geometry.n_rows, cfg.geometry.n_cols) == (2, 3)
        assert cfg.geometry.n_elements == 6

    def test_rectangle_optimize_runs(self, tmp_path):
        path = write(tmp_path, "\n".join([
            "[geometry]", "n_elements = 24", "n_rows = 4",
            "[scenario]", SEPARATED_USERS, SMALL_GA]))
        assert load_config(path).geometry == RisGeometry(4, 6, 0.25, 0.25, 28e9)
        out = tmp_path / "out"
        assert main(["optimize", "--config", str(path), "--out", str(out)]) in (0, 2)
        assert len(read_solution_record(out / "solution.txt")["amplitudes"]) == 24
        assert "n_elements = 24\nn_rows = 4\n" in (out / "config_echo.txt").read_text()

    def test_largest_replica_bound_runs(self, tmp_path):
        # every pair is delay- and utilization-feasible, so the replica table
        # of the repair holds l_max entries
        path = write(tmp_path, "\n".join([
            "[scenario]", SEPARATED_USERS,
            "[traffic]", "arrival_rate_per_s = 1e-300",
            "[ga]", "population_size = 4", "max_generations = 1",
            "delay_thr_s = 1e300", f"nb_max = {2 ** 52}",
            f"l_max = {optimizer.MAX_REPLICA_BOUND}", ""]))
        assert main(["optimize", "--config", str(path), "--out", str(tmp_path / "out")]) == 0

    def test_per_user_lists(self, tmp_path):
        cfg = load_config(write(tmp_path, "\n".join([
            "[scenario]",
            "dist_ris_ue_m = 10, 20, 30",
            "user_azimuth_rad = 0.1, 0.2, 0.3",
            "user_elevation_rad = -0.5",
            "[traffic]",
            "arrival_rate_per_s = 100, 200, 300", ""])))
        assert cfg.scenario.n_users == 3
        assert cfg.scenario.dir_users[2].azimuth == pytest.approx(0.3)
        assert cfg.scenario.dir_users[1].elevation == pytest.approx(-0.5)
        assert cfg.traffic.arrival_rates == (100.0, 200.0, 300.0)

    def test_presets(self):
        paper = load_config(preset="paper")
        assert paper.ga.population_size == 2000
        assert paper.ga.max_generations == 200
        assert paper.geometry.n_elements == 400
        desk = load_config(preset="desk")
        assert desk.ga.population_size == 200
        assert desk.geometry.n_elements == 16
        # desk is the defaults
        assert desk.echo_text() == load_config().echo_text()
        assert config.PRESETS["desk"] == {}

    def test_file_overrides_preset_and_seed_wins(self, tmp_path):
        path = write(tmp_path, "[ga]\npopulation_size = 77\nrng_seed = 5\n")
        cfg = load_config(path, preset="paper", seed=99)
        assert cfg.ga.population_size == 77
        assert cfg.seed == 99
        assert cfg.ga.rng_seed == 99

    def test_seed_reads_the_ga_seed(self):
        cfg = load_config()
        reseeded = dataclasses.replace(cfg, ga=dataclasses.replace(cfg.ga, rng_seed=7))
        assert (cfg.seed, reseeded.seed) == (12345, 7)

    def test_grid_syntaxes(self, tmp_path):
        cfg = load_config(write(tmp_path, "\n".join([
            "[sweep]", "blocklength_grid = 1:5:2",
            "arrival_rate_grid = 10, 30", ""])))
        assert cfg.sweep.blocklength_grid == (1, 3, 5)
        assert cfg.sweep.arrival_rate_grid == (10.0, 30.0)
        with pytest.raises(ConfigError):
            load_config(write(tmp_path, "[sweep]\nbeta_grid = 5:1:1\n", "bad.ini"))

    @settings(max_examples=300, deadline=None)
    @given(start=st.floats(-1e6, 1e6) | st.sampled_from([-0.0, 0.0, 5e-324, -5e-324]),
           step=st.floats(5e-324, 1e3) | st.sampled_from([5e-324, 1e-310, 0.1]),
           n_points=st.integers(1, 3000))
    def test_grid_points_are_the_python_formula(self, start, step, n_points):
        stop = start + (n_points - 1) * step
        span = (stop - start) / step + 1e-9
        assume(math.isfinite(span) and span < config.MAX_GRID_POINTS)
        expected = tuple(start + i * step for i in range(math.floor(span) + 1))
        grid = config._grid(f"{start!r}:{stop!r}:{step!r}")
        # float.hex tells the bits apart, signs of zero included
        assert list(map(float.hex, grid)) == list(map(float.hex, expected))

    def test_ris_jammer_distance_override(self, tmp_path):
        cfg = load_config(write(tmp_path, "[scenario]\ndist_ris_jammer_m = 45\n"))
        assert cfg.scenario.effective_dist_ris_jammer == 45.0
        assert cfg.scenario.dist_jammer == 30.0


class TestEchoAndHash:
    def test_hash_is_stable_and_sensitive(self, tmp_path):
        assert load_config().config_hash == load_config().config_hash
        changed = load_config(write(tmp_path, "[fbl]\nblocklength = 200\n"))
        assert changed.config_hash != load_config().config_hash

    def test_echo_round_trips_as_config(self, tmp_path):
        cfg = load_config(write(tmp_path, "[traffic]\narrival_rate_per_s = 321\n"))
        echo_path = write(tmp_path, cfg.echo_text(), "echo.ini")
        again = load_config(echo_path)
        assert again.config_hash == cfg.config_hash
        assert again.traffic.arrival_rates == (321.0, 321.0)

    # Broadcast list, start:stop:step and comma-list grids, an integer in
    # place of 'auto' and an empty optional key.
    EVERY_PARSER = "\n".join([
        "[geometry]", "n_rows = 2", "spacing_h = 0.5",
        "[scenario]", "dist_ris_ue_m = 10, 20, 30", "user_azimuth_rad = 0.5",
        "user_elevation_rad = -0.25, 0, 0.25", "dist_ris_jammer_m =",
        "path_gain_db = 20", "awgn_dbm = -90",
        "[traffic]", "arrival_rate_per_s = 100, 200, 300", "retransmissions = 3",
        "[fbl]", "payload_bytes = 16",
        "[ga]", "delay_thr_s = 2e-3",
        "[sweep]", "blocklength_grid = 60:120:20",
        "arrival_rate_grid = 100, 300", "beta_grid = 0:10:0.5",
        "n_elements_grid = 4, 16, 36", "cophase_user = 2", ""])

    @pytest.mark.parametrize("preset,text,expected", [
        (None, None, "sha256:ccbf70a82bddcfed"),
        ("paper", None, "sha256:2013c4703342bc97"),
        (None, EVERY_PARSER, "sha256:d4c63a449b3a8349"),
    ], ids=["defaults", "paper", "every-parser"])
    def test_hash_is_pinned(self, tmp_path, preset, text, expected):
        path = None if text is None else write(tmp_path, text)
        assert load_config(path, preset=preset).config_hash == expected

    @pytest.mark.parametrize("section,key", list(FLOAT_DOMAINS))
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_finite_value_in_domain_loads_and_round_trips(
            self, tmp_path_factory, section, key, data):
        value = data.draw(FLOAT_DOMAINS[(section, key)], label=key)
        work = tmp_path_factory.mktemp("domain")
        cfg = load_config(write(work, f"[{section}]\n{key} = {value!r}\n"))
        again = load_config(write(work, cfg.echo_text(), "echo.ini"))
        assert again.config_hash == cfg.config_hash


class TestSquareGeometry:
    def test_square_side(self):
        geom = square_geometry(400)
        assert (geom.n_rows, geom.n_cols) == (20, 20)
        with pytest.raises(ValueError):
            square_geometry(12)
