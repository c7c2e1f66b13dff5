import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from risjam import config
from risjam.channel import RisGeometry
from risjam.cli import main
from risjam.config import (ConfigNotFoundError, ConfigSyntaxError,
                           ConfigValueError, NonSquareGeometryError,
                           UnknownKeyError, load_config, square_geometry)
from risjam.optimizer import ConstraintSet, GaSettings


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
# positive values that keep the wavelength c / f, and with the default 30 dB
# gain and exponent 2 the path gain 1000 / d**2, finite
CARRIER = st.floats(min_value=1e-299, allow_infinity=False)
DISTANCE = st.floats(min_value=1e-152, allow_infinity=False)
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
    ("scenario", "path_gain_db"): st.floats(min_value=-3000.0, max_value=3000.0),
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
    ("ga", "mutation_rate"): PROBABILITY,
    ("ga", "constraint_tolerance"): non_negative(),
    ("ga", "function_tolerance"): non_negative(),
    ("ga", "co_phasing_fraction"): PROBABILITY,
    ("ga", "mutation_sigma"): non_negative(),
    ("ga", "mutation_decay"): non_negative(),
    ("ga", "delay_thr_s"): positive(),
    ("ga", "rel_thr"): st.floats(min_value=0.0, max_value=1.0,
                                 exclude_min=True, exclude_max=True),
    ("ga", "beta_max"): positive(),
    ("ga", "p_max_w"): st.floats(min_value=1e-6, allow_infinity=False),  # >= p_min_w
    ("ga", "p_min_w"): positive(max_value=0.1),                          # <= p_max_w
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
    ("scenario", "path_gain_db = 4000", "[scenario] path_gain_db: too large"),
    ("scenario", "awgn_dbm = 4000", "[scenario] awgn_dbm: too large"),
    ("traffic", "header_time_s = -1e-6", "[traffic] header_time_s: must be >= 0"),
    ("traffic", "bandwidth_hz = 0", "[traffic] bandwidth_hz: must be > 0"),
    ("fbl", "blocklength = 0", "[fbl] blocklength: must be >= 1"),
    ("fbl", "payload_bytes = 0", "[fbl] payload_bytes: must be >= 1"),
    ("ga", "rng_seed = -1", "[ga] rng_seed: must be >= 0"),
    ("ga", "mutation_sigma = -0.1", "[ga] mutation_sigma: must be >= 0"),
    ("ga", "mutation_decay = -1", "[ga] mutation_decay: must be >= 0"),
    ("ga", "stall_generations = -5", "[ga] stall_generations: must be >= 1"),
    ("ga", "stall_generations = 0", "[ga] stall_generations: must be >= 1"),
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
]


# (section, "key = value", command, message): values that used to load and
# then end the command as an internal error (exit 3)
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
     "invalid ga settings: maximum retransmission count must lie in 1..2**52"),
    ("sweep", "blocklength_grid = 100000000000000000000", ["sweep", "delay-ee"],
     "[sweep] blocklength_grid: expected integers up to 2**53, got 1e+20"),
    ("traffic", "header_time_s = 1e308", ["mdl-oracle"],
     "invalid traffic: the service time retransmissions * "
     "(header_time_s + blocklength / bandwidth_hz) is not finite"),
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
        assert cfg.constraints.delay_thr == 1e-3
        assert cfg.constraints.rel_thr == 0.99999
        assert cfg.constraints.beta_max == 100.0
        assert cfg.constraints.p_max == 0.1
        assert cfg.constraints.l_max == 10
        assert cfg.ga.constraint_tolerance == 1e-30

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
        with pytest.raises(ConfigNotFoundError):
            load_config(tmp_path / "nope.ini")

    def test_malformed_syntax(self, tmp_path):
        with pytest.raises(ConfigSyntaxError):
            load_config(write(tmp_path, "[geometry\nn_elements = 4\n"))

    def test_unknown_key(self, tmp_path):
        with pytest.raises(UnknownKeyError):
            load_config(write(tmp_path, "[geometry]\nbogus = 1\n"))

    def test_unknown_section(self, tmp_path):
        with pytest.raises(UnknownKeyError):
            load_config(write(tmp_path, "[wormholes]\nmass = 1\n"))

    def test_non_square_element_count(self, tmp_path):
        with pytest.raises(NonSquareGeometryError):
            load_config(write(tmp_path, "[geometry]\nn_elements = 5\n"))

    def test_non_square_sweep_grid(self, tmp_path):
        with pytest.raises(NonSquareGeometryError):
            load_config(write(tmp_path, "[sweep]\nn_elements_grid = 4,12\n"))

    def test_bad_number(self, tmp_path):
        with pytest.raises(ConfigValueError):
            load_config(write(tmp_path, "[scenario]\npath_gain_db = many\n"))

    def test_rows_without_cols(self, tmp_path):
        with pytest.raises(ConfigValueError):
            load_config(write(tmp_path, "[geometry]\nn_rows = 2\n"))

    def test_unknown_preset(self):
        with pytest.raises(ConfigValueError):
            load_config(preset="galactic")

    def test_bad_sweep_kind(self, tmp_path, capsys):
        # the CLI's positional argument is the only sweep selector
        path = write(tmp_path, "[sweep]\nkind = delay-ee\n")
        with pytest.raises(UnknownKeyError):
            load_config(path)
        assert main(["sweep", "delay-ee", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == (
            "config error: unknown key 'kind' in section [sweep]\n")

    @pytest.mark.parametrize("section,key,value", NON_FINITE_CASES)
    def test_non_finite_value_names_key(self, tmp_path, section, key, value):
        with pytest.raises(ConfigValueError, match=rf"^\[{section}\] {key}: not a finite"):
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

    @pytest.mark.parametrize("content,error,message", [
        (None, ConfigNotFoundError, "cannot read config"),  # a directory
        (b"[geometry]\n# caf\xe9\n", ConfigSyntaxError, "malformed config"),  # Latin-1
    ], ids=["directory", "not-utf8"])
    def test_unreadable_file_exits_1(self, tmp_path, capsys, content, error, message):
        path = tmp_path / "exp.ini"
        if content is None:
            path.mkdir()
        else:
            path.write_bytes(content)
        with pytest.raises(error):
            load_config(path)
        out = tmp_path / "out"
        assert main(["optimize", "--config", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"config error: {message} {path}")
        assert not out.exists()

    @pytest.mark.parametrize("section,setting,message", OUT_OF_DOMAIN_CASES,
                             ids=[f"{s}.{v}" for s, v, _ in OUT_OF_DOMAIN_CASES])
    def test_out_of_domain_value(self, tmp_path, section, setting, message):
        with pytest.raises(ConfigValueError, match=re.escape(message)):
            load_config(write(tmp_path, f"[{section}]\n{setting}\n"))

    @pytest.mark.parametrize("section,setting,command,message", OVERFLOW_CASES,
                             ids=[f"{s}.{v.split()[0]}" for s, v, _, _ in OVERFLOW_CASES])
    def test_overflowing_value_exits_1(self, tmp_path, capsys, section, setting,
                                       command, message):
        path = write(tmp_path, f"[{section}]\n{setting}\n")
        out = tmp_path / "out"
        assert main([*command, "--config", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    def test_grid_point_cap(self, tmp_path, monkeypatch):
        def bounded_range(stop):
            # fails instead of allocating if a grid is built before its size is checked
            assert stop <= config.MAX_GRID_POINTS
            return range(stop)
        monkeypatch.setattr(config, "range", bounded_range, raising=False)
        for grid in ("1:1e12:1", "0:1e308:1e-308", "-1e308:1e308:1", "0:1000000:1"):
            with pytest.raises(ConfigValueError, match=r"\[sweep\] beta_grid: grid has more"):
                load_config(write(tmp_path, f"[sweep]\nbeta_grid = {grid}\n"))
        # the largest grid the benchmark uses
        cfg = load_config(write(tmp_path, "[sweep]\nbeta_grid = 0:50:0.001\n"))
        assert len(cfg.sweep.beta_grid) == 50_001
        # the cap is inclusive; 21 is the size of the default blocklength grid
        monkeypatch.setattr(config, "MAX_GRID_POINTS", 21)
        cfg = load_config(write(tmp_path, "[sweep]\nbeta_grid = 0:20:1\n"))
        assert len(cfg.sweep.beta_grid) == len(cfg.sweep.blocklength_grid) == 21
        with pytest.raises(ConfigValueError, match="more than 21 points"):
            load_config(write(tmp_path, "[sweep]\nbeta_grid = 0:21:1\n"))


class TestConversionsAndOverrides:
    def test_db_dbm_and_bytes(self, tmp_path):
        cfg = load_config(write(tmp_path, "\n".join([
            "[scenario]", "path_gain_db = 20", "awgn_dbm = -90",
            "[fbl]", "payload_bytes = 10", ""])))
        assert cfg.scenario.path_gain_ref == pytest.approx(100.0, rel=1e-12)
        assert cfg.noise.awgn_var == pytest.approx(1e-12, rel=1e-9)
        assert cfg.payload_bits == 80

    def test_rectangle_geometry(self, tmp_path):
        cfg = load_config(write(tmp_path, "[geometry]\nn_rows = 2\nn_cols = 3\n"))
        assert (cfg.geometry.n_rows, cfg.geometry.n_cols) == (2, 3)

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

    def test_file_overrides_preset_and_seed_wins(self, tmp_path):
        path = write(tmp_path, "[ga]\npopulation_size = 77\nrng_seed = 5\n")
        cfg = load_config(path, preset="paper", seed=99)
        assert cfg.ga.population_size == 77
        assert cfg.seed == 99
        assert cfg.ga.rng_seed == 99

    def test_grid_syntaxes(self, tmp_path):
        cfg = load_config(write(tmp_path, "\n".join([
            "[sweep]", "blocklength_grid = 1:5:2",
            "arrival_rate_grid = 10, 30", ""])))
        assert cfg.sweep.blocklength_grid == (1, 3, 5)
        assert cfg.sweep.arrival_rate_grid == (10.0, 30.0)
        with pytest.raises(ConfigValueError):
            load_config(write(tmp_path, "[sweep]\nbeta_grid = 5:1:1\n", "bad.ini"))

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

    # Broadcast list, start:stop:step and comma-list grids, 'auto', an empty
    # optional key and a bool.
    EVERY_PARSER = "\n".join([
        "[geometry]", "n_rows = 2", "n_cols = 3", "spacing_h = 0.5",
        "[scenario]", "dist_ris_ue_m = 10, 20, 30", "user_azimuth_rad = 0.5",
        "user_elevation_rad = -0.25, 0, 0.25", "dist_ris_jammer_m =",
        "path_gain_db = 20", "awgn_dbm = -90", "report_ris_power = true",
        "[traffic]", "arrival_rate_per_s = 100, 200, 300", "retransmissions = 3",
        "[fbl]", "payload_bytes = 16",
        "[ga]", "mutation_rate = auto", "delay_thr_s = 2e-3",
        "[sweep]", "blocklength_grid = 60:120:20",
        "arrival_rate_grid = 100, 300", "beta_grid = 0:10:0.5",
        "n_elements_grid = 4, 16, 36", "cophase_user = 2", ""])

    @pytest.mark.parametrize("preset,text,expected", [
        (None, None, "sha256:7150563a3532d0db"),
        ("paper", None, "sha256:afa95f6a0fe700d0"),
        (None, EVERY_PARSER, "sha256:aa1b07e806f6f8b1"),
    ])
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
        with pytest.raises(NonSquareGeometryError):
            square_geometry(12)
