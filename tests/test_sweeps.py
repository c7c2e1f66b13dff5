import csv
import io
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import risjam
from risjam import sweeps
from risjam.config import PRESETS, load_config
from risjam.cli import _build_parser, main
from risjam.link import NoiseConfig, polar_weights, sjnr_all
from risjam.optimizer import run_ga
from risjam.sweeps import (CONVERGENCE_COLUMNS, DELAY_EE_COLUMNS,
                           REL_BETA_COLUMNS, SJNR_N_COLUMNS, SweepResult,
                           UNSTABLE_MARKER, build_model, read_solution_record,
                           read_sweep_csv, run_optimize, solution_record,
                           sweep_delay_ee, sweep_reliability_vs_beta,
                           sweep_sjnr_vs_n, uniform_beta_sjnr,
                           write_convergence_csv, write_solution_record,
                           write_sweep_csv)


def small_ga_config(tmp_path, extra="", seed=7, out="out"):
    text = "\n".join([
        "[geometry]", "n_elements = 4",
        "[ga]", "population_size = 30", "max_generations = 10",
        "nb_min = 60", "nb_max = 160", "p_min_w = 1e-4", extra, ""])
    path = tmp_path / "small.ini"
    path.write_text(text)
    return load_config(path, seed=seed, output_dir=tmp_path / out)


FLOAT_EDGES = (-0.0, float("nan"), float("inf"), float("-inf"), 5e-324, 1e16)
csv_floats = st.floats() | st.sampled_from(FLOAT_EDGES)
csv_int64s = st.integers(-2 ** 63, 2 ** 63 - 1)
csv_cells = st.one_of(
    st.integers(), csv_int64s.map(np.int64), csv_floats, csv_floats.map(np.float64),
    st.booleans(), st.none(), st.text(alphabet=',"\n\rab ', max_size=4))


def csv_reference(result):
    """The bytes csv.writer writes for a result's rows, after its metadata."""
    text = io.StringIO()
    text.writelines(f"# {key}={value}\n" for key, value in result.metadata.items())
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(result.columns)
    writer.writerows(zip(*result.values))
    return text.getvalue().encode()


def csv_column(n_rows):
    """A result column of n_rows values: an int64 or float64 array, or a
    list mixing Python and numpy scalars, None and text that csv quotes."""
    return st.one_of(
        st.lists(csv_int64s, min_size=n_rows, max_size=n_rows).map(
            lambda cells: np.array(cells, dtype=np.int64)),
        st.lists(csv_floats, min_size=n_rows, max_size=n_rows).map(
            lambda cells: np.array(cells, dtype=np.float64)),
        st.lists(csv_cells, min_size=n_rows, max_size=n_rows))


class TestDelayEeSweep:
    def test_reference_rows_and_markers(self, tmp_path):
        cfg = load_config()
        result = sweep_delay_ee(cfg)
        assert result.columns == DELAY_EE_COLUMNS
        by_point = {(row[0], row[1]): row for row in result.rows}
        tau_100 = by_point[(100.0, 108)][3]
        tau_1300 = by_point[(1300.0, 108)][3]
        assert tau_100 == pytest.approx(0.000651179295624333, rel=1e-12)
        assert tau_1300 == pytest.approx(0.002055331491712707, rel=1e-12)
        # saturated points carry the marker and no efficiency value
        unstable = [row for row in result.rows if row[2] >= 1.0]
        assert unstable
        assert all(row[3] == UNSTABLE_MARKER and row[4] is None for row in unstable)
        stable = [row for row in result.rows if row[2] < 1.0]
        assert all(isinstance(row[3], float) and row[4] >= 0.0 for row in stable)

    def test_rows_sorted_by_rate_then_blocklength(self):
        result = sweep_delay_ee(load_config())
        keys = [(row[0], row[1]) for row in result.rows]
        assert keys == sorted(keys)


class TestRelBetaSweep:
    def test_monotone_reliability_and_thresholds(self, tmp_path):
        path = tmp_path / "rb.ini"
        path.write_text("\n".join([
            "[sweep]", "n_elements_grid = 4, 16",
            "beta_grid = 0:0.02:0.0005", ""]))
        cfg = load_config(path)
        result = sweep_reliability_vs_beta(cfg)
        assert result.columns == REL_BETA_COLUMNS
        for n in (4, 16):
            rel = [row[2] for row in result.rows if row[0] == n]
            assert len(rel) == len(cfg.sweep.beta_grid)
            assert all(0.0 <= r <= 1.0 for r in rel)
            assert all(b >= a - 1e-12 for a, b in zip(rel, rel[1:]))
        assert "threshold_beta_n4" in result.metadata
        assert "reference_threshold_beta_n4" in result.metadata

    def test_zero_amplitude_gives_zero_reliability(self, tmp_path):
        path = tmp_path / "rb0.ini"
        path.write_text("[sweep]\nn_elements_grid = 4\nbeta_grid = 0, 1\n")
        result = sweep_reliability_vs_beta(load_config(path))
        first = [row for row in result.rows if row[1] == 0.0][0]
        assert first[2] == 0.0


    def test_element_grid_defaults_per_sweep(self, tmp_path):
        # an empty n_elements_grid leaves each element sweep its own grid
        path = tmp_path / "rb.ini"
        path.write_text("[sweep]\nbeta_grid = 0, 1\n")
        cfg = load_config(path)
        rel_beta = sweep_reliability_vs_beta(cfg)
        assert [row[0] for row in rel_beta.rows] == [4, 4, 100, 100, 400, 400, 900, 900]
        assert [row[0] for row in sweep_sjnr_vs_n(cfg).rows] == [
            4, 16, 36, 64, 100, 196, 400, 625, 900]


class TestSjnrSweep:
    def test_grid_and_growth_ratios(self):
        result = sweep_sjnr_vs_n(load_config())
        assert result.columns == SJNR_N_COLUMNS
        assert [row[0] for row in result.rows] == [4, 16, 36, 64, 100, 196, 400, 625, 900]
        assert result.rows[0][2] is None
        for prev, row in zip(result.rows, result.rows[1:]):
            assert row[2] == pytest.approx(row[1] / prev[1], rel=1e-12)
        assert "reference_sjnr_n4" in result.metadata

    def test_zero_sjnr_leaves_the_next_growth_cell_empty(self, tmp_path):
        # a zero total amplification switches the RIS off: every SJNR is 0
        path = tmp_path / "off.ini"
        path.write_text("[sweep]\npolicy_beta_total = 0\nn_elements_grid = 4, 16\n")
        out = tmp_path / "out"
        assert main(["sweep", "sjnr-n", "--config", str(path), "--out", str(out)]) == 0
        assert read_sweep_csv(out / "sjnr-n.csv").rows == [(4, 0.0, None), (16, 0.0, None)]

    def test_ga_policy_rows_come_from_run_ga(self, tmp_path):
        path = tmp_path / "ga.ini"
        path.write_text("[ga]\npopulation_size = 20\nmax_generations = 3\n"
                        "[sweep]\npolicy = ga\nn_elements_grid = 4, 16\n")
        cfg = load_config(path)
        result = sweep_sjnr_vs_n(cfg)
        expected = [run_ga(build_model(cfg, n), cfg.constraints, cfg.ga).best_report.sjnr[0]
                    for n in (4, 16)]
        assert result.rows == [(4, expected[0], None),
                               (16, expected[1], expected[1] / expected[0])]

    def test_ga_policy_population_bound_exits_1(self, tmp_path, capsys):
        path = tmp_path / "ga.ini"
        path.write_text("[ga]\npopulation_size = 1000000000000\n"
                        "[sweep]\npolicy = ga\nn_elements_grid = 4\n")
        out = tmp_path / "out"
        assert main(["sweep", "sjnr-n", "--config", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "config error: population_size 1000000000000 x genome dimension 12 "
            "is above 2**26 genes\n")
        assert not out.exists()

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n_users=st.integers(1, 3),
           n=st.integers(1, 16),
           betas=st.lists(st.floats(1e-6, 100.0), max_size=5))
    def test_uniform_beta_fast_path_matches_general_sjnr(self, seed, n_users, n,
                                                         betas):
        rng = np.random.default_rng(seed)
        cplx = lambda shape: rng.normal(size=shape) + 1j * rng.normal(size=shape)
        model = SimpleNamespace(
            ue_channels=cplx((n_users, n)), bs_channel=cplx(n),
            jammer_direct=complex(cplx(())), jammer_channel=cplx(n),
            scenario=SimpleNamespace(jammer_power=float(rng.uniform(0, 0.01))),
            noise=NoiseConfig(float(rng.uniform(0, 1e-10)),
                              float(rng.uniform(1e-14, 1e-10))))
        phases = rng.uniform(0, 2 * np.pi, n)
        powers = tuple(rng.uniform(1e-4, 0.1, n_users))
        # nonzero amplitudes start at 1e-6: near the subnormal range the
        # reference's sqrt(beta)-scaled weights underflow and lose digits
        betas = np.array([0.0, *betas])
        fast = uniform_beta_sjnr(model, phases, powers, betas)
        assert fast.shape == (n_users, betas.size)
        for j, beta in enumerate(betas):
            reference = sjnr_all(model.ue_channels, model.bs_channel,
                                 model.jammer_direct, model.jammer_channel,
                                 polar_weights(np.full(n, beta), phases), powers,
                                 model.scenario.jammer_power, model.noise)
            assert fast[:, j] == pytest.approx(reference, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("betas,phases,message", [
        ([-1.0], None, "^amplification factors must be non-negative$"),
        ([np.nan], None, "^beamforming parameters must be finite$"),
        ([np.inf], None, "^beamforming parameters must be finite$"),
        ([[1.0, 2.0]], None, "^the amplitude grid must be a 1-D array$"),
        ([1.0], np.full(16, np.nan), "^beamforming parameters must be finite$"),
        ([1.0], np.zeros(3),
         "^channel vectors and beamforming must share one element count$"),
        ([1.0], np.zeros((1, 16)),
         "^channel vectors and beamforming must share one element count$"),
    ], ids=["negative-beta", "nan-beta", "inf-beta", "2-D-betas", "nan-phases",
            "three-phases", "row-of-phases"])
    def test_uniform_beta_rejects_what_sjnr_all_rejects(self, betas, phases, message):
        # a 16-element model; unchecked, these values overflow in the SJNR,
        # broadcast to a wrong shape or fail in numpy's broadcasting
        model = build_model(load_config())
        good = np.zeros(model.n_elements)
        assert uniform_beta_sjnr(model, good, (1e-3,) * model.n_users, [1.0]).shape == (
            model.n_users, 1)
        with pytest.raises(ValueError, match=message):
            uniform_beta_sjnr(model, good if phases is None else phases,
                              (1e-3,) * model.n_users, betas)


class TestCsvRoundTrip:
    def test_sweep_result_round_trips(self, tmp_path):
        result = sweep_sjnr_vs_n(load_config())
        path = write_sweep_csv(result, tmp_path / "s.csv")
        again = read_sweep_csv(path)
        assert again == result

    def test_delay_round_trip_preserves_markers(self, tmp_path):
        result = sweep_delay_ee(load_config())
        again = read_sweep_csv(write_sweep_csv(result, tmp_path / "d.csv"))
        assert again == result

    def test_golden_headers(self):
        assert DELAY_EE_COLUMNS == ("arrival_rate_per_s", "blocklength",
                                    "utilization", "mean_delay_s",
                                    "energy_efficiency_bits_per_j")
        assert REL_BETA_COLUMNS == ("n_elements", "amplitude", "reliability")
        assert SJNR_N_COLUMNS == ("n_elements", "sjnr_user1", "growth_ratio")
        assert CONVERGENCE_COLUMNS == ("generation", "best_objective",
                                       "mean_objective", "feasible_fraction")

    def test_cell_text_is_pinned(self, tmp_path):
        nan, inf = float("nan"), float("inf")
        values = ([7, np.int64(2 ** 40), 0, 1],
                  [np.int64(-3), 1e-05, np.float64(5e-324), np.float64(inf)],
                  [0.1, np.float64(1e-05), np.float64(-0.0), None],
                  [np.float64(0.1), np.float64(1e+16), np.float64(nan), UNSTABLE_MARKER])
        result = SweepResult("pin", ("a", "b", "c", "d"), values,
                             {"kind": "pin", "seed": "1"})
        path = write_sweep_csv(result, tmp_path / "pin.csv")
        assert path.read_text() == (
            "# kind=pin\n# seed=1\na,b,c,d\n7,-3,0.1,0.1\n"
            "1099511627776,1e-05,1e-05,1e+16\n0,5e-324,-0.0,nan\n"
            "1,inf,,unstable\n")
        again = read_sweep_csv(path)
        assert again.metadata == result.metadata
        # repr tells -0.0 from 0.0 and shows nan, which never compares equal
        assert repr(again.rows) == repr(
            [(7, -3, 0.1, 0.1), (2 ** 40, 1e-05, 1e-05, 1e+16),
             (0, 5e-324, -0.0, nan), (1, inf, None, "unstable")])

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_writer_matches_csv_writer(self, data, tmp_path_factory):
        n_rows = data.draw(st.integers(0, 12))
        n_columns = data.draw(st.integers(1, 4))
        values = tuple(data.draw(csv_column(n_rows)) for _ in range(n_columns))
        columns = tuple(f"c{i}" for i in range(n_columns))
        result = SweepResult("w", columns, values, {"kind": "w", "seed": "3"})
        path = write_sweep_csv(result, tmp_path_factory.getbasetemp() / "w.csv")
        assert path.read_bytes() == csv_reference(result)

    def test_writer_matches_csv_writer_across_chunks(self, tmp_path):
        n = 2 * sweeps.CSV_CHUNK_ROWS + 3
        values = (np.arange(n, dtype=np.int64) % 7, np.linspace(-1.0, 1.0, n),
                  [None if i % 5 else f"{i},x" for i in range(n)])
        result = SweepResult("w", ("k", "x", "note"), values, {"kind": "w"})
        path = write_sweep_csv(result, tmp_path / "w.csv")
        assert path.read_bytes() == csv_reference(result)

    def test_lone_empty_cells_and_empty_results(self, tmp_path):
        # csv.writer writes an empty field alone on its row as ""
        lone = SweepResult("w", ("x",), ([None, "", "a", 1.5],), {})
        assert write_sweep_csv(lone, tmp_path / "a.csv").read_text() == 'x\n""\n""\na\n1.5\n'
        empty = SweepResult("w", ("n", "x"), (np.array([], dtype=np.int64), []),
                            {"kind": "w"})
        assert write_sweep_csv(empty, tmp_path / "b.csv").read_text() == "# kind=w\nn,x\n"
        assert read_sweep_csv(tmp_path / "b.csv") == empty

    def test_rows_view_reads_the_columns(self):
        result = SweepResult("v", ("n", "x", "note"), (
            np.array([4, 4, 9]), np.array([0.5, -0.0, 2.0]), ["a", None, "b,c"]), {})
        rows = result.rows
        expected = [(4, 0.5, "a"), (4, -0.0, None), (9, 2.0, "b,c")]
        assert len(rows) == 3
        assert rows[-1] == (9, 2.0, "b,c")
        assert [type(cell) for cell in rows[0]] == [int, float, str]
        assert rows[1:] == expected[1:]
        assert list(rows) == expected
        assert rows == expected and expected == rows
        assert rows != expected[:2] and rows != expected[0]
        assert repr(rows) == repr(expected)
        with pytest.raises(IndexError):
            rows[3]

    def test_row_count_builds_no_rows(self):
        class NoList(np.ndarray):
            def tolist(self):
                raise AssertionError("tolist called")

        column = np.zeros(10 ** 6).view(NoList)
        assert len(SweepResult("big", ("x",), (column,), {}).rows) == 10 ** 6

    def test_columns_must_match_their_names(self, tmp_path):
        with pytest.raises(ValueError):
            SweepResult("w", ("a", "b"), ([1, 2], [3]), {})
        with pytest.raises(ValueError):
            SweepResult("w", ("a", "b"), ([1, 2],), {})
        ragged = tmp_path / "ragged.csv"
        ragged.write_text("a,b\n1,2\n3\n")
        with pytest.raises(ValueError, match="cell count"):
            read_sweep_csv(ragged)

    @pytest.mark.parametrize("text,value", [
        ("", None), ("none", None), ("true", True), ("false", False),
        ("-3", -3), ("1e-05", 1e-05), ("inf", float("inf")), ("unstable", "unstable"),
    ])
    def test_one_decoder_reads_cells_and_record_values(self, text, value):
        decoded = sweeps._decode_cell(text)
        assert (type(decoded), decoded) == (type(value), value)

    def test_metadata_written_and_restored(self, tmp_path):
        result = sweep_sjnr_vs_n(load_config())
        text = write_sweep_csv(result, tmp_path / "m.csv").read_text()
        for key in ("kind", "config_hash", "seed", "version", "created_utc"):
            assert f"# {key}=" in text

    def test_reproducible_bytes_except_timestamp(self, tmp_path):
        cfg = load_config()
        a = write_sweep_csv(sweep_sjnr_vs_n(cfg), tmp_path / "a.csv").read_text()
        b = write_sweep_csv(sweep_sjnr_vs_n(cfg), tmp_path / "b.csv").read_text()
        strip = lambda text: [ln for ln in text.splitlines()
                              if not ln.startswith("# created_utc=")]
        assert strip(a) == strip(b)


class TestOptimizeDriver:
    def test_writes_all_artifacts(self, tmp_path):
        cfg = small_ga_config(tmp_path)
        result = run_optimize(cfg)
        out = cfg.output_dir
        assert (out / "convergence.csv").exists()
        assert (out / "solution.txt").exists()
        assert (out / "config_echo.txt").read_text() == cfg.echo_text()
        lines = (out / "convergence.csv").read_text().splitlines()
        data = [ln for ln in lines if not ln.startswith("#")]
        assert data[0] == ",".join(CONVERGENCE_COLUMNS)
        assert len(data) - 1 == result.generations_run == 10
        best = [float(ln.split(",")[1]) for ln in data[1:]]
        assert all(b <= a for a, b in zip(best, best[1:]))

    def test_convergence_bytes_identical_for_same_seed(self, tmp_path):
        cfg_a = small_ga_config(tmp_path, out="a")
        cfg_b = small_ga_config(tmp_path, out="b")
        run_optimize(cfg_a)
        run_optimize(cfg_b)
        assert (cfg_a.output_dir / "convergence.csv").read_bytes() == \
            (cfg_b.output_dir / "convergence.csv").read_bytes()

    def test_solution_record_round_trip(self, tmp_path):
        cfg = small_ga_config(tmp_path)
        result = run_optimize(cfg)
        record = solution_record(result, cfg, build_model(cfg),
                                 timestamp="2026-01-01T00:00:00+00:00")
        path = write_solution_record(record, tmp_path / "sol.txt")
        loaded = read_solution_record(path)
        assert loaded == record
        # a second write from the parsed record is byte-identical
        again = write_solution_record(loaded, tmp_path / "sol2.txt")
        assert again.read_bytes() == path.read_bytes()

    def test_ris_power_reporting_switch(self, tmp_path):
        # every record carries the reporting-only estimate at the best point
        cfg = small_ga_config(tmp_path)
        best = run_optimize(cfg).best_solution
        record = read_solution_record(cfg.output_dir / "solution.txt")
        expected = build_model(cfg).ris_output_power(best.amplitudes,
                                                     best.user_powers)
        assert expected > 0
        assert record["ris_power_estimate_w"] == expected
        assert list(record)[-1] == "ris_power_estimate_w"

    def test_unstable_best_point_records_none(self, tmp_path):
        # every queue overflows, so no point has a delay or an efficiency
        cfg = small_ga_config(tmp_path, "[traffic]\narrival_rate_per_s = 1e6")
        result = run_optimize(cfg)
        assert not result.best_report.stable and result.best_eta is None
        record = read_solution_record(cfg.output_dir / "solution.txt")
        assert record["energy_efficiency_bits_per_j"] is None
        assert record["mean_delay_s"] == (None, None)
        assert record["utilization"] == tuple(result.best_report.utilization.tolist())
        assert all(rho >= 1 for rho in record["utilization"])

    def test_persisted_record_matches_result(self, tmp_path):
        cfg = small_ga_config(tmp_path)
        result = run_optimize(cfg)
        loaded = read_solution_record(cfg.output_dir / "solution.txt")
        assert loaded["blocklength"] == result.best_solution.blocklength
        assert loaded["user_powers_w"] == result.best_solution.user_powers
        assert loaded["feasible"] == result.feasible
        assert loaded["config_hash"] == cfg.config_hash


class TestCli:
    def run_cli(self, *args):
        src = str(Path(risjam.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        return subprocess.run([sys.executable, "-m", "risjam.cli", *args],
                              capture_output=True, text=True, env=env)

    def test_sweep_exit_zero_and_writes_csv(self, tmp_path):
        proc = self.run_cli("sweep", "sjnr-n", "--out", str(tmp_path / "o"))
        assert proc.returncode == 0
        assert (tmp_path / "o" / "sjnr-n.csv").exists()

    def test_sweep_through_main_writes_csv(self, tmp_path):
        ini = tmp_path / "grid.ini"
        ini.write_text("[sweep]\narrival_rate_grid = 100, 500\n"
                       "blocklength_grid = 108, 120\n")
        assert main(["sweep", "delay-ee", "--config", str(ini),
                     "--out", str(tmp_path / "o")]) == 0
        assert len(read_sweep_csv(tmp_path / "o" / "delay-ee.csv").rows) == 4

    def test_sweep_with_every_point_unstable_exits_two(self, tmp_path, capsys):
        # utilization about 8.5 at 5000 packets/s and blocklength 300
        ini = tmp_path / "unstable.ini"
        ini.write_text("[sweep]\narrival_rate_grid = 5000\nblocklength_grid = 300\n")
        assert main(["sweep", "delay-ee", "--config", str(ini),
                     "--out", str(tmp_path / "o")]) == 2
        assert "every grid point is unstable" in capsys.readouterr().err

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_every_preset_is_a_cli_choice(self, preset):
        args = _build_parser().parse_args(["optimize", "--preset", preset])
        assert args.preset == preset

    @pytest.mark.parametrize("argv, code", [
        (["optimize", "--preset", "huge"], 1),
        (["optimize", "--seed", "x"], 1),
        (["mdl-oracle", "--arrivals", "abc"], 1),
        (["sweep", "nope"], 1),
        (["nosuch"], 1),
        (["--bogus"], 1),
        (["--help"], 0),
        (["sweep", "--help"], 0),
    ])
    def test_usage_error_exit_codes(self, capsys, argv, code):
        # 2 is reserved for infeasible or unstable results
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == code
        if code:
            assert "usage:" in capsys.readouterr().err

    def test_missing_config_exits_one(self, tmp_path):
        proc = self.run_cli("optimize", "--config", str(tmp_path / "nope.ini"))
        assert proc.returncode == 1
        assert "config error" in proc.stderr

    def test_unknown_key_exits_one(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[geometry]\nwhat = 1\n")
        proc = self.run_cli("sweep", "delay-ee", "--config", str(bad))
        assert proc.returncode == 1

    def test_infeasible_optimize_exits_two(self, tmp_path):
        ini = tmp_path / "small.ini"
        ini.write_text("\n".join([
            "[geometry]", "n_elements = 4",
            "[ga]", "population_size = 20", "max_generations = 5",
            "nb_min = 60", "nb_max = 160", ""]))
        proc = self.run_cli("optimize", "--config", str(ini),
                            "--out", str(tmp_path / "o"), "--seed", "3")
        assert proc.returncode == 2

    def test_mdl_oracle_passes(self, tmp_path):
        proc = self.run_cli("mdl-oracle", "--arrivals", "150000",
                            "--rho", "0.2,0.5", "--out", str(tmp_path / "o"))
        assert proc.returncode == 0
        assert "rel_err" in proc.stdout

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                                "ignore:invalid value encountered:RuntimeWarning")
    def test_mdl_oracle_fails_on_a_nan_error(self, tmp_path, capsys):
        # a 1e-300 Hz band makes the service time so long that the sample
        # path's arrival times overflow and the simulated delay is NaN
        ini = tmp_path / "slow.ini"
        ini.write_text("[traffic]\nbandwidth_hz = 1e-300\n")
        assert main(["mdl-oracle", "--rho", "0.8", "--config", str(ini),
                     "--out", str(tmp_path / "o")]) == 2
        captured = capsys.readouterr()
        assert "simulated=nan" in captured.out
        assert "discrete-event check failed" in captured.err

    def test_mdl_oracle_bounds_the_arrival_count(self, tmp_path, capsys):
        assert main(["mdl-oracle", "--arrivals", str(2 ** 26 + 1),
                     "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr() == (
            "", "config error: --arrivals: 67108865 is outside 1..2**26\n")

    @pytest.mark.parametrize("flags, named", [
        (("--rho", "2"), "--rho"),
        (("--rho", "nan"), "--rho"),
        (("--rho", "0"), "--rho"),
        (("--rho", "abc"), "--rho"),
        (("--rho", "0.5,2"), "--rho"),
        (("--rho", "0.5,"), "--rho"),
        (("--arrivals", "0"), "--arrivals"),
        (("--arrivals", "-5"), "--arrivals"),
        (("--arrivals", str(2 ** 26 + 1)), "--arrivals"),
    ])
    def test_mdl_oracle_rejects_bad_flags(self, tmp_path, capsys, flags, named):
        assert main(["mdl-oracle", *flags, "--out", str(tmp_path / "o")]) == 1
        captured = capsys.readouterr()
        assert "config error:" in captured.err and named in captured.err
        # rejected before any simulation runs
        assert captured.out == ""

    def test_version_flag(self):
        proc = self.run_cli("--version")
        assert proc.returncode == 0
        assert risjam.__version__ in proc.stdout
