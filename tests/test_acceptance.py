"""
Acceptance suite: one test per criterion, each printing a pass line with the
measured numbers (run with -s to see them).
"""

import numpy as np
import pytest

from risjam.channel import RisGeometry
from risjam.config import load_config
from risjam.link import BeamformConfig, bler, q_function
from risjam.optimizer import (ConstraintSet, GaSettings, decode,
                              evaluate_fitness, genome_dimension, run_ga)
from risjam.sweeps import (sweep_reliability_vs_beta, sweep_sjnr_vs_n,
                           write_convergence_csv)
from risjam.traffic import (FrameParams, TrafficParams, mean_delay,
                            simulate_md1)

from conftest import make_model, make_scenario
from test_link import random_instance, sjnr_scalar_oracle, vectorized

DELAY_FRAME = FrameParams(header_time=30e-6, bandwidth=180e3, blocklength=108)


def test_criterion_01_delay_reproduction():
    tau_100 = mean_delay(DELAY_FRAME, TrafficParams((100.0,), 1), 1)
    tau_1300 = mean_delay(DELAY_FRAME, TrafficParams((1300.0,), 1), 1)
    assert tau_100 == pytest.approx(6.51e-4, rel=0.005)
    assert tau_1300 == pytest.approx(2.055e-3, rel=0.025)
    print(f"PASS criterion 1: delay({{100,1300}}) = {tau_100:.6e}, {tau_1300:.6e} s")


def test_criterion_02_delay_ratio():
    tau_100 = mean_delay(DELAY_FRAME, TrafficParams((100.0,), 1), 1)
    tau_1300 = mean_delay(DELAY_FRAME, TrafficParams((1300.0,), 1), 1)
    ratio = tau_100 / tau_1300
    assert abs(ratio - 0.3168) <= 0.005
    print(f"PASS criterion 2: delay ratio = {ratio:.6f}")


def test_criterion_03_md1_discrete_event_oracle():
    service = DELAY_FRAME.duration
    worst = 0.0
    for i, rho in enumerate((0.1, 0.3, 0.5, 0.8)):
        rate = rho / service
        analytic = mean_delay(DELAY_FRAME, TrafficParams((rate,), 1), 1)
        simulated = simulate_md1(rate, service, 1_000_000, seed=2026 + i)
        err = abs(simulated - analytic) / analytic
        worst = max(worst, err)
        assert err <= 0.02, f"rho={rho}: {err:.4%}"
    print(f"PASS criterion 3: M/D/1 simulation within 2% (worst {worst:.4%})")


def test_criterion_04_bler_numerics():
    import mpmath as mp
    mp.mp.dps = 50
    gamma = mp.mpf(1)
    capacity = mp.log(1 + gamma) / mp.log(2)
    dispersion = (1 - 1 / (1 + gamma) ** 2) * (1 / mp.log(2)) ** 2
    argument = mp.sqrt(100 / dispersion) * (capacity - mp.mpf(50) / 100)
    expected = float(0.5 * mp.erfc(argument / mp.sqrt(2)))

    value = bler(1.0, 100, 50)
    assert value == pytest.approx(expected, rel=1e-10)
    assert q_function(0.0) == 0.5
    assert bler(1.0, 100, 100) == 0.5   # C(1) == rate exactly
    assert bler(3.0, 50, 100) == 0.5    # C(3) == rate exactly
    print(f"PASS criterion 4: bler(1,100,50) = {value:.12e} "
          f"(oracle {expected:.12e}, argument {float(argument):.6f})")


def test_criterion_05_sjnr_brute_force_equivalence():
    rng = np.random.default_rng(505)
    checked = 0
    for _ in range(200):
        inst = random_instance(rng, n_max=8, k_max=3)
        for k in range(1, len(inst["powers"]) + 1):
            expected = sjnr_scalar_oracle(
                inst["ue"], inst["bs"], inst["h_direct"], inst["g_jam"],
                inst["amps"], inst["phases"], inst["powers"],
                inst["jam_power"], inst["ris_var"], inst["awgn_var"], k)
            assert vectorized(inst, k) == pytest.approx(expected, rel=1e-10)
            checked += 1
    print(f"PASS criterion 5: {checked} SJNR values match the scalar oracle")


def test_criterion_06_sjnr_growth_plateau():
    result = sweep_sjnr_vs_n(load_config())
    grid = [row[0] for row in result.rows]
    values = [row[1] for row in result.rows]
    assert grid == [4, 16, 36, 64, 100, 196, 400, 625, 900]

    peak = max(values)
    plateau_level = 0.98 * peak
    plateau_start = next(i for i, v in enumerate(values) if v >= plateau_level)
    assert plateau_start < len(values) - 1, "no plateau region found"
    for i in range(plateau_start):
        assert values[i + 1] > values[i], "not monotone before the plateau"
    assert all(v >= plateau_level for v in values[plateau_start:]), \
        "plateau fluctuates by more than 2%"

    growth_early = (values[grid.index(100)] - values[grid.index(4)]) / values[grid.index(4)]
    growth_late = (values[grid.index(900)] - values[grid.index(400)]) / values[grid.index(400)]
    assert growth_late < growth_early

    # reference absolute values are setup-dependent: recorded, not asserted
    for n, reference in ((4, 0.61), (400, 4.47)):
        ours = values[grid.index(n)]
        band = "inside" if abs(ours - reference) <= 0.3 * reference else "outside"
        print(f"INFO criterion 6: sjnr(N={n}) = {ours:.3f} vs reference "
              f"{reference} ({band} the 30% band)")
    print(f"PASS criterion 6: plateau from N={grid[plateau_start]}, growth "
          f"4->100 {growth_early:+.2%} vs 400->900 {growth_late:+.2%}")


def test_criterion_07_reliability_threshold_ordering(tmp_path):
    path = tmp_path / "relbeta.ini"
    path.write_text("\n".join([
        "[sweep]",
        "n_elements_grid = 4, 100, 400",
        "beta_grid = 0:0.005:5e-7", ""]))
    cfg = load_config(path)
    result = sweep_reliability_vs_beta(cfg)

    thresholds = {}
    for n in (4, 100, 400):
        rel = np.array([row[2] for row in result.rows if row[0] == n])
        assert np.all(np.diff(rel) >= -1e-12), f"reliability not monotone at N={n}"
        raw = result.metadata[f"threshold_beta_n{n}"]
        assert raw != "none", f"threshold never reached at N={n}"
        thresholds[n] = float(raw)
    assert thresholds[4] > thresholds[100] > thresholds[400]
    print(f"PASS criterion 7: thresholds {thresholds} strictly decreasing "
          f"(reference 43.7 at N=4, 2.1 at N=400 recorded, not asserted)")


def _toy_setup():
    model = make_model(RisGeometry(1, 1), make_scenario(n_users=1, jammer_power=0.0))
    constraints = ConstraintSet(p_min=1e-3, nb_min=60, nb_max=288)
    return model, constraints


def _grid_oracle_eta(model, cons):
    """Dense lattice search over (power, amplitude, blocklength, replicas).

    The RIS phase drops out of the single-element, jammer-free SJNR, which a
    spot check below confirms, so the phase axis adds nothing to the search.
    """
    powers = np.linspace(cons.p_min, cons.p_max, 20)[:, None, None, None]
    amplitudes = np.linspace(0.0, cons.beta_max, 20)[None, :, None, None]
    blocklengths = np.arange(cons.nb_min, cons.nb_max + 1, 12)[None, None, :, None]
    replicas = np.arange(1, cons.l_max + 1)[None, None, None, :]

    cascade = abs(model.bs_channel[0] * model.ue_channels[0, 0]) ** 2
    bs_gain = abs(model.bs_channel[0]) ** 2
    gamma = powers * amplitudes * cascade / (
        amplitudes * bs_gain * model.noise.ris_thermal_var + model.noise.awgn_var)

    shape = np.broadcast_shapes(gamma.shape, blocklengths.shape, replicas.shape)
    eps = np.empty(shape)
    for i, nb in enumerate(blocklengths.ravel()):
        eps[:, :, i, :] = np.broadcast_to(
            bler(gamma[:, :, 0, :], int(nb), model.payload_bits),
            eps[:, :, i, :].shape)
    rel = 1.0 - eps ** replicas

    frame = model.header_time + blocklengths / model.bandwidth
    rho = replicas * frame * model.arrival_rates[0]
    tau = np.where(rho < 1, replicas * frame * (2 - rho) / (2 * (1 - rho)), np.inf)
    eta = np.where(np.isfinite(tau), model.payload_bits * rel / (powers * tau), 0.0)
    feasible = (tau <= cons.delay_thr) & (rel >= cons.rel_thr) & (rho < 1 - 1e-9)
    return float(np.max(np.where(feasible, eta, 0.0)))


def test_criterion_08_ga_matches_grid_oracle(tmp_path):
    model, cons = _toy_setup()

    # phase irrelevance spot check backing the reduced oracle
    x0 = dict(user_powers=(5e-3,), amplitudes=(30.0,), blocklength=120,
              retransmissions=1)
    from risjam.optimizer import DecisionVector
    a = evaluate_fitness(DecisionVector(phases=(0.0,), **x0), model, cons)[0]
    b = evaluate_fitness(DecisionVector(phases=(2.5,), **x0), model, cons)[0]
    assert a == pytest.approx(b, rel=1e-12)

    eta_grid = _grid_oracle_eta(model, cons)
    assert eta_grid > 0

    results = {}
    for seed in range(5):
        result = run_ga(model, cons, GaSettings(rng_seed=seed))
        assert result.feasible
        history = result.fitness_history
        assert all(later <= earlier for earlier, later in zip(history, history[1:]))
        error = abs(result.best_eta - eta_grid) / eta_grid
        assert error <= 0.05, f"seed {seed}: GA off by {error:.2%}"
        results[seed] = error

    # determinism: bit-identical history and serialized trace for one seed
    repeat_a = run_ga(model, cons, GaSettings(rng_seed=0))
    repeat_b = run_ga(model, cons, GaSettings(rng_seed=0))
    assert repeat_a.fitness_history == repeat_b.fitness_history
    assert repeat_a.best_solution == repeat_b.best_solution
    cfg = load_config()
    path_a = write_convergence_csv(repeat_a, cfg, tmp_path / "a.csv")
    path_b = write_convergence_csv(repeat_b, cfg, tmp_path / "b.csv")
    assert path_a.read_bytes() == path_b.read_bytes()
    print(f"PASS criterion 8: grid eta {eta_grid:.6e}; GA errors per seed "
          f"{ {s: f'{e:.2%}' for s, e in results.items()} }; identical bytes on repeat")


def _criterion_09_problems():
    problems = [
        (make_model(RisGeometry(4, 4),
                    make_scenario(user_dirs=[(1.0, -0.3), (np.pi / 2, -0.1)])),
         ConstraintSet(p_min=1e-4, nb_min=60, nb_max=160)),
        (make_model(RisGeometry(3, 3),
                    make_scenario(n_users=1, jammer_power=0.0, user_dirs=[(0.4, -0.5)]),
                    arrival_rates=(300.0,)),
         ConstraintSet(p_min=1e-3, nb_min=60, nb_max=288)),
        (make_model(RisGeometry(5, 5),
                    make_scenario(user_dirs=[(1.2, -0.2), (0.3, -0.6)],
                                  jammer_power=2e-3),
                    arrival_rates=(200.0, 800.0)),
         ConstraintSet(p_min=1e-4, nb_min=60, nb_max=160, l_max=4)),
        (make_model(RisGeometry(2, 2),
                    make_scenario(n_users=1, jammer_power=1e-3, user_dirs=[(0.8, -0.4)])),
         ConstraintSet(p_min=1e-3, nb_min=60, nb_max=200)),
    ]
    return problems


def _assert_solution_is_feasible_as_coded(solution, model, cons):
    """Independent recheck of (17b)-(17j) through the metric chain."""
    assert all(cons.p_min <= p <= cons.p_max for p in solution.user_powers)
    assert all(a <= b for a, b in zip(solution.user_powers, solution.user_powers[1:]))
    assert all(0.0 <= beta <= cons.beta_max for beta in solution.amplitudes)
    assert all(0.0 <= theta <= 2 * np.pi for theta in solution.phases)
    assert isinstance(solution.blocklength, int)
    assert cons.nb_min <= solution.blocklength <= cons.nb_max
    assert 1 <= solution.retransmissions <= cons.l_max

    beam = BeamformConfig(np.asarray(solution.amplitudes), np.asarray(solution.phases))
    report = model.evaluate(beam, solution.user_powers,
                            solution.blocklength, solution.retransmissions)
    assert report.stable
    for tau in report.mean_delay:
        assert tau <= cons.delay_thr
    for rel in report.reliability:
        assert rel >= cons.rel_thr
    for rho in report.utilization:
        assert rho < 1.0


def test_criterion_09_constraint_enforcement():
    problems = _criterion_09_problems()
    rng = np.random.default_rng(909)

    # 1000 random decoded candidates across the configs: box bounds hold by
    # construction and zero residuals imply true feasibility
    feasible_candidates = 0
    for i in range(1000):
        model, cons = problems[i % len(problems)]
        genome = rng.random(genome_dimension(model.n_users, model.n_elements))
        x = decode(genome, model.n_users, model.n_elements, cons)
        assert all(cons.p_min <= p <= cons.p_max for p in x.user_powers)
        assert all(0.0 <= b <= cons.beta_max for b in x.amplitudes)
        assert all(0.0 <= t <= 2 * np.pi for t in x.phases)
        assert cons.nb_min <= x.blocklength <= cons.nb_max
        assert 1 <= x.retransmissions <= cons.l_max
        _, violations = evaluate_fitness(x, model, cons)
        if sum(violations.values()) == 0.0:
            _assert_solution_is_feasible_as_coded(x, model, cons)
            feasible_candidates += 1

    # full GA runs: every result claiming feasibility must satisfy the
    # constraints exactly under independent re-evaluation
    feasible_runs = 0
    for model, cons in problems:
        for seed in (0, 1, 2):
            result = run_ga(model, cons,
                            GaSettings(rng_seed=seed, population_size=80,
                                       max_generations=30))
            if result.feasible:
                _assert_solution_is_feasible_as_coded(result.best_solution,
                                                      model, cons)
                feasible_runs += 1
    assert feasible_runs > 0, "no feasible GA output; enforcement check is vacuous"
    print(f"PASS criterion 9: 1000 decoded candidates in bounds "
          f"({feasible_candidates} feasible, rechecked); "
          f"{feasible_runs}/12 GA runs feasible and exactly constraint-clean")
