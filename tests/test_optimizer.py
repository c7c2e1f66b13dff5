from types import SimpleNamespace

import numpy as np
import pytest

from hypothesis import example, given, settings as hypothesis_settings, \
    strategies as st

from risjam import optimizer
from risjam.channel import RisGeometry
from risjam.cli import main
from risjam.config import load_config
from risjam.link import co_phasing_phases
from risjam.optimizer import (ConstraintSet, DecisionVector, GaSettings,
                              INFEASIBLE_OBJECTIVE, STRICT_MARGIN, decode,
                              decode_block, evaluate_fitness, genome_dimension,
                              rank, run_ga, score_block)
from risjam.sweeps import build_model

from conftest import make_model, make_scenario


def queue_feasible(model, constraints, blocklengths, replicas) -> np.ndarray:
    """Whether (blocklength, replicas) pairs meet the utilization and delay
    constraints, read from the metric chain of the kernel."""
    blocklengths, replicas = np.broadcast_arrays(np.atleast_1d(blocklengths),
                                                 np.atleast_1d(replicas))
    b, n, k = len(blocklengths), model.n_elements, model.n_users
    chain = model.evaluate_block(np.ones((b, n)), np.zeros((b, n)),
                                 np.full((b, k), 1e-3), blocklengths, replicas)
    delay_met = np.where(chain.stable, chain.mean_delay <= constraints.delay_thr,
                         False)
    return np.all((chain.utilization <= 1.0 - STRICT_MARGIN) & delay_met, axis=0)


class TestDecode:
    def test_box_bounds_hold_exactly(self):
        rng = np.random.default_rng(17)
        cons = ConstraintSet(p_min=1e-3, p_max=0.05, beta_max=40.0, l_max=7,
                             nb_min=80, nb_max=240)
        for _ in range(300):
            k = int(rng.integers(1, 4))
            n = int(rng.integers(1, 10))
            genome = rng.random(genome_dimension(k, n))
            x = decode(genome, k, n, cons)
            assert all(cons.p_min <= p <= cons.p_max for p in x.user_powers)
            assert all(0.0 <= t <= 2 * np.pi for t in x.phases)
            assert all(0.0 <= b <= cons.beta_max for b in x.amplitudes)
            assert isinstance(x.blocklength, int)
            assert cons.nb_min <= x.blocklength <= cons.nb_max
            assert isinstance(x.retransmissions, int)
            assert 1 <= x.retransmissions <= cons.l_max

    def test_corner_genomes_hit_bounds(self):
        cons = ConstraintSet(p_min=1e-3, p_max=0.05, beta_max=40.0, l_max=7,
                             nb_min=80, nb_max=240)
        dim = genome_dimension(2, 3)
        low = decode(np.zeros(dim), 2, 3, cons)
        high = decode(np.ones(dim), 2, 3, cons)
        assert low.user_powers == (cons.p_min,) * 2
        assert high.user_powers == (cons.p_max,) * 2
        assert low.amplitudes == (0.0,) * 3
        assert high.amplitudes == (cons.beta_max,) * 3
        assert low.phases == (0.0,) * 3
        assert high.phases == (2 * np.pi,) * 3
        assert (low.blocklength, high.blocklength) == (80, 240)
        assert (low.retransmissions, high.retransmissions) == (1, 7)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            decode(np.zeros(5), 2, 3, ConstraintSet())

    @pytest.mark.parametrize("gene", ["power", "phase", "amplitude",
                                      "blocklength", "replicas"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_gene_rejected(self, gene, value):
        # layout for K = 2, N = 3: powers 0-1, phases 2-4, amplitudes 5-7,
        # blocklength 8, replicas 9
        index = {"power": 1, "phase": 3, "amplitude": 7, "blocklength": 8,
                 "replicas": 9}[gene]
        genome = np.full(genome_dimension(2, 3), 0.5)
        genome[index] = value
        with pytest.raises(ValueError, match="genome must be finite"):
            decode(genome, 2, 3, ConstraintSet())
        block = np.vstack([np.full(genome.size, 0.5), genome])
        with pytest.raises(ValueError, match="genome must be finite"):
            decode_block(block, 2, 3, ConstraintSet())

    def test_block_rows_match_single_decodes(self):
        rng = np.random.default_rng(23)
        cons = ConstraintSet(p_min=1e-3, p_max=0.05, beta_max=40.0, l_max=7,
                             nb_min=80, nb_max=240)
        genomes = rng.uniform(-0.2, 1.2, (50, genome_dimension(2, 5)))
        block = decode_block(genomes, 2, 5, cons)
        for b, genome in enumerate(genomes):
            x = decode(genome, 2, 5, cons)
            assert x.user_powers == tuple(block.user_powers[b].tolist())
            assert x.phases == tuple(block.phases[b].tolist())
            assert x.amplitudes == tuple(block.amplitudes[b].tolist())
            assert x.blocklength == block.blocklength[b]
            assert x.retransmissions == block.retransmissions[b]


class TestRank:
    def test_feasible_beats_infeasible(self):
        order = rank([5.0, 1.0], [0.0, 0.01], tolerance=1e-30)
        assert order == [0, 1]

    def test_feasible_by_objective(self):
        order = rank([3.0, 2.0], [0.0, 0.0], tolerance=1e-30)
        assert order == [1, 0]

    def test_infeasible_by_violation(self):
        order = rank([1.0, 9.0], [0.4, 0.2], tolerance=1e-30)
        assert order == [1, 0]

    def test_ties_keep_lower_index(self):
        order = rank([2.0, 2.0, 1.0], [0.0, 0.0, 0.5], tolerance=1e-30)
        assert order == [0, 1, 2]


class TestEvaluateFitness:
    def test_feasible_interior_point(self, toy_model, toy_constraints):
        x = DecisionVector(user_powers=(1e-3,), phases=(0.0,), amplitudes=(50.0,),
                           blocklength=108, retransmissions=1)
        objective, violations = evaluate_fitness(x, toy_model, toy_constraints)
        assert all(v == 0.0 for v in violations.values())
        assert 0.0 < objective < INFEASIBLE_OBJECTIVE

    def test_overload_produces_utilization_residual(self, toy_model):
        cons = ConstraintSet(p_min=1e-3, nb_min=60, nb_max=2000)
        # 10 replicas of a 2000-use frame at 500 pkt/s: rho far above 1
        x = DecisionVector(user_powers=(1e-3,), phases=(0.0,), amplitudes=(50.0,),
                           blocklength=2000, retransmissions=10)
        objective, violations = evaluate_fitness(x, toy_model, cons)
        assert violations["utilization"] > 0.0
        assert objective == INFEASIBLE_OBJECTIVE  # large finite, not an error

    def test_power_ordering_residual(self, two_user_model):
        cons = ConstraintSet(p_min=1e-4, nb_min=60, nb_max=160)
        x = DecisionVector(user_powers=(0.05, 0.01),
                           phases=(0.0,) * 16, amplitudes=(10.0,) * 16,
                           blocklength=108, retransmissions=1)
        _, violations = evaluate_fitness(x, two_user_model, cons)
        assert violations["power_ordering"] == pytest.approx(0.04, rel=1e-12)

    def test_zero_amplitudes_fail_reliability(self, toy_model, toy_constraints):
        x = DecisionVector(user_powers=(1e-3,), phases=(0.0,), amplitudes=(0.0,),
                           blocklength=108, retransmissions=1)
        objective, violations = evaluate_fitness(x, toy_model, toy_constraints)
        assert violations["reliability"] == pytest.approx(
            toy_constraints.rel_thr, rel=1e-12)
        assert objective == INFEASIBLE_OBJECTIVE  # eta is zero


class TestRunGa:
    def test_determinism_same_seed(self, toy_model, toy_constraints):
        settings = GaSettings(rng_seed=21, population_size=40, max_generations=15)
        a = run_ga(toy_model, toy_constraints, settings)
        b = run_ga(toy_model, toy_constraints, settings)
        assert a.fitness_history == b.fitness_history
        assert a.mean_history == b.mean_history
        assert a.best_solution == b.best_solution
        assert a.best_eta == b.best_eta

    def test_different_seed_differs(self, toy_model, toy_constraints):
        a = run_ga(toy_model, toy_constraints,
                   GaSettings(rng_seed=1, population_size=40, max_generations=15))
        b = run_ga(toy_model, toy_constraints,
                   GaSettings(rng_seed=2, population_size=40, max_generations=15))
        assert a.fitness_history != b.fitness_history

    def test_zero_generations_returns_initial_best(self, toy_model, toy_constraints):
        settings = GaSettings(rng_seed=9, population_size=30, max_generations=0)
        result = run_ga(toy_model, toy_constraints, settings)
        assert result.generations_run == 0
        assert result.fitness_history == []
        # reconstruct the seeded, repaired initial population and rank it by
        # hand; layout for K = N = 1: power, phase, amplitude, blocklength,
        # replicas
        rng = np.random.default_rng(9)
        pop = rng.random((30, genome_dimension(1, 1)))
        seeded = int(round(settings.co_phasing_fraction * 30))
        aligned = co_phasing_phases(toy_model.bs_channel, toy_model.ue_channels[0])
        pop[:seeded, 1] = aligned[0] / (2 * np.pi)
        # the feasible blocklength caps per replica count, by enumeration
        c = toy_constraints
        blocklengths = np.arange(c.nb_min, c.nb_max + 1)
        caps = []
        for replicas in range(1, c.l_max + 1):
            feasible = queue_feasible(toy_model, c, blocklengths, replicas)
            if not feasible[0]:
                break
            caps.append(blocklengths[feasible].max())
        assert 1 < len(caps) < c.l_max  # both genes get clamped somewhere
        pop[:, 3] = np.minimum(pop[:, 3], (caps[0] - c.nb_min) / (c.nb_max - c.nb_min))
        for genome in pop:
            blocklength = decode(genome, 1, 1, c).blocklength
            admitted = sum(cap >= blocklength for cap in caps)
            genome[4] = min(genome[4], (admitted - 1) / (c.l_max - 1))
        evals = [evaluate_fitness(decode(g, 1, 1, c), toy_model, c) for g in pop]
        order = rank([o for o, _ in evals],
                     [sum(v.values()) for _, v in evals],
                     settings.constraint_tolerance)
        expected = decode(pop[order[0]], 1, 1, c)
        assert result.best_solution == expected

    def test_elite_history_never_worsens(self, toy_model, toy_constraints):
        result = run_ga(toy_model, toy_constraints,
                        GaSettings(rng_seed=33, population_size=50,
                                   max_generations=40))
        history = result.fitness_history
        assert len(history) == 40
        assert all(b <= a for a, b in zip(history, history[1:]))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_zero_elites_keep_the_best_seen(self, toy_model, toy_constraints,
                                            monkeypatch, seed):
        # without elites a generation's top can be worse than an earlier one;
        # the recorded and returned best must still be the best seen
        tops = []

        def recording_rank(objectives, total_violations, tolerance):
            feasible = np.asarray(total_violations) <= tolerance
            tops.append(np.min(np.asarray(objectives)[feasible], initial=np.inf))
            return rank(objectives, total_violations, tolerance)

        monkeypatch.setattr(optimizer, "rank", recording_rank)
        result = run_ga(toy_model, toy_constraints,
                        GaSettings(rng_seed=seed, population_size=16,
                                   max_generations=30, elite_count=0))
        assert len(tops) == 31  # the initial population and 30 generations
        assert any(b > min(tops[:i + 1]) for i, b in enumerate(tops[1:]))
        history = result.fitness_history
        assert all(b <= a for a, b in zip(history, history[1:]))
        assert result.best_objective == min(tops)

    def test_feasible_output_when_feasible_points_exist(self, toy_model,
                                                        toy_constraints):
        result = run_ga(toy_model, toy_constraints,
                        GaSettings(rng_seed=2, population_size=60,
                                   max_generations=25))
        assert result.feasible
        assert all(v == 0.0 for v in result.constraint_violations.values())
        assert result.best_eta is not None and result.best_eta > 0

    def test_infeasible_problem_reports_infeasible(self):
        # as-printed reference layout: both users share one direction, so the
        # SIC cap keeps user 1 below the rate the delay budget requires
        model = make_model(RisGeometry(4, 4), make_scenario())
        result = run_ga(model, ConstraintSet(p_min=1e-4, nb_min=60, nb_max=160),
                        GaSettings(rng_seed=4, population_size=40,
                                   max_generations=15))
        assert not result.feasible
        assert sum(result.constraint_violations.values()) > 0

    def test_stall_detection_stops_early(self, toy_model, toy_constraints):
        settings = GaSettings(rng_seed=21, population_size=40, max_generations=400,
                              function_tolerance=1e-6, stall_generations=12)
        result = run_ga(toy_model, toy_constraints, settings)
        assert result.generations_run < 400
        assert len(result.fitness_history) == result.generations_run

    def test_stall_detection_follows_infeasible_progress(self, weak_link_model):
        # while the best is infeasible its merit is exactly 1e30, so stall
        # detection must follow its violation, which here keeps falling until
        # the run turns feasible in generation 7
        cons = ConstraintSet(p_min=1e-3, nb_min=60, nb_max=160)
        settings = dict(rng_seed=3, population_size=120, max_generations=60,
                        co_phasing_fraction=0.0)
        result = run_ga(weak_link_model, cons, GaSettings(
            **settings, function_tolerance=1e-9, stall_generations=3))
        full = run_ga(weak_link_model, cons, GaSettings(**settings))
        assert result.feasible
        assert 4 < result.generations_run < full.generations_run
        assert result.fitness_history == full.fitness_history[:result.generations_run]

    @pytest.mark.parametrize("tolerance, stop", [(1e-9, 60), (1e-3, 45)])
    def test_function_tolerance_is_relative(self, weak_link_model, tolerance, stop):
        # 1/eta is about 3e-7 J/bit here, so an absolute tolerance of 1e-9
        # would stall on every drop below 0.3%, and one of 1e-3 on every
        # generation. The run turns feasible in generation 7, before 7 stalls
        # can accumulate, so the stopping generation follows from the
        # feasible part of the run without stall detection.
        cons = ConstraintSet(p_min=1e-3, nb_min=60, nb_max=160)
        settings = dict(rng_seed=3, population_size=120, max_generations=60,
                        co_phasing_fraction=0.0)
        full = run_ga(weak_link_model, cons, GaSettings(**settings)).fitness_history
        stalls = 0
        for generation, (previous, best) in enumerate(zip(full, full[1:]), start=2):
            stalled = previous < INFEASIBLE_OBJECTIVE and previous - best < tolerance * previous
            stalls = stalls + 1 if stalled else 0
            if stalls == 7:
                break
        assert generation == stop
        result = run_ga(weak_link_model, cons, GaSettings(
            **settings, function_tolerance=tolerance, stall_generations=7))
        assert result.generations_run == stop
        assert result.fitness_history == full[:stop]

    def test_phase_alignment_emerges(self, weak_link_model):
        # reliability on this link is only attainable near coherence, with or
        # without co-phased seeding
        cons = ConstraintSet(p_min=1e-3, nb_min=60, nb_max=160)
        for fraction, seed in ((0.1, 1), (0.0, 2)):
            result = run_ga(weak_link_model, cons,
                            GaSettings(rng_seed=seed, population_size=120,
                                       max_generations=60,
                                       co_phasing_fraction=fraction))
            assert result.feasible
            s = result.best_solution
            weights = np.sqrt(s.amplitudes) * np.exp(1j * np.array(s.phases))
            cascade = weak_link_model.bs_channel * weak_link_model.ue_channels[0]
            achieved = np.abs(np.sum(weights * cascade)) ** 2
            ideal = np.sum(np.sqrt(s.amplitudes) * np.abs(cascade)) ** 2
            assert achieved >= 0.95 * ideal

    def test_settings_validation(self):
        with pytest.raises(ValueError):
            GaSettings(population_size=0)
        with pytest.raises(ValueError):
            GaSettings(population_size=10, elite_count=10)
        with pytest.raises(ValueError):
            GaSettings(crossover_rate=1.5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("build", [
        lambda bad: ConstraintSet(delay_thr=bad),
        lambda bad: ConstraintSet(beta_max=bad),
        lambda bad: ConstraintSet(p_max=bad),
        lambda bad: GaSettings(mutation_sigma=bad),
        lambda bad: GaSettings(mutation_decay=bad),
        lambda bad: GaSettings(constraint_tolerance=bad),
        lambda bad: GaSettings(function_tolerance=bad),
    ], ids=["delay_thr", "beta_max", "p_max", "mutation_sigma", "mutation_decay",
            "constraint_tolerance", "function_tolerance"])
    def test_non_finite_settings_rejected(self, build, bad):
        with pytest.raises(ValueError, match="finite"):
            build(bad)

    @pytest.mark.parametrize("field", ["mutation_sigma", "mutation_decay"])
    def test_negative_mutation_settings_rejected(self, field):
        with pytest.raises(ValueError, match="non-negative"):
            GaSettings(**{field: -0.1})

    def test_results_do_not_depend_on_block_cells(self, two_user_model,
                                                  monkeypatch):
        cons = ConstraintSet(p_min=1e-4, nb_min=60, nb_max=160)
        settings = GaSettings(rng_seed=5, population_size=40, max_generations=15)
        default = run_ga(two_user_model, cons, settings)
        # 64 cells hold one 36-gene genome: every row is its own block
        monkeypatch.setattr(optimizer, "BLOCK_CELLS", 64)
        small = run_ga(two_user_model, cons, settings)
        assert small.fitness_history == default.fitness_history
        assert small.mean_history == default.mean_history
        assert small.feasible_fraction_history == default.feasible_fraction_history
        assert small.best_solution == default.best_solution
        assert small.best_eta == default.best_eta

    def test_desk_seed_90_ends_feasible(self, tmp_path):
        # the separated-user desk config at seed 90 ended with a delay
        # residual before the genome repair
        path = tmp_path / "desk.ini"
        path.write_text("[scenario]\n"
                        "user_azimuth_rad = 1.0, 1.5707963267948966\n"
                        "[ga]\nrng_seed = 90\npopulation_size = 200\n"
                        "max_generations = 100\n"
                        "[geometry]\nn_elements = 16\n")
        cfg = load_config(path)
        result = run_ga(build_model(cfg), cfg.constraints, cfg.ga)
        assert result.feasible
        assert all(v == 0.0 for v in result.constraint_violations.values())


class TestSeeding:
    @pytest.mark.parametrize("n_users", [2, 3])
    def test_sic_balanced_seeds(self, n_users):
        directions = [(1.0, -0.3), (np.pi / 2, -0.1), (2.2, -0.5)][:n_users]
        model = make_model(RisGeometry(4, 4), make_scenario(n_users=n_users,
                                                            user_dirs=directions))
        k, n = n_users, model.n_elements
        settings = GaSettings(population_size=50, co_phasing_fraction=0.4)
        rng = np.random.default_rng(5)
        pop = optimizer._initial_population(model, settings, rng)

        # the seeds draw no random numbers: past the 20 seed slots the
        # population is the plain draw, and the generator has moved by it
        plain_rng = np.random.default_rng(5)
        plain = plain_rng.random(pop.shape)
        assert np.array_equal(pop[20:], plain[20:])
        assert rng.bit_generator.state == plain_rng.bit_generator.state

        # even slots co-phase the users in turn
        for j, i in enumerate(range(0, 20, 2)):
            aligned = co_phasing_phases(model.bs_channel, model.ue_channels[j % k])
            assert np.array_equal(pop[i, k:k + n], aligned / (2 * np.pi))
        # odd slots grade consecutive users' cascade gains by r and null the
        # jammer's reflection
        x = decode_block(pop[1:20:2], k, n, ConstraintSet())
        weights = np.sqrt(x.amplitudes) * np.exp(1j * x.phases)
        gains = np.abs(weights @ (model.bs_channel * model.ue_channels).T) ** 2
        ratios = np.logspace(0.0, 3.0, 10)
        np.testing.assert_allclose(gains[:, :-1] / gains[:, 1:],
                                   np.broadcast_to(ratios[:, None], (10, k - 1)),
                                   rtol=1e-9)
        jamming = np.abs(weights @ (model.bs_channel * model.jammer_channel)) ** 2
        assert np.all(jamming <= 1e-20 * gains[:, -1])
        assert np.max(x.amplitudes, axis=1) == pytest.approx(100.0, rel=1e-12)


class TestRepair:
    @hypothesis_settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n_users=st.integers(1, 3),
           nb_min=st.integers(1, 400),
           nb_spread=st.one_of(st.integers(0, 3000), st.integers(0, 10 ** 9)),
           l_max=st.integers(1, 30), delay_exponent=st.floats(-6.0, -1.0))
    @example(seed=1, n_users=2, nb_min=60, nb_spread=0, l_max=10, delay_exponent=-3.0)
    @example(seed=2, n_users=2, nb_min=1, nb_spread=999, l_max=1, delay_exponent=-3.0)
    @example(seed=3, n_users=2, nb_min=1, nb_spread=999, l_max=10, delay_exponent=-6.0)
    def test_repaired_genomes_meet_the_closed_form_constraints(
            self, seed, n_users, nb_min, nb_spread, l_max, delay_exponent):
        rng = np.random.default_rng(seed)
        model = make_model(RisGeometry(1, 2), make_scenario(n_users=n_users),
                           arrival_rates=tuple(rng.uniform(10.0, 3000.0, n_users)),
                           header_time=float(rng.uniform(0.0, 1e-4)),
                           bandwidth=float(rng.uniform(5e4, 1e6)))
        c = ConstraintSet(delay_thr=10.0 ** delay_exponent, p_min=1e-4,
                          nb_min=nb_min, nb_max=nb_min + nb_spread, l_max=l_max)
        k, n = n_users, model.n_elements
        genomes = rng.random((40, genome_dimension(k, n)))
        edges = rng.random(genomes.shape) < 0.2
        genomes[edges] = rng.integers(0, 2, genomes.shape)[edges]
        before = genomes.copy()

        caps = optimizer._blocklength_caps(model, c)
        optimizer._repair(genomes, k, n, c, caps)
        x = decode_block(genomes, k, n, c)
        _, violations = score_block(x, model, c)
        assert np.all(np.diff(x.user_powers, axis=1) >= 0.0)
        assert np.all(violations["power_ordering"] == 0.0)
        integer_genes = slice(k + 2 * n, None)
        if not len(caps):
            # no pair qualifies: nothing is clamped
            assert not queue_feasible(model, c, c.nb_min, 1)[0]
            assert np.array_equal(genomes[:, integer_genes], before[:, integer_genes])
            return

        assert np.all(violations["delay"] == 0.0)
        assert np.all(violations["utilization"] == 0.0)
        # the caps are the largest qualifying pairs
        replicas = np.arange(1, len(caps) + 1)
        assert np.all(queue_feasible(model, c, caps, replicas))
        beyond = caps < c.nb_max
        assert not np.any(queue_feasible(model, c, caps[beyond] + 1, replicas[beyond]))
        assert np.all(np.diff(caps) <= 0)
        if len(caps) < l_max:
            assert not queue_feasible(model, c, c.nb_min, len(caps) + 1)[0]
        # a capped gene decodes exactly to its cap
        capped = genomes[:, k + 2 * n] < before[:, k + 2 * n]
        assert np.all(x.blocklength[capped] == caps[0])
        capped = genomes[:, -1] < before[:, -1]
        admitted = np.sum(caps[None, :] >= x.blocklength[:, None], axis=1)
        assert np.all(x.retransmissions[capped] == admitted[capped])
        assert np.all(x.retransmissions <= admitted)

    def test_caps_admit_the_utilization_boundary(self):
        # a utilization of exactly 1 - STRICT_MARGIN leaves score_block's
        # residual at 0, so the caps admit every pair in the box
        c = ConstraintSet(nb_min=60, nb_max=160, l_max=4)

        def queue_block(blocklengths, replicas):
            shape = (1, len(blocklengths))
            return (np.full(shape, 1.0 - STRICT_MARGIN), np.ones(shape[1], dtype=bool),
                    np.zeros(shape))

        caps = optimizer._blocklength_caps(SimpleNamespace(queue_block=queue_block), c)
        assert caps.tolist() == [160] * 4

    def test_optimize_exits_2_without_a_qualifying_pair(self, tmp_path, capsys):
        # a 1 us delay budget is below every frame duration
        path = tmp_path / "tight.ini"
        path.write_text("[scenario]\nuser_azimuth_rad = 1.0, 1.5707963267948966\n"
                        "[ga]\ndelay_thr_s = 1e-6\npopulation_size = 10\n"
                        "max_generations = 2\n")
        cfg = load_config(path)
        assert not len(optimizer._blocklength_caps(build_model(cfg), cfg.constraints))
        assert main(["optimize", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 2
