import numpy as np
import pytest

from risjam import optimizer
from risjam.channel import RisGeometry
from risjam.optimizer import (ConstraintSet, DecisionVector, GaSettings,
                              INFEASIBLE_OBJECTIVE, decode, decode_block,
                              evaluate_fitness, genome_dimension, rank, run_ga)

from conftest import make_model, make_scenario


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
        # reconstruct the seeded initial population and rank it by hand
        rng = np.random.default_rng(9)
        dim = genome_dimension(1, 1)
        pop = rng.random((30, dim))
        seeded = int(round(settings.co_phasing_fraction * 30))
        from risjam.link import co_phasing_phases
        aligned = co_phasing_phases(toy_model.bs_channel, toy_model.ue_channels[0])
        for i in range(seeded):
            pop[i, 1:2] = aligned / (2 * np.pi)
        evals = [evaluate_fitness(decode(g, 1, 1, toy_constraints),
                                  toy_model, toy_constraints) for g in pop]
        order = rank([o for o, _ in evals],
                     [sum(v.values()) for _, v in evals],
                     settings.constraint_tolerance)
        expected = decode(pop[order[0]], 1, 1, toy_constraints)
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
                        GaSettings(rng_seed=seed, population_size=20,
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
