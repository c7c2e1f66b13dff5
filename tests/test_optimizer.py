from types import SimpleNamespace

import numpy as np
import pytest

from hypothesis import example, given, settings as hypothesis_settings, \
    strategies as st

from risjam import link, model as model_module, optimizer
from risjam.channel import RisGeometry
from risjam.cli import main
from risjam.config import load_config
from risjam.link import polar_weights, sic_balanced_weights
from risjam.optimizer import (ConstraintSet, DecisionVector, GaSettings,
                              INFEASIBLE_OBJECTIVE, STRICT_MARGIN, decode,
                              decode_block, evaluate_fitness, genome_dimension,
                              rank, run_ga, score_block)
from risjam.sweeps import build_model

from conftest import make_model, make_scenario


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def queue_feasible(model, constraints, blocklengths, replicas) -> np.ndarray:
    """Whether (blocklength, replicas) pairs meet the utilization and delay
    constraints, read from the metric chain of the kernel."""
    blocklengths, replicas = np.broadcast_arrays(np.atleast_1d(blocklengths),
                                                 np.atleast_1d(replicas))
    b, n, k = len(blocklengths), model.n_elements, model.n_users
    chain = model.evaluate_block(np.ones((b, n)), np.full((b, k), 1e-3),
                                 blocklengths, replicas)
    delay_met = np.where(chain.stable, chain.mean_delay <= constraints.delay_thr_s,
                         False)
    return np.all((chain.utilization <= 1.0 - STRICT_MARGIN) & delay_met, axis=0)


class TestDecode:
    def test_box_bounds_hold_exactly(self):
        rng = np.random.default_rng(17)
        cons = ConstraintSet(p_min_w=1e-3, p_max_w=0.05, beta_max=40.0, l_max=7,
                             nb_min=80, nb_max=240)
        for _ in range(300):
            k = int(rng.integers(1, 4))
            n = int(rng.integers(1, 10))
            genome = rng.random(genome_dimension(k, n))
            x = decode(genome, k, n, cons)
            assert all(cons.p_min_w <= p <= cons.p_max_w for p in x.user_powers)
            assert all(0.0 <= t <= 2 * np.pi for t in x.phases)
            assert all(0.0 <= b <= cons.beta_max for b in x.amplitudes)
            assert isinstance(x.blocklength, int)
            assert cons.nb_min <= x.blocklength <= cons.nb_max
            assert isinstance(x.retransmissions, int)
            assert 1 <= x.retransmissions <= cons.l_max

    def test_corner_genomes_hit_bounds(self):
        cons = ConstraintSet(p_min_w=1e-3, p_max_w=0.05, beta_max=40.0, l_max=7,
                             nb_min=80, nb_max=240)
        dim = genome_dimension(2, 3)
        low, high = np.zeros(dim), np.ones(dim)
        low[:6], high[:6] = -0.5, 0.5
        low, high = decode(low, 2, 3, cons), decode(high, 2, 3, cons)
        assert low.user_powers == (cons.p_min_w,) * 2
        assert high.user_powers == (cons.p_max_w,) * 2
        # the square's corners -(1 + j)/2 and (1 + j)/2 decode onto the
        # disc's edge
        for x in (low, high):
            assert all(b <= cons.beta_max for b in x.amplitudes)
            assert x.amplitudes == pytest.approx((cons.beta_max,) * 3, rel=1e-15)
        assert low.phases == pytest.approx((1.25 * np.pi,) * 3, rel=1e-15)
        assert high.phases == pytest.approx((0.25 * np.pi,) * 3, rel=1e-15)
        assert (low.blocklength, high.blocklength) == (80, 240)
        assert (low.retransmissions, high.retransmissions) == (1, 7)

    def test_disc_edge_decodes_to_the_amplitude_bound(self):
        # sqrt(40) ** 2 is 40.00000000000001; the record clamps it
        cons = ConstraintSet(beta_max=40.0)
        assert np.sqrt(40.0) ** 2 > 40.0
        genome = np.full(genome_dimension(1, 4), 0.5)
        genome[:8] = [0.5, 0.0, 0.0, 0.0, 0.0, 0.5, 0.0, -0.5]  # (re, im) pairs
        x = decode(genome, 1, 4, cons)
        assert x.amplitudes == (40.0, 0.0, 40.0, 40.0)
        assert x.phases == (0.0, 0.0, 0.5 * np.pi, 1.5 * np.pi)
        weights = decode_block(genome[None], 1, 4, cons).weights[0]
        assert weights.tolist() == [np.sqrt(40.0), 0.0, 1j * np.sqrt(40.0),
                                    -1j * np.sqrt(40.0)]

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            decode(np.zeros(5), 2, 3, ConstraintSet())

    @pytest.mark.parametrize("gene", ["power", "phase", "amplitude",
                                      "blocklength", "replicas"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_gene_rejected(self, gene, value):
        # layout for K = 2, N = 3: the elements' (real, imaginary) pairs 0-5
        # (drawn as a "phase" and an "amplitude"), powers 6-7, blocklength 8,
        # replicas 9
        index = {"power": 7, "phase": 2, "amplitude": 5, "blocklength": 8,
                 "replicas": 9}[gene]
        genome = np.full(genome_dimension(2, 3), 0.5)
        genome[index] = value
        with pytest.raises(ValueError, match="genome must be finite"):
            decode(genome, 2, 3, ConstraintSet())
        block = np.vstack([np.full(genome.size, 0.5), genome])
        with pytest.raises(ValueError, match="genome must be finite"):
            decode_block(block, 2, 3, ConstraintSet())

    def test_repaired_genome_decodes_to_its_complex_view(self):
        rng = np.random.default_rng(29)
        cons = ConstraintSet(beta_max=40.0)
        k, n = 2, 5
        pop = rng.uniform(-1.0, 1.0, (30, genome_dimension(k, n)))
        view = pop[:, :2 * n].view(complex)
        view[...] = optimizer._into_disc(view)
        optimizer._repair(pop, k, cons, np.empty(0, dtype=np.int64))
        weights = decode_block(pop, k, n, cons).weights
        assert weights.tobytes() == (2 * np.sqrt(cons.beta_max) * view).tobytes()

    @pytest.mark.parametrize("tail", [-0.2, 1.2])
    def test_genes_outside_their_box_decode_inside_every_bound(self, tail):
        cons = ConstraintSet(p_min_w=1e-3, p_max_w=0.05, beta_max=40.0, l_max=7,
                             nb_min=80, nb_max=240)
        genome = np.full(genome_dimension(2, 3), tail)
        genome[:6] = [0.7, -0.9, 0.1, 0.2, -3.0, 0.0]  # elements 0 and 2 outside
        x = decode(genome, 2, 3, cons)
        assert x.user_powers == ((cons.p_min_w,) * 2 if tail < 0 else (cons.p_max_w,) * 2)
        assert (x.blocklength, x.retransmissions) == ((80, 1) if tail < 0 else (240, 7))
        assert all(b <= cons.beta_max for b in x.amplitudes)
        assert x.amplitudes[0] == pytest.approx(cons.beta_max, rel=1e-15)
        assert x.amplitudes[2] == pytest.approx(cons.beta_max, rel=1e-15)
        assert x.phases[0] == pytest.approx(np.mod(np.angle(0.7 - 0.9j), 2 * np.pi),
                                            rel=1e-15)
        assert x.phases[2] == np.pi
        weights = decode_block(genome[None], 2, 3, cons).weights[0]
        assert weights[1] == 2 * np.sqrt(cons.beta_max) * (0.1 + 0.2j)

    def test_block_rows_match_single_decodes(self):
        rng = np.random.default_rng(23)
        cons = ConstraintSet(p_min_w=1e-3, p_max_w=0.05, beta_max=40.0, l_max=7,
                             nb_min=80, nb_max=240)
        genomes = rng.uniform(-0.2, 1.2, (50, genome_dimension(2, 5)))
        block = decode_block(genomes, 2, 5, cons)
        for b, genome in enumerate(genomes):
            single = decode_block(genome[None], 2, 5, cons)
            assert single.weights[0].tobytes() == block.weights[b].tobytes()
            x = decode(genome, 2, 5, cons)
            assert x.user_powers == tuple(block.user_powers[b].tolist())
            # the polar record of the weights, to rounding
            np.testing.assert_allclose(polar_weights(x.amplitudes, x.phases),
                                       block.weights[b], rtol=0.0, atol=1e-14)
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
        cons = ConstraintSet(p_min_w=1e-3, nb_min=60, nb_max=2000)
        # 10 replicas of a 2000-use frame at 500 pkt/s: rho far above 1
        x = DecisionVector(user_powers=(1e-3,), phases=(0.0,), amplitudes=(50.0,),
                           blocklength=2000, retransmissions=10)
        objective, violations = evaluate_fitness(x, toy_model, cons)
        assert violations["utilization"] > 0.0
        assert objective == INFEASIBLE_OBJECTIVE  # large finite, not an error

    def test_power_ordering_residual(self, two_user_model):
        cons = ConstraintSet(p_min_w=1e-4, nb_min=60, nb_max=160)
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
        # hand; layout for K = N = 1: the weight's real and imaginary parts,
        # power, blocklength, replicas; decode puts a point that rounds
        # outside the disc inside
        rng = np.random.default_rng(9)
        pop = rng.random((30, genome_dimension(1, 1)))
        # each drawn pair (a, b) is the point ((a - 1/2) + j (b - 1/2)) / sqrt(2)
        pop[:, :2] = (pop[:, :2] - 0.5) * np.sqrt(0.5)
        # the seeded rows hold the SIC-balanced beams w / (2 max|w|)
        seeded = int(round(settings.seeded_fraction * 30))
        w = sic_balanced_weights(toy_model.bs_channel, toy_model.ue_channels,
                                 toy_model.jammer_channel, np.logspace(0.0, 3.0, seeded))
        points = w / (2.0 * np.max(np.abs(w), axis=1, keepdims=True))
        pop[:seeded, :2] = points.view(float)
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

    @pytest.mark.parametrize("seed", [0, 1, 3])
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
        result = run_ga(model, ConstraintSet(p_min_w=1e-4, nb_min=60, nb_max=160),
                        GaSettings(rng_seed=4, population_size=40,
                                   max_generations=15))
        assert not result.feasible
        assert sum(result.constraint_violations.values()) > 0

    def test_run_spends_its_whole_budget(self, weak_link_model):
        # the best stays infeasible, its merit exactly 1e30, until the run
        # turns feasible in generation 9; every generation is still evolved
        cons = ConstraintSet(p_min_w=1e-3, nb_min=60, nb_max=160)
        result = run_ga(weak_link_model, cons,
                        GaSettings(rng_seed=33, population_size=40,
                                   max_generations=60, seeded_fraction=0.0))
        assert result.generations_run == 60
        assert len(result.fitness_history) == 60
        assert len(result.mean_history) == 60
        assert len(result.feasible_fraction_history) == 60
        assert result.fitness_history[:8] == [INFEASIBLE_OBJECTIVE] * 8
        assert result.fitness_history[8] < INFEASIBLE_OBJECTIVE
        assert result.feasible

    def test_phase_alignment_emerges(self, weak_link_model):
        # reliability on this link is only attainable near coherence, with or
        # without seeded beams
        cons = ConstraintSet(p_min_w=1e-3, nb_min=60, nb_max=160)
        for fraction, seed in ((0.1, 1), (0.0, 2)):
            result = run_ga(weak_link_model, cons,
                            GaSettings(rng_seed=seed, population_size=120,
                                       max_generations=60,
                                       seeded_fraction=fraction))
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
        lambda bad: ConstraintSet(delay_thr_s=bad),
        lambda bad: ConstraintSet(beta_max=bad),
        lambda bad: ConstraintSet(p_max_w=bad),
        lambda bad: GaSettings(constraint_tolerance=bad),
    ], ids=["delay_thr", "beta_max", "p_max", "constraint_tolerance"])
    def test_non_finite_settings_rejected(self, build, bad):
        with pytest.raises(ValueError, match="finite"):
            build(bad)

    # numpy rejects a negative seed only when run_ga starts
    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="rng_seed must be non-negative"):
            GaSettings(rng_seed=-1)

    def test_replica_bound(self):
        assert ConstraintSet(l_max=optimizer.MAX_REPLICA_BOUND).l_max == 2 ** 16
        with pytest.raises(ValueError, match=r"must lie in 1\.\.2\*\*16"):
            ConstraintSet(l_max=optimizer.MAX_REPLICA_BOUND + 1)

    def test_population_above_the_genome_bound_is_rejected(self, two_user_model,
                                                           monkeypatch):
        # only the rejecting side: a population at the bound allocates 512 MiB
        def no_population(*args):
            raise AssertionError("the population was allocated")
        monkeypatch.setattr(optimizer, "_initial_population", no_population)
        dim = genome_dimension(2, 16)
        settings = GaSettings(population_size=optimizer.MAX_GENOME_CELLS // dim + 1)
        with pytest.raises(OverflowError, match=r"^population_size \d+ x genome "
                                                r"dimension 36 is above 2\*\*26 genes$"):
            run_ga(two_user_model, ConstraintSet(), settings)

    def test_results_do_not_depend_on_block_cells(self, two_user_model,
                                                  monkeypatch):
        cons = ConstraintSet(p_min_w=1e-4, nb_min=60, nb_max=160)
        settings = GaSettings(rng_seed=5, population_size=40, max_generations=15)
        default = run_ga(two_user_model, cons, settings)
        # N cells hold one beam and no 36-gene genome: every row is its own
        # block of breeding and of the initial population, and the SJNR's
        # beam terms are formed one candidate at a time
        monkeypatch.setattr(link, "BLOCK_CELLS", two_user_model.n_elements)
        beams = []
        sjnr_all = model_module.sjnr_all

        def recorded(*args):
            beams.append(len(np.atleast_2d(args[4])))
            return sjnr_all(*args)

        monkeypatch.setattr(model_module, "sjnr_all", recorded)
        small = run_ga(two_user_model, cons, settings)
        # one call per population of 40 (16 of them), then the record of the best
        assert beams == [40] * 16 + [1]
        for name, value in vars(default).items():
            if name == "best_report":
                assert all(same_bits(v, getattr(small.best_report, field))
                           for field, v in vars(value).items())
            else:
                assert getattr(small, name) == value, name

    def test_ga_decodes_a_repaired_population_as_decode_block(self, two_user_model,
                                                             monkeypatch):
        # the GA decodes its populations without decode_block's checks and
        # projections; on a repaired population they change no bit
        model, cons = two_user_model, ConstraintSet(p_min_w=1e-4, nb_min=60, nb_max=160)
        k, n = model.n_users, model.n_elements
        settings = GaSettings(rng_seed=5, population_size=40)
        rng = np.random.default_rng(settings.rng_seed)
        caps = optimizer._blocklength_caps(model, cons)
        initial = optimizer._initial_population(model, settings, rng)
        optimizer._repair(initial, k, cons, caps)
        # a high mutation rate and spread take many genes out of their box
        bred = optimizer._breed(initial, list(range(40)), rng, settings, 0.5, 1.0, n)
        tail = bred[settings.elite_count:, 2 * n:]
        assert np.any(tail < 0.0) and np.any(tail > 1.0)
        optimizer._repair(bred[settings.elite_count:], k, cons, caps)

        decoded = []
        score_block = optimizer.score_block

        def recorded(x, *args):
            decoded.append(x)
            return score_block(x, *args)

        monkeypatch.setattr(optimizer, "score_block", recorded)
        for pop in (initial, bred):
            before = pop.copy()
            objective, total = optimizer._evaluate_population(pop, model, cons)
            assert same_bits(pop, before)
            checked = decode_block(pop, k, n, cons)
            assert all(same_bits(a, b) for a, b in zip(decoded[-1], checked))
            expected, violations, _ = score_block(checked, model, cons)
            assert same_bits(objective, expected)
            assert same_bits(total, sum(violations.values()))
        assert len(decoded) == 2

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


def drawn_points(draw: np.ndarray, n_elements: int) -> np.ndarray:
    """The point ((a - 1/2) + j (b - 1/2)) / sqrt(2) of each element's drawn
    pair (a, b) in a (B, dimension) draw."""
    a, b = draw[:, 0:2 * n_elements:2], draw[:, 1:2 * n_elements:2]
    return ((a - 0.5) + 1j * (b - 0.5)) / np.sqrt(2.0)


class TestSeeding:
    @staticmethod
    def separated_model(n_users):
        directions = [(1.0, -0.3), (np.pi / 2, -0.1), (2.2, -0.5)][:n_users]
        return make_model(RisGeometry(4, 4), make_scenario(n_users=n_users,
                                                           user_dirs=directions))

    @pytest.mark.parametrize("n_users", [1, 2, 3])
    def test_sic_balanced_seeds(self, n_users):
        model = self.separated_model(n_users)
        k, n = n_users, model.n_elements
        settings = GaSettings(population_size=50, seeded_fraction=0.4)
        rng = np.random.default_rng(5)
        pop = optimizer._initial_population(model, settings, rng)
        points, other = pop[:, :2 * n].view(complex), pop[:, 2 * n:]
        assert np.all(points.real ** 2 + points.imag ** 2 <= 0.25)
        assert np.all((0.0 <= other) & (other <= 1.0))

        # the seeds draw no random numbers: the generator has moved by the
        # plain draw, every other gene is that draw, and past the 20 seeded
        # rows each element is the point of its drawn pair
        plain_rng = np.random.default_rng(5)
        plain = plain_rng.random(pop.shape)
        assert rng.bit_generator.state == plain_rng.bit_generator.state
        assert np.array_equal(other, plain[:, 2 * n:])
        np.testing.assert_allclose(points[20:], drawn_points(plain, n)[20:],
                                   rtol=0.0, atol=1e-16)

        # the seeded rows grade consecutive users' cascade gains by r, null
        # the jammer's reflection and have a peak |w|^2 of beta_max
        weights = decode_block(pop[:20], k, n, ConstraintSet()).weights
        gains = np.abs(weights @ (model.bs_channel * model.ue_channels).T) ** 2
        ratios = np.logspace(0.0, 3.0, 20)
        np.testing.assert_allclose(gains[:, :-1] / gains[:, 1:],
                                   np.broadcast_to(ratios[:, None], (20, k - 1)),
                                   rtol=1e-9)
        jamming = np.abs(weights @ (model.bs_channel * model.jammer_channel)) ** 2
        assert np.all(jamming <= 1e-20 * gains[:, -1])
        assert np.max(np.abs(weights) ** 2, axis=1) == pytest.approx(100.0, rel=1e-12)
        # each is its minimum-norm beam w as w / (2 max|w|) through _into_disc
        w = sic_balanced_weights(model.bs_channel, model.ue_channels,
                                 model.jammer_channel, ratios)
        peak = np.max(np.abs(w), axis=1, keepdims=True)
        assert np.array_equal(points[:20], optimizer._into_disc(w / (2.0 * peak)))

    def test_unusable_beams_keep_their_drawn_points(self, monkeypatch):
        # beams whose max|w| is 0, infinite or NaN cannot be scaled to the
        # disc, so their rows keep the drawn points
        model = self.separated_model(2)
        n = model.n_elements

        def beams(bs_channel, ue_channels, jammer_channel, ratios):
            weights = np.ones((len(ratios), n), dtype=complex)
            weights[0] = 0.0
            weights[1, 3] = np.inf
            weights[2, 5] = complex(np.nan, 0.0)
            return weights

        monkeypatch.setattr(optimizer, "sic_balanced_weights", beams)
        settings = GaSettings(population_size=10, seeded_fraction=0.5)
        pop = optimizer._initial_population(model, settings, np.random.default_rng(3))
        points = pop[:, :2 * n].view(complex)
        drawn = drawn_points(np.random.default_rng(3).random(pop.shape), n)
        np.testing.assert_allclose(points[:3], drawn[:3], rtol=0.0, atol=1e-16)
        assert np.all(points[3:5] == 0.5)
        np.testing.assert_allclose(points[5:], drawn[5:], rtol=0.0, atol=1e-16)


def disc_test_points():
    """Complex points at magnitudes 1e-300 to 1e300, on the axes, on the
    circle |v| = 1/2 (to rounding) and one ulp outside it."""
    magnitude = st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e)
    angle = st.floats(0.0, 2 * np.pi)
    polar = st.builds(lambda r, t: complex(r * np.cos(t), r * np.sin(t)), magnitude, angle)
    axes = st.builds(lambda r, axis: complex(r * axis[0], r * axis[1]),
                     st.one_of(magnitude, st.just(0.5)),
                     st.sampled_from([(1, 0), (0, 1), (-1, 0), (0, -1)]))
    circle = st.builds(lambda t: complex(0.5 * np.cos(t), 0.5 * np.sin(t)), angle)
    beyond = circle.map(lambda v: complex(np.nextafter(v.real, np.copysign(1.0, v.real)),
                                          np.nextafter(v.imag, np.copysign(1.0, v.imag))))
    return st.lists(st.one_of(polar, axes, circle, beyond), min_size=1, max_size=20)


class TestIntoDisc:
    @hypothesis_settings(max_examples=300, deadline=None)
    @given(values=disc_test_points())
    @example(values=[0.5 + 0j, np.nextafter(0.5, 1.0) + 0j, -1e300j, 1e-300 + 0j,
                     complex(1e300, 1e300), complex(0.3, 0.4)])
    def test_points_land_exactly_inside_the_disc(self, values):
        points = np.array(values, dtype=complex)
        before = points.copy()
        result = optimizer._into_disc(points)
        assert np.array_equal(points.view(np.uint64), before.view(np.uint64))
        assert np.all(result.real ** 2 + result.imag ** 2 <= 0.25)
        with np.errstate(over="ignore"):
            outside = before.real ** 2 + before.imag ** 2 > 0.25
        # a point inside keeps its bits
        assert np.array_equal(result[~outside].view(np.uint64),
                              before[~outside].view(np.uint64))
        # one outside lands within 4 ulp of the circle, in its own direction
        edge, source = result[outside], before[outside]
        assert np.all(np.abs(np.abs(edge) - 0.5) <= 4 * np.spacing(0.5))
        np.testing.assert_allclose(edge / np.abs(edge), source / np.abs(source),
                                   rtol=0.0, atol=1e-15)
        # and a second pass changes nothing
        assert optimizer._into_disc(result) is result


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
        c = ConstraintSet(delay_thr_s=10.0 ** delay_exponent, p_min_w=1e-4,
                          nb_min=nb_min, nb_max=nb_min + nb_spread, l_max=l_max)
        k, n = n_users, model.n_elements
        genomes = rng.random((40, genome_dimension(k, n)))
        edges = rng.random(genomes.shape) < 0.2
        genomes[edges] = rng.integers(0, 2, genomes.shape)[edges]
        points = genomes[:, :2 * n].view(complex)
        points[...] = optimizer._into_disc(points)
        before = genomes.copy()

        caps = optimizer._blocklength_caps(model, c)
        optimizer._repair(genomes, k, c, caps)
        # the beam genes keep their bits
        assert np.array_equal(genomes[:, :2 * n].view(np.uint64),
                              before[:, :2 * n].view(np.uint64))
        x = decode_block(genomes, k, n, c)
        _, violations, _ = score_block(x, model, c)
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


class RecordingGenerator:
    """A numpy Generator that keeps the last value each of its methods drew."""

    def __init__(self, rng: np.random.Generator):
        self.rng, self.drawn = rng, {}

    def __getattr__(self, name):
        method = getattr(self.rng, name)

        def draw(*args, **kwargs):
            self.drawn[name] = value = method(*args, **kwargs)
            return value
        return draw


class TestBreed:
    @hypothesis_settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n_users=st.integers(1, 3),
           n_elements=st.integers(1, 40), nb_min=st.integers(1, 400),
           nb_spread=st.one_of(st.integers(0, 3000), st.integers(0, 10 ** 9)),
           l_max=st.integers(1, 30), delay_exponent=st.floats(-6.0, -1.0),
           size=st.integers(2, 30), elite_fraction=st.floats(0.0, 1.0),
           crossover_rate=st.floats(0.0, 1.0), mutation_rate=st.floats(0.0, 1.0),
           sigma=st.floats(0.0, 2.0))
    def test_mutated_elements_are_put_into_the_disc(
            self, seed, n_users, n_elements, nb_min, nb_spread, l_max,
            delay_exponent, size, elite_fraction, crossover_rate, mutation_rate,
            sigma):
        rng = np.random.default_rng(seed)
        model = make_model(RisGeometry(1, n_elements), make_scenario(n_users=n_users),
                           arrival_rates=tuple(rng.uniform(10.0, 3000.0, n_users)),
                           header_time=float(rng.uniform(0.0, 1e-4)),
                           bandwidth=float(rng.uniform(5e4, 1e6)))
        c = ConstraintSet(delay_thr_s=10.0 ** delay_exponent, p_min_w=1e-4,
                          nb_min=nb_min, nb_max=nb_min + nb_spread, l_max=l_max)
        k, n = n_users, n_elements
        caps = optimizer._blocklength_caps(model, c)
        pop = rng.random((size, genome_dimension(k, n)))
        edges = rng.random(pop.shape) < 0.2
        pop[edges] = rng.integers(0, 2, pop.shape)[edges]
        parent_points = pop[:, :2 * n].view(complex)
        parent_points[...] = optimizer._into_disc(parent_points)
        optimizer._repair(pop, k, c, caps)
        settings = GaSettings(population_size=size,
                              elite_count=int(elite_fraction * (size - 1)),
                              crossover_rate=crossover_rate)
        order = rng.permutation(size).tolist()
        breeding_seed = int(rng.integers(2 ** 32))

        draws = RecordingGenerator(np.random.default_rng(breeding_seed))
        bred = optimizer._breed(pop, order, draws, settings, mutation_rate, sigma, n)
        # the same draws without mutation give the crossed children
        crossed = optimizer._breed(pop, order, np.random.default_rng(breeding_seed),
                                   settings, 0.0, sigma, n)
        elites = settings.elite_count
        assert np.array_equal(bred[:elites].view(np.uint64),
                              crossed[:elites].view(np.uint64))
        mutated = crossed[elites:].copy()
        mutating = np.sort(draws.drawn["choice"])
        mutated.reshape(-1)[mutating] += draws.drawn["normal"]
        children = bred[elites:]
        # the genes after the beam are the mutated ones, not yet repaired
        assert np.array_equal(children[:, 2 * n:].view(np.uint64),
                              mutated[:, 2 * n:].view(np.uint64))

        # every point lies exactly inside the disc, in float64 and with no
        # slack, so a projection changes no bit
        points = bred[:, :2 * n].view(complex)
        assert np.all(points.real ** 2 + points.imag ** 2 <= 0.25)
        assert optimizer._into_disc(points) is points
        # the elements whose real or imaginary gene mutated
        row, column = np.divmod(mutating, bred.shape[1])
        beam = column < 2 * n
        mutated_element = np.zeros((len(children), n), dtype=bool)
        mutated_element[row[beam], column[beam] // 2] = True
        before = mutated[:, :2 * n].view(complex)
        after = children[:, :2 * n].view(complex)
        # the others keep their parents' bits
        assert np.array_equal(after[~mutated_element].view(np.uint64),
                              before[~mutated_element].view(np.uint64))
        # a mutated element outside the disc moves radially onto its circle
        outside = mutated_element & (before.real ** 2 + before.imag ** 2 > 0.25)
        np.testing.assert_allclose(after[outside],
                                   before[outside] / (2 * np.abs(before[outside])),
                                   rtol=0.0, atol=5e-16)
        # one inside it keeps its bits
        inside = mutated_element & ~outside
        assert np.array_equal(after[inside].view(np.uint64),
                              before[inside].view(np.uint64))

        # the repair moves the other genes into their box and no beam gene
        repaired = children.copy()
        optimizer._repair(repaired, k, c, caps)
        assert np.array_equal(repaired[:, :2 * n].view(np.uint64),
                              children[:, :2 * n].view(np.uint64))
        assert np.all((0.0 <= repaired[:, 2 * n:]) & (repaired[:, 2 * n:] <= 1.0))
        # and a second repair changes none
        again = repaired.copy()
        optimizer._repair(again, k, c, caps)
        assert np.array_equal(again.view(np.uint64), repaired.view(np.uint64))

    def test_unmutated_elements_stay_untouched(self):
        # K = 1, N = 3, genes: (real, imaginary) pairs | power | integers.
        # One parent, no elite and no crossover: the child is the parent,
        # with genes 2 and 5 mutated by fixed steps. Element 0 lies outside
        # the disc but does not mutate; element 1's real gene mutates outside
        # the disc, element 2's imaginary gene inside it.
        class FixedMutation(RecordingGenerator):
            def binomial(self, cells, rate):
                return 2

            def choice(self, cells, count, replace, shuffle):
                return np.array([2, 5])

            def normal(self, mean, spread, count):
                return np.array([0.5, -0.25])

        parent = np.full((1, genome_dimension(1, 3)), 0.5)
        parent[0, :6] = [0.5, 0.5, 0.5, 0.0, -0.25, 0.25]
        settings = GaSettings(population_size=1, elite_count=0, crossover_rate=0.0)
        child = optimizer._breed(parent, [0], FixedMutation(np.random.default_rng(0)),
                                 settings, 1.0, 1.0, 3)
        assert child[0, :6].tolist() == [0.5, 0.5, 0.5, 0.0, -0.25, 0.0]
        assert child[0, 6:].tolist() == [0.5, 0.5, 0.5]
