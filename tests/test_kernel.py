"""
The block metric-chain kernel against its one-candidate wrappers.

Every number the GA ranks, reports and sweeps goes through
``SystemModel.evaluate_block``; these tests check bit for bit that a
candidate's numbers do not depend on the block it is scored in, and that
``decode``, ``evaluate_fitness`` and ``SystemModel.evaluate`` are its B=1
case.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from risjam.channel import RisGeometry
from risjam.config import load_config
from risjam.link import BeamformConfig
from risjam.model import SystemModel
from risjam.optimizer import (ConstraintSet, GaSettings, decode, decode_block,
                              evaluate_fitness, genome_dimension, run_ga,
                              score_block)
from risjam.sweeps import UNSTABLE_MARKER, build_model, sweep_delay_ee

from conftest import make_model, make_scenario

# the search box is wide enough that random genomes mix stable and unstable
# queues and reliable and unreliable links
WIDE_BOX = ConstraintSet(p_min=1e-4, nb_min=20, nb_max=1000, l_max=10)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def random_case(seed: int, n_users: int, n_elements: int, n_candidates: int):
    """A random scenario and a block of genomes, a share of them at 0 or 1."""
    rng = np.random.default_rng(seed)
    scenario = make_scenario(
        n_users=n_users,
        jammer_power=float(rng.choice([0.0, 5e-4, 5e-3])),
        user_dirs=[(float(rng.uniform(0, np.pi)), float(rng.uniform(-0.5, 0.5)))
                   for _ in range(n_users)])
    model = make_model(RisGeometry(1, n_elements), scenario,
                       arrival_rates=tuple(rng.uniform(50.0, 2000.0, n_users)))
    genomes = rng.random((n_candidates, genome_dimension(n_users, n_elements)))
    edges = rng.random(genomes.shape) < 0.2
    genomes[edges] = rng.integers(0, 2, genomes.shape)[edges]
    return model, genomes, rng


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n_users=st.integers(1, 3),
       n_elements=st.integers(1, 40), n_candidates=st.integers(1, 30))
def test_block_boundaries_do_not_change_bits(seed, n_users, n_elements,
                                             n_candidates):
    model, genomes, rng = random_case(seed, n_users, n_elements, n_candidates)
    whole = decode_block(genomes, n_users, n_elements, WIDE_BOX)
    objective, violations, chain = score_block(whole, model, WIDE_BOX)

    cuts = np.sort(rng.choice(np.arange(1, n_candidates),
                              size=int(rng.integers(0, n_candidates)),
                              replace=False)) if n_candidates > 1 else []
    parts = [score_block(decode_block(part, n_users, n_elements, WIDE_BOX),
                         model, WIDE_BOX)
             for part in np.split(genomes, cuts)]
    assert same_bits(np.concatenate([p[0] for p in parts]), objective)
    for name, values in violations.items():
        assert same_bits(np.concatenate([p[1][name] for p in parts]), values)

    for b, genome in enumerate(genomes):
        x = decode(genome, n_users, n_elements, WIDE_BOX)
        single_objective, single_violations = evaluate_fitness(x, model, WIDE_BOX)
        assert same_bits(single_objective, objective[b])
        for name, value in single_violations.items():
            assert same_bits(value, violations[name][b])

        report = model.evaluate(BeamformConfig(np.array(x.amplitudes),
                                               np.array(x.phases)),
                                x.user_powers,
                                x.blocklength, x.retransmissions)
        assert repr(report) == repr(chain.report(b))


def test_many_users_keep_their_bits():
    # sums over eight or more users switch numpy to pairwise summation, whose
    # grouping depends on the memory layout of the block
    _, genomes, rng = random_case(11, 9, 4, 40)
    # light traffic keeps most queues of all nine users stable
    model = make_model(RisGeometry(1, 4), make_scenario(n_users=9),
                       arrival_rates=tuple(rng.uniform(5.0, 50.0, 9)))
    x = decode_block(genomes, 9, 4, WIDE_BOX)
    chain = model.evaluate_block(x.amplitudes, x.phases, x.user_powers,
                                 x.blocklength, x.retransmissions)
    assert np.mean(chain.stable) > 0.5
    for b in range(len(genomes)):
        alone = model.evaluate_block(x.amplitudes[b:b + 1], x.phases[b:b + 1],
                                     x.user_powers[b:b + 1], x.blocklength[b:b + 1],
                                     x.retransmissions[b:b + 1])
        assert repr(alone.report(0)) == repr(chain.report(b))

    # one beam and power row given once for every code of the block, as
    # sweep_delay_ee passes them, against the same row tiled over the block
    first = (x.amplitudes[:1], x.phases[:1], x.user_powers[:1])
    shared = model.evaluate_block(*first, x.blocklength, x.retransmissions)
    tiled = model.evaluate_block(*(np.tile(row, (len(genomes), 1)) for row in first),
                                 x.blocklength, x.retransmissions)
    assert 0 < np.mean(shared.stable) < 1
    for b in range(len(genomes)):
        assert repr(shared.report(b)) == repr(tiled.report(b))


def test_random_blocks_cover_unstable_and_infeasible_points():
    # the property above is only meaningful if its inputs reach every branch
    # (feasible points are rare; one user makes them common enough to see)
    stable, feasible, reliable = set(), set(), set()
    for seed in range(20):
        model, genomes, _ = random_case(seed, 1, 9, 30)
        x = decode_block(genomes, 1, 9, WIDE_BOX)
        _, violations, chain = score_block(x, model, WIDE_BOX)
        stable.update(chain.stable.tolist())
        feasible.update((sum(violations.values()) == 0.0).tolist())
        reliable.update((chain.reliability >= WIDE_BOX.rel_thr).tolist())
    assert stable == feasible == reliable == {True, False}


def test_delay_ee_rows_equal_per_point_evaluations():
    cfg = load_config()
    result = sweep_delay_ee(cfg)
    model = build_model(cfg)
    beam = model.co_phased_beam(model.n_users,
                                cfg.sweep.policy_beta_total / model.n_elements)
    powers = (cfg.sweep.policy_power_w,) * model.n_users
    markers = 0
    for rate, blocklength, rho, delay, eta in result.rows:
        report = model.evaluate(beam, powers, blocklength,
                                cfg.sweep.retransmissions,
                                arrival_rates=(rate,) * model.n_users)
        assert same_bits(rho, report.utilization[0])
        if report.stable:
            assert same_bits(delay, report.mean_delay[0])
            assert same_bits(eta, report.energy_efficiency)
        else:
            assert (delay, eta) == (UNSTABLE_MARKER, None)
            markers += 1
    assert 0 < markers < len(result.rows)


def recorded_blocks(monkeypatch) -> list[tuple]:
    """The (beam, power) shapes of every ``SystemModel.evaluate_block`` call
    made from now on."""
    shapes = []
    evaluate_block = SystemModel.evaluate_block

    def recorded(model, amplitudes, phases, powers, *args, **kwargs):
        shapes.append((np.shape(amplitudes), np.shape(powers)))
        return evaluate_block(model, amplitudes, phases, powers, *args, **kwargs)

    monkeypatch.setattr(SystemModel, "evaluate_block", recorded)
    return shapes


def test_delay_ee_passes_its_beam_once_per_arrival_rate(monkeypatch):
    cfg = load_config()
    calls = recorded_blocks(monkeypatch)
    sweep_delay_ee(cfg)
    one_row = ((1, cfg.geometry.n_elements), (1, cfg.scenario.n_users))
    assert calls == [one_row] * len(cfg.sweep.arrival_rate_grid)


def test_ga_scores_its_best_genome_once(monkeypatch):
    # one call for the initial population, one for the record of its best
    model = make_model(RisGeometry(2, 2), make_scenario(
        jammer_power=5e-4, user_dirs=[(1.0, -0.3), (np.pi / 2, -0.1)]))
    constraints = ConstraintSet(p_min=1e-4, nb_min=60, nb_max=160)
    calls = recorded_blocks(monkeypatch)
    result = run_ga(model, constraints,
                    GaSettings(rng_seed=7, population_size=40, max_generations=0))
    assert len(calls) == 2

    best = result.best_solution
    objective, violations = evaluate_fitness(best, model, constraints)
    assert (objective, violations) == (result.best_objective,
                                       result.constraint_violations)
    report = model.evaluate(BeamformConfig(np.array(best.amplitudes),
                                           np.array(best.phases)),
                            best.user_powers,
                            best.blocklength, best.retransmissions)
    assert repr(report) == repr(result.best_report)


def test_one_arrival_rate_per_user_required():
    scenario = make_scenario()
    with pytest.raises(ValueError, match="one arrival rate per user required"):
        make_model(RisGeometry(2, 2), scenario, arrival_rates=(500.0,))
    model = make_model(RisGeometry(2, 2), scenario)
    with pytest.raises(ValueError, match="one arrival rate per user required"):
        model.queue_block([108], [1], arrival_rates=(1.0, 2.0, 3.0))


@pytest.mark.parametrize("call,message", [
    (lambda model: model.co_phased_beam(0, 1.0), r"^user index 0 out of range 1\.\.2$"),
    (lambda model: model.co_phased_beam(-1, 1.0), r"^user index -1 out of range 1\.\.2$"),
    (lambda model: model.co_phased_beam(3, 1.0), r"^user index 3 out of range 1\.\.2$"),
    (lambda model: model.ris_output_power(model.co_phased_beam(1, 1.0), (1e-3,)),
     "one transmit power per user required"),
    (lambda model: model.ris_output_power(model.co_phased_beam(1, 1.0), [[1e-3, 2e-3]]),
     "one transmit power per user required"),
    (lambda model: model.ris_output_power(model.co_phased_beam(1, 1.0), (1e-3, 0.0)),
     "user powers must be positive and finite"),
], ids=["user-0", "user-minus-1", "user-K+1", "one-power-for-two-users",
        "block-of-powers", "zero-power"])
def test_model_rejects_unknown_users_and_bad_powers(call, message):
    model = make_model(RisGeometry(2, 2), make_scenario())
    with pytest.raises(ValueError, match=message):
        call(model)


def test_small_run_is_pinned():
    # recorded from the GA that breeds whole blocks per random draw and
    # repairs genomes onto the closed-form feasible box; it guards the random
    # draw order, the repair and the ranking, generation by generation
    model = make_model(RisGeometry(2, 2), make_scenario(
        jammer_power=5e-4, user_dirs=[(1.0, -0.3), (np.pi / 2, -0.1)]))
    result = run_ga(model, ConstraintSet(p_min=1e-4, nb_min=60, nb_max=160),
                    GaSettings(rng_seed=7, population_size=40, max_generations=15))
    assert result.fitness_history == [1e30] * 4 + [
        2.4381229595293755e-07] * 6 + [2.1305822750928473e-07] * 2 + [
        1.9790526103674595e-07] * 3
    assert result.mean_history == [1e30] * 4 + [
        9.75e+29, 9.75e+29, 9.5e+29, 9.5e+29, 9.249999999999999e+29,
        9.249999999999999e+29, 9e+29, 8.75e+29, 6.5e+29, 7.000000000000001e+29,
        6.2500000000000005e+29]
    assert result.feasible_fraction_history == [0.0] * 4 + [
        0.025, 0.025, 0.05, 0.05, 0.075, 0.075, 0.1, 0.125, 0.35, 0.3, 0.375]
    best = result.best_solution
    assert best.user_powers == (0.037016677429160455, 0.0742013446440159)
    assert best.phases == (2.194985292024292, 3.6066757664757403,
                           3.2642078831186128, 3.239124460046525)
    assert best.amplitudes == (100.0, 0.9351306221556394,
                               1.0648534809967314, 99.37128204649667)
    assert (best.blocklength, best.retransmissions) == (123, 1)
    assert result.best_eta == 5052922.771033993
    assert result.best_objective == 1.9790526103674595e-07
