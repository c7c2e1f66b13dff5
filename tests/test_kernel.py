"""
The block metric-chain kernel against its one-candidate wrappers.

Every number the GA ranks, reports and sweeps goes through
``SystemModel.evaluate_block``; these tests check bit for bit that a
candidate's numbers do not depend on the block it is scored in, and that
``evaluate_fitness`` and ``SystemModel.evaluate`` are its B=1 case on the
polar weights of a decision vector. A decoded genome's polar record
(``decode``) carries its weights to within rounding, so its numbers match
the block's to a stated tolerance.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from risjam import link, model as model_module, sweeps
from risjam.channel import RisGeometry
from risjam.config import load_config
from risjam.link import co_phasing_phases
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


def same_metrics(a, b) -> bool:
    """Every field of two ``MetricsBlock``s has the same bits."""
    return all(same_bits(value, getattr(b, name)) for name, value in vars(a).items())


# Relative tolerance between the metrics of a decoded genome's polar record
# and those of its block row: the polar round trip moves each weight by a few
# ulp, the cascade sums amplify that by their cancellation, and the BLER by
# its Q-function argument (up to about 38).
POLAR_RTOL = 1e-9


def close_metrics(a, b) -> bool:
    """Every field of two ``MetricsBlock``s agrees to ``POLAR_RTOL``; NaN
    where the other is NaN, and values below 1e-300 count as equal."""
    return all(np.allclose(value, getattr(b, name), rtol=POLAR_RTOL, atol=1e-300,
                           equal_nan=True)
               for name, value in vars(a).items())


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
        alone = decode_block(genome[None], n_users, n_elements, WIDE_BOX)
        assert same_bits(alone.weights[0], whole.weights[b])
        single_objective, single_violations, single_chain = score_block(
            alone, model, WIDE_BOX)
        assert same_bits(single_objective, objective[b:b + 1])
        for name, value in single_violations.items():
            assert same_bits(value, violations[name][b:b + 1])
        assert same_metrics(single_chain.column(0), chain.column(b))

        # the polar record scores as the block row, to rounding
        x = decode(genome, n_users, n_elements, WIDE_BOX)
        report = model.evaluate(x.amplitudes, x.phases, x.user_powers,
                                x.blocklength, x.retransmissions)
        assert close_metrics(report, chain.column(b))
        polar_objective, polar_violations = evaluate_fitness(x, model, WIDE_BOX)
        assert np.isclose(polar_objective, objective[b], rtol=POLAR_RTOL, atol=0.0)
        for name, value in polar_violations.items():
            assert np.isclose(value, violations[name][b], rtol=POLAR_RTOL, atol=1e-15)


def test_many_users_keep_their_bits():
    # sums over eight or more users switch numpy to pairwise summation, whose
    # grouping depends on the memory layout of the block
    _, genomes, rng = random_case(11, 9, 4, 40)
    # light traffic keeps most queues of all nine users stable
    model = make_model(RisGeometry(1, 4), make_scenario(n_users=9),
                       arrival_rates=tuple(rng.uniform(5.0, 50.0, 9)))
    x = decode_block(genomes, 9, 4, WIDE_BOX)
    chain = model.evaluate_block(x.weights, x.user_powers, x.blocklength,
                                 x.retransmissions)
    assert np.mean(chain.stable) > 0.5
    for b in range(len(genomes)):
        alone = model.evaluate_block(x.weights[b:b + 1], x.user_powers[b:b + 1],
                                     x.blocklength[b:b + 1], x.retransmissions[b:b + 1])
        assert same_metrics(alone.column(0), chain.column(b))

    # one beam and power row given once for every code of the block, as
    # sweep_delay_ee passes them, against the same row tiled over the block
    first = (x.weights[:1], x.user_powers[:1])
    shared = model.evaluate_block(*first, x.blocklength, x.retransmissions)
    tiled = model.evaluate_block(*(np.tile(row, (len(genomes), 1)) for row in first),
                                 x.blocklength, x.retransmissions)
    assert 0 < np.mean(shared.stable) < 1
    for b in range(len(genomes)):
        assert same_metrics(shared.column(b), tiled.column(b))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n_users=st.integers(1, 3),
       n_elements=st.integers(1, 12), rows=st.integers(1, 4),
       n_candidates=st.integers(2, 30),
       given_rows=st.sampled_from(["beams-and-powers", "beams", "powers"]))
def test_sjnr_row_blocks_do_not_change_bits(seed, n_users, n_elements, rows,
                                            n_candidates, given_rows):
    # with row blocks of a few beams, a block of more beams than one row
    # block scores in one sjnr_all call, as its row blocks scored alone, and
    # as with no row blocks
    model, genomes, _ = random_case(seed, n_users, n_elements, n_candidates)
    x = decode_block(genomes, n_users, n_elements, WIDE_BOX)
    weights = x.weights[:1] if given_rows == "powers" else x.weights
    powers = x.user_powers[:1] if given_rows == "beams" else x.user_powers
    # light load and overload alternate, so that blocks mix unstable columns in
    rates = np.tile([[10.0, 1e6]], (n_users, n_candidates))[:, :n_candidates]
    block = (x.blocklength, x.retransmissions)
    whole = model.evaluate_block(weights, powers, *block, arrival_rates=rates)
    assert 0 < np.mean(whole.stable) < 1

    calls = []
    sjnr_all = model_module.sjnr_all

    def recorded(ue, bs, direct, jammer, beams, *args):
        calls.append(len(np.atleast_2d(beams)))
        return sjnr_all(ue, bs, direct, jammer, beams, *args)

    def rows_of(array, part):
        return array[part] if len(array) > 1 else array

    row_blocks = [slice(start, start + rows) for start in range(0, n_candidates, rows)]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(link, "BLOCK_CELLS", rows * n_elements)
        patch.setattr(model_module, "sjnr_all", recorded)
        blocked = model.evaluate_block(weights, powers, *block, arrival_rates=rates)
        assert calls == [len(weights)]
        parts = [model.evaluate_block(rows_of(weights, part), rows_of(powers, part),
                                      *(column[part] for column in block),
                                      arrival_rates=rates[:, part])
                 for part in row_blocks]
    assert same_metrics(blocked, whole)
    for name, value in vars(whole).items():
        assert same_bits(np.concatenate([vars(p)[name] for p in parts], axis=-1), value)


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
    beam = (np.full(model.n_elements, cfg.sweep.policy_beta_total / model.n_elements),
            co_phasing_phases(model.bs_channel, model.ue_channels[-1]))
    powers = (cfg.sweep.policy_power_w,) * model.n_users
    markers = 0
    for rate, blocklength, rho, delay, eta in result.rows:
        report = model.evaluate(*beam, powers, blocklength,
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

    def recorded(model, weights, powers, *args, **kwargs):
        shapes.append((np.shape(weights), np.shape(powers)))
        return evaluate_block(model, weights, powers, *args, **kwargs)

    monkeypatch.setattr(SystemModel, "evaluate_block", recorded)
    return shapes


def test_delay_ee_passes_its_beam_once(monkeypatch):
    # the default grid fits one block: one call with the beam as one row
    cfg = load_config()
    calls = recorded_blocks(monkeypatch)
    sweep_delay_ee(cfg)
    one_row = ((1, cfg.geometry.n_elements), (1, cfg.scenario.n_users))
    assert calls == [one_row]


def test_delay_ee_blocks_do_not_change_its_rows(monkeypatch):
    cfg = load_config()
    whole = sweep_delay_ee(cfg)
    calls = recorded_blocks(monkeypatch)
    monkeypatch.setattr(sweeps, "BLOCK_CELLS", 100)
    blocked = sweep_delay_ee(cfg)
    assert len(calls) == -(-len(whole.rows) // 100) > 1
    # floats compare equal only when their bits are (no row holds a NaN)
    assert blocked.rows == whole.rows
    assert blocked.metadata["delay_ratio_100_1300"] == whole.metadata["delay_ratio_100_1300"]


@pytest.mark.parametrize("n_users", [1, 3])
def test_a_block_of_rates_scores_like_one_call_per_rate(n_users):
    # a (K, B) block of arrival rates, column b for candidate b, from light
    # load to overload, so that some columns are unstable
    model, genomes, rng = random_case(5, n_users, 6, 40)
    x = decode_block(genomes, n_users, 6, WIDE_BOX)
    rates = rng.uniform(10.0, 3000.0, (n_users, len(genomes)))
    chain = model.evaluate_block(x.weights, x.user_powers, x.blocklength,
                                 x.retransmissions, arrival_rates=rates)
    assert 0 < np.mean(chain.stable) < 1
    for b in range(len(genomes)):
        alone = model.evaluate_block(x.weights[b:b + 1], x.user_powers[b:b + 1],
                                     x.blocklength[b:b + 1], x.retransmissions[b:b + 1],
                                     arrival_rates=tuple(rates[:, b].tolist()))
        assert same_metrics(alone.column(0), chain.column(b))

    # one rate for user 1 stands for a row of that rate
    rates[0] = rates[0, 0]
    mixed = model.evaluate_block(x.weights, x.user_powers, x.blocklength,
                                 x.retransmissions,
                                 arrival_rates=[rates[0, 0], *rates[1:]])
    assert same_metrics(mixed, model.evaluate_block(
        x.weights, x.user_powers, x.blocklength, x.retransmissions, arrival_rates=rates))


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
    report = model.evaluate(best.amplitudes, best.phases, best.user_powers,
                            best.blocklength, best.retransmissions)
    assert same_metrics(report, result.best_report)


def test_one_arrival_rate_per_user_required():
    scenario = make_scenario()
    with pytest.raises(ValueError, match="one arrival rate per user required"):
        make_model(RisGeometry(2, 2), scenario, arrival_rates=(500.0,))
    model = make_model(RisGeometry(2, 2), scenario)
    with pytest.raises(ValueError, match="one arrival rate per user required"):
        model.queue_block([108], [1], arrival_rates=(1.0, 2.0, 3.0))


@pytest.mark.parametrize("call,message", [
    (lambda model: model.ris_output_power(np.ones(4), (1e-3,)),
     "one transmit power per user required"),
    (lambda model: model.ris_output_power(np.ones(4), [[1e-3, 2e-3]]),
     "one transmit power per user required"),
    (lambda model: model.ris_output_power(np.ones(4), (1e-3, 0.0)),
     "user powers must be positive and finite"),
    (lambda model: model.ris_output_power(np.ones((2, 4)), (1e-3, 2e-3)),
     "1-D or 2-D arrays of equal shape"),
    (lambda model: model.ris_output_power(np.ones(1), (1e-3, 2e-3)),
     "1-D or 2-D arrays of equal shape"),
    (lambda model: model.sjnr(np.ones((3, 4)), np.zeros((3, 4)), np.full((2, 2), 1e-3)),
     r"^weights \(3 rows\) and powers \(2 rows\) must have one row, "
     "or the same number of rows$"),
    (lambda model: model.evaluate(np.ones((2, 4)), np.zeros((2, 4)), (1e-3, 2e-3), 108, 1),
     "^one point takes 1-D amplitudes and phases$"),
], ids=["one-power-for-two-users", "block-of-powers", "zero-power", "block-of-beams",
        "one-amplitude-for-four-elements", "three-beams-for-two-power-rows",
        "block-of-beams-for-one-point"])
def test_model_rejects_unknown_users_and_bad_powers(call, message):
    model = make_model(RisGeometry(2, 2), make_scenario())
    with pytest.raises(ValueError, match=message):
        call(model)


@pytest.mark.parametrize("bad,message", [
    ({"retransmissions": [1, 1]}, "^retransmissions must have one entry per blocklength$"),
    ({"weights": np.ones((2, 4), complex)},
     "^weights must have one row, or one per blocklength$"),
    ({"weights": np.ones((3, 5), complex)},
     "^channel vectors and beamforming must share one element count$"),
    ({"powers": np.full((2, 2), 1e-3)}, "^powers must have one row, or one per blocklength$"),
    ({"weights": np.full((3, 4), np.nan, complex)}, "^RIS weights must be finite$"),
    ({"blocklengths": [[108], [120], [132]], "retransmissions": [[1], [1], [2]]},
     "^blocklengths must be a 1-D array, one entry per candidate$"),
    ({"weights": np.ones((1, 4), complex), "blocklengths": 108, "retransmissions": 1},
     "^blocklengths must be a 1-D array, one entry per candidate$"),
], ids=["retransmissions", "amplitudes", "phases", "powers", "weights-nan",
        "column-of-blocklengths", "scalar-blocklength"])
def test_evaluate_block_names_a_bad_row_count(bad, message):
    # B = 3 blocklengths; beam and power rows must number 1 or B. The ids
    # "amplitudes" and "phases" are the weights' row and element counts.
    model = make_model(RisGeometry(2, 2), make_scenario())
    block = dict(weights=np.ones((3, 4), complex),
                 powers=np.full((1, 2), 1e-3), blocklengths=[108, 120, 132],
                 retransmissions=[1, 1, 2])
    assert model.evaluate_block(**block).stable.shape == (3,)
    with pytest.raises(ValueError, match=message):
        model.evaluate_block(**dict(block, **bad))


RATE_COUNT = "^one arrival rate per user required$"
RATE_RANGE = "^arrival rates must be positive and finite$"


@pytest.mark.parametrize("rates,message", [
    ([np.full(2, 500.0), 500.0], RATE_COUNT),
    ([np.full(4, 500.0), np.full(4, 500.0)], RATE_COUNT),
    (np.full((2, 1), 500.0), RATE_COUNT),
    ([np.full(3, 500.0)], RATE_COUNT),
    (np.full((3, 3), 500.0), RATE_COUNT),
    ([500.0, [500.0, 0.0, 500.0]], RATE_RANGE),
    ([500.0, [500.0, -1.0, 500.0]], RATE_RANGE),
    (np.array([[500.0, np.nan, 500.0], [500.0] * 3]), RATE_RANGE),
    ([np.inf, [500.0] * 3], RATE_RANGE),
], ids=["short-array", "long-arrays", "one-column", "one-user", "three-users",
        "zero", "negative", "nan", "inf"])
def test_evaluate_block_rejects_a_bad_rate_block(rates, message):
    # B = 3 candidates of two users: each user's entry is one rate or three
    model = make_model(RisGeometry(2, 2), make_scenario())
    block = dict(weights=np.ones((3, 4), complex), powers=np.full((1, 2), 1e-3),
                 blocklengths=[108, 120, 132], retransmissions=[1, 1, 2])
    ok = model.evaluate_block(**block, arrival_rates=[500.0, np.full(3, 400.0)])
    assert ok.stable.all()
    with pytest.raises(ValueError, match=message):
        model.evaluate_block(**block, arrival_rates=rates)


def test_small_run_is_pinned():
    # recorded from the GA with interleaved phasor genes, whole-element
    # crossover, the exact disc projection and SIC-balanced seeds only; it
    # guards the random draw order, the repair and the ranking, generation
    # by generation
    model = make_model(RisGeometry(2, 2), make_scenario(
        jammer_power=5e-4, user_dirs=[(1.0, -0.3), (np.pi / 2, -0.1)]))
    result = run_ga(model, ConstraintSet(p_min=1e-4, nb_min=60, nb_max=160),
                    GaSettings(rng_seed=7, population_size=40, max_generations=15))
    assert result.fitness_history == [3.898872899999652e-08] * 4 + [
        3.332061769446539e-08] * 3 + [3.3320617694464114e-08] * 4 + [
        9.301244314300974e-09] * 3 + [8.5036060877923e-09]
    assert result.mean_history == [
        9.249999999999999e+29, 8.75e+29, 8.75e+29, 8.249999999999999e+29, 7.25e+29,
        6.750000000000001e+29, 5e+29, 4.0000000000000004e+29, 4.25e+29,
        3.5000000000000005e+29, 3.0000000000000003e+29, 2.75e+29, 3.25e+29,
        3.7500000000000004e+29, 3.0000000000000003e+29]
    assert result.feasible_fraction_history == [
        0.075, 0.125, 0.125, 0.175, 0.275, 0.325, 0.5, 0.6, 0.575, 0.65, 0.7, 0.725,
        0.675, 0.625, 0.7]
    best = result.best_solution
    assert best.user_powers == (0.0008568011753488956, 0.0036359705656486287)
    assert best.phases == (2.169622723572744, 2.592251001214303,
                           2.46328592943975, 3.1858185183903576)
    assert best.amplitudes == (100.0, 0.7347222824457281,
                               1.8277661217147356, 86.3316914488316)
    assert (best.blocklength, best.retransmissions) == (129, 1)
    assert result.best_eta == 117597168.73945878
    assert result.best_objective == 8.5036060877923e-09
