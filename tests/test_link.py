import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from risjam import link
from risjam.config import load_config
from risjam.link import (ERFC_TWO_UPTO, ERFC_ZERO_FROM, NoiseConfig, _sic_sjnr,
                         beam_terms, bler, co_phasing_phases, polar_weights,
                         q_function, reliability, replica_success,
                         sic_balanced_weights, sjnr_all)
from risjam.sweeps import build_model


def sjnr_scalar_oracle(ue, bs, h_direct, g_jam, amps, phases, powers,
                       jam_power, ris_var, awgn_var, k):
    """Element-by-element evaluation of the SJNR, independent of numpy."""
    n = len(bs)
    n_users = len(ue)
    weights = [bs[i] * math.sqrt(amps[i]) * cmath.exp(1j * phases[i]) for i in range(n)]
    cascade = []
    for u in range(n_users):
        acc = 0j
        for i in range(n):
            acc += weights[i] * ue[u][i]
        cascade.append(abs(acc) ** 2)
    interference = 0.0
    for u in range(k, n_users):
        interference += powers[u] * cascade[u]
    jam_sum = 0j
    for i in range(n):
        jam_sum += weights[i] * g_jam[i]
    jamming = jam_power * abs(h_direct + jam_sum) ** 2
    weight_norm = 0.0
    for i in range(n):
        weight_norm += abs(weights[i]) ** 2
    denom = interference + jamming + weight_norm * ris_var + awgn_var
    return powers[k - 1] * cascade[k - 1] / denom


def random_instance(rng, n_max=8, k_max=3):
    n = int(rng.integers(1, n_max + 1))
    n_users = int(rng.integers(1, k_max + 1))
    cplx = lambda shape: rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return dict(
        ue=cplx((n_users, n)),
        bs=cplx(n),
        h_direct=complex(cplx(())),
        g_jam=cplx(n),
        amps=rng.uniform(0, 50, n),
        phases=rng.uniform(0, 2 * np.pi, n),
        powers=tuple(rng.uniform(1e-4, 0.1, n_users)),
        jam_power=float(rng.uniform(0, 0.01)),
        ris_var=float(rng.uniform(0, 1e-10)),
        awgn_var=float(rng.uniform(1e-14, 1e-10)),
    )


def vectorized(inst, k):
    return sjnr_all(inst["ue"], inst["bs"], inst["h_direct"], inst["g_jam"],
                    polar_weights(inst["amps"], inst["phases"]), inst["powers"],
                    inst["jam_power"], NoiseConfig(inst["ris_var"], inst["awgn_var"]))[k - 1]


class TestSjnr:
    def test_hand_case_single_element(self):
        value = sjnr_all(np.array([[1.0 + 0j]]), np.array([1.0 + 0j]), 0j,
                         np.array([0j]), np.array([2.0 + 0j]), (1.0,), 0.0,
                         NoiseConfig(0.0, 1.0))
        assert value.shape == (1,)
        assert value[0] == pytest.approx(4.0, rel=1e-12)

    def test_zero_amplitudes_zero_sjnr(self):
        rng = np.random.default_rng(2)
        inst = random_instance(rng)
        inst["amps"] = np.zeros_like(inst["amps"])
        for k in range(1, len(inst["powers"]) + 1):
            assert vectorized(inst, k) == 0.0

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            inst = random_instance(rng)
            for k in range(1, len(inst["powers"]) + 1):
                expected = sjnr_scalar_oracle(
                    inst["ue"], inst["bs"], inst["h_direct"], inst["g_jam"],
                    inst["amps"], inst["phases"], inst["powers"],
                    inst["jam_power"], inst["ris_var"], inst["awgn_var"], k)
                assert vectorized(inst, k) == pytest.approx(expected, rel=1e-10)

    def test_sjnr_all_matches_per_user(self):
        # user k's SJNR depends only on users k..K: evaluating the users that
        # remain after SIC on their own gives user k the same value
        rng = np.random.default_rng(3)
        for _ in range(20):
            inst = random_instance(rng)
            n_users = len(inst["powers"])
            for k in range(1, n_users + 1):
                remaining = dict(inst, ue=inst["ue"][k - 1:],
                                 powers=inst["powers"][k - 1:])
                assert vectorized(inst, k) == pytest.approx(
                    vectorized(remaining, 1), rel=1e-12)

    def test_sic_interference_structure(self):
        rng = np.random.default_rng(4)
        inst = random_instance(rng, k_max=3)
        while len(inst["powers"]) < 2:
            inst = random_instance(rng, k_max=3)
        n_users = len(inst["powers"])
        first_up = dict(inst)
        first_up["powers"] = tuple(
            p * 10 if i == 0 else p for i, p in enumerate(inst["powers"]))
        # user 1 is already cancelled when user K decodes
        assert vectorized(first_up, n_users) == pytest.approx(
            vectorized(inst, n_users), rel=1e-12)
        assert vectorized(first_up, 1) > vectorized(inst, 1)

        last_up = dict(inst)
        last_up["powers"] = tuple(
            p * 10 if i == n_users - 1 else p for i, p in enumerate(inst["powers"]))
        # user K's power is residual interference for user 1
        assert vectorized(last_up, 1) < vectorized(inst, 1)
        assert vectorized(last_up, n_users) > vectorized(inst, n_users)

    def test_mismatched_lengths_error(self):
        cases = [(3, 2, 2, (1.0,)),        # user channels longer than the BS channel
                 (2, 3, 2, (1.0,)),        # jammer channel
                 (2, 2, 3, (1.0,)),        # beam
                 (2, 2, 2, (1.0, 2.0))]    # two powers for one user
        for n_ue, n_jam, n_beam, powers in cases:
            with pytest.raises(ValueError):
                sjnr_all(np.ones((1, n_ue), complex), np.ones(2, complex), 0j,
                         np.ones(n_jam, complex),
                         np.ones(n_beam, complex), powers, 0.0, NoiseConfig(0.0, 1.0))

    def test_overflowing_jamming_floor_raises(self):
        # the received powers stay finite while the jamming floor overflows,
        # so every SJNR alone would read exactly 0
        args = (np.ones((2, 4), complex), np.ones(4, complex), 100 + 0j, np.ones(4, complex),
                np.ones(4, complex), (1.0, 1.0))
        assert np.all(sjnr_all(*args, 1e300, NoiseConfig(0.0, 1.0)) > 0)
        with pytest.raises(OverflowError, match="interference-plus-noise power or SJNR"):
            sjnr_all(*args, 1e307, NoiseConfig(0.0, 1.0))

    def test_monotonicity_in_power_jammer_and_noise(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            inst = random_instance(rng)
            n_users = len(inst["powers"])
            k = int(rng.integers(1, n_users + 1))
            # co-phase to user k so its cascade is coherent
            inst["phases"] = co_phasing_phases(inst["bs"], inst["ue"][k - 1])
            base = vectorized(inst, k)

            more_power = dict(inst)
            more_power["powers"] = tuple(
                p * 1.5 if i == k - 1 else p for i, p in enumerate(inst["powers"]))
            assert vectorized(more_power, k) >= base

            more_jam = dict(inst)
            more_jam["jam_power"] = inst["jam_power"] * 2 + 1e-6
            assert vectorized(more_jam, k) <= base

            more_noise = dict(inst)
            more_noise["awgn_var"] = inst["awgn_var"] * 10
            assert vectorized(more_noise, k) <= base

    def test_co_phasing_beats_random_draws(self):
        rng = np.random.default_rng(11)
        n = 6
        bs = rng.normal(size=n) + 1j * rng.normal(size=n)
        ue = rng.normal(size=n) + 1j * rng.normal(size=n)
        amps = rng.uniform(0.5, 10.0, n)
        aligned = co_phasing_phases(bs, ue)
        weights = np.sqrt(amps) * np.exp(1j * aligned)
        best = np.abs(np.sum(bs * weights * ue)) ** 2
        for _ in range(1000):
            phases = rng.uniform(0, 2 * np.pi, n)
            value = np.abs(np.sum(bs * np.sqrt(amps) * np.exp(1j * phases) * ue)) ** 2
            assert value <= best * (1 + 1e-12)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestBeamTerms:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n_users=st.integers(1, 3),
           n=st.integers(1, 12), n_beams=st.integers(0, 12), rows=st.integers(1, 4))
    @example(seed=0, n_users=2, n=5, n_beams=0, rows=1)
    def test_sjnr_all_is_sic_sjnr_over_the_beam_terms(self, seed, n_users, n,
                                                      n_beams, rows):
        rng = np.random.default_rng(seed)
        cplx = lambda shape: rng.normal(size=shape) + 1j * rng.normal(size=shape)
        ue, bs, jammer = cplx((n_users, n)), cplx(n), cplx(n)
        weights = cplx((n_beams, n))
        powers = rng.uniform(1e-4, 0.1, (n_beams, n_users))
        rest = (complex(cplx(())), float(rng.uniform(0, 0.01)),
                NoiseConfig(float(rng.uniform(0, 1e-10)), float(rng.uniform(1e-14, 1e-10))))
        whole = beam_terms(ue, bs, jammer, weights)
        assert [t.shape for t in whole] == [(n_users, n_beams), (n_beams,), (n_beams,)]

        # row blocks of a few beams, and each beam alone
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(link, "BLOCK_CELLS", rows * n)
            blocked = beam_terms(ue, bs, jammer, weights)
        assert all(same_bits(a, b) for a, b in zip(blocked, whole))
        for b in range(n_beams):
            alone = beam_terms(ue, bs, jammer, weights[b:b + 1])
            assert all(same_bits(a, t[..., b:b + 1]) for a, t in zip(alone, whole))

        gains, reflections, norms = whole
        gammas = sjnr_all(ue, bs, rest[0], jammer, weights, powers, *rest[1:])
        assert gammas.shape == (n_users, n_beams)
        assert same_bits(gammas, _sic_sjnr(powers.T * gains, reflections, norms, *rest))

        # one beam serves every power row through its (K, 1) gains
        if n_beams:
            shared = sjnr_all(ue, bs, rest[0], jammer, weights[:1], powers, *rest[1:])
            assert same_bits(shared, _sic_sjnr(powers.T * gains[:, :1], reflections[:1],
                                               norms[:1], *rest))
            for b in range(n_beams):
                assert same_bits(shared[:, b], sjnr_all(ue, bs, rest[0], jammer, weights[0],
                                                        powers[b], *rest[1:]))


class TestSicBalancedWeights:
    @staticmethod
    def cascade_gains(model, ratio):
        """|(I o G_1)^T w|, |(I o G_2)^T w| and |(I o g_J)^T w| of the
        balanced weights w."""
        weights = sic_balanced_weights(model.bs_channel, model.ue_channels,
                                       model.jammer_channel, ratio)
        channels = np.vstack([model.ue_channels, model.jammer_channel])
        return np.abs((channels * model.bs_channel) @ weights)

    @pytest.mark.parametrize("ratio", [1.0, 10.0, 1000.0])
    def test_separated_users_get_the_ratio_and_the_jammer_a_null(self, tmp_path, ratio):
        path = tmp_path / "separated.ini"
        path.write_text("[scenario]\nuser_azimuth_rad = 1.0, 1.5707963267948966\n")
        user1, user2, jammer = self.cascade_gains(build_model(load_config(path)), ratio)
        assert user1 ** 2 / user2 ** 2 == pytest.approx(ratio, rel=1e-12)
        assert jammer <= 1e-12 * user1

    @pytest.mark.parametrize("ratio", [1.0, 10.0, 1000.0])
    def test_shared_direction_keeps_the_distance_ratio(self, ratio):
        # the as-printed users share one direction, so the array cannot
        # grade them: the gain ratio stays (d2 / d1)^2 = 1.5625, the SIC cap
        user1, user2, _ = self.cascade_gains(build_model(load_config()), ratio)
        assert user1 ** 2 / user2 ** 2 == pytest.approx(1.5625, rel=1e-12)

    def test_an_array_of_ratios_is_one_beam_per_ratio(self, tmp_path):
        # one solve with a column per ratio; LAPACK may round it apart from
        # the solves for each ratio alone by a few ulps
        path = tmp_path / "separated.ini"
        path.write_text("[scenario]\nuser_azimuth_rad = 1.0, 1.5707963267948966\n")
        model = build_model(load_config(path))
        channels = model.bs_channel, model.ue_channels, model.jammer_channel
        ratios = np.logspace(0.0, 3.0, 7)
        beams = sic_balanced_weights(*channels, ratios)
        assert beams.shape == (7, model.n_elements)
        for beam, ratio in zip(beams, ratios):
            single = sic_balanced_weights(*channels, ratio)
            assert single.shape == (model.n_elements,)
            np.testing.assert_allclose(beam, single, rtol=1e-12, atol=0.0)
        assert sic_balanced_weights(*channels, np.empty(0)).shape == (0, model.n_elements)


class TestQFunction:
    def test_half_at_zero(self):
        assert q_function(0.0) == 0.5

    def test_far_tail_underflows_gracefully(self):
        assert q_function(40.0) <= 1e-300

    def test_gaussian_quantile(self):
        # 97.5% quantile of the standard normal
        assert q_function(1.959964) == pytest.approx(0.025, abs=1e-6)

    def test_symmetry(self):
        for x in np.linspace(-8, 8, 161):
            assert q_function(x) + q_function(-x) == pytest.approx(1.0, abs=1e-12)

    @staticmethod
    def libm_q(xs):
        return np.array([0.5 * math.erfc(x / math.sqrt(2.0)) for x in xs])

    @staticmethod
    def walk(x, steps):
        """``steps`` floats on each side of ``x``, spaced one ulp apart."""
        below, above = [x], [x]
        for _ in range(steps):
            below.append(np.nextafter(below[-1], -np.inf))
            above.append(np.nextafter(above[-1], np.inf))
        return np.array(below[::-1] + above[1:])

    def test_saturation_points_are_where_libm_erfc_saturates(self):
        assert math.erfc(ERFC_TWO_UPTO) == 2.0
        assert math.erfc(np.nextafter(ERFC_TWO_UPTO, np.inf)) < 2.0
        assert math.erfc(ERFC_ZERO_FROM) == 0.0
        assert math.erfc(np.nextafter(ERFC_ZERO_FROM, -np.inf)) > 0.0

    def test_bits_of_libm_erfc_on_a_dense_grid(self):
        edges = np.concatenate([self.walk(z * math.sqrt(2.0), 200)
                                for z in (ERFC_TWO_UPTO, ERFC_ZERO_FROM)])
        # x/sqrt(2) hits each saturation point and its unsaturated neighbour
        assert {ERFC_TWO_UPTO, np.nextafter(ERFC_TWO_UPTO, np.inf),
                ERFC_ZERO_FROM, np.nextafter(ERFC_ZERO_FROM, -np.inf)} <= set(
                    (edges / math.sqrt(2.0)).tolist())
        xs = np.concatenate([np.linspace(-60.0, 60.0, 240_001), edges,
                             [-np.inf, np.inf, -1e300, 1e300, 0.0, -0.0]])
        assert q_function(xs).tobytes() == self.libm_q(xs).tobytes()

    def test_same_bits_alone_in_a_slice_and_in_a_grid(self):
        xs = np.random.default_rng(9).uniform(-12.0, 42.0, 1200)
        grid = q_function(xs.reshape(30, 40))
        assert grid.shape == (30, 40)
        flat = grid.ravel()
        for i, x in enumerate(xs):
            alone = q_function(x)
            assert isinstance(alone, np.float64)
            assert alone == flat[i] == q_function(xs[i:i + 1])[0]
            assert q_function(float(x)) == alone

    def test_nan_propagates(self):
        assert np.isnan(q_function(np.nan))
        values = q_function(np.array([np.nan, 0.0, np.nan]))
        assert np.isnan(values[0]) and values[1] == 0.5 and np.isnan(values[2])

    def test_matches_50_digit_erfc_down_to_the_normal_range(self):
        import mpmath
        mpmath.mp.dps = 50
        for x in np.linspace(-8.0, 37.0, 1501):
            exact = mpmath.erfc(mpmath.mpf(float(x)) / mpmath.sqrt(2)) / 2
            assert abs(q_function(x) / exact - 1) <= 1e-12, x


class TestBler:
    def test_capacity_equals_rate_gives_half(self):
        # log2(1 + 1) == 1.0 and log2(1 + 3) == 2.0 exactly in floating point
        assert bler(1.0, 100, 100) == 0.5
        assert bler(3.0, 50, 100) == 0.5

    def test_zero_sjnr_is_certain_error(self):
        assert bler(0.0, 100, 50) == 1.0

    def test_reference_value(self):
        # frozen from a 50-digit erfc evaluation of the same expression
        assert bler(1.0, 100, 50) == pytest.approx(
            3.141964004150747e-05, rel=1e-10)

    def test_monotone_decreasing_in_sjnr(self):
        gammas = np.linspace(0.0, 20.0, 300)
        values = bler(gammas, 200, 100)
        assert np.all(np.diff(values) <= 1e-15)
        assert np.all((values >= 0) & (values <= 1))

    def test_monotone_in_blocklength_at_fixed_rate(self):
        # below capacity, longer blocks at the same rate decode better
        previous = 1.0
        for nb in (50, 100, 200, 400, 800):
            eps = bler(1.0, nb, nb // 2)
            assert eps <= previous
            previous = eps

    def test_rejects_negative_sjnr(self):
        with pytest.raises(ValueError):
            bler(-0.5, 100, 50)

    def test_scalar_sjnr_with_integer_array_blocklengths(self):
        # each entry gets the bits of its scalar call
        values = bler(5.0, np.array([100, 108]), 256)
        assert isinstance(values, np.ndarray) and values.shape == (2,)
        assert values.tolist() == [bler(5.0, 100, 256), bler(5.0, 108, 256)]


class TestReliability:
    def test_replica_success_cases(self):
        assert replica_success([0.0, 0.0, 0.0]) == 1.0
        assert replica_success([0.1, 0.2]) == pytest.approx(0.72, rel=1e-12)
        assert replica_success([0.3, 1.0]) == 0.0

    def test_grid_matches_column_by_column(self):
        rng = np.random.default_rng(5)
        for n_users in (1, 2, 3):
            blers = rng.uniform(0.0, 1.0, (n_users, 40))
            blers[:, 0] = 0.0
            blers[-1, 1] = 1.0
            omega = replica_success(blers)
            columns = [replica_success(blers[:, j]) for j in range(40)]
            assert omega.shape == (40,)
            assert omega.tolist() == columns
            for replicas in (1, 2, 7):
                assert reliability(omega, replicas).tolist() == [
                    reliability(w, replicas) for w in columns]

    @pytest.mark.parametrize("replicas", range(1, 11))
    def test_same_bits_alone_in_a_slice_and_in_a_grid(self, replicas):
        # numpy's scalar power, its square fast path (L = 2) and its array
        # power round differently; every call shape must take the same one
        omega = np.random.default_rng(replicas).uniform(0.0, 1.0, 1000)
        grid = reliability(omega, replicas)
        assert grid.shape == omega.shape
        for i, w in enumerate(omega):
            alone = reliability(w, replicas)
            assert isinstance(alone, float)
            assert alone == grid[i] == reliability(omega[i:i + 1], replicas)[0]
            assert reliability(float(w), replicas) == alone
        assert reliability(omega, np.full(omega.shape, replicas)).tolist() == grid.tolist()

    def test_integer_array_replica_counts(self):
        omega = np.array([0.3, 0.6, 0.9])
        replicas = np.array([1, 2, 10])
        assert reliability(omega, replicas).tolist() == [
            reliability(w, int(r)) for w, r in zip(omega, replicas)]
        with pytest.raises(ValueError):
            reliability(omega, np.array([1, 0, 2]))

    def test_single_shot_equals_omega(self):
        assert reliability(0.37, 1) == pytest.approx(0.37, rel=1e-12)

    def test_two_replicas(self):
        assert reliability(0.9, 2) == pytest.approx(0.99, rel=1e-12)

    def test_urllc_scale(self):
        # frozen from an arbitrary-precision evaluation of 1 - 0.316^10
        value = reliability(0.684, 10)
        assert value == pytest.approx(0.9999900717929384, rel=1e-12)
        assert value >= 0.99999

    def test_monotone_and_bounded_below_by_omega(self):
        for omega in (0.0, 0.2, 0.5, 0.9, 1.0):
            previous = -1.0
            for replicas in range(1, 8):
                value = reliability(omega, replicas)
                assert value >= previous
                assert value >= omega - 1e-15
                previous = value
        assert reliability(0.5, 3) > reliability(0.4, 3)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            reliability(0.5, 0)
        with pytest.raises(ValueError):
            reliability(1.5, 2)
        with pytest.raises(ValueError):
            replica_success([0.2, 1.3])


def sjnr_with(powers=(1.0,), weights=np.ones(4, complex)):
    """``sjnr_all`` on four elements for one user per power (at least one)."""
    n_users = max(len(np.atleast_2d(powers)[0]), 1)
    return sjnr_all(np.ones((n_users, 4), complex), np.ones(4, complex), 0j,
                    np.ones(4, complex), weights, powers, 0.0, NoiseConfig(0.0, 1.0))


class TestContainers:
    """The arguments ``polar_weights``, ``sjnr_all``, ``bler``,
    ``replica_success`` and ``reliability`` check."""

    @pytest.mark.parametrize("build,message", [
        (lambda: polar_weights(np.ones(3), np.zeros(2)), "equal shape"),
        (lambda: polar_weights(np.ones((2, 2, 2)), np.zeros((2, 2, 2))), "equal shape"),
        (lambda: polar_weights(np.array([1.0, np.nan]), np.zeros(2)), "finite"),
        (lambda: polar_weights(np.ones(2), np.array([0.0, np.inf])), "finite"),
        (lambda: polar_weights(np.array([1.0, -1e-3]), np.zeros(2)), "non-negative"),
        (lambda: sjnr_with(weights=np.array([1, np.nan, 1, 1], complex)),
         "^RIS weights must be finite$"),
        (lambda: sjnr_with(weights=np.array([1, complex(0, np.inf), 1, 1])),
         "^RIS weights must be finite$"),
        (lambda: sjnr_with(weights=np.ones((2, 2, 4), complex)),
         "^RIS weights must be a 1-D or 2-D array$"),
        (lambda: sjnr_with(weights=np.ones(3, complex)),
         "^channel vectors and beamforming must share one element count$"),
        (lambda: sjnr_with(np.full((2, 1), 1e-3), np.ones((3, 4), complex)),
         r"^weights \(3 rows\) and powers \(2 rows\) must have one row, "
         "or the same number of rows$"),
        (lambda: sjnr_with(()), "one transmit power per user"),
        (lambda: sjnr_with((1e-3, 0.0)), "positive and finite"),
        (lambda: sjnr_with((-1e-3,)), "positive and finite"),
        (lambda: bler(1.0, 0, 256), "blocklength must be a positive integer"),
        (lambda: bler(1.0, np.array([108, 0]), 256),
         "blocklength must be a positive integer"),
        (lambda: bler(1.0, 108, 0), "payload must be a positive number of bits"),
        (lambda: bler(1.0, np.nan, 256), "blocklength must be a positive integer"),
        (lambda: bler(1.0, 108, np.nan), "payload must be a positive number of bits"),
        (lambda: bler(5.0, 100.5, 256), "blocklength must be a positive integer"),
        (lambda: bler(1.0, np.inf, 256), "blocklength must be a positive integer"),
        (lambda: replica_success([np.nan, 0.1]), r"block error rates must lie in \[0, 1\]"),
        (lambda: reliability(np.nan, 2), r"replica success probability must lie in \[0, 1\]"),
        (lambda: reliability(0.5, np.nan), "retransmission count must be a positive integer"),
        (lambda: reliability(0.5, 1.5), "retransmission count must be a positive integer"),
        (lambda: reliability(0.5, np.inf), "retransmission count must be a positive integer"),
    ], ids=["beam-shapes", "beam-3d", "beam-nan-amplitude", "beam-inf-phase",
            "beam-negative-amplitude", "weights-nan", "weights-inf-imaginary",
            "weights-3d", "weights-three-elements", "weight-rows-for-power-rows",
            "no-powers", "zero-power", "negative-power",
            "blocklength-0", "blocklength-array-0", "payload-0", "blocklength-nan",
            "payload-nan", "blocklength-fractional", "blocklength-inf",
            "blers-nan", "omega-nan", "replicas-nan", "replicas-fractional",
            "replicas-inf"])
    def test_rejects_bad_values(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()


class TestNoiseConfig:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1e-12])
    def test_rejects_bad_variances(self, bad):
        with pytest.raises(ValueError, match="non-negative and finite"):
            NoiseConfig(bad, 1e-13)
        with pytest.raises(ValueError, match="non-negative and finite"):
            NoiseConfig(1e-13, bad)
