import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from risjam import traffic
from risjam.traffic import (MAX_ARRIVALS, MD1_CHUNK, FrameParams, TrafficParams,
                            UnstableQueueError, energy_efficiency, mean_delay,
                            simulate_md1, utilization)

FRAME_108 = FrameParams(header_time=30e-6, bandwidth=180e3, blocklength=108)


class TestFrameDuration:
    def test_reference_point(self):
        assert FRAME_108.duration == pytest.approx(6.3e-4, rel=1e-12)

    def test_headerless_unit_frame(self):
        assert FrameParams(0.0, 1000.0, 1000).duration == pytest.approx(1.0, rel=1e-12)

    def test_minimum_is_one_channel_use(self):
        with pytest.raises(ValueError):
            FrameParams(30e-6, 180e3, 0)
        assert FrameParams(30e-6, 180e3, 1).duration == pytest.approx(
            30e-6 + 1 / 180e3, rel=1e-12)


class TestUtilization:
    def test_operating_points(self):
        assert utilization(FRAME_108, TrafficParams((100.0,), 1), 1) == pytest.approx(
            0.063, rel=1e-12)
        assert utilization(FRAME_108, TrafficParams((1300.0,), 1), 1) == pytest.approx(
            0.819, rel=1e-12)

    def test_vanishing_load(self):
        assert utilization(FRAME_108, TrafficParams((1e-9,), 1), 1) < 1e-10

    def test_values_at_or_above_one_are_legal(self):
        rho = utilization(FRAME_108, TrafficParams((2000.0,), 1), 1)
        assert rho > 1.0

    @pytest.mark.parametrize("k", [0, 2])
    def test_rejects_user_index_out_of_range(self, k):
        with pytest.raises(ValueError, match="out of range 1..1"):
            utilization(FRAME_108, TrafficParams((100.0,), 1), k)


class TestMeanDelay:
    def test_reference_delays(self):
        # frozen closed-form values at the quoted operating points
        assert mean_delay(FRAME_108, TrafficParams((100.0,), 1), 1) == pytest.approx(
            0.000651179295624333, rel=1e-12)
        assert mean_delay(FRAME_108, TrafficParams((1300.0,), 1), 1) == pytest.approx(
            0.002055331491712707, rel=1e-12)

    def test_empty_queue_limit_is_service_time(self):
        for replicas in (1, 3):
            tau = mean_delay(FRAME_108, TrafficParams((1e-6,), replicas), 1)
            assert tau == pytest.approx(replicas * 6.3e-4, rel=1e-6)

    def test_unstable_raises_with_utilization(self):
        with pytest.raises(UnstableQueueError) as info:
            mean_delay(FRAME_108, TrafficParams((1300.0,), 2), 1)
        assert info.value.utilization == pytest.approx(1.638, rel=1e-12)
        assert info.value.user == 1

    def test_strictly_increasing_in_rate_replicas_blocklength(self):
        tau = lambda rate, replicas, nb: mean_delay(
            FrameParams(30e-6, 180e3, nb), TrafficParams((rate,), replicas), 1)
        assert tau(200, 1, 108) > tau(100, 1, 108)
        assert tau(100, 2, 108) > tau(100, 1, 108)
        assert tau(100, 1, 200) > tau(100, 1, 108)

    def test_lower_bound_and_blowup_near_saturation(self):
        service = 1 * FRAME_108.duration
        for rate in (10.0, 500.0, 1500.0):
            assert mean_delay(FRAME_108, TrafficParams((rate,), 1), 1) >= service
        near = mean_delay(FRAME_108, TrafficParams((0.9999 / service,), 1), 1)
        assert near > 1000 * service


class TestEnergyEfficiency:
    def test_back_solved_reference(self):
        eta = energy_efficiency(256, (1.0, 1.0), (2.45e-3, 2.45e-3),
                                (6.51e-4, 6.51e-4))
        assert eta == pytest.approx(160506598.95294523, rel=1e-12)

    def test_zero_reliability_zero_efficiency(self):
        assert energy_efficiency(256, (0.0, 0.0), (1e-3, 2e-3), (1e-3, 1e-3)) == 0.0

    def test_power_scaling_halves(self):
        base = energy_efficiency(256, (1.0, 0.9), (1e-3, 2e-3), (5e-4, 6e-4))
        double = energy_efficiency(256, (1.0, 0.9), (2e-3, 4e-3), (5e-4, 6e-4))
        assert double == pytest.approx(base / 2, rel=1e-12)

    def test_payload_scaling_is_linear(self):
        base = energy_efficiency(256, (1.0, 0.9), (1e-3, 2e-3), (5e-4, 6e-4))
        triple = energy_efficiency(768, (1.0, 0.9), (1e-3, 2e-3), (5e-4, 6e-4))
        assert triple == pytest.approx(3 * base, rel=1e-12)

    def test_rejects_degenerate_inputs(self):
        with pytest.raises(ValueError):
            energy_efficiency(256, (1.0,), (0.0,), (1e-3,))
        with pytest.raises(ValueError):
            energy_efficiency(256, (1.0,), (1e-3,), (float("inf"),))
        with pytest.raises(ValueError):
            energy_efficiency(256, (1.0, 1.0), (1e-3,), (1e-3,))


class TestDiscreteEventQueue:
    def test_matches_closed_form_at_half_load(self):
        service = FRAME_108.duration
        rate = 0.5 / service
        analytic = mean_delay(FRAME_108, TrafficParams((rate,), 1), 1)
        simulated = simulate_md1(rate, service, 200_000, seed=99)
        assert simulated == pytest.approx(analytic, rel=0.02)

    def test_seed_determinism(self):
        a = simulate_md1(100.0, 1e-3, 10_000, seed=5)
        b = simulate_md1(100.0, 1e-3, 10_000, seed=5)
        assert a == b

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            simulate_md1(0.0, 1e-3, 100, seed=1)
        with pytest.raises(ValueError):
            simulate_md1(100.0, -1.0, 100, seed=1)
        with pytest.raises(ValueError):
            simulate_md1(100.0, 1e-3, 0, seed=1)
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                simulate_md1(bad, 1e-3, 100, seed=1)
            with pytest.raises(ValueError):
                simulate_md1(100.0, bad, 100, seed=1)

    def test_rejects_more_arrivals_than_it_can_hold(self):
        with pytest.raises(OverflowError, match=r"^67108865 arrivals is above 2\*\*26$"):
            simulate_md1(100.0, 1e-3, MAX_ARRIVALS + 1, seed=1)

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 2000), rho=st.floats(1e-3, 2.0),
           service=st.floats(1e-6, 1.0), seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_per_packet_reference(self, n, rho, service, seed):
        # the same arrivals walked packet by packet through Lindley's
        # recursion, including overloaded queues (rho > 1)
        rate = rho / service
        gaps = np.random.default_rng(seed).exponential(1.0 / rate, size=n)
        clock = server_free_at = total = 0.0
        for gap in gaps:
            clock += gap
            server_free_at = max(clock, server_free_at) + service
            total += server_free_at - clock
        assert simulate_md1(rate, service, n, seed) == pytest.approx(
            total / n, rel=1e-9, abs=0.0)


def lindley_mean_sojourn(rate, service, n, seed):
    """Mean sojourn of the same arrivals by Lindley's waiting-time recursion
    W_i = max(0, W_{i-1} + S - X_i), packet by packet in Python floats and
    summed exactly with ``math.fsum``; no term is a difference of two
    arrival times."""
    gaps = np.random.default_rng(seed).exponential(1.0 / rate, size=n).tolist()
    wait, sojourns = 0.0, [service]
    for gap in gaps[1:]:
        wait = max(0.0, wait + service - gap)
        sojourns.append(wait + service)
    return math.fsum(sojourns) / n


class TestChunkedWalk:
    """``simulate_md1`` walks the sample path ``MD1_CHUNK`` arrivals at a
    time; its result must not depend on where the chunks end."""

    @pytest.mark.parametrize("rho", [0.1, 0.95, 1.5])
    @pytest.mark.parametrize("n", [MD1_CHUNK - 1, MD1_CHUNK, MD1_CHUNK + 1,
                                   3 * MD1_CHUNK + 7])
    def test_chunk_boundaries_match_the_per_packet_reference(self, n, rho):
        service = 6.3e-4
        assert simulate_md1(rho / service, service, n, seed=n) == pytest.approx(
            lindley_mean_sojourn(rho / service, service, n, seed=n), rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("rho", [0.1, 0.95, 1.5])
    def test_chunk_size_moves_only_the_summation(self, monkeypatch, rho):
        # the walk's positions and maxima have the same bits for every chunk
        # size; only the grouping of the final sum differs
        service, n = 1e-3, MD1_CHUNK + 7
        results = []
        for chunk in (1, 7, 1 << 14):
            monkeypatch.setattr(traffic, "MD1_CHUNK", chunk)
            results.append(simulate_md1(rho / service, service, n, seed=3))
        assert max(results) == pytest.approx(min(results), rel=1e-13, abs=0.0)

    def test_long_path_matches_an_exactly_summed_reference(self):
        service, n = 6.3e-4, 2 ** 17
        rate = 0.8 / service
        assert simulate_md1(rate, service, n, seed=2) == pytest.approx(
            lindley_mean_sojourn(rate, service, n, seed=2), rel=1e-12, abs=0.0)


class TestParamValidation:
    def test_traffic_params(self):
        with pytest.raises(ValueError):
            TrafficParams((), 1)
        with pytest.raises(ValueError):
            TrafficParams((0.0,), 1)
        with pytest.raises(ValueError):
            TrafficParams((100.0,), 0)

    def test_traffic_params_take_a_block_of_rates(self):
        rates = np.array([[100.0, 1300.0], [200.0, 300.0]])
        frame = FrameParams(30e-6, 180e3, np.array([108, 108]))
        block = TrafficParams(rates, np.array([1, 1]))
        for k in (1, 2):
            expected = [utilization(FRAME_108, TrafficParams(tuple(rates[:, b]), 1), k)
                        for b in (0, 1)]
            assert utilization(frame, block, k).tolist() == expected
        for bad in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="^arrival rates must be positive and finite$"):
                TrafficParams(np.array([[100.0, bad], [200.0, 300.0]]), 1)

    def test_frame_params(self):
        with pytest.raises(ValueError):
            FrameParams(-1e-6, 180e3, 108)
        with pytest.raises(ValueError):
            FrameParams(30e-6, 0.0, 108)

    # a NaN count used to turn mean_delay into nan, and L = 1.5 gave a delay
    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1.5, np.array([2, np.nan])],
                             ids=["nan", "inf", "fractional", "nan-entry"])
    @pytest.mark.parametrize("build,message", [
        (lambda bad: FrameParams(30e-6, 180e3, bad), "blocklength must be a positive integer"),
        (lambda bad: TrafficParams((100.0,), bad),
         "retransmission count must be a positive integer"),
    ], ids=["blocklength", "retransmissions"])
    def test_counts_must_be_positive_integers(self, build, message, bad):
        with pytest.raises(ValueError, match=message):
            build(bad)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("build", [
        lambda bad: FrameParams(bad, 180e3, 108),
        lambda bad: FrameParams(30e-6, bad, 108),
        lambda bad: TrafficParams((bad,), 1),
        lambda bad: TrafficParams((500.0, bad), 1),
    ], ids=["header_time", "bandwidth", "arrival_rate", "second_arrival_rate"])
    def test_non_finite_values_rejected(self, build, bad):
        # a nan used to pass the sign checks and turn mean_delay into nan
        with pytest.raises(ValueError, match="finite"):
            build(bad)
