import numpy as np
import pytest

from risjam.traffic import (FrameParams, TrafficParams, UnstableQueueError,
                            energy_efficiency, mean_delay, simulate_md1,
                            utilization)

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


class TestParamValidation:
    def test_traffic_params(self):
        with pytest.raises(ValueError):
            TrafficParams((), 1)
        with pytest.raises(ValueError):
            TrafficParams((0.0,), 1)
        with pytest.raises(ValueError):
            TrafficParams((100.0,), 0)

    def test_frame_params(self):
        with pytest.raises(ValueError):
            FrameParams(-1e-6, 180e3, 108)
        with pytest.raises(ValueError):
            FrameParams(30e-6, 0.0, 108)
