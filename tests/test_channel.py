import numpy as np
import pytest

from risjam.channel import (MAX_ELEMENTS, Direction, RisGeometry, array_response,
                            element_positions, jammer_direct_channel,
                            ris_bs_channel, ris_jammer_channel, ris_ue_channel,
                            wave_vector)
from risjam.units import SPEED_OF_LIGHT

from conftest import make_scenario

# Geometry whose wavelength is exactly 0.0107 m (reference table value)
GEOM_0107 = RisGeometry(2, 2, 0.25, 0.25, SPEED_OF_LIGHT / 0.0107)


def random_direction(rng):
    return Direction(rng.uniform(-np.pi, np.pi), rng.uniform(-np.pi, np.pi))


class TestElementPosition:
    def test_first_element_at_origin(self):
        for geom in (GEOM_0107, RisGeometry(3, 5)):
            assert np.array_equal(element_positions(geom)[0], np.zeros(3))

    def test_second_element_offset_row(self):
        pos = element_positions(GEOM_0107)[2 - 1]
        assert pos == pytest.approx([0.0, 0.25 * 0.0107, 0.0], rel=1e-12)

    def test_third_element_offset_column(self):
        pos = element_positions(GEOM_0107)[3 - 1]
        assert pos == pytest.approx([0.0, 0.0, 0.25 * 0.0107], rel=1e-12)

    def test_positions_form_distinct_grid(self):
        geom = RisGeometry(3, 4)
        pos = element_positions(geom)
        assert pos.shape == (12, 3)
        cells = {(round(p[1] / geom.element_width),
                  round(p[2] / geom.element_height)) for p in pos}
        assert cells == {(r, c) for r in range(3) for c in range(4)}
        # element n sits in row (n-1) mod n_rows, column floor((n-1)/n_rows)
        for n in range(1, 13):
            assert np.array_equal(pos[n - 1], [
                0.0, ((n - 1) % 3) * geom.element_width,
                ((n - 1) // 3) * geom.element_height])


class TestWaveVector:
    def test_axis_aligned(self):
        assert wave_vector(Direction(0, 0), 1.0) == pytest.approx(
            [2 * np.pi, 0, 0], abs=1e-12)
        assert wave_vector(Direction(np.pi / 2, 0), 1.0) == pytest.approx(
            [0, 2 * np.pi, 0], abs=1e-12)

    def test_diagonal_direction(self):
        zeta = wave_vector(Direction(np.pi / 4, -np.pi / 4), 0.0107)
        scale = 2 * np.pi / 0.0107
        assert zeta == pytest.approx(
            [0.5 * scale, 0.5 * scale, -np.sqrt(2) / 2 * scale], rel=1e-12)

    def test_norm_is_two_pi_over_wavelength(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            wl = rng.uniform(1e-3, 10.0)
            zeta = wave_vector(random_direction(rng), wl)
            assert np.linalg.norm(zeta) == pytest.approx(2 * np.pi / wl, rel=1e-12)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            wave_vector(Direction(0, 0), 0.0)
        with pytest.raises(ValueError):
            wave_vector(Direction(0, 0), float("inf"))
        with pytest.raises(ValueError):
            Direction(float("nan"), 0.0)


class TestArrayResponse:
    def test_first_entry_is_exactly_one(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            geom = RisGeometry(int(rng.integers(1, 5)), int(rng.integers(1, 5)))
            a = array_response(geom, random_direction(rng))
            assert a[0] == 1 + 0j

    def test_unit_modulus_everywhere(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            geom = RisGeometry(int(rng.integers(1, 7)), int(rng.integers(1, 7)),
                               rng.uniform(0.1, 1.0), rng.uniform(0.1, 1.0),
                               rng.uniform(1e9, 1e11))
            a = array_response(geom, random_direction(rng))
            assert np.max(np.abs(np.abs(a) - 1.0)) < 1e-12

    def test_quarter_wavelength_broadside(self):
        # y-displaced element at quarter-wavelength spacing picks up pi/2
        a = array_response(RisGeometry(2, 2, 0.25, 0.25), Direction(np.pi / 2, 0))
        assert a[1] == pytest.approx(1j, abs=1e-12)

    def test_degenerate_elevation_leaves_only_z_phases(self):
        geom = RisGeometry(3, 3)
        direction = Direction(0.7, np.pi / 2)  # cos(elevation) ~ 0
        a = array_response(geom, direction)
        z = element_positions(geom)[:, 2]
        expected = np.exp(1j * (2 * np.pi / geom.wavelength) * np.sin(np.pi / 2) * z)
        assert np.max(np.abs(a - expected)) < 1e-12


class TestChannels:
    def test_ue_channel_magnitude(self):
        scen = make_scenario()
        g1 = ris_ue_channel(GEOM_0107, scen, 1)
        assert np.abs(g1) == pytest.approx(np.full(4, 1.5811388300841898), rel=1e-12)

    def test_zero_exponent_and_reference_distance(self):
        scen = make_scenario(path_loss_exp=0.0)
        assert np.abs(ris_ue_channel(GEOM_0107, scen, 1)) == pytest.approx(
            np.full(4, np.sqrt(1000.0)), rel=1e-12)
        scen_ref = make_scenario(dist_ris_ue=(1.0, 1.0))
        assert np.abs(ris_ue_channel(GEOM_0107, scen_ref, 2)) == pytest.approx(
            np.full(4, np.sqrt(1000.0)), rel=1e-12)

    def test_unknown_user_index(self):
        with pytest.raises(ValueError):
            ris_ue_channel(GEOM_0107, make_scenario(), 3)

    def test_bs_channel_magnitude_and_common_phase(self):
        scen = make_scenario()
        vec = ris_bs_channel(GEOM_0107, scen)
        assert np.abs(vec) == pytest.approx(np.full(4, 7.905694150420948), rel=1e-12)
        expected_first = 7.905694150420948 * np.exp(-2j * np.pi * 4.0 / 0.0107)
        assert vec[0] == pytest.approx(expected_first, rel=1e-12)

    def test_jammer_direct_magnitude(self):
        assert abs(jammer_direct_channel(GEOM_0107, make_scenario())) == pytest.approx(
            1.0540925533894598, rel=1e-12)

    def test_jammer_direct_integer_wavelengths_is_real_positive(self):
        geom = RisGeometry(1, 1, carrier_freq=SPEED_OF_LIGHT)  # wavelength 1 m
        h = jammer_direct_channel(geom, make_scenario())  # 30 m away
        assert h.real > 0
        assert abs(h.imag) < 1e-10

    def test_ris_jammer_matches_direct_on_first_entry(self):
        scen = make_scenario()
        gj = ris_jammer_channel(GEOM_0107, scen)
        assert np.abs(gj) == pytest.approx(np.full(4, 1.0540925533894598), rel=1e-12)
        assert gj[0] == pytest.approx(jammer_direct_channel(GEOM_0107, scen), rel=1e-12)

    def test_ris_jammer_single_element_reduces_to_scalar(self):
        geom = RisGeometry(1, 1, carrier_freq=SPEED_OF_LIGHT / 0.0107)
        scen = make_scenario()
        assert ris_jammer_channel(geom, scen)[0] == pytest.approx(
            jammer_direct_channel(geom, scen), rel=1e-12)

    def test_ris_jammer_distance_override(self):
        scen = make_scenario(dist_ris_jammer=60.0)
        assert scen.effective_dist_ris_jammer == 60.0
        gj = ris_jammer_channel(GEOM_0107, scen)
        assert np.abs(gj[0]) == pytest.approx(np.sqrt(1000.0 / 3600.0), rel=1e-12)
        # direct jammer-BS path keeps the original distance
        assert abs(jammer_direct_channel(GEOM_0107, scen)) == pytest.approx(
            1.0540925533894598, rel=1e-12)

    def test_doubling_distance_halves_magnitude(self):
        near = make_scenario(dist_ris_ue=(10.0, 25.0))
        far = make_scenario(dist_ris_ue=(20.0, 25.0))
        ratio = np.abs(ris_ue_channel(GEOM_0107, far, 1)) / \
            np.abs(ris_ue_channel(GEOM_0107, near, 1))
        assert ratio == pytest.approx(np.full(4, 0.5), rel=1e-12)


class TestValidation:
    def test_geometry_rejects_bad_values(self):
        with pytest.raises(ValueError):
            RisGeometry(0, 2)
        with pytest.raises(ValueError):
            RisGeometry(2, 2, spacing_h=0.0)
        with pytest.raises(ValueError):
            RisGeometry(2, 2, carrier_freq=-1.0)
        assert RisGeometry(1, MAX_ELEMENTS).n_elements == 2 ** 20
        for rows, cols in [(1, MAX_ELEMENTS + 1), (10 ** 6, 10 ** 6)]:
            with pytest.raises(ValueError, match="is above 2\\*\\*20"):
                RisGeometry(rows, cols)

    def test_scenario_rejects_bad_values(self):
        with pytest.raises(ValueError):
            make_scenario(path_gain_ref=0.0)
        with pytest.raises(ValueError):
            make_scenario(dist_jammer=-3.0)
        with pytest.raises(ValueError):
            make_scenario(dist_ris_ue=(20.0,))  # two dirs, one distance
        with pytest.raises(ValueError):
            make_scenario(jammer_power=-1e-3)
        with pytest.raises(ValueError, match="at least one user required"):
            make_scenario(n_users=0)
