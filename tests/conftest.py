import numpy as np
import pytest

from risjam.channel import Direction, LinkScenario, RisGeometry
from risjam.link import NoiseConfig
from risjam.model import SystemModel
from risjam.optimizer import ConstraintSet
from risjam.units import dbm_to_watts


def make_scenario(n_users=2, jammer_power=5e-3, user_dirs=None, **overrides):
    """Reference-style scenario; user_dirs overrides the (as-printed) shared angles."""
    if user_dirs is None:
        user_dirs = [(np.pi / 2, 2 * np.pi)] * n_users
    fields = dict(
        path_gain_ref=1000.0,
        path_loss_exp=2.0,
        dist_ris_bs=4.0,
        dist_ris_ue=tuple(20.0 + 5.0 * i for i in range(n_users)),
        dist_jammer=30.0,
        dir_bs=Direction(np.pi / 6, 0.0),
        dir_jammer=Direction(np.pi / 4, np.pi / 2),
        dir_users=tuple(Direction(a, e) for a, e in user_dirs),
        jammer_power=jammer_power,
    )
    fields.update(overrides)
    return LinkScenario(**fields)


def make_model(geometry, scenario, noise=None, arrival_rates=None,
               header_time=30e-6, bandwidth=180e3, payload_bits=256):
    if noise is None:
        noise = NoiseConfig(dbm_to_watts(-100), dbm_to_watts(-100))
    if arrival_rates is None:
        arrival_rates = (500.0,) * scenario.n_users
    return SystemModel(geometry, scenario, noise, header_time, bandwidth,
                       payload_bits, arrival_rates)


@pytest.fixture
def toy_model():
    """Single user, single element, no jammer: the grid-oracle toy problem."""
    return make_model(RisGeometry(1, 1), make_scenario(n_users=1, jammer_power=0.0))


@pytest.fixture
def toy_constraints():
    return ConstraintSet(p_min_w=1e-3, nb_min=60, nb_max=288)


@pytest.fixture
def weak_link_model():
    """Single user on a weak link: reliability requires coherent phases."""
    scenario = make_scenario(
        n_users=1, jammer_power=0.0, user_dirs=[(1.0, -0.3)],
        path_gain_ref=1.0, dist_ris_bs=40.0, dist_ris_ue=(200.0,))
    return make_model(RisGeometry(2, 2), scenario, noise=NoiseConfig(2.5e-7, 2.5e-7))


@pytest.fixture
def two_user_model():
    """Two users with distinct directions so the full problem is feasible."""
    scenario = make_scenario(user_dirs=[(1.0, -0.3), (np.pi / 2, -0.1)])
    return make_model(RisGeometry(4, 4), scenario)
