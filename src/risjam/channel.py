"""
Uniform-planar-array geometry and deterministic LoS channel synthesis.

The RIS is a 2-D rectangular array of amplifying elements. Every link is a
pure line-of-sight channel: a common complex scalar (reference path gain,
distance attenuation, propagation phase) times the array response of the
arrival direction. Channels are plain complex numpy vectors of length
``n_elements``; all entries of one channel share a single magnitude.
"""

from dataclasses import dataclass
from math import cos, sin, pi, isfinite

import numpy as np

from .units import SPEED_OF_LIGHT

# Largest element count of an array. The paper's largest has 900; at 2**20
# the channels and element positions of a model take about 90 MiB.
MAX_ELEMENTS = 2 ** 20


@dataclass(frozen=True)
class RisGeometry:
    """Planar array layout: rows x cols elements on a wavelength-scaled grid.

    ``spacing_h`` / ``spacing_v`` are horizontal/vertical element pitches as
    fractions of the carrier wavelength.
    """

    n_rows: int
    n_cols: int
    spacing_h: float = 0.25
    spacing_v: float = 0.25
    carrier_freq: float = 28e9

    def __post_init__(self):
        if self.n_rows < 1 or self.n_cols < 1:
            raise ValueError(f"element grid must be at least 1x1, got {self.n_rows}x{self.n_cols}")
        if self.n_elements > MAX_ELEMENTS:
            raise ValueError(f"element count {self.n_elements} is above 2**20")
        if self.spacing_h <= 0 or self.spacing_v <= 0:
            raise ValueError("element spacings must be positive")
        if not (self.carrier_freq > 0 and isfinite(self.carrier_freq)
                and isfinite(self.wavelength)):
            raise ValueError("carrier frequency must be positive and finite, "
                             "with a finite wavelength")

    @property
    def n_elements(self) -> int:
        return self.n_rows * self.n_cols

    @property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_freq

    @property
    def element_width(self) -> float:
        return self.spacing_h * self.wavelength

    @property
    def element_height(self) -> float:
        return self.spacing_v * self.wavelength


@dataclass(frozen=True)
class Direction:
    """Arrival direction in radians (azimuth, elevation).

    Any finite value is accepted: the reference configuration itself uses
    angles outside the nominal (-pi/2, pi/2) azimuth / (-pi/2, 0) elevation
    ranges, so they are not enforced here.
    """

    azimuth: float
    elevation: float

    def __post_init__(self):
        if not (isfinite(self.azimuth) and isfinite(self.elevation)):
            raise ValueError("direction angles must be finite")


@dataclass(frozen=True)
class LinkScenario:
    """Physical layout of one uplink cell: path-loss law, distances, angles.

    ``path_gain_ref`` is the linear power gain at the 1 m reference distance
    (convert dB values before constructing). ``dist_ris_jammer`` defaults to
    the jammer-BS distance, which the reflected-jamming channel reuses.
    """

    path_gain_ref: float
    path_loss_exp: float
    dist_ris_bs: float
    dist_ris_ue: tuple[float, ...]
    dist_jammer: float
    dir_bs: Direction
    dir_jammer: Direction
    dir_users: tuple[Direction, ...]
    jammer_power: float
    dist_ris_jammer: float | None = None

    def __post_init__(self):
        if self.path_gain_ref <= 0:
            raise ValueError("reference path gain must be positive")
        if self.path_loss_exp < 0:
            raise ValueError("path loss exponent must be non-negative")
        if self.dist_ris_bs <= 0 or self.dist_jammer <= 0:
            raise ValueError("distances must be positive")
        if len(self.dist_ris_ue) < 1:
            raise ValueError("at least one user required")
        if any(d <= 0 for d in self.dist_ris_ue):
            raise ValueError("user distances must be positive")
        if len(self.dir_users) != len(self.dist_ris_ue):
            raise ValueError("one direction per user distance required")
        if self.jammer_power < 0:
            raise ValueError("jammer power must be non-negative")
        if self.dist_ris_jammer is not None and self.dist_ris_jammer <= 0:
            raise ValueError("RIS-jammer distance must be positive")
        distances = (self.dist_ris_bs, *self.dist_ris_ue, self.dist_jammer,
                     self.effective_dist_ris_jammer)
        try:
            finite = all(isfinite(self.path_gain(d)) for d in distances)
        except OverflowError:
            finite = False
        if not finite:
            raise ValueError("path gain must be finite at every distance")

    @property
    def n_users(self) -> int:
        return len(self.dist_ris_ue)

    @property
    def effective_dist_ris_jammer(self) -> float:
        return self.dist_jammer if self.dist_ris_jammer is None else self.dist_ris_jammer

    def path_gain(self, dist: float) -> float:
        """Linear power gain of a path of ``dist`` meters."""
        return self.path_gain_ref * dist ** (-self.path_loss_exp)


def element_positions(geom: RisGeometry) -> np.ndarray:
    """All element positions in meters as an (N, 3) array, element 1 first.

    Row n-1 is element n at [0, row_idx*dW, col_idx*dH]. Elements are indexed
    row by row: row index (n-1) mod n_rows, column index floor((n-1)/n_rows).
    Spacing is the physical pitch dW = spacing_h*lambda (already
    wavelength-scaled, no extra lambda factor).
    """
    idx = np.arange(geom.n_elements)
    i_r = idx % geom.n_rows
    i_c = idx // geom.n_rows
    pos = np.zeros((geom.n_elements, 3))
    pos[:, 1] = i_r * geom.element_width
    pos[:, 2] = i_c * geom.element_height
    return pos


def wave_vector(direction: Direction, wavelength: float) -> np.ndarray:
    """Plane-wave vector (rad/m) for the given arrival direction.

    (2*pi/lambda) * [cos(az)cos(el), sin(az)cos(el), sin(el)]; its Euclidean
    norm is exactly 2*pi/lambda.
    """
    if not (wavelength > 0 and isfinite(wavelength)):
        raise ValueError("wavelength must be positive and finite")
    az, el = direction.azimuth, direction.elevation
    k = 2.0 * pi / wavelength
    return k * np.array([cos(az) * cos(el), sin(az) * cos(el), sin(el)])


def array_response(geom: RisGeometry, direction: Direction) -> np.ndarray:
    """Per-element phase factors exp(j * zeta . u_n) for a plane-wave arrival.

    Unit-modulus complex vector of length n_elements; entry 1 is exactly 1
    because element 1 sits at the origin.
    """
    zeta = wave_vector(direction, geom.wavelength)
    phases = element_positions(geom) @ zeta
    return np.exp(1j * phases)


def _path_term(geom: RisGeometry, scen: LinkScenario, dist: float) -> complex:
    """Path-loss amplitude times propagation phase over ``dist`` meters."""
    amp = np.sqrt(scen.path_gain(dist))
    return amp * np.exp(-2j * pi * dist / geom.wavelength)


def _los_channel(geom: RisGeometry, scen: LinkScenario, dist: float,
                 direction: Direction) -> np.ndarray:
    return _path_term(geom, scen, dist) * array_response(geom, direction)


def ris_ue_channel(geom: RisGeometry, scen: LinkScenario, k: int) -> np.ndarray:
    """Channel vector from user ``k`` (1-based) to the RIS."""
    if not 1 <= k <= scen.n_users:
        raise ValueError(f"user index {k} out of range 1..{scen.n_users}")
    return _los_channel(geom, scen, scen.dist_ris_ue[k - 1], scen.dir_users[k - 1])


def ris_bs_channel(geom: RisGeometry, scen: LinkScenario) -> np.ndarray:
    """Channel vector from the RIS to the base station."""
    return _los_channel(geom, scen, scen.dist_ris_bs, scen.dir_bs)


def jammer_direct_channel(geom: RisGeometry, scen: LinkScenario) -> complex:
    """Scalar direct channel from the jammer to the base station."""
    return complex(_path_term(geom, scen, scen.dist_jammer))


def ris_jammer_channel(geom: RisGeometry, scen: LinkScenario) -> np.ndarray:
    """Channel vector from the jammer to the RIS.

    Uses the jammer-BS distance unless ``dist_ris_jammer`` overrides it,
    matching the source model's reuse of that distance.
    """
    return _los_channel(geom, scen, scen.effective_dist_ris_jammer, scen.dir_jammer)
