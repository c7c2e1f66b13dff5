"""
Per-user link quality under jamming and its finite-blocklength consequences.

The chain computed here: SJNR of each user at the base station (after SIC,
with the jammer reaching the BS both directly and through the amplifying
RIS), normal-approximation block error rate for a short packet, joint SIC
success probability of a single replica, and the reliability achieved by
blind repetition of each packet.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import erfc

from .units import dbm_to_watts

LOG2E = float(np.log2(np.e))


@dataclass(frozen=True)
class BeamformConfig:
    """Per-element amplification factors and phase shifts of the RIS.

    Element n applies the complex weight sqrt(amplitude_n)*exp(j*phase_n).
    Amplitudes above 1 amplify, below 1 attenuate; the upper bound is a
    constraint of the optimizer, not of this container. (B, N) amplitudes
    and phases hold one beam per row, for B candidates at once.
    """

    amplitudes: np.ndarray
    phases: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=float)
        phs = np.asarray(self.phases, dtype=float)
        if amps.shape != phs.shape or amps.ndim not in (1, 2):
            raise ValueError("amplitudes and phases must be 1-D or 2-D arrays "
                             "of equal shape")
        if not np.all(np.isfinite(amps)) or not np.all(np.isfinite(phs)):
            raise ValueError("beamforming parameters must be finite")
        if np.any(amps < 0):
            raise ValueError("amplification factors must be non-negative")
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "phases", phs)

    @property
    def n_elements(self) -> int:
        return self.amplitudes.shape[-1]

    @property
    def weights(self) -> np.ndarray:
        """Diagonal entries sqrt(beta_n)*exp(j*theta_n)."""
        return np.sqrt(self.amplitudes) * np.exp(1j * self.phases)


@dataclass(frozen=True)
class PowerAllocation:
    """Transmit powers of the K users in watts.

    A (B, K) array holds one allocation per row, for B candidates at once.
    """

    user_powers: tuple[float, ...]

    def __post_init__(self):
        p = np.asarray(self.user_powers, dtype=float)
        if p.ndim not in (1, 2) or p.shape[-1] < 1:
            raise ValueError("at least one user power required")
        if not np.all((p > 0) & np.isfinite(p)):
            raise ValueError("user powers must be positive and finite")

    @property
    def n_users(self) -> int:
        return np.shape(self.user_powers)[-1]


@dataclass(frozen=True)
class NoiseConfig:
    """Noise variances in watts: RIS element thermal noise and BS AWGN."""

    ris_thermal_var: float
    awgn_var: float

    def __post_init__(self):
        if self.ris_thermal_var < 0 or self.awgn_var < 0:
            raise ValueError("noise variances must be non-negative")

    @classmethod
    def from_dbm(cls, ris_thermal_dbm: float, awgn_dbm: float) -> "NoiseConfig":
        return cls(dbm_to_watts(ris_thermal_dbm), dbm_to_watts(awgn_dbm))


@dataclass(frozen=True)
class FblCode:
    """Short-packet code: channel uses per block and payload size in bits.

    ``blocklength`` may be an integer array, one code per candidate.
    """

    blocklength: int
    payload_bits: int

    def __post_init__(self):
        if np.any(np.asarray(self.blocklength) < 1):
            raise ValueError("blocklength must be a positive integer")
        if self.payload_bits < 1:
            raise ValueError("payload must be a positive number of bits")

    @property
    def rate(self) -> float:
        """Coding rate in bits per channel use."""
        return self.payload_bits / self.blocklength


def co_phasing_phases(bs_channel: np.ndarray, ue_channel: np.ndarray) -> np.ndarray:
    """Phase shifts that align every element of one user's cascade.

    theta_n = -arg(I_n * G_n) makes all cascade terms add coherently, which
    maximizes that user's received power for any fixed amplitudes.
    """
    return np.mod(-np.angle(bs_channel * ue_channel), 2.0 * np.pi)


def sjnr_all(ue_channels: np.ndarray, bs_channel: np.ndarray, jammer_direct: complex,
             jammer_channel: np.ndarray, beam: BeamformConfig, powers: PowerAllocation,
             jammer_power: float, noise: NoiseConfig) -> np.ndarray:
    """Received SJNR of every user at the BS under SIC decoding.

    Users are decoded in index order, so user k sees residual interference
    only from users k+1..K. The jammer contributes through its direct path
    plus the RIS reflection; the RIS adds amplified thermal noise.

    Args:
        ue_channels: (K, N) complex matrix, row k-1 is user k's RIS channel.
        bs_channel: (N,) RIS-to-BS channel.
        jammer_direct: scalar jammer-to-BS channel.
        jammer_channel: (N,) jammer-to-RIS channel.
        beam, powers: one candidate, or B candidates as (B, N) beams and
            (B, K) powers.

    Returns:
        (K,) linear power ratios (non-negative), entry k-1 for user k; for B
        candidates (K, B), column b for candidate b.
    """
    ue = np.atleast_2d(np.asarray(ue_channels))
    if powers.n_users != ue.shape[0]:
        raise ValueError("one transmit power per user required")
    n = bs_channel.shape[0]
    if ue.shape[1] != n or jammer_channel.shape[0] != n or beam.n_elements != n:
        raise ValueError("channel vectors and beamforming must share one element count")

    # I^T Theta, one row per candidate. Every operand spans the whole block
    # and each product is a stack of (1, N) rows, so a candidate gets the
    # bits it gets alone: a broadcast operand or a plain matrix product can
    # switch numpy to kernels that round differently.
    weights = np.atleast_2d(beam.weights)
    rows = np.tile(bs_channel, (weights.shape[0], 1)) * weights
    stacked = rows[:, None, :]
    cascade_gains = np.abs((stacked @ ue.T)[:, 0, :]).T ** 2  # |I^T Theta G_k|^2
    received = np.atleast_2d(np.asarray(powers.user_powers, dtype=float)).T * cascade_gains
    gammas = _sic_sjnr(received, (stacked @ jammer_channel[:, None])[:, 0, 0],
                       np.sum(np.abs(rows) ** 2, axis=-1), jammer_direct,
                       jammer_power, noise)
    single = beam.amplitudes.ndim == 1 and np.ndim(powers.user_powers) == 1
    return gammas[:, 0] if single else gammas


def _sic_sjnr(received, jammer_reflected, weight_norm_sq, jammer_direct: complex,
              jammer_power: float, noise: NoiseConfig):
    """SJNR from per-user received powers and the terms every user shares.

    ``received`` holds p_k |I^T Theta G_k|^2 with users on axis 0; any
    trailing axes (e.g. a grid of beams) broadcast against
    ``jammer_reflected`` (I^T Theta g_J) and ``weight_norm_sq``
    (||I^T Theta||^2, which scales the amplified RIS thermal noise).
    """
    # residual SIC interference for user k is the tail sum over k+1..K
    tail = np.concatenate([np.cumsum(received[::-1], axis=0)[::-1][1:],
                           np.zeros_like(received[:1])])
    jamming = jammer_power * np.abs(jammer_direct + jammer_reflected) ** 2
    floor = jamming + weight_norm_sq * noise.ris_thermal_var + noise.awgn_var
    return received / (tail + floor)


def q_function(x):
    """Gaussian tail probability Q(x) = 0.5*erfc(x/sqrt(2)).

    Accurate to ~1e-15 relative on |x| <= 8 and underflows gracefully to 0
    for large arguments. Accepts scalars or arrays.
    """
    return 0.5 * erfc(np.asarray(x, dtype=float) / np.sqrt(2.0))


def bler(gamma, code: FblCode):
    """Normal-approximation block error rate at SJNR ``gamma``.

    Q( sqrt(n_b / v(gamma)) * (C(gamma) - n_d/n_b) ) with capacity
    C = log2(1+gamma) and dispersion v = (1 - 1/(1+gamma)^2)*(log2 e)^2.
    Zero SJNR carries no positive-rate payload, so bler(0) = 1 by
    continuity. Accepts scalars or arrays.
    """
    g = np.asarray(gamma, dtype=float)
    if np.any(g < 0) or not np.all(np.isfinite(g)):
        raise ValueError("SJNR must be finite and non-negative")
    capacity = np.log2(1.0 + g)
    dispersion = (1.0 - 1.0 / (1.0 + g) ** 2) * LOG2E ** 2
    rate = code.rate
    safe_v = np.where(dispersion > 0, dispersion, 1.0)
    arg = np.sqrt(code.blocklength / safe_v) * (capacity - rate)
    eps = np.where(
        dispersion > 0,
        q_function(arg),
        np.where(capacity > rate, 0.0, np.where(capacity == rate, 0.5, 1.0)),
    )
    return float(eps) if np.ndim(gamma) == 0 else eps


def replica_success(blers):
    """Probability that one packet replica survives joint SIC decoding.

    Product of (1 - eps_k) over all K users; the same value applies to every
    user because SIC success is a joint event. Users lie on axis 0; any
    trailing axes (e.g. an amplitude grid) are kept, so a (K,) input gives a
    float and a (K, B) input a (B,) array.
    """
    b = np.atleast_1d(np.asarray(blers, dtype=float))
    if np.any(b < 0) or np.any(b > 1):
        raise ValueError("block error rates must lie in [0, 1]")
    omega = np.prod(1.0 - b, axis=0)
    return float(omega) if b.ndim == 1 else omega


def reliability(omega_s, retransmissions):
    """Packet reliability after ``retransmissions`` blind repetitions.

    1 - (1 - omega_s)^L: the packet is lost only if every replica fails.
    ``retransmissions`` may be an integer array broadcasting against
    ``omega_s``. The power always runs on arrays of at least one dimension
    with L spelled out to the same shape, so a value gets the same bits
    alone, in a slice or in a grid (numpy's scalar power and its square
    fast path for L = 2 round differently from its array power).
    """
    replicas = np.asarray(retransmissions)
    if np.any(replicas < 1):
        raise ValueError("retransmission count must be at least 1")
    w = np.asarray(omega_s, dtype=float)
    if np.any(w < 0) or np.any(w > 1):
        raise ValueError("replica success probability must lie in [0, 1]")
    shape = np.broadcast_shapes(w.shape, replicas.shape, (1,))
    r = 1.0 - np.power(np.full(shape, 1.0 - w), np.full(shape, replicas, dtype=float))
    return float(r[0]) if w.ndim == 0 and replicas.ndim == 0 else r
