"""
Per-user link quality under jamming and its finite-blocklength consequences.

The chain computed here: SJNR of each user at the base station (after SIC,
with the jammer reaching the BS both directly and through the amplifying
RIS), normal-approximation block error rate for a short packet, joint SIC
success probability of a single replica, and the reliability achieved by
blind repetition of each packet.
"""

import math
from dataclasses import dataclass

import numpy as np

LOG2E = float(np.log2(np.e))

# libm's erfc(z) is exactly 2 for z <= ERFC_TWO_UPTO and exactly 0 for
# z >= ERFC_ZERO_FROM; q_function fills both ends without calling it.
ERFC_TWO_UPTO = -5.863584748755168
ERFC_ZERO_FROM = 27.226364135742188


@dataclass(frozen=True)
class NoiseConfig:
    """Noise variances in watts: RIS element thermal noise and BS AWGN."""

    ris_thermal_var: float
    awgn_var: float

    def __post_init__(self):
        if not (0 <= self.ris_thermal_var < np.inf and 0 <= self.awgn_var < np.inf):
            raise ValueError("noise variances must be non-negative and finite")


def co_phasing_phases(bs_channel: np.ndarray, ue_channel: np.ndarray) -> np.ndarray:
    """Phase shifts that align every element of one user's cascade.

    theta_n = -arg(I_n * G_n) makes all cascade terms add coherently, which
    maximizes that user's received power for any fixed amplitudes.
    """
    return np.mod(-np.angle(bs_channel * ue_channel), 2.0 * np.pi)


def sic_balanced_weights(bs_channel: np.ndarray, ue_channels: np.ndarray,
                         jammer_channel: np.ndarray, ratio) -> np.ndarray:
    """Minimum-norm RIS weights that grade the users' cascades for SIC and
    null the jammer's reflection.

    Solves (I o G_k)^T w = ratio^(-(k-1)/2) for each user k and
    (I o g_J)^T w = 0, so each user's cascade gain |.|^2 is ``ratio`` times
    the next user's, and the jammer reaches the BS only directly. Weight n
    is sqrt(beta_n)*exp(j*theta_n) up to a common positive scale. With
    fewer than K + 1 elements, or users the array cannot tell apart, this is
    the least-squares solution instead. A scalar ``ratio`` gives one (N,)
    beam; an array of R ratios gives (R, N) beams from one solve, with every
    ratio's right-hand side as a column.
    """
    ue = np.atleast_2d(ue_channels)
    system = np.vstack([ue, jammer_channel]) * bs_channel
    ratios = np.asarray(ratio, dtype=float)
    targets = np.zeros((ue.shape[0] + 1, ratios.size), dtype=complex)
    targets[:-1] = ratios.reshape(-1) ** (-0.5 * np.arange(ue.shape[0])[:, None])
    weights = np.linalg.lstsq(system, targets, rcond=None)[0]
    return weights.T.reshape(ratios.shape + (system.shape[1],))


def polar_weights(amplitudes, phases) -> np.ndarray:
    """RIS weights sqrt(amplitude_n) * exp(j * phase_n) of one (N,) beam or
    a (B, N) block of beams given by amplification factors and phases."""
    amps, phs = _check_beam(amplitudes, phases)
    return np.sqrt(amps) * np.exp(1j * phs)


# Largest number of cells in one row block of a blocked loop (``_row_blocks``).
# A (B, N) complex temporary of this size is 256 KiB and stays in a per-core
# L2 cache (2 MiB on the x86-64 host where 2^13..2^16 were timed on ga-paper;
# 2^13 was slowest, 2^15 and 2^16 no faster and used more memory).
BLOCK_CELLS = 1 << 14


def _row_blocks(n_rows: int, row_cells: int = 1) -> list[slice]:
    """The consecutive slices that cover rows 0..n_rows, each of at most
    ``BLOCK_CELLS`` cells of ``row_cells`` each and at least one row (one
    row each when a row has no cell)."""
    step = max(1, BLOCK_CELLS // row_cells) if row_cells else 1
    return [slice(start, min(start + step, n_rows)) for start in range(0, n_rows, step)]


def beam_terms(ue_channels: np.ndarray, bs_channel: np.ndarray,
               jammer_channel: np.ndarray, weights: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The three beam terms every SJNR is built from, for B beams given as
    (B, N) complex weights, one per row, and the channels of ``sjnr_all``:
    the (K, B) cascade gains |I^T Theta G_k|^2, the (B,) jammer reflections
    I^T Theta g_J and the (B,) norms ||I^T Theta||^2, column (entry) b for
    beam b.

    The beams are taken in the row blocks of ``_row_blocks``. Every operand
    spans a whole row block and each product is a stack of (1, N) rows, so a
    beam gets the bits it gets alone: a broadcast operand or a plain matrix
    product can switch numpy to kernels that round differently.
    """
    n_beams, n = weights.shape
    gains = np.empty((len(ue_channels), n_beams))
    reflections = np.empty(n_beams, dtype=complex)
    norms = np.empty(n_beams)
    for part in _row_blocks(n_beams, n):
        block = weights[part]
        rows = bs_channel[None].repeat(len(block), axis=0) * block  # I^T Theta
        stacked = rows[:, None, :]
        gains[:, part] = np.abs((stacked @ ue_channels.T)[:, 0, :]).T ** 2
        reflections[part] = (stacked @ jammer_channel[:, None])[:, 0, 0]
        norms[part] = np.add.reduce(np.abs(rows) ** 2, axis=-1)
    return gains, reflections, norms


# _sic_sjnr checks the range of what may overflow here
@np.errstate(over="ignore", invalid="ignore")
def sjnr_all(ue_channels: np.ndarray, bs_channel: np.ndarray, jammer_direct: complex,
             jammer_channel: np.ndarray, weights, powers,
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
        weights, powers: one candidate ((N,) complex RIS weights, element n
            applying weight_n, e.g. ``polar_weights``; K user powers in
            watts), or B candidates as (B, N) weights and (B, K) powers
            (either may be one row, serving all B).

    Returns:
        (K,) linear power ratios (non-negative), entry k-1 for user k; for B
        candidates (K, B), column b for candidate b.

    ``_sic_sjnr`` over all B columns' ``beam_terms``; raises OverflowError
    if a user's interference-plus-noise power or SJNR is not finite.
    """
    ue = np.atleast_2d(np.asarray(ue_channels))
    w = np.asarray(weights, dtype=complex)
    if w.ndim not in (1, 2):
        raise ValueError("RIS weights must be a 1-D or 2-D array")
    if not np.isfinite(w).all():
        raise ValueError("RIS weights must be finite")
    p = _check_powers(powers, ue.shape[0])
    if w.ndim == p.ndim == 2 and 1 not in (len(w), len(p)) and len(w) != len(p):
        raise ValueError(f"weights ({len(w)} rows) and powers ({len(p)} rows) "
                         "must have one row, or the same number of rows")
    n = bs_channel.shape[0]
    if ue.shape[1] != n or jammer_channel.shape[0] != n or w.shape[-1] != n:
        raise ValueError("channel vectors and beamforming must share one element count")

    gains, reflections, norms = beam_terms(ue, bs_channel, jammer_channel,
                                           np.atleast_2d(w))
    gammas = _sic_sjnr(np.atleast_2d(p).T * gains, reflections, norms,
                       jammer_direct, jammer_power, noise)
    return gammas[:, 0] if w.ndim == p.ndim == 1 else gammas


def _check_beam(amplitudes, phases) -> tuple[np.ndarray, np.ndarray]:
    """One (N,) beam, or a (B, N) block of beams, as float arrays; the
    amplitudes' upper bound is a constraint of the optimizer, not checked here."""
    amps = np.asarray(amplitudes, dtype=float)
    phs = np.asarray(phases, dtype=float)
    if amps.shape != phs.shape or amps.ndim not in (1, 2):
        raise ValueError("amplitudes and phases must be 1-D or 2-D arrays "
                         "of equal shape")
    if not np.all(np.isfinite(amps)) or not np.all(np.isfinite(phs)):
        raise ValueError("beamforming parameters must be finite")
    if np.any(amps < 0):
        raise ValueError("amplification factors must be non-negative")
    return amps, phs


def _check_powers(powers, n_users: int) -> np.ndarray:
    """K positive, finite powers in watts, or a (B, K) array of them."""
    p = np.asarray(powers, dtype=float)
    if p.ndim not in (1, 2) or p.shape[-1] != n_users:
        raise ValueError("one transmit power per user required")
    if not ((p > 0) & np.isfinite(p)).all():
        raise ValueError("user powers must be positive and finite")
    return p


def _check_count(values, name: str) -> np.ndarray:
    """``values`` as an array of any dtype, checked to hold only positive
    integers; a NaN, an infinity or a fraction fails with ``name`` in the
    message."""
    counts = np.asarray(values)
    if counts.dtype.kind in "iu":  # integers, all finite and whole
        whole = counts >= 1
    else:
        whole = (counts >= 1) & (counts < np.inf) & (counts == np.floor(counts))
    if not whole.all():
        raise ValueError(f"{name} must be a positive integer")
    return counts


def _check_payload(payload_bits) -> None:
    if not payload_bits >= 1:
        raise ValueError("payload must be a positive number of bits")


def _sic_sjnr(received, jammer_reflected, weight_norm_sq, jammer_direct: complex,
              jammer_power: float, noise: NoiseConfig):
    """SJNR from per-user received powers and the terms every user shares.

    ``received`` holds p_k |I^T Theta G_k|^2 with users on axis 0; any
    trailing axes (e.g. a grid of beams) broadcast against
    ``jammer_reflected`` (I^T Theta g_J) and ``weight_norm_sq``
    (||I^T Theta||^2, which scales the amplified RIS thermal noise).
    Raises OverflowError if an interference-plus-noise power or an SJNR is
    not finite; callers silence numpy's overflow warnings around it.
    """
    # residual SIC interference for user k is the tail sum over k+1..K
    tail = np.zeros_like(received)
    np.cumsum(received[:0:-1], axis=0, out=tail[-2::-1])
    jamming = jammer_power * np.abs(jammer_direct + jammer_reflected) ** 2
    floor = jamming + weight_norm_sq * noise.ris_thermal_var + noise.awgn_var
    interference = tail + floor
    gammas = received / interference
    if not (np.isfinite(interference).all() and np.isfinite(gammas).all()):
        raise OverflowError("a user's interference-plus-noise power or SJNR is not finite")
    return gammas


def q_function(x):
    """Gaussian tail probability Q(x) = 0.5*erfc(x/sqrt(2)).

    Each element gets the bits of ``0.5 * math.erfc(x / math.sqrt(2))``, so
    a value gets the same bits alone, in a slice or in a grid. Measured
    against a 50-digit erfc: libm's erfc is within 2.3 ulp on x/sqrt(2) in
    [-6, 26], and Q is within 2e-13 relative on x in [-8, 37], down to
    Q ~ 1e-300. Q turns subnormal above x ~ 37.5 and is 0 from x ~ 38.48.
    NaN stays NaN. Accepts scalars or arrays.
    """
    z = np.asarray(x, dtype=float) / math.sqrt(2.0)
    low = z <= ERFC_TWO_UPTO
    out = np.where(low, 2.0, 0.0)
    # only the unsaturated elements pay for a Python-level call; NaN is one
    mid = ~(low | (z >= ERFC_ZERO_FROM))
    values = z[mid].tolist()
    out[mid] = np.fromiter(map(math.erfc, values), float, len(values))
    return 0.5 * out


def bler(gamma, blocklength, payload_bits):
    """Normal-approximation block error rate at SJNR ``gamma``.

    Q( sqrt(n_b / v(gamma)) * (C(gamma) - n_d/n_b) ) for n_d payload bits in
    n_b channel uses, with capacity C = log2(1+gamma) and dispersion
    v = (1 - 1/(1+gamma)^2)*(log2 e)^2. The dispersion is 0 only where
    1 + gamma rounds to 1 (gamma = 0 among them); there the capacity is 0,
    below every positive rate, and the BLER is 1. Accepts scalars or
    arrays, ``blocklength`` an integer array too.
    """
    _check_count(blocklength, "blocklength")  # integer arrays keep their dtype
    _check_payload(payload_bits)
    g = np.asarray(gamma, dtype=float)
    if (g < 0).any() or not np.isfinite(g).all():
        raise ValueError("SJNR must be finite and non-negative")
    capacity = np.log2(1.0 + g)
    with np.errstate(over="ignore"):  # (1 + g)^2 = inf above ~1e154 gives 1/inf = 0, exact
        dispersion = (1.0 - 1.0 / (1.0 + g) ** 2) * LOG2E ** 2
    safe_v = np.where(dispersion > 0, dispersion, 1.0)
    arg = np.sqrt(blocklength / safe_v) * (capacity - payload_bits / blocklength)
    eps = np.where(dispersion > 0, q_function(arg), 1.0)
    return float(eps) if eps.ndim == 0 else eps


def replica_success(blers):
    """Probability that one packet replica survives joint SIC decoding.

    Product of (1 - eps_k) over all K users; the same value applies to every
    user because SIC success is a joint event. Users lie on axis 0; any
    trailing axes (e.g. an amplitude grid) are kept, so a (K,) input gives a
    float and a (K, B) input a (B,) array.
    """
    b = np.atleast_1d(np.asarray(blers, dtype=float))
    if not ((b >= 0).all() and (b <= 1).all()):  # NaN fails both
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
    replicas = _check_count(retransmissions, "retransmission count")
    w = np.asarray(omega_s, dtype=float)
    if not ((w >= 0).all() and (w <= 1).all()):
        raise ValueError("replica success probability must lie in [0, 1]")
    shape = np.broadcast(w, replicas).shape or (1,)
    r = 1.0 - np.power(np.full(shape, 1.0 - w), np.full(shape, replicas, dtype=float))
    return float(r[0]) if w.ndim == 0 and replicas.ndim == 0 else r
