"""
Frame timing, M/D/1 queueing delay under transmission diversity, and system
energy efficiency.

Each packet occupies the server for all L replicas back to back, so the
deterministic service time is L times the frame duration. Arrivals are
Poisson; the analytic mean sojourn time is the M/D/1 closed form. A
discrete-event simulator of the same queue is included as an independent
cross-check of that formula.
"""

from dataclasses import dataclass

import numpy as np

from .link import _check_count

# Largest n_arrivals of ``simulate_md1``, a bound on its run time: about 1.2 s
# per path on one core of a 2-core x86-64 host (its memory does not grow with
# the path)
MAX_ARRIVALS = 2 ** 26
# Arrivals ``simulate_md1`` draws and walks at a time; its two buffers of
# float64 fit in a core's L2 cache. Not ``link.BLOCK_CELLS``: the walk's
# final sum is grouped by chunk, so its bits depend on this size, and a
# change of the block size must change no result.
MD1_CHUNK = 1 << 14


class UnstableQueueError(ValueError):
    """Raised when offered load reaches the service capacity (rho >= 1)."""

    def __init__(self, utilization: float, user: int | None = None):
        self.utilization = utilization
        self.user = user
        where = "" if user is None else f" for user {user}"
        super().__init__(f"unstable queue{where}: utilization {utilization:.6g} >= 1")


@dataclass(frozen=True)
class FrameParams:
    """Frame timing: fixed header time plus payload time blocklength/bandwidth.

    ``blocklength`` may be an integer array, one frame per candidate.
    """

    header_time: float
    bandwidth: float
    blocklength: int | np.ndarray

    def __post_init__(self):
        _check_frame(self.header_time, self.bandwidth)
        _check_count(self.blocklength, "blocklength")

    @property
    def duration(self) -> float | np.ndarray:
        """Total frame time: header plus payload, the service time of one replica."""
        return _service_time(self.header_time, self.bandwidth, self.blocklength, 1)


@dataclass(frozen=True)
class TrafficParams:
    """Per-user Poisson arrival rates (packets/s) and the replica count L.

    ``arrival_rates`` holds one rate per user, or is a (K, B) array whose
    row k - 1 holds user k's rate for each of B candidates.
    ``retransmissions`` may be an integer array, one count per candidate.
    """

    arrival_rates: tuple[float, ...] | np.ndarray
    retransmissions: int | np.ndarray

    def __post_init__(self):
        if len(self.arrival_rates) < 1:
            raise ValueError("at least one arrival rate required")
        _check_rates(np.asarray(self.arrival_rates, dtype=float))
        _check_count(self.retransmissions, "retransmission count")

    @property
    def n_users(self) -> int:
        return len(self.arrival_rates)


def _check_frame(header_time: float, bandwidth: float) -> None:
    if not 0 <= header_time < np.inf:
        raise ValueError("header time must be non-negative and finite")
    if not 0 < bandwidth < np.inf:
        raise ValueError("bandwidth must be positive and finite")


def _check_rates(rates: np.ndarray) -> None:
    if not ((rates > 0) & (rates < np.inf)).all():
        raise ValueError("arrival rates must be positive and finite")


def _service_time(header_time, bandwidth, blocklength, replicas):
    """Deterministic service time L * T_f of ``replicas`` frames back to
    back, each header_time + blocklength / bandwidth long; elementwise over
    arrays of blocklengths and replica counts."""
    return replicas * (header_time + blocklength / bandwidth)


def _utilization(service, rates):
    """Utilization L * T_f * Lambda of arrival rates Lambda at service time
    L * T_f, elementwise."""
    return service * rates


def _sojourn(service, rho):
    """M/D/1 mean sojourn time at deterministic service time ``service`` and
    utilization ``rho``; meaningful only where rho < 1."""
    return service * (2.0 - rho) / (2.0 * (1.0 - rho))


def _user_load(frame: FrameParams, traffic: TrafficParams, k: int):
    """Service time L * T_f and utilization L * T_f * Lambda_k of user ``k``."""
    if not 1 <= k <= traffic.n_users:
        raise ValueError(f"user index {k} out of range 1..{traffic.n_users}")
    service = _service_time(frame.header_time, frame.bandwidth, frame.blocklength,
                            traffic.retransmissions)
    return service, _utilization(service, traffic.arrival_rates[k - 1])


def utilization(frame: FrameParams, traffic: TrafficParams, k: int) -> float | np.ndarray:
    """Server utilization of user ``k`` (1-based): L * T_f * Lambda_k.

    Values >= 1 are legal output; stability is checked where delay is needed.
    Array blocklengths, replica counts or rates give one utilization per
    candidate.
    """
    return _user_load(frame, traffic, k)[1]


def mean_delay(frame: FrameParams, traffic: TrafficParams, k: int) -> float | np.ndarray:
    """Mean packet sojourn time of user ``k``: M/D/1 with service L*T_f.

    L*T_f * (2 - rho) / (2*(1 - rho)); requires rho < 1 for every
    candidate when given arrays.
    """
    service, rho = _user_load(frame, traffic, k)
    if np.any(rho >= 1.0):
        raise UnstableQueueError(float(np.max(rho)), user=k)
    return _sojourn(service, rho)


def _queue(service, rates) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Utilizations service * rate of users on axis 0 (rates broadcasting
    against the (B,) service times), whether every user's queue of a column
    is stable (B,), and the mean delays, NaN in an unstable column."""
    rhos = _utilization(service, rates)
    stable = (rhos < 1.0).all(axis=0)
    # an unstable column's delays are computed at rho = 0, then discarded
    delays = np.where(stable, _sojourn(service, np.where(stable, rhos, 0.0)), np.nan)
    return rhos, stable, delays


def energy_efficiency(payload_bits: int, reliabilities, powers, delays):
    """System energy efficiency in bits per joule.

    Successfully decoded bits over consumed energy:
    n_d * sum(Rel_k) / sum(P_k * tau_k). Users lie on axis 0; (K,) inputs
    give a float, (K, B) inputs one efficiency per column.
    """
    rel = np.asarray(reliabilities, dtype=float)
    p = np.asarray(powers, dtype=float)
    tau = np.asarray(delays, dtype=float)
    if not (rel.shape == p.shape == tau.shape):
        raise ValueError("reliabilities, powers and delays must have one entry per user")
    if not np.isfinite(tau).all():
        raise ValueError("delays must be finite (stable queues)")
    energy = _user_sum(p * tau)
    if (energy <= 0).any():
        raise ValueError("total consumed energy must be positive")
    eta = payload_bits * _user_sum(rel) / energy
    return float(eta) if rel.ndim == 1 else eta


def _user_sum(values: np.ndarray):
    """Sum over the users on axis 0, along a contiguous axis, so that each
    column's sum has the bits of the same sum over a 1-D array."""
    users_last = values.transpose(*range(1, values.ndim), 0)
    return np.add.reduce(np.ascontiguousarray(users_last), axis=-1)


def simulate_md1(arrival_rate: float, service_time: float, n_arrivals: int,
                 seed: int) -> float:
    """Discrete-event M/D/1 queue; returns the mean sojourn time per packet.

    Poisson arrivals at ``arrival_rate``, deterministic service, single FIFO
    server starting empty. Serves as an independent cross-check of the
    closed-form mean delay: it follows one sample path of the queue through
    Lindley's recursion d_i = max(a_i, d_{i-1}) + S, in its closed form
    d_i = (i + 1) S + max_{j <= i} (a_j - j S), as a random walk of at most
    ``MD1_CHUNK`` steps at a time. Raises OverflowError above
    ``MAX_ARRIVALS`` arrivals.
    """
    if not (0 < arrival_rate < np.inf and 0 < service_time < np.inf):
        raise ValueError("arrival rate and service time must be positive and finite")
    if n_arrivals < 1:
        raise ValueError("need at least one arrival")
    if n_arrivals > MAX_ARRIVALS:
        raise OverflowError(f"{n_arrivals} arrivals is above 2**26")
    rng = np.random.default_rng(seed)
    scale = 1.0 / arrival_rate
    # the walk v_i = a_i - (i + 1) S steps by each gap minus S, and packet i
    # spends S + max_{j <= i} v_j - v_i in the system; chunk by chunk, the
    # position and running maximum so far enter each chunk's first element
    walk = np.empty(min(n_arrivals, MD1_CHUNK))
    peaks = np.empty_like(walk)
    sums = np.empty(-(-n_arrivals // MD1_CHUNK))
    position, peak = 0.0, -np.inf
    for chunk, start in enumerate(range(0, n_arrivals, MD1_CHUNK)):
        steps = walk[:n_arrivals - start]
        highs = peaks[:steps.size]
        rng.standard_exponential(out=steps)
        steps *= scale  # the bits of rng.exponential(scale)
        steps -= service_time
        steps[0] += position
        np.cumsum(steps, out=steps)
        first = steps[0]
        steps[0] = max(first, peak)
        np.maximum.accumulate(steps, out=highs)
        steps[0] = first
        position, peak = steps[-1], highs[-1]
        highs -= steps
        sums[chunk] = np.sum(highs)
    return service_time + float(np.sum(sums)) / n_arrivals
