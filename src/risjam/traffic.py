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
# float64 fit in a core's L2 cache
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
    blocklength: int

    def __post_init__(self):
        if not 0 <= self.header_time < np.inf:
            raise ValueError("header time must be non-negative and finite")
        if not 0 < self.bandwidth < np.inf:
            raise ValueError("bandwidth must be positive and finite")
        _check_count(self.blocklength, "blocklength")

    @property
    def payload_time(self) -> float:
        return self.blocklength / self.bandwidth

    @property
    def duration(self) -> float:
        """Total frame time: header plus payload."""
        return self.header_time + self.payload_time


@dataclass(frozen=True)
class TrafficParams:
    """Per-user Poisson arrival rates (packets/s) and the replica count L.

    ``arrival_rates`` holds one rate per user, or is a (K, B) array whose
    row k - 1 holds user k's rate for each of B candidates.
    ``retransmissions`` may be an integer array, one count per candidate.
    """

    arrival_rates: tuple[float, ...]
    retransmissions: int

    def __post_init__(self):
        if len(self.arrival_rates) < 1:
            raise ValueError("at least one arrival rate required")
        rates = np.asarray(self.arrival_rates, dtype=float)
        if not ((rates > 0) & (rates < np.inf)).all():
            raise ValueError("arrival rates must be positive and finite")
        _check_count(self.retransmissions, "retransmission count")

    @property
    def n_users(self) -> int:
        return len(self.arrival_rates)


def utilization(frame: FrameParams, traffic: TrafficParams, k: int) -> float:
    """Server utilization of user ``k`` (1-based): L * T_f * Lambda_k.

    Values >= 1 are legal output; stability is checked where delay is needed.
    Array blocklengths, replica counts or rates give one utilization per
    candidate.
    """
    if not 1 <= k <= traffic.n_users:
        raise ValueError(f"user index {k} out of range 1..{traffic.n_users}")
    return traffic.retransmissions * frame.duration * traffic.arrival_rates[k - 1]


def mean_delay(frame: FrameParams, traffic: TrafficParams, k: int) -> float:
    """Mean packet sojourn time of user ``k``: M/D/1 with service L*T_f.

    L*T_f * (2 - rho) / (2*(1 - rho)); requires rho < 1 for every
    candidate when given arrays.
    """
    rho = utilization(frame, traffic, k)
    if np.any(rho >= 1.0):
        raise UnstableQueueError(float(np.max(rho)), user=k)
    service = traffic.retransmissions * frame.duration
    return service * (2.0 - rho) / (2.0 * (1.0 - rho))


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
    if not np.all(np.isfinite(tau)):
        raise ValueError("delays must be finite (stable queues)")
    energy = _user_sum(p * tau)
    if np.any(energy <= 0):
        raise ValueError("total consumed energy must be positive")
    eta = payload_bits * _user_sum(rel) / energy
    return float(eta) if rel.ndim == 1 else eta


def _user_sum(values):
    """Sum over the users on axis 0, along a contiguous axis, so that each
    column's sum has the bits of the same sum over a 1-D array."""
    return np.sum(np.ascontiguousarray(np.moveaxis(values, 0, -1)), axis=-1)


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
