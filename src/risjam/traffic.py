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

# Largest n_arrivals of ``simulate_md1``: its three float64 paths then take 1.5 GiB
MAX_ARRIVALS = 2 ** 26


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
        n_b = np.asarray(self.blocklength)
        if not np.all((n_b >= 1) & (n_b < np.inf) & (n_b == np.floor(n_b))):
            raise ValueError("blocklength must be a positive integer")

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

    ``retransmissions`` may be an integer array, one count per candidate.
    """

    arrival_rates: tuple[float, ...]
    retransmissions: int

    def __post_init__(self):
        if len(self.arrival_rates) < 1:
            raise ValueError("at least one arrival rate required")
        if not all(0 < rate < np.inf for rate in self.arrival_rates):
            raise ValueError("arrival rates must be positive and finite")
        replicas = np.asarray(self.retransmissions)
        if not np.all((replicas >= 1) & (replicas < np.inf) & (replicas == np.floor(replicas))):
            raise ValueError("retransmission count must be a positive integer")

    @property
    def n_users(self) -> int:
        return len(self.arrival_rates)


def utilization(frame: FrameParams, traffic: TrafficParams, k: int) -> float:
    """Server utilization of user ``k`` (1-based): L * T_f * Lambda_k.

    Values >= 1 are legal output; stability is checked where delay is needed.
    Array blocklengths or replica counts give one utilization per candidate.
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
    d_i = (i + 1) S + max_{j <= i} (a_j - j S). Raises OverflowError above
    ``MAX_ARRIVALS`` arrivals.
    """
    if not (0 < arrival_rate < np.inf and 0 < service_time < np.inf):
        raise ValueError("arrival rate and service time must be positive and finite")
    if n_arrivals < 1:
        raise ValueError("need at least one arrival")
    if n_arrivals > MAX_ARRIVALS:
        raise OverflowError(f"{n_arrivals} arrivals is above 2**26")
    rng = np.random.default_rng(seed)
    arrivals = rng.exponential(1.0 / arrival_rate, size=n_arrivals)
    # in place, so that a 10^6-packet path holds three arrays and no temporaries
    np.cumsum(arrivals, out=arrivals)
    shifts = np.arange(n_arrivals) * service_time  # j S
    sojourns = arrivals - shifts
    np.maximum.accumulate(sojourns, out=sojourns)
    sojourns += shifts
    sojourns += service_time
    sojourns -= arrivals
    return float(np.sum(sojourns)) / n_arrivals
