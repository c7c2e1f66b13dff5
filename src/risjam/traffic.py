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


class UnstableQueueError(ValueError):
    """Raised when offered load reaches the service capacity (rho >= 1)."""

    def __init__(self, utilization: float, user: int | None = None):
        self.utilization = utilization
        self.user = user
        where = "" if user is None else f" for user {user}"
        super().__init__(f"unstable queue{where}: utilization {utilization:.6g} >= 1")


@dataclass(frozen=True)
class FrameParams:
    """Frame timing: fixed header time plus payload time blocklength/bandwidth."""

    header_time: float
    bandwidth: float
    blocklength: int

    def __post_init__(self):
        if self.header_time < 0:
            raise ValueError("header time must be non-negative")
        if self.bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        if self.blocklength < 1:
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
    """Per-user Poisson arrival rates (packets/s) and the replica count L."""

    arrival_rates: tuple[float, ...]
    retransmissions: int

    def __post_init__(self):
        if len(self.arrival_rates) < 1:
            raise ValueError("at least one arrival rate required")
        if any(rate <= 0 for rate in self.arrival_rates):
            raise ValueError("arrival rates must be positive")
        if self.retransmissions < 1:
            raise ValueError("retransmission count must be at least 1")

    @property
    def n_users(self) -> int:
        return len(self.arrival_rates)


def utilization(frame: FrameParams, traffic: TrafficParams, k: int) -> float:
    """Server utilization of user ``k`` (1-based): L * T_f * Lambda_k.

    Values >= 1 are legal output; stability is checked where delay is needed.
    """
    if not 1 <= k <= traffic.n_users:
        raise ValueError(f"user index {k} out of range 1..{traffic.n_users}")
    return traffic.retransmissions * frame.duration * traffic.arrival_rates[k - 1]


def mean_delay(frame: FrameParams, traffic: TrafficParams, k: int) -> float:
    """Mean packet sojourn time of user ``k``: M/D/1 with service L*T_f.

    L*T_f * (2 - rho) / (2*(1 - rho)); requires rho < 1.
    """
    rho = utilization(frame, traffic, k)
    if rho >= 1.0:
        raise UnstableQueueError(rho, user=k)
    service = traffic.retransmissions * frame.duration
    return service * (2.0 - rho) / (2.0 * (1.0 - rho))


def energy_efficiency(payload_bits: int, reliabilities, powers, delays) -> float:
    """System energy efficiency in bits per joule.

    Successfully decoded bits over consumed energy:
    n_d * sum(Rel_k) / sum(P_k * tau_k).
    """
    rel = np.asarray(reliabilities, dtype=float)
    p = np.asarray(powers, dtype=float)
    tau = np.asarray(delays, dtype=float)
    if not (rel.shape == p.shape == tau.shape):
        raise ValueError("reliabilities, powers and delays must have one entry per user")
    if not np.all(np.isfinite(tau)):
        raise ValueError("delays must be finite (stable queues)")
    energy = float(np.sum(p * tau))
    if energy <= 0:
        raise ValueError("total consumed energy must be positive")
    return float(payload_bits * np.sum(rel) / energy)


def simulate_md1(arrival_rate: float, service_time: float, n_arrivals: int,
                 seed: int) -> float:
    """Discrete-event M/D/1 queue; returns the mean sojourn time per packet.

    Poisson arrivals at ``arrival_rate``, deterministic service, single FIFO
    server starting empty. Serves as an independent cross-check of the
    closed-form mean delay; runs each packet through explicit arrival /
    service-completion bookkeeping.
    """
    if arrival_rate <= 0 or service_time <= 0:
        raise ValueError("arrival rate and service time must be positive")
    if n_arrivals < 1:
        raise ValueError("need at least one arrival")
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(1.0 / arrival_rate, size=n_arrivals)

    clock = 0.0
    server_free_at = 0.0
    total_sojourn = 0.0
    for gap in gaps:
        clock += gap
        start = clock if clock > server_free_at else server_free_at
        server_free_at = start + service_time
        total_sojourn += server_free_at - clock
    return total_sojourn / n_arrivals
