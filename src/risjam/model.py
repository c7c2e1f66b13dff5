"""
Full metric chain for one physical configuration.

``SystemModel`` freezes the deterministic channels of a scenario once and
then maps candidate operating points (beamforming, powers, blocklength,
replica count) to the complete per-user metrics:
SJNR -> BLER -> replica success -> reliability -> utilization/delay ->
energy efficiency. ``evaluate_block`` runs the chain for a block of
candidates at once; ``evaluate`` is its one-candidate case.
"""

from dataclasses import dataclass

import numpy as np

from .channel import RisGeometry, LinkScenario, ris_ue_channel, ris_bs_channel, \
    jammer_direct_channel, ris_jammer_channel
from .link import BeamformConfig, NoiseConfig, sjnr_all, bler, replica_success, \
    reliability, co_phasing_phases, _check_powers
from .traffic import FrameParams, TrafficParams, utilization, mean_delay, \
    energy_efficiency


@dataclass(frozen=True)
class MetricsReport:
    """Per-user link and traffic metrics plus the system energy efficiency.

    ``mean_delay`` entries and ``energy_efficiency`` are None when any queue
    is unstable (utilization >= 1).
    """

    sjnr: tuple[float, ...]
    bler: tuple[float, ...]
    replica_success: float
    reliability: tuple[float, ...]
    utilization: tuple[float, ...]
    mean_delay: tuple[float | None, ...]
    energy_efficiency: float | None
    stable: bool


@dataclass(frozen=True)
class MetricsBlock:
    """The metric chain of B candidates, candidate b in column (entry) b.

    Per-user arrays are (K, B); the others (B,). ``mean_delay`` and
    ``energy_efficiency`` are NaN where a queue is unstable.
    """

    sjnr: np.ndarray
    bler: np.ndarray
    replica_success: np.ndarray
    reliability: np.ndarray
    utilization: np.ndarray
    mean_delay: np.ndarray
    energy_efficiency: np.ndarray
    stable: np.ndarray

    def report(self, b: int) -> MetricsReport:
        """The per-user report of candidate ``b``."""
        n_users = self.sjnr.shape[0]
        stable = bool(self.stable[b])
        return MetricsReport(
            sjnr=tuple(self.sjnr[:, b].tolist()),
            bler=tuple(self.bler[:, b].tolist()),
            replica_success=float(self.replica_success[b]),
            reliability=(float(self.reliability[b]),) * n_users,
            utilization=tuple(self.utilization[:, b].tolist()),
            mean_delay=(tuple(self.mean_delay[:, b].tolist()) if stable
                        else (None,) * n_users),
            energy_efficiency=float(self.energy_efficiency[b]) if stable else None,
            stable=stable,
        )


class SystemModel:
    """Deterministic scenario with precomputed channels.

    The channels depend only on geometry and layout, so they are synthesized
    once; every candidate evaluation then costs a few vector operations.
    Evaluations are pure and safe to run concurrently.

    Raises OverflowError if a synthesized channel entry is not finite, and
    ``sjnr`` and the evaluations raise it if an SJNR is not finite
    (``link.sjnr_all``).
    """

    def __init__(self, geometry: RisGeometry, scenario: LinkScenario,
                 noise: NoiseConfig, header_time: float, bandwidth: float,
                 payload_bits: int, arrival_rates: tuple[float, ...]):
        if len(arrival_rates) != scenario.n_users:
            raise ValueError("one arrival rate per user required")
        self.geometry = geometry
        self.scenario = scenario
        self.noise = noise
        self.header_time = header_time
        self.bandwidth = bandwidth
        self.payload_bits = payload_bits
        self.arrival_rates = tuple(arrival_rates)

        with np.errstate(over="ignore", invalid="ignore"):
            self.ue_channels = np.vstack([
                ris_ue_channel(geometry, scenario, k)
                for k in range(1, scenario.n_users + 1)
            ])
            self.bs_channel = ris_bs_channel(geometry, scenario)
            self.jammer_direct = jammer_direct_channel(geometry, scenario)
            self.jammer_channel = ris_jammer_channel(geometry, scenario)
        channels = (self.ue_channels, self.bs_channel, self.jammer_direct,
                    self.jammer_channel)
        if not all(np.all(np.isfinite(h)) for h in channels):
            raise OverflowError("invalid scenario: a synthesized channel entry is not finite")

    @property
    def n_users(self) -> int:
        return self.scenario.n_users

    @property
    def n_elements(self) -> int:
        return self.geometry.n_elements

    def co_phased_beam(self, user: int, amplitudes) -> BeamformConfig:
        """Uniform or per-element amplitudes with phases aligned to one user."""
        if not 1 <= user <= self.n_users:
            raise ValueError(f"user index {user} out of range 1..{self.n_users}")
        phases = co_phasing_phases(self.bs_channel, self.ue_channels[user - 1])
        amps = np.broadcast_to(np.asarray(amplitudes, dtype=float),
                               (self.n_elements,)).copy()
        return BeamformConfig(amps, phases)

    def sjnr(self, beam: BeamformConfig, powers) -> np.ndarray:
        return sjnr_all(self.ue_channels, self.bs_channel, self.jammer_direct,
                        self.jammer_channel, beam, powers,
                        self.scenario.jammer_power, self.noise)

    @np.errstate(over="ignore")
    def ris_output_power(self, beam: BeamformConfig, powers) -> float:
        """Reporting-only estimate of the power radiated by the active RIS.

        Per-element incident power (all users, the jammer, element thermal
        noise) scaled by that element's amplification. Never part of the
        energy-efficiency denominator, so a sum beyond the float range reads
        inf instead of ending the run.
        """
        p = _check_powers([powers], self.n_users)[0]  # one point: a (B, K) block fails
        incident = (p @ np.abs(self.ue_channels) ** 2
                    + self.scenario.jammer_power * np.abs(self.jammer_channel) ** 2
                    + self.noise.ris_thermal_var)
        return float(np.sum(beam.amplitudes * incident))

    def evaluate(self, beam: BeamformConfig, powers,
                 blocklength: int, retransmissions: int,
                 arrival_rates: tuple[float, ...] | None = None) -> MetricsReport:
        """Run the full metric chain for one operating point.

        The one-candidate case of ``evaluate_block``; ``arrival_rates``
        overrides the scenario rates for this evaluation only (used by
        traffic sweeps; channels are unaffected).
        """
        block = self.evaluate_block(beam.amplitudes[None], beam.phases[None],
                                    [powers], [blocklength],
                                    [retransmissions], arrival_rates)
        return block.report(0)

    def queue_block(self, blocklengths, retransmissions,
                    arrival_rates: tuple[float, ...] | None = None
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The queueing stage of the metric chain for B (blocklength,
        replicas) pairs: utilization (K, B), stability of every queue (B,)
        and mean delay (K, B), NaN where a queue is unstable. It depends on
        neither beams nor powers."""
        rates = self.arrival_rates if arrival_rates is None else tuple(arrival_rates)
        if len(rates) != self.n_users:
            raise ValueError("one arrival rate per user required")
        blocklengths = np.asarray(blocklengths)
        replicas = np.asarray(retransmissions)
        frame = FrameParams(self.header_time, self.bandwidth, blocklengths)
        traffic = TrafficParams(rates, replicas)
        users = range(1, self.n_users + 1)
        rhos = np.stack([utilization(frame, traffic, k) for k in users])
        stable = np.all(rhos < 1.0, axis=0)
        delays = np.full(rhos.shape, np.nan)
        if np.any(stable):
            # delay exists only where every queue is stable
            frame = FrameParams(self.header_time, self.bandwidth, blocklengths[stable])
            traffic = TrafficParams(rates, replicas[stable])
            delays[:, stable] = np.stack([mean_delay(frame, traffic, k) for k in users])
        return rhos, stable, delays

    def evaluate_block(self, amplitudes, phases, powers, blocklengths,
                       retransmissions,
                       arrival_rates: tuple[float, ...] | None = None) -> MetricsBlock:
        """Run the full metric chain for B candidates at once.

        Args:
            amplitudes, phases: (B, N) RIS beams, one per row.
            powers: (B, K) user transmit powers in watts.
            blocklengths, retransmissions: (B,) integers.
            arrival_rates: K rates overriding the scenario's for every
                candidate of this call.

        Each candidate gets the bits it gets when evaluated alone. A (1, N)
        beam and (1, K) power row serve all B candidates; their SJNR is computed once.
        """
        powers = np.asarray(powers, dtype=float)
        blocklengths = np.asarray(blocklengths)
        replicas = np.asarray(retransmissions)

        gammas = self.sjnr(BeamformConfig(amplitudes, phases), powers)
        blers = bler(gammas, blocklengths, self.payload_bits)
        omega = replica_success(blers)
        rel = reliability(omega, replicas)

        rhos, stable, delays = self.queue_block(blocklengths, replicas, arrival_rates)
        eta = np.full(stable.shape, np.nan)
        if np.any(stable):
            user_powers = np.broadcast_to(powers, (stable.size, self.n_users))
            eta[stable] = energy_efficiency(
                self.payload_bits, np.broadcast_to(rel[stable], delays[:, stable].shape),
                user_powers[stable].T, delays[:, stable])

        return MetricsBlock(sjnr=np.broadcast_to(gammas, blers.shape), bler=blers,
                            replica_success=omega, reliability=rel, utilization=rhos,
                            mean_delay=delays, energy_efficiency=eta, stable=stable)
