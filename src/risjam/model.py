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
from .link import NoiseConfig, sjnr_all, bler, replica_success, reliability, \
    polar_weights, _check_beam, _check_powers
from .traffic import FrameParams, TrafficParams, utilization, mean_delay, \
    energy_efficiency


@dataclass(frozen=True)
class MetricsBlock:
    """The metric chain of B candidates, candidate b in column (entry) b.

    Per-user arrays are (K, B); the others (B,). One point (``column``) has
    (K,) per-user arrays and 0-d others. ``mean_delay`` and
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

    def column(self, b: int) -> "MetricsBlock":
        """The metrics of candidate ``b`` alone."""
        return MetricsBlock(**{name: value[..., b] for name, value in vars(self).items()})


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

    def sjnr(self, amplitudes, phases, powers) -> np.ndarray:
        """``link.sjnr_all`` of a beam given by amplitudes and phases."""
        return self._sjnr(polar_weights(amplitudes, phases), powers)

    def _sjnr(self, weights, powers) -> np.ndarray:
        return sjnr_all(self.ue_channels, self.bs_channel, self.jammer_direct,
                        self.jammer_channel, weights, powers,
                        self.scenario.jammer_power, self.noise)

    @np.errstate(over="ignore")
    def ris_output_power(self, amplitudes, powers) -> float:
        """Reporting-only estimate of the power radiated by the active RIS.

        Per-element incident power (all users, the jammer, element thermal
        noise) scaled by that element's amplification. Never part of the
        energy-efficiency denominator, so a sum beyond the float range reads
        inf instead of ending the run.
        """
        # one point: a beam that is not (N,), or a (B, K) block of powers, fails
        amps = _check_beam(amplitudes, np.zeros(self.n_elements))[0]
        p = _check_powers([powers], self.n_users)[0]
        incident = (p @ np.abs(self.ue_channels) ** 2
                    + self.scenario.jammer_power * np.abs(self.jammer_channel) ** 2
                    + self.noise.ris_thermal_var)
        return float(np.sum(amps * incident))

    def evaluate(self, amplitudes, phases, powers,
                 blocklength: int, retransmissions: int,
                 arrival_rates: tuple[float, ...] | None = None) -> MetricsBlock:
        """Run the full metric chain for one operating point.

        The column of a one-candidate ``evaluate_block`` on the beam's
        ``link.polar_weights``: per-user arrays (K,), the others 0-d.
        ``arrival_rates`` overrides the scenario rates for this evaluation
        only (channels are unaffected).
        """
        weights = polar_weights(amplitudes, phases)
        if weights.ndim != 1:
            raise ValueError("one point takes 1-D amplitudes and phases")
        return self.evaluate_block(weights[None], [powers], [blocklength],
                                   [retransmissions], arrival_rates).column(0)

    def queue_block(self, blocklengths, retransmissions, arrival_rates=None
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The queueing stage of the metric chain for B (blocklength,
        replicas) pairs: utilization (K, B), stability of every queue (B,)
        and mean delay (K, B), NaN where a queue is unstable. It depends on
        neither beams nor powers; ``arrival_rates`` is as in
        ``evaluate_block``."""
        blocklengths = np.asarray(blocklengths)
        replicas = np.asarray(retransmissions)
        rates = self._rate_rows(arrival_rates, blocklengths.shape)
        frame = FrameParams(self.header_time, self.bandwidth, blocklengths)
        traffic = TrafficParams(rates, replicas)
        users = range(1, self.n_users + 1)
        rhos = np.stack([utilization(frame, traffic, k) for k in users])
        stable = np.all(rhos < 1.0, axis=0)
        delays = np.full(rhos.shape, np.nan)
        if np.any(stable):
            # delay exists only where every queue is stable
            if not np.all(stable):
                frame = FrameParams(self.header_time, self.bandwidth, blocklengths[stable])
                traffic = TrafficParams(rates[:, stable] if rates.ndim == 2 else rates,
                                        replicas[stable])
            delays[:, stable] = np.stack([mean_delay(frame, traffic, k) for k in users])
        return rhos, stable, delays

    def _rate_rows(self, arrival_rates, shape: tuple) -> np.ndarray:
        """The scenario's K arrival rates, or those given, as a (K,) array;
        as a (K, B) one, row k - 1 for user k, if a user has one rate per
        candidate (an array of the candidates' ``shape``)."""
        if arrival_rates is None:
            return np.array(self.arrival_rates)
        rates = list(arrival_rates)
        shapes = {np.shape(rate) for rate in rates}
        if len(rates) != self.n_users or not shapes <= {(), shape}:
            raise ValueError("one arrival rate per user required")
        if len(shapes) > 1:
            rates = [np.broadcast_to(rate, shape) for rate in rates]
        return np.array(rates, dtype=float)

    def evaluate_block(self, weights, powers, blocklengths, retransmissions,
                       arrival_rates=None) -> MetricsBlock:
        """Run the full metric chain for B candidates at once.

        Args:
            weights: (B, N) complex RIS weights, one beam per row (see
                ``link.sjnr_all``).
            powers: (B, K) user transmit powers in watts.
            blocklengths, retransmissions: (B,) integers.
            arrival_rates: K entries overriding the scenario's rates, entry
                k - 1 for user k: one rate for every candidate, or a (B,)
                array of rates, one per candidate (a (K, B) array is K such
                entries).

        Each candidate gets the bits it gets when evaluated alone. Every
        stage runs once over all B candidates, the SJNR in one
        ``link.sjnr_all`` call. A (1, N) beam or a (1, K) power row serves all
        B candidates; any other row count, or blocklengths that are not 1-D,
        raise ValueError.
        """
        powers = np.asarray(powers, dtype=float)
        blocklengths = np.asarray(blocklengths)
        replicas = np.asarray(retransmissions)
        if blocklengths.ndim != 1:
            raise ValueError("blocklengths must be a 1-D array, one entry per candidate")
        if replicas.shape != blocklengths.shape:
            raise ValueError("retransmissions must have one entry per blocklength")
        for name, rows in (("weights", weights), ("powers", powers)):
            if len(np.atleast_2d(rows)) not in (1, blocklengths.size):
                raise ValueError(f"{name} must have one row, or one per blocklength")

        gammas = self._sjnr(weights, powers)
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
