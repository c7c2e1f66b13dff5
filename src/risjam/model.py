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
    polar_weights, _check_beam, _check_count, _check_payload, _check_powers
from .traffic import energy_efficiency, _check_frame, _check_rates, _queue, \
    _service_time
# unused here: bench/tracing.py looks these two up in this module by name
from .traffic import utilization, mean_delay


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

    The constants every evaluation uses (frame timing, payload, arrival
    rates) are checked here, once, with the messages of the stages that use
    them. Raises OverflowError if a synthesized channel entry is not finite,
    and ``sjnr`` and the evaluations raise it if an SJNR is not finite
    (``link.sjnr_all``).
    """

    def __init__(self, geometry: RisGeometry, scenario: LinkScenario,
                 noise: NoiseConfig, header_time: float, bandwidth: float,
                 payload_bits: int, arrival_rates: tuple[float, ...]):
        if len(arrival_rates) != scenario.n_users:
            raise ValueError("one arrival rate per user required")
        _check_frame(header_time, bandwidth)
        _check_payload(payload_bits)
        rates = np.array(arrival_rates, dtype=float)
        _check_rates(rates)
        self._rates = rates[:, None]  # one row per user, for every candidate
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
                 blocklength: int, retransmissions: int) -> MetricsBlock:
        """Run the full metric chain for one operating point.

        The column of a one-candidate ``evaluate_block`` on the beam's
        ``link.polar_weights``: per-user arrays (K,), the others 0-d.
        """
        weights = polar_weights(amplitudes, phases)
        if weights.ndim != 1:
            raise ValueError("one point takes 1-D amplitudes and phases")
        return self.evaluate_block(weights[None], [powers], [blocklength],
                                   [retransmissions]).column(0)

    def queue_block(self, blocklengths, retransmissions
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The queueing stage of the metric chain for B (blocklength,
        replicas) pairs at the scenario's arrival rates: utilization (K, B),
        stability of every queue (B,) and mean delay (K, B), NaN where a
        queue is unstable. It depends on neither beams nor powers; the counts
        are checked as in ``bler`` and ``reliability``, then the one-pass
        queue of ``evaluate_block`` runs."""
        blocklengths = _check_count(blocklengths, "blocklength")
        replicas = _check_count(retransmissions, "retransmission count")
        return _queue(_service_time(self.header_time, self.bandwidth, blocklengths,
                                    replicas), self._rates)

    def evaluate_block(self, weights, powers, blocklengths, retransmissions,
                       arrival_rates=None) -> MetricsBlock:
        """Run the full metric chain for B candidates at once.

        Args:
            weights: (B, N) complex RIS weights, one beam per row (see
                ``link.sjnr_all``).
            powers: (B, K) user transmit powers in watts.
            blocklengths, retransmissions: (B,) integers.
            arrival_rates: overrides the scenario's rates: K rates, entry
                k - 1 for user k, for every candidate, or a (K, B) array, row
                k - 1 holding user k's rate per candidate (a (K, 1) array is
                K rates).

        Each candidate gets the bits it gets when evaluated alone. Every
        stage runs once over all B candidates, the SJNR in one
        ``link.sjnr_all`` call. A (1, N) beam or a (1, K) power row serves all
        B candidates; any other row count, or blocklengths that are not 1-D,
        raise ValueError.

        Each input is checked once: the row counts and the arrival rates
        here, the weights and powers in ``sjnr_all``, the blocklengths in
        ``bler`` and the replica counts in ``reliability``. The queue stage
        runs over all users in one pass, unchecked.
        """
        powers = np.asarray(powers, dtype=float)
        blocklengths = np.asarray(blocklengths)
        replicas = np.asarray(retransmissions)
        if blocklengths.ndim != 1:
            raise ValueError("blocklengths must be a 1-D array, one entry per candidate")
        if replicas.shape != blocklengths.shape:
            raise ValueError("retransmissions must have one entry per blocklength")
        for name, shape in (("weights", np.shape(weights)), ("powers", powers.shape)):
            if len(shape) > 1 and shape[0] not in (1, blocklengths.size):
                raise ValueError(f"{name} must have one row, or one per blocklength")
        rates = self._rates  # checked once, when the model was built
        if arrival_rates is not None:
            try:
                rates = np.array(arrival_rates, dtype=float)
            except ValueError:  # a ragged list
                rates = np.empty((0, 0))
            rates = rates[:, None] if rates.ndim == 1 else rates
            if rates.shape not in ((self.n_users, 1), (self.n_users, blocklengths.size)):
                raise ValueError("one arrival rate per user required")
            _check_rates(rates)

        gammas = self._sjnr(weights, powers)
        blers = bler(gammas, blocklengths, self.payload_bits)
        omega = replica_success(blers)
        rel = reliability(omega, replicas)

        rhos, stable, delays = _queue(
            _service_time(self.header_time, self.bandwidth, blocklengths, replicas), rates)
        # an unstable column's efficiency is computed with stand-in delays and discarded
        n_users, n_candidates = rhos.shape
        eta = np.where(stable, energy_efficiency(
            self.payload_bits, rel[None].repeat(n_users, axis=0),
            np.broadcast_to(powers, (n_candidates, n_users)).T,
            np.where(stable, delays, 1.0)), np.nan)

        return MetricsBlock(sjnr=np.broadcast_to(gammas, blers.shape), bler=blers,
                            replica_success=omega, reliability=rel, utilization=rhos,
                            mean_delay=delays, energy_efficiency=eta, stable=stable)
