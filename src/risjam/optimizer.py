"""
Genetic-algorithm solver for constrained energy-efficiency maximization.

Decision variables are the per-user transmit powers, per-element RIS phases
and amplification factors, the blocklength and the replica count. The
objective is to minimize 1/eta subject to the URLLC delay and reliability
thresholds, queue stability, SIC power ordering and box bounds.

Constraint handling is feasibility dominance: a feasible candidate always
outranks an infeasible one, feasible candidates compare by objective and
infeasible ones by total constraint violation. Box bounds hold by
construction of the genome decoding, so they never appear as residuals.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .link import BeamformConfig, PowerAllocation, co_phasing_phases
from .model import SystemModel, MetricsReport

# Stand-in objective when the metric chain yields no usable efficiency
# (unstable queue or zero reliability). Large but finite so ranking
# arithmetic stays well defined.
INFEASIBLE_OBJECTIVE = 1e30

# Strictness margin for the rho_k < 1 constraint: the residual activates at
# rho = 1 - STRICT_MARGIN so that rho == 1 is never accepted as feasible.
STRICT_MARGIN = 1e-9

TWO_PI = 2.0 * np.pi

# Largest number of genome cells (candidates x RIS elements) decoded and
# scored in one call of the metric-chain kernel. Populations are evaluated
# in row blocks of this size, which keeps the (B, N) temporaries of a large
# RIS from growing with the population.
BLOCK_CELLS = 1 << 13


@dataclass(frozen=True)
class ConstraintSet:
    """Thresholds and box bounds of the optimization problem.

    ``p_min``/``nb_min``/``nb_max`` bound the search box for quantities whose
    lower/upper limits the problem statement leaves open (powers must merely
    be positive, blocklength merely a positive integer).
    """

    delay_thr: float = 1e-3
    rel_thr: float = 0.99999
    beta_max: float = 100.0
    p_max: float = 0.1
    l_max: int = 10
    p_min: float = 1e-6
    nb_min: int = 1
    nb_max: int = 1000

    def __post_init__(self):
        if self.delay_thr <= 0 or self.beta_max <= 0 or self.p_max <= 0:
            raise ValueError("thresholds and bounds must be positive")
        if not 0 < self.rel_thr < 1:
            raise ValueError("reliability threshold must lie in (0, 1)")
        if self.l_max < 1:
            raise ValueError("maximum retransmission count must be at least 1")
        if not 0 < self.p_min <= self.p_max:
            raise ValueError("need 0 < p_min <= p_max")
        if not 1 <= self.nb_min <= self.nb_max:
            raise ValueError("need 1 <= nb_min <= nb_max")


@dataclass(frozen=True)
class GaSettings:
    """Population, operator and stopping configuration of the GA.

    ``mutation_rate`` of None means one expected mutation per genome
    (1/dimension). Tolerances below machine epsilon request exact
    feasibility and disable stall detection.
    """

    population_size: int = 200
    max_generations: int = 100
    crossover_rate: float = 0.9
    mutation_rate: float | None = None
    elite_count: int = 2
    rng_seed: int = 12345
    constraint_tolerance: float = 1e-30
    function_tolerance: float = 1e-30
    co_phasing_fraction: float = 0.1
    mutation_sigma: float = 0.1
    mutation_decay: float = 0.99
    stall_generations: int = 50

    def __post_init__(self):
        if self.population_size < 1:
            raise ValueError("population must not be empty")
        if not 0 <= self.elite_count < self.population_size:
            raise ValueError("elite count must be smaller than the population")
        if self.max_generations < 0:
            raise ValueError("generation count must be non-negative")
        if not 0 <= self.crossover_rate <= 1:
            raise ValueError("crossover rate must be a probability")
        if self.mutation_rate is not None and not 0 <= self.mutation_rate <= 1:
            raise ValueError("mutation rate must be a probability")
        if not 0 <= self.co_phasing_fraction <= 1:
            raise ValueError("co-phasing seed fraction must be a probability")
        if self.constraint_tolerance < 0 or self.function_tolerance < 0:
            raise ValueError("tolerances must be non-negative")


@dataclass(frozen=True)
class DecisionVector:
    """One decoded operating point of the network."""

    user_powers: tuple[float, ...]
    phases: tuple[float, ...]
    amplitudes: tuple[float, ...]
    blocklength: int
    retransmissions: int

    @property
    def dimension(self) -> int:
        return len(self.user_powers) + 2 * len(self.phases) + 2


class DecisionBlock(NamedTuple):
    """B decoded operating points, candidate b in row (entry) b."""

    user_powers: np.ndarray      # (B, K) watts
    phases: np.ndarray           # (B, N) radians
    amplitudes: np.ndarray       # (B, N)
    blocklength: np.ndarray      # (B,) integers
    retransmissions: np.ndarray  # (B,) integers


@dataclass
class OptimizationResult:
    best_solution: DecisionVector
    best_eta: float | None
    best_objective: float
    fitness_history: list[float]
    mean_history: list[float]
    feasible_fraction_history: list[float]
    feasible: bool
    constraint_violations: dict[str, float]
    best_report: MetricsReport
    generations_run: int


# ----------------------------------------------------------------------------
#  Genome encoding
# ----------------------------------------------------------------------------
# Layout: [powers (K) | phases (N) | amplitudes (N) | blocklength | replicas],
# every gene normalized to [0, 1] and affinely mapped to its bounds at decode.

def genome_dimension(n_users: int, n_elements: int) -> int:
    return n_users + 2 * n_elements + 2


def decode_block(genomes: np.ndarray, n_users: int, n_elements: int,
                 constraints: ConstraintSet) -> DecisionBlock:
    """Map a (B, dimension) block of normalized genomes to decision vectors
    inside all box bounds, one per row."""
    k, n = n_users, n_elements
    genomes = np.asarray(genomes, dtype=float)
    if genomes.ndim != 2 or genomes.shape[1] != genome_dimension(k, n):
        raise ValueError("genome length does not match problem dimension")
    if not np.all(np.isfinite(genomes)):
        raise ValueError("genome must be finite")
    g = np.clip(genomes, 0.0, 1.0)
    c = constraints

    powers = np.minimum(c.p_min + g[:, :k] * (c.p_max - c.p_min), c.p_max)
    phases = np.minimum(g[:, k:k + n] * TWO_PI, TWO_PI)
    amplitudes = np.minimum(g[:, k + n:k + 2 * n] * c.beta_max, c.beta_max)
    # round half up onto the integer grids; genes in [0, 1] stay in range
    blocklength = c.nb_min + np.floor(
        g[:, k + 2 * n] * (c.nb_max - c.nb_min) + 0.5).astype(np.int64)
    retransmissions = 1 + np.floor(
        g[:, k + 2 * n + 1] * (c.l_max - 1) + 0.5).astype(np.int64)
    return DecisionBlock(powers, phases, amplitudes, blocklength, retransmissions)


def decode(genome: np.ndarray, n_users: int, n_elements: int,
           constraints: ConstraintSet) -> DecisionVector:
    """Map a normalized genome to a decision vector inside all box bounds."""
    x = decode_block(np.asarray(genome)[None], n_users, n_elements, constraints)
    return DecisionVector(
        user_powers=tuple(x.user_powers[0].tolist()),
        phases=tuple(x.phases[0].tolist()),
        amplitudes=tuple(x.amplitudes[0].tolist()),
        blocklength=int(x.blocklength[0]),
        retransmissions=int(x.retransmissions[0]),
    )


# ----------------------------------------------------------------------------
#  Fitness and ranking
# ----------------------------------------------------------------------------

def score_block(x: DecisionBlock, model: SystemModel, constraints: ConstraintSet
                ) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Objective 1/eta and non-negative residuals of the coupled constraints
    for each candidate of a decoded block, through one metric-chain call.

    An unstable queue is not an error here: it yields the large finite
    stand-in objective plus a positive utilization residual, so the search
    can still rank such candidates.
    """
    c = constraints
    chain = model.evaluate_block(x.amplitudes, x.phases, x.user_powers,
                                 x.blocklength, x.retransmissions)
    zero = np.zeros(chain.stable.shape)
    # each residual adds its per-user terms one user after the other
    violations = {
        "delay": sum(np.where(chain.stable,
                              np.maximum(0.0, chain.mean_delay - c.delay_thr), 0.0),
                     zero),
        "reliability": sum([np.maximum(0.0, c.rel_thr - chain.reliability)]
                           * model.n_users, zero),
        "utilization": sum(np.maximum(0.0, chain.utilization - (1.0 - STRICT_MARGIN)),
                           zero),
        "power_ordering": sum(np.maximum(0.0, x.user_powers[:, :-1]
                                         - x.user_powers[:, 1:]).T, zero),
    }

    eta = chain.energy_efficiency
    usable = eta > 0.0  # false where the queue is unstable (NaN)
    objective = np.where(
        usable, np.minimum(1.0 / np.where(usable, eta, 1.0), INFEASIBLE_OBJECTIVE),
        INFEASIBLE_OBJECTIVE)
    return objective, violations


def evaluate_fitness(x: DecisionVector, model: SystemModel,
                     constraints: ConstraintSet) -> tuple[float, dict[str, float]]:
    """Objective 1/eta and residuals of one decision vector (``score_block``
    for a block of one)."""
    block = DecisionBlock(np.array([x.user_powers], dtype=float),
                          np.array([x.phases], dtype=float),
                          np.array([x.amplitudes], dtype=float),
                          np.array([x.blocklength]), np.array([x.retransmissions]))
    objective, violations = score_block(block, model, constraints)
    return float(objective[0]), {name: float(v[0]) for name, v in violations.items()}


def _dominance_key(objective: float, total_violation: float,
                   tolerance: float) -> tuple[int, float]:
    if total_violation <= tolerance:
        return (0, objective)
    return (1, total_violation)


def rank(objectives, total_violations, tolerance: float) -> list[int]:
    """Feasibility-dominance ordering of a population, best first.

    Any candidate within the constraint tolerance outranks every infeasible
    one; feasible candidates compare by objective, infeasible ones by total
    violation; exact ties keep the lower index first.
    """
    objectives = np.asarray(objectives, dtype=float)
    total_violations = np.asarray(total_violations, dtype=float)
    infeasible = total_violations > tolerance
    value = np.where(infeasible, total_violations, objectives)
    return np.lexsort((value, infeasible)).tolist()  # stable sort


def _merit(objective, total_violation, tolerance: float):
    """Ranking value recorded in the convergence trace, candidate by candidate.

    Equals the objective once feasible; infeasible candidates sit above
    every feasible one by construction, ordered by violation.
    """
    return np.where(total_violation <= tolerance, objective,
                    INFEASIBLE_OBJECTIVE + total_violation)


# ----------------------------------------------------------------------------
#  GA driver
# ----------------------------------------------------------------------------

def _evaluate_population(pop: np.ndarray, model: SystemModel,
                         constraints: ConstraintSet) -> tuple[np.ndarray, np.ndarray]:
    """Objectives and total violations of a population, scored in row blocks
    of at most ``BLOCK_CELLS`` genome cells."""
    rows = max(1, BLOCK_CELLS // model.n_elements)
    objective = np.empty(len(pop))
    total = np.empty(len(pop))
    for start in range(0, len(pop), rows):
        x = decode_block(pop[start:start + rows], model.n_users,
                         model.n_elements, constraints)
        block_objective, violations = score_block(x, model, constraints)
        objective[start:start + rows] = block_objective
        total[start:start + rows] = sum(violations.values())
    return objective, total


def _breed(pop: np.ndarray, order: list[int], rng: np.random.Generator,
           settings: GaSettings, mutation_rate: float, sigma: float,
           n_users: int, n_elements: int) -> np.ndarray:
    """Next population: the elites, then one child per remaining slot.

    Children are made in row blocks of at most ``BLOCK_CELLS`` genes. Within
    a block the random numbers are drawn child by child in a fixed order
    (two tournaments, the crossover draw and its mask, the mutation mask and
    steps); crossover, mutation, phase wrap and clipping then run on the
    whole block.
    """
    k, n = n_users, n_elements
    size, dim = pop.shape
    position = np.empty(size, dtype=np.intp)
    position[order] = np.arange(size)
    new_pop = np.empty_like(pop)
    new_pop[:settings.elite_count] = pop[order[:settings.elite_count]]

    rows = max(1, BLOCK_CELLS // dim)
    for start in range(settings.elite_count, size, rows):
        count = min(rows, size - start)
        parents = np.empty((count, 2), dtype=np.intp)
        crossover = np.zeros((count, dim))  # gene from the first parent below 0.5
        mutation = np.empty((count, dim))   # gene mutates below mutation_rate
        steps = np.empty((count, dim))
        for child in range(count):
            for side in (0, 1):
                i, j = rng.integers(0, size, size=2)
                # size-2 tournament: the contestant ranked earlier wins
                parents[child, side] = i if position[i] <= position[j] else j
            if rng.random() < settings.crossover_rate:
                rng.random(out=crossover[child])
            rng.random(out=mutation[child])
            steps[child] = rng.normal(0.0, sigma, dim)

        children = np.where(crossover < 0.5, pop[parents[:, 0]], pop[parents[:, 1]])
        children += (mutation < mutation_rate) * steps
        children[:, k:k + n] = np.mod(children[:, k:k + n], 1.0)  # phases wrap
        children[:, :k] = np.clip(children[:, :k], 0.0, 1.0)
        children[:, k + n:] = np.clip(children[:, k + n:], 0.0, 1.0)
        new_pop[start:start + count] = children
    return new_pop


def run_ga(model: SystemModel, constraints: ConstraintSet,
           settings: GaSettings) -> OptimizationResult:
    """Evolve a population and return the best-ranked operating point.

    Tournament selection of size 2 under the dominance rule, uniform
    crossover, Gaussian mutation with decaying spread; phase genes wrap,
    all others clip to their box. The same seed reproduces the run bit for
    bit; with at least one elite the recorded best value never worsens.
    """
    k, n = model.n_users, model.n_elements
    dim = genome_dimension(k, n)
    rng = np.random.default_rng(settings.rng_seed)
    mutation_rate = settings.mutation_rate if settings.mutation_rate is not None else 1.0 / dim
    tol = settings.constraint_tolerance
    eps = float(np.finfo(float).eps)
    stall_enabled = settings.function_tolerance >= eps

    pop = rng.random((settings.population_size, dim))
    n_seeded = int(round(settings.co_phasing_fraction * settings.population_size))
    for i in range(min(n_seeded, settings.population_size)):
        user = (i % k) + 1
        aligned = co_phasing_phases(model.bs_channel, model.ue_channels[user - 1])
        pop[i, k:k + n] = aligned / TWO_PI

    objective, total = _evaluate_population(pop, model, constraints)
    order = rank(objective, total, tol)
    top = order[0]
    best_genome = pop[top].copy()
    best_key = _dominance_key(objective[top], total[top], tol)
    best_merit = float(_merit(objective[top], total[top], tol))

    fitness_history: list[float] = []
    mean_history: list[float] = []
    feasible_fraction_history: list[float] = []

    sigma = settings.mutation_sigma
    stall_count = 0
    generations_run = 0

    for _generation in range(settings.max_generations):
        pop = _breed(pop, order, rng, settings, mutation_rate, sigma, k, n)
        objective, total = _evaluate_population(pop, model, constraints)
        order = rank(objective, total, tol)
        generations_run += 1
        sigma *= settings.mutation_decay

        top = order[0]
        key = _dominance_key(objective[top], total[top], tol)
        if key < best_key:
            best_key, best_genome = key, pop[top].copy()
            best_merit = float(_merit(objective[top], total[top], tol))

        prev = fitness_history[-1] if fitness_history else None
        fitness_history.append(best_merit)
        mean_history.append(float(np.mean(_merit(objective, total, tol))))
        feasible_fraction_history.append(float(np.mean(total <= tol)))

        if stall_enabled:
            if prev is not None and prev - best_merit < settings.function_tolerance:
                stall_count += 1
            else:
                stall_count = 0
            if stall_count >= settings.stall_generations:
                break

    best = decode(best_genome, k, n, constraints)
    objective, violations = evaluate_fitness(best, model, constraints)
    beam = BeamformConfig(np.asarray(best.amplitudes), np.asarray(best.phases))
    report = model.evaluate(beam, PowerAllocation(best.user_powers),
                            best.blocklength, best.retransmissions)
    feasible = sum(violations.values()) <= tol

    return OptimizationResult(
        best_solution=best,
        best_eta=report.energy_efficiency,
        best_objective=objective,
        fitness_history=fitness_history,
        mean_history=mean_history,
        feasible_fraction_history=feasible_fraction_history,
        feasible=feasible,
        constraint_violations=violations,
        best_report=report,
        generations_run=generations_run,
    )
