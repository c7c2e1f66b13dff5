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
Every genome is repaired before it is scored: its powers are put in SIC
order and its blocklength and replica genes are clamped onto the pairs that
meet the closed-form delay and utilization constraints, which the residuals
still check.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .link import BeamformConfig, PowerAllocation, co_phasing_phases, \
    sic_balanced_weights
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
BLOCK_CELLS = 1 << 16

# Largest nb_max and l_max. ``_on_grid`` maps a gene in [0, 1] onto at most
# this many integer steps, where adding 0.5 is still exact in float64, so a
# decoded integer never leaves its box.
MAX_INTEGER_BOUND = 2 ** 52


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
        if not all(0 < v < np.inf for v in (self.delay_thr, self.beta_max, self.p_max)):
            raise ValueError("thresholds and bounds must be positive and finite")
        if not 0 < self.rel_thr < 1:
            raise ValueError("reliability threshold must lie in (0, 1)")
        if not 1 <= self.l_max <= MAX_INTEGER_BOUND:
            raise ValueError("maximum retransmission count must lie in 1..2**52")
        if not 0 < self.p_min <= self.p_max:
            raise ValueError("need 0 < p_min <= p_max")
        if not 1 <= self.nb_min <= self.nb_max <= MAX_INTEGER_BOUND:
            raise ValueError("need 1 <= nb_min <= nb_max <= 2**52")


@dataclass(frozen=True)
class GaSettings:
    """Population, operator and stopping configuration of the GA.

    ``mutation_rate`` of None means one expected mutation per genome
    (1/dimension). ``function_tolerance`` is relative, as MATLAB ``ga``'s
    FunctionTolerance: a generation stalls unless the best standing's value
    drops by at least that fraction of its previous value. Tolerances below
    machine epsilon request exact feasibility and disable stall detection.
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
        if not (0 <= self.constraint_tolerance < np.inf
                and 0 <= self.function_tolerance < np.inf):
            raise ValueError("tolerances must be non-negative and finite")
        if not (0 <= self.mutation_sigma < np.inf and 0 <= self.mutation_decay < np.inf):
            raise ValueError("mutation spread and decay must be non-negative and finite")


@dataclass(frozen=True)
class DecisionVector:
    """One decoded operating point of the network."""

    user_powers: tuple[float, ...]
    phases: tuple[float, ...]
    amplitudes: tuple[float, ...]
    blocklength: int
    retransmissions: int


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
    blocklength = _on_grid(g[:, k + 2 * n], c.nb_min, c.nb_max)
    retransmissions = _on_grid(g[:, k + 2 * n + 1], 1, c.l_max)
    return DecisionBlock(powers, phases, amplitudes, blocklength, retransmissions)


def _on_grid(genes: np.ndarray, low: int, high: int) -> np.ndarray:
    """Integers low..high of genes in [0, 1], rounded half up."""
    return low + np.floor(genes * (high - low) + 0.5).astype(np.int64)


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
#  Genome repair
# ----------------------------------------------------------------------------
# Utilization and delay depend only on the blocklength n_b, the replica count
# L and the arrival rates, in closed form, and both grow with n_b and with L.
# The pairs that meet them are therefore n_b = nb_min..cap(L) for
# L = 1..len(caps), with cap(L) non-increasing.

def _largest_feasible(feasible, low, high) -> np.ndarray:
    """Per entry, the largest integer in low..high at which ``feasible``
    holds, by bisection; ``feasible`` must hold at ``low`` and stay false
    once it turns false."""
    low = np.asarray(low, dtype=np.int64)
    high = np.asarray(high, dtype=np.int64) + 1  # the first point known to fail
    while np.any(high - low > 1):
        middle = (low + high) // 2
        ok = feasible(middle)
        low, high = np.where(ok, middle, low), np.where(ok, high, middle)
    return low


def _blocklength_caps(model: SystemModel, constraints: ConstraintSet) -> np.ndarray:
    """Largest blocklength meeting the utilization and delay constraints for
    each replica count L = 1, 2, ... that admits one (entry L - 1); a pair
    meets them when both its residuals in ``score_block`` are 0.

    Empty when not even (nb_min, 1) qualifies. One bisection over L at
    n_b = nb_min, then one over n_b for every admitted L at once; no
    (n_b x L) grid is built, so unbounded boxes cost a few dozen steps.
    """
    c = constraints

    def feasible(blocklengths, replicas):
        queue = model.queue_block(*np.broadcast_arrays(
            np.asarray(blocklengths, dtype=np.int64), np.asarray(replicas, dtype=np.int64)))
        delay, utilization = _queue_residuals(*queue, c)
        return (delay == 0.0) & (utilization == 0.0)

    if not feasible([c.nb_min], [1])[0]:
        return np.empty(0, dtype=np.int64)
    l_cap = int(_largest_feasible(lambda replicas: feasible([c.nb_min], replicas)[0],
                                  1, c.l_max))
    replicas = np.arange(1, l_cap + 1)
    return _largest_feasible(lambda blocklengths: feasible(blocklengths, replicas),
                             np.full(l_cap, c.nb_min), np.full(l_cap, c.nb_max))


def _repair(genomes: np.ndarray, n_users: int, n_elements: int,
            constraints: ConstraintSet, caps: np.ndarray) -> None:
    """Move a (B, dimension) block of genomes in place into the box and onto
    the closed-form part of the feasible set.

    Phase genes wrap and the others clip to [0, 1]; the power genes are
    sorted so that p_1 <= ... <= p_K; the blocklength gene is clamped to the
    largest admitted blocklength, cap(1), and then the replica gene to the
    largest replica count admitted at the decoded blocklength. A clamped
    gene sits at the centre of its cap's rounding interval, so it decodes to
    the cap exactly. Without an admitted pair nothing is clamped.
    """
    k, n, c = n_users, n_elements, constraints
    np.mod(genomes[:, k:k + n], 1.0, out=genomes[:, k:k + n])
    np.clip(genomes[:, :k], 0.0, 1.0, out=genomes[:, :k])
    np.clip(genomes[:, k + n:], 0.0, 1.0, out=genomes[:, k + n:])
    genomes[:, :k].sort(axis=1)
    if not len(caps):
        return
    blocklength_gene = genomes[:, k + 2 * n]
    replica_gene = genomes[:, k + 2 * n + 1]
    if c.nb_max > c.nb_min:
        np.minimum(blocklength_gene, (caps[0] - c.nb_min) / (c.nb_max - c.nb_min),
                   out=blocklength_gene)
    if c.l_max > 1:
        # the replica counts admitted at a blocklength are 1..(caps >= it)
        admitted = np.searchsorted(-caps, -_on_grid(blocklength_gene, c.nb_min, c.nb_max),
                                   side="right")
        np.minimum(replica_gene, (admitted - 1) / (c.l_max - 1), out=replica_gene)


# ----------------------------------------------------------------------------
#  Fitness and ranking
# ----------------------------------------------------------------------------

def _queue_residuals(rhos, stable, delays, constraints: ConstraintSet
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Delay and utilization residuals (B,) of ``SystemModel.queue_block``'s
    output; where a queue is unstable only the utilization one is positive."""
    zero = np.zeros(stable.shape)
    delay = sum(np.where(stable, np.maximum(0.0, delays - constraints.delay_thr), 0.0),
                zero)
    utilization = sum(np.maximum(0.0, rhos - (1.0 - STRICT_MARGIN)), zero)
    return delay, utilization


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
    delay, utilization = _queue_residuals(chain.utilization, chain.stable,
                                          chain.mean_delay, c)
    # each residual adds its per-user terms one user after the other
    violations = {
        "delay": delay,
        "reliability": sum([np.maximum(0.0, c.rel_thr - chain.reliability)]
                           * model.n_users, zero),
        "utilization": utilization,
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


def _standing(objectives, total_violations, tolerance: float
              ) -> tuple[np.ndarray, np.ndarray]:
    """Feasibility-dominance standing ``(infeasible, value)`` of each
    candidate; standings compare as tuples, lower is better.

    A candidate is infeasible when its total violation exceeds the
    tolerance; its value is then that violation, otherwise its objective.
    """
    objectives = np.asarray(objectives, dtype=float)
    total_violations = np.asarray(total_violations, dtype=float)
    infeasible = total_violations > tolerance
    return infeasible, np.where(infeasible, total_violations, objectives)


def rank(objectives, total_violations, tolerance: float) -> list[int]:
    """Feasibility-dominance ordering of a population, best first.

    Any candidate within the constraint tolerance outranks every infeasible
    one; feasible candidates compare by objective, infeasible ones by total
    violation; exact ties keep the lower index first.
    """
    infeasible, value = _standing(objectives, total_violations, tolerance)
    return np.lexsort((value, infeasible)).tolist()  # stable sort


def _merit(infeasible, value):
    """Ranking value recorded in the convergence trace for a standing.

    Equals the objective once feasible. An infeasible standing records
    ``INFEASIBLE_OBJECTIVE`` plus its violation, which in float64 is exactly
    1e30 for every violation below about 7e13 (``np.spacing(1e30) / 2``), so
    the trace does not order infeasible candidates; the feasible fraction
    shows their progress.
    """
    return np.where(infeasible, INFEASIBLE_OBJECTIVE + value, value)


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
           settings: GaSettings, mutation_rate: float, sigma: float) -> np.ndarray:
    """Next population: the elites, then one child per remaining slot, not
    yet repaired.

    The random numbers come in whole arrays, in an order that does not
    depend on ``BLOCK_CELLS``: every tournament contestant, every crossover
    flag, then row by row each child's crossover and mutation uniforms
    (drawn in row blocks of at most ``BLOCK_CELLS`` genes per kind), and
    last one Gaussian step for each gene that mutates, in row-major order.
    """
    size, dim = pop.shape
    elites = settings.elite_count
    n_children = size - elites
    position = np.empty(size, dtype=np.intp)
    position[order] = np.arange(size)
    new_pop = np.empty(pop.shape)  # C order: the children reshape to a flat view
    new_pop[:elites] = pop[order[:elites]]
    children = new_pop[elites:]

    # size-2 tournaments, two per child: the contestant ranked earlier wins
    contestants = rng.integers(0, size, (n_children, 2, 2))
    standing = position[contestants]
    parents = np.where(standing[..., 0] <= standing[..., 1],
                       contestants[..., 0], contestants[..., 1])
    crossing = rng.random(n_children) < settings.crossover_rate
    mutating = []  # flat indices into the children, row-major
    rows = max(1, BLOCK_CELLS // dim)
    for start in range(0, n_children, rows):
        block = slice(start, min(start + rows, n_children))
        uniforms = rng.random((block.stop - start, 2, dim))
        # a crossing child takes a gene from its second parent where its
        # crossover uniform is 0.5 or more
        second = crossing[block, None] & (uniforms[:, 0] >= 0.5)
        children[block] = np.where(second, pop[parents[block, 1]], pop[parents[block, 0]])
        mutating.append(start * dim + np.flatnonzero(uniforms[:, 1] < mutation_rate))
    mutating = np.concatenate(mutating)
    children.reshape(-1)[mutating] += rng.normal(0.0, sigma, len(mutating))
    return new_pop


def _initial_population(model: SystemModel, settings: GaSettings,
                        rng: np.random.Generator) -> np.ndarray:
    """Uniform random genomes, the first ``co_phasing_fraction`` of them
    with seeded beams.

    With one user every seed slot co-phases that user. With K >= 2 the
    even slots co-phase the users in turn and the odd slots hold
    SIC-balanced beams (``link.sic_balanced_weights``), with consecutive
    users' gain ratio r log-spaced over [1, 10^3] across those slots; the
    seeds draw no random numbers.
    """
    k, n = model.n_users, model.n_elements
    size = settings.population_size
    pop = rng.random((size, genome_dimension(k, n)))
    n_seeded = min(int(round(settings.co_phasing_fraction * size)), size)
    if k == 1:
        cophased, balanced = range(n_seeded), range(0)
    else:
        cophased, balanced = range(0, n_seeded, 2), range(1, n_seeded, 2)
    for j, i in enumerate(cophased):
        aligned = co_phasing_phases(model.bs_channel, model.ue_channels[j % k])
        pop[i, k:k + n] = aligned / TWO_PI
    for i, ratio in zip(balanced, np.logspace(0.0, 3.0, len(balanced))):
        weights = sic_balanced_weights(model.bs_channel, model.ue_channels,
                                       model.jammer_channel, ratio)
        pop[i, k:k + n] = np.mod(np.angle(weights) / TWO_PI, 1.0)
        squared = np.abs(weights) ** 2
        pop[i, k + n:k + 2 * n] = squared / np.max(squared)
    return pop


def run_ga(model: SystemModel, constraints: ConstraintSet,
           settings: GaSettings) -> OptimizationResult:
    """Evolve a population and return the best-ranked operating point.

    Tournament selection of size 2 under the dominance rule, uniform
    crossover, Gaussian mutation with decaying spread. The initial
    population and every bred one are repaired (``_repair``): phase genes
    wrap, all others clip to their box, powers are ordered and the
    blocklength and replica genes are clamped onto the pairs that meet the
    delay and utilization constraints. The same seed reproduces the run
    bit for bit; with at least one elite the recorded best value never
    worsens.
    """
    k, n = model.n_users, model.n_elements
    dim = genome_dimension(k, n)
    rng = np.random.default_rng(settings.rng_seed)
    mutation_rate = settings.mutation_rate if settings.mutation_rate is not None else 1.0 / dim
    tol = settings.constraint_tolerance
    eps = float(np.finfo(float).eps)
    stall_enabled = settings.function_tolerance >= eps
    caps = _blocklength_caps(model, constraints)

    pop = _initial_population(model, settings, rng)
    _repair(pop, k, n, constraints, caps)

    best_standing = best_genome = None
    fitness_history: list[float] = []
    mean_history: list[float] = []
    feasible_fraction_history: list[float] = []
    sigma = settings.mutation_sigma
    stall_count = 0

    # generation 0 is the initial population: ranked and tracked, not recorded
    for generation in range(settings.max_generations + 1):
        if generation:
            pop = _breed(pop, order, rng, settings, mutation_rate, sigma)
            _repair(pop[settings.elite_count:], k, n, constraints, caps)
            sigma *= settings.mutation_decay
        objective, total = _evaluate_population(pop, model, constraints)
        order = rank(objective, total, tol)
        infeasible, value = _standing(objective, total, tol)
        top = order[0]
        standing = (bool(infeasible[top]), float(value[top]))
        previous = best_standing
        if best_standing is None or standing < best_standing:
            best_standing, best_genome = standing, pop[top].copy()
        if not generation:
            continue

        fitness_history.append(float(_merit(*best_standing)))
        mean_history.append(float(np.mean(_merit(infeasible, value))))
        feasible_fraction_history.append(float(np.mean(~infeasible)))

        if stall_enabled:
            # a generation stalls unless the best turns feasible or its
            # value drops by the tolerance times its previous value
            stalled = (previous[0] == best_standing[0]
                       and previous[1] - best_standing[1]
                       < settings.function_tolerance * abs(previous[1]))
            stall_count = stall_count + 1 if stalled else 0
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
        generations_run=len(fitness_history),
    )
