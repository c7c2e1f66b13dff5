"""
Genetic-algorithm solver for constrained energy-efficiency maximization.

Decision variables are the per-user transmit powers, the complex weight of
each RIS element (its amplification and phase), the blocklength and the
replica count. The objective is to minimize 1/eta subject to the URLLC delay
and reliability thresholds, queue stability, SIC power ordering and box bounds.

Constraint handling is feasibility dominance: a feasible candidate always
outranks an infeasible one, feasible candidates compare by objective and
infeasible ones by total constraint violation. Box bounds hold by
construction of the genome decoding, so they never appear as residuals.
The RIS beam is a complex view of the genome, so decoding it is one
multiply. Every weight is put exactly inside the disc |w|^2 <= beta_max
where it is made: drawn or seeded in the initial population, or moved by a
mutation. Every genome is repaired before it is scored: its powers are put
in SIC order, and its blocklength and replica genes are clamped onto the
pairs that meet the closed-form delay and utilization constraints, which the
residuals still check.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .link import BLOCK_CELLS, polar_weights, sic_balanced_weights
from .model import MetricsBlock, SystemModel

# Stand-in objective when the metric chain yields no usable efficiency
# (unstable queue or zero reliability). Large but finite so ranking
# arithmetic stays well defined.
INFEASIBLE_OBJECTIVE = 1e30

# Strictness margin for the rho_k < 1 constraint: the residual activates at
# rho = 1 - STRICT_MARGIN so that rho == 1 is never accepted as feasible.
STRICT_MARGIN = 1e-9

# Gaussian mutation: each gene mutates with probability 1/dimension, by a
# normal step whose spread starts at MUTATION_SIGMA and is multiplied by
# MUTATION_DECAY after every generation.
MUTATION_SIGMA = 0.1
MUTATION_DECAY = 0.99

# Largest population x genome dimension of a GA run, whose population array
# (512 MiB at this bound) is allocated whole. The paper scale, 2000 x 804,
# holds about 1.6 Mi genes.
MAX_GENOME_CELLS = 2 ** 26

# Largest nb_max. ``_on_grid`` maps a gene in [0, 1] onto at most this many
# integer steps, where adding 0.5 is still exact in float64, so a decoded
# integer never leaves its box.
MAX_INTEGER_BOUND = 2 ** 52

# Largest l_max. ``_blocklength_caps`` holds one entry per admitted replica
# count, so this bounds its table.
MAX_REPLICA_BOUND = 2 ** 16


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
        if not 1 <= self.l_max <= MAX_REPLICA_BOUND:
            raise ValueError("maximum retransmission count must lie in 1..2**16")
        if not 0 < self.p_min <= self.p_max:
            raise ValueError("need 0 < p_min <= p_max")
        if not 1 <= self.nb_min <= self.nb_max <= MAX_INTEGER_BOUND:
            raise ValueError("need 1 <= nb_min <= nb_max <= 2**52")


@dataclass(frozen=True)
class GaSettings:
    """Population and operator configuration of the GA.

    A run evolves exactly ``max_generations`` generations.
    ``seeded_fraction`` is the share of the initial population whose beams
    are seeded (``_initial_population``). A candidate counts as feasible
    when its summed constraint violation is at most ``constraint_tolerance``.
    """

    population_size: int = 200
    max_generations: int = 100
    crossover_rate: float = 0.9
    elite_count: int = 2
    rng_seed: int = 12345
    constraint_tolerance: float = 1e-30
    seeded_fraction: float = 0.1

    def __post_init__(self):
        if self.population_size < 1:
            raise ValueError("population must not be empty")
        if self.rng_seed < 0:
            raise ValueError("rng_seed must be non-negative")
        if not 0 <= self.elite_count < self.population_size:
            raise ValueError("elite count must be smaller than the population")
        if self.max_generations < 0:
            raise ValueError("generation count must be non-negative")
        if not 0 <= self.crossover_rate <= 1:
            raise ValueError("crossover rate must be a probability")
        if not 0 <= self.seeded_fraction <= 1:
            raise ValueError("seeded-beam fraction must be a probability")
        if not 0 <= self.constraint_tolerance < np.inf:
            raise ValueError("constraint tolerance must be non-negative and finite")


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
    weights: np.ndarray          # (B, N) complex RIS weights
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
    best_report: MetricsBlock
    generations_run: int


# ----------------------------------------------------------------------------
#  Genome encoding
# ----------------------------------------------------------------------------
# Layout: [v_1.re, v_1.im, ..., v_N.re, v_N.im | powers (K) | blocklength |
# replicas]. Viewed as complex, the first 2N genes of a row are the points v_n
# of the disc |v| <= 1/2, and element n's weight is w_n = 2 sqrt(beta_max) v_n,
# so |w_n|^2 <= beta_max. Every other gene lies in [0, 1]: the powers and the
# two integers map affinely onto their bounds.

def genome_dimension(n_users: int, n_elements: int) -> int:
    return n_users + 2 * n_elements + 2


def _into_disc(points: np.ndarray) -> np.ndarray:
    """Complex ``points``, each one outside the disc |v| <= 1/2 moved radially
    onto its edge exactly: scaled by 1/(2|v|), then both parts step one ulp
    toward 0 while re^2 + im^2 still rounds above 1/4 in float64. Points
    inside keep their bits; with none outside, ``points`` itself returns."""
    with np.errstate(over="ignore"):
        outside = points.real ** 2 + points.imag ** 2 > 0.25
    if not outside.any():
        return points
    points = points.copy()
    edge = points[outside]
    edge *= 0.5 / np.abs(edge)
    parts = edge.view(float).reshape(-1, 2)
    while np.any(over := parts[:, 0] ** 2 + parts[:, 1] ** 2 > 0.25):
        parts[over] = np.nextafter(parts[over], 0.0)
    points[outside] = edge
    return points


def decode_block(genomes: np.ndarray, n_users: int, n_elements: int,
                 constraints: ConstraintSet) -> DecisionBlock:
    """Map a (B, dimension) block of normalized genomes to decision vectors
    inside all box bounds, one per row, each RIS beam as its complex weights:
    its points go through ``_into_disc`` and the other genes clip to [0, 1],
    which leaves a repaired genome unchanged."""
    k, n = n_users, n_elements
    genomes = np.ascontiguousarray(genomes, dtype=float)
    if genomes.ndim != 2 or genomes.shape[1] != genome_dimension(k, n):
        raise ValueError("genome length does not match problem dimension")
    if not np.all(np.isfinite(genomes)):
        raise ValueError("genome must be finite")
    return _decode_valid(_into_disc(genomes[:, :2 * n].view(complex)),
                         np.clip(genomes[:, 2 * n:], 0.0, 1.0), k, constraints)


def _decode_valid(points: np.ndarray, tail: np.ndarray, n_users: int,
                  constraints: ConstraintSet, weights=None) -> DecisionBlock:
    """The decision vectors of (B, N) points in the disc |v| <= 1/2 and the
    (B, K + 2) other genes in [0, 1]; unchecked, as ``decode_block`` and the
    GA's repaired populations give them. The weights go into ``weights`` if
    given, a (B, N) complex array."""
    k, c = n_users, constraints
    weights = np.multiply(2.0 * np.sqrt(c.beta_max), points, out=weights)
    powers = np.minimum(c.p_min + tail[:, :k] * (c.p_max - c.p_min), c.p_max)
    blocklength = _on_grid(tail[:, k], c.nb_min, c.nb_max)
    retransmissions = _on_grid(tail[:, k + 1], 1, c.l_max)
    return DecisionBlock(powers, weights, blocklength, retransmissions)


def _on_grid(genes: np.ndarray, low: int, high: int) -> np.ndarray:
    """Integers low..high of genes in [0, 1], rounded half up."""
    return low + np.floor(genes * (high - low) + 0.5).astype(np.int64)


def decode(genome: np.ndarray, n_users: int, n_elements: int,
           constraints: ConstraintSet) -> DecisionVector:
    """Map a normalized genome to a decision vector inside all box bounds,
    its weights in polar form: amplitude min(|w|^2, beta_max) (|w|^2 on the
    disc's edge may round above beta_max) and phase angle(w) mod 2 pi."""
    x = decode_block(np.asarray(genome)[None], n_users, n_elements, constraints)
    w = x.weights[0]
    amplitudes = np.minimum(w.real ** 2 + w.imag ** 2, constraints.beta_max)
    phases = np.mod(np.angle(w), 2.0 * np.pi)
    return DecisionVector(tuple(x.user_powers[0].tolist()), tuple(phases.tolist()),
                          tuple(amplitudes.tolist()), int(x.blocklength[0]),
                          int(x.retransmissions[0]))


def _point_block(x: DecisionVector) -> DecisionBlock:
    """A one-row block of a decision vector, its weights ``polar_weights``."""
    return DecisionBlock(np.array([x.user_powers], dtype=float),
                         polar_weights(x.amplitudes, x.phases)[None],
                         np.array([x.blocklength]), np.array([x.retransmissions]))


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
    (n_b x L) grid is built, so each costs a few dozen steps, the second
    over at most ``l_max`` (<= MAX_REPLICA_BOUND) entries.
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


def _repair(genomes: np.ndarray, n_users: int, constraints: ConstraintSet,
            caps: np.ndarray) -> None:
    """Move the power and integer genes of a (B, dimension) block of genomes
    in place into their box and onto the closed-form part of the feasible
    set; the beam genes are left as they are.

    The K power genes and the two integer genes clip to [0, 1], the power
    genes are sorted on every row so that p_1 <= ... <= p_K, the blocklength
    gene is clamped to the largest admitted blocklength, cap(1), and then the
    replica gene to the largest replica count admitted at the decoded
    blocklength. A clamped gene sits at the centre of its cap's rounding
    interval, so it decodes to the cap exactly. Without an admitted pair
    nothing is clamped.
    """
    k, c = n_users, constraints
    tail = genomes[:, -(k + 2):]
    np.clip(tail, 0.0, 1.0, out=tail)
    tail[:, :k].sort(axis=1)
    if not len(caps):
        return
    blocklength_gene, replica_gene = tail[:, k], tail[:, k + 1]
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
                ) -> tuple[np.ndarray, dict[str, np.ndarray], MetricsBlock]:
    """Objective 1/eta and non-negative residuals of the coupled constraints
    for each candidate of a decoded block, and the metric-chain block they come from.

    An unstable queue is not an error here: it yields the large finite
    stand-in objective plus a positive utilization residual, so the search
    can still rank such candidates.
    """
    c = constraints
    chain = model.evaluate_block(x.weights, x.user_powers, x.blocklength,
                                 x.retransmissions)
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
    return objective, violations, chain


def evaluate_fitness(x: DecisionVector, model: SystemModel,
                     constraints: ConstraintSet) -> tuple[float, dict[str, float]]:
    """Objective 1/eta and residuals of one decision vector (``score_block``
    for a block of one, its weights ``link.polar_weights``)."""
    objective, violations, _ = score_block(_point_block(x), model, constraints)
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
    """Objectives and total violations of a population, decoded and scored
    in one metric-chain call, and so in one ``link.sjnr_all`` call.

    Every point of ``pop`` lies in the disc and every other gene in [0, 1]
    (``_initial_population``, ``_breed`` and ``_repair`` keep it so), so it
    is decoded without ``decode_block``'s checks and projections, which would
    change no bit of it."""
    size, n = len(pop), model.n_elements
    # The weights fill the front of an array of the population's size, so
    # that a freed population and a freed weight array fit each other's
    # place on the heap. A (B, N) array of its own, a little smaller than a
    # population, fragmented it: ga-paper's peak RSS read 70 or 82 MB,
    # depending on the length of the output path.
    weights = np.empty_like(pop).reshape(-1)[:size * 2 * n].view(complex)
    x = _decode_valid(pop[:, :2 * n].view(complex), pop[:, 2 * n:], model.n_users,
                      constraints, weights.reshape(size, n))
    objective, violations, _ = score_block(x, model, constraints)
    return objective, sum(violations.values())


def _breed(pop: np.ndarray, order: list[int], rng: np.random.Generator,
           settings: GaSettings, mutation_rate: float, sigma: float,
           n_elements: int) -> np.ndarray:
    """Next population: the elites, then one child per remaining slot, its
    beam in the disc and its other genes not yet repaired.

    Crossover takes each element whole, on the complex view, so a child's
    element is one of its parents' points of the disc, and each of the other
    genes from one parent. Each gene then mutates with probability
    ``mutation_rate`` by a Gaussian step of spread ``sigma``, and every
    element with a mutated gene goes through ``_into_disc``; an element with
    no mutated gene keeps its parent's bits.

    The random numbers come in whole arrays, in an order that does not
    depend on ``BLOCK_CELLS``: every tournament contestant, every crossover
    flag, one crossover bit per element and then per other gene (one byte
    string, each child's bits starting on a byte), the number of genes that
    mutate, which genes those are, and last one Gaussian step for each of
    them, in row-major order.
    """
    size, dim = pop.shape
    n = n_elements
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
    n_bits = dim - n  # the N elements, then the other genes
    row_bytes = -(-n_bits // 8)
    bits = np.frombuffer(rng.bytes(n_children * row_bytes),
                         dtype=np.uint8).reshape(n_children, row_bytes)
    points = pop[:, :2 * n].view(complex)
    child_points = children[:, :2 * n].view(complex)
    rows = max(1, BLOCK_CELLS // dim)
    for start in range(0, n_children, rows):
        block = slice(start, min(start + rows, n_children))
        first, second = parents[block, 0], parents[block, 1]
        # a crossing child takes a locus from its second parent where the
        # locus's crossover bit is set
        take = np.unpackbits(bits[block], axis=1, count=n_bits).view(bool)
        take &= crossing[block, None]
        child_points[block] = np.where(take[:, :n], points[second], points[first])
        children[block, 2 * n:] = np.where(take[:, n:], pop[second, 2 * n:],
                                           pop[first, 2 * n:])
    cells = children.size
    mutating = np.sort(rng.choice(cells, rng.binomial(cells, mutation_rate),
                                  replace=False, shuffle=False))
    children.reshape(-1)[mutating] += rng.normal(0.0, sigma, len(mutating))
    row, column = np.divmod(mutating, dim)
    beam = column < 2 * n
    # an element with both genes mutated is read and written twice, alike
    element = row[beam], column[beam] // 2
    child_points[element] = _into_disc(child_points[element])
    return new_pop


def _initial_population(model: SystemModel, settings: GaSettings,
                        rng: np.random.Generator) -> np.ndarray:
    """Uniform random genomes, the first ``seeded_fraction`` of them
    with SIC-balanced beams; every point lies in the disc |v| <= 1/2 and
    every other gene in [0, 1].

    Each element's drawn pair (a, b) is read as the point
    v = ((a - 1/2) + j (b - 1/2)) / sqrt(2), uniform over the square
    inscribed in the disc, through ``_into_disc``, which only catches
    rounding at its corners. Each seeded row holds one SIC-balanced beam w
    (``link.sic_balanced_weights``), with consecutive users' gain ratio r
    log-spaced over [1, 10^3] across the seeded rows, all from one solve;
    the seeds draw no random numbers. A seeded row's points are
    w / (2 max|w|) through ``_into_disc``, unless max|w| is 0 or not
    finite, when the row keeps its drawn points.
    """
    k, n = model.n_users, model.n_elements
    size = settings.population_size
    pop = rng.random((size, genome_dimension(k, n)))
    points = pop[:, :2 * n].view(complex)
    # in row blocks, so that no temporary grows with the population
    rows = max(1, BLOCK_CELLS // n)
    for start in range(0, size, rows):
        block = pop[start:start + rows, :2 * n]
        block -= 0.5
        block *= np.sqrt(0.5)
        drawn = points[start:start + rows]
        inside = _into_disc(drawn)
        if inside is not drawn:  # a corner point rounded out of the disc
            drawn[...] = inside

    n_seeded = min(int(round(settings.seeded_fraction * size)), size)
    weights = sic_balanced_weights(model.bs_channel, model.ue_channels,
                                   model.jammer_channel, np.logspace(0.0, 3.0, n_seeded))
    peak = np.max(np.abs(weights), axis=1)
    usable = (0 < peak) & (peak < np.inf)
    points[:n_seeded][usable] = _into_disc(weights[usable] / (2.0 * peak[usable, None]))
    return pop


def run_ga(model: SystemModel, constraints: ConstraintSet,
           settings: GaSettings) -> OptimizationResult:
    """Evolve a population and return the best-ranked operating point.

    The initial population (``_initial_population``) is drawn uniform, its
    first ``seeded_fraction`` rows seeded with SIC-balanced beams from one
    least-squares solve. Tournament selection of size 2 under the dominance
    rule, uniform crossover of whole elements and genes, Gaussian mutation
    with decaying spread that puts every mutated element back into the disc.
    The initial population and every bred one are repaired (``_repair``):
    the power and integer genes clip to their box, powers are ordered and
    the blocklength and replica genes are clamped onto the pairs that meet
    the delay and utilization constraints, so decoding changes no gene. The
    record is the best genome's decision vector, whose weights are polar,
    scored as ``evaluate_fitness`` scores it. The same seed reproduces the
    run bit for bit; with at least one elite the recorded best value never
    worsens. Raises OverflowError when the population holds more than
    ``MAX_GENOME_CELLS`` genes.
    """
    k, n = model.n_users, model.n_elements
    dim = genome_dimension(k, n)
    if settings.population_size * dim > MAX_GENOME_CELLS:
        raise OverflowError(f"population_size {settings.population_size} x genome "
                            f"dimension {dim} is above 2**26 genes")
    rng = np.random.default_rng(settings.rng_seed)
    tol = settings.constraint_tolerance
    caps = _blocklength_caps(model, constraints)

    pop = _initial_population(model, settings, rng)
    _repair(pop, k, constraints, caps)

    best_standing = best_genome = None
    fitness_history: list[float] = []
    mean_history: list[float] = []
    feasible_fraction_history: list[float] = []
    sigma = MUTATION_SIGMA

    # generation 0 is the initial population: ranked and tracked, not recorded
    for generation in range(settings.max_generations + 1):
        if generation:
            pop = _breed(pop, order, rng, settings, 1.0 / dim, sigma, n)
            _repair(pop[settings.elite_count:], k, constraints, caps)
            sigma *= MUTATION_DECAY
        objective, total = _evaluate_population(pop, model, constraints)
        order = rank(objective, total, tol)
        infeasible, value = _standing(objective, total, tol)
        top = order[0]
        standing = (bool(infeasible[top]), float(value[top]))
        if best_standing is None or standing < best_standing:
            best_standing, best_genome = standing, pop[top].copy()
        if not generation:
            continue

        fitness_history.append(float(_merit(*best_standing)))
        mean_history.append(float(np.mean(_merit(infeasible, value))))
        feasible_fraction_history.append(float(np.mean(~infeasible)))

    best = decode(best_genome, k, n, constraints)
    objective, violations, chain = score_block(_point_block(best), model, constraints)
    violations = {name: float(v[0]) for name, v in violations.items()}
    report = chain.column(0)

    return OptimizationResult(
        best_solution=best,
        best_eta=float(report.energy_efficiency) if report.stable else None,
        best_objective=float(objective[0]),
        fitness_history=fitness_history,
        mean_history=mean_history,
        feasible_fraction_history=feasible_fraction_history,
        feasible=sum(violations.values()) <= tol,
        constraint_violations=violations,
        best_report=report,
        generations_run=len(fitness_history),
    )
