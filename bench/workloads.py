"""Workload definitions of the risjam benchmark.

Every workload is a batch job run as a closed loop: one client, one job at a
time, in one process with BLAS/OpenMP threads pinned to 1. The program only
ever sees the config file generated here from the workload seed. This module
imports nothing from risjam, so the orchestrator stays light.
"""

from dataclasses import dataclass, field, replace

# The as-printed two-user defaults are infeasible (SIC SJNR cap); separating
# the users' azimuths gives the feasible reference scenario.
SEPARATED_USERS = "1.0, 1.5707963267948966"

MDL_RHOS = (0.1, 0.3, 0.5, 0.8)


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                      # "ga" or "sweep-oracle"
    why: str
    settings: dict = field(default_factory=dict)  # section -> key -> value
    md1_arrivals: int = 0


WORKLOADS = {
    "ga-desk": Workload(
        name="ga-desk",
        kind="ga",
        why=("optimize at the desk preset (N=16, population 200, 100 generations, "
             "20,201 evaluations): per-candidate interpreter overhead in link, "
             "model, decode and breeding dominates; a batched metric-chain "
             "kernel should show here"),
        settings={"geometry": {"n_elements": "16"},
                  "ga": {"population_size": "200", "max_generations": "100"}},
    ),
    "ga-paper": Workload(
        name="ga-paper",
        kind="ga",
        why=("shortened paper preset (N=400, population 2000, 5 generations, "
             "12,001 evaluations): the 2N-gene decode dominates and breeding "
             "runs over a 10x larger population; N=16-only speed-ups show little"),
        settings={"geometry": {"n_elements": "400"},
                  "ga": {"population_size": "2000", "max_generations": "5"}},
    ),
    "sweep-oracle": Workload(
        name="sweep-oracle",
        kind="sweep-oracle",
        why=("dense delay-ee grid (one SystemModel.evaluate per point), rel-beta "
             "at amplitude step 0.001 (vectorised over beta, 200k CSV rows), "
             "sjnr-n, and mdl-oracle with 10^6 arrivals per rho: the B=1 path, "
             "simulate_md1 and CSV persistence; GA changes should not move it"),
        settings={"sweep": {"arrival_rate_grid": "100:1300:20",
                            "blocklength_grid": "60:300:2",
                            "beta_grid": "0:50:0.001"}},
        md1_arrivals=1_000_000,
    ),
}

# Shrunken variants for the benchmark's own tests: same code paths and checks,
# about a second each. The GA needs this much budget to reach a feasible point
# (smaller populations, or N=16 with fewer than ~100 generations, end
# infeasible and fail the checks).
TINY_GA = {"geometry": {"n_elements": "400"},
           "ga": {"population_size": "300", "max_generations": "6"}}
TINY = {
    "ga-desk": TINY_GA,
    "ga-paper": TINY_GA,
    "sweep-oracle": {"sweep": {"arrival_rate_grid": "100:1300:1200",
                               "blocklength_grid": "60:300:48",
                               "beta_grid": "0:50:1"}},
}
TINY_MD1_ARRIVALS = 200_000


def get_workload(name: str, tiny: bool = False) -> Workload:
    workload = WORKLOADS[name]
    if tiny:
        workload = replace(workload, settings=TINY[name],
                           md1_arrivals=TINY_MD1_ARRIVALS if workload.md1_arrivals else 0)
    return workload


def config_text(workload: Workload, seed: int) -> str:
    """INI config of one workload; the seed becomes the GA / oracle RNG seed."""
    sections: dict[str, dict[str, str]] = {
        "scenario": {"user_azimuth_rad": SEPARATED_USERS},
        "ga": {"rng_seed": str(int(seed))},
    }
    for section, values in workload.settings.items():
        sections.setdefault(section, {}).update(values)
    lines = []
    for section, values in sections.items():
        lines.append(f"[{section}]")
        lines.extend(f"{key} = {value}" for key, value in values.items())
        lines.append("")
    return "\n".join(lines)
