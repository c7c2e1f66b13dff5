#!/usr/bin/env python3
"""Print one sha256 per artifact of a fixed set of risjam runs.

    python3 tools/artifact_digests.py [--root CHECKOUT] [--work DIR]

Runs the CLI of ``CHECKOUT/src`` (by default this checkout's), one fresh
interpreter per command with BLAS/OpenMP threads pinned to 1:

* ``optimize`` for ga-desk seeds 1-3, ga-paper seeds 1-2, and a one-user,
  a three-user and a rectangular (4 x 6 elements) variant of ga-desk seed 1,
  and one whose best point is unstable (an arrival rate of 10^6/s, exit 2),
  so its ``solution.txt`` records the unstable ``none`` fields;
* ``sweep delay-ee``, ``sweep rel-beta``, ``sweep sjnr-n`` and
  ``mdl-oracle`` (with the workload's arrival count) for sweep-oracle seed 1,
  ``sweep delay-ee`` for its 900-element variant and for a three-user
  variant with unstable rows, ``sweep sjnr-n`` with a small GA run per
  element count, and ``sweep rel-beta`` on an edge-case grid (a signed
  zero, the smallest subnormal, repeated amplitudes and element counts);
* ``mdl-oracle`` with 3 * 2^14 + 7 arrivals at rho 0.05 and 0.95, so the
  sample path spans several chunks and ends in a short one, and ``sweep
  delay-ee`` on an arrival-rate grid of step 1 (145,321 points, more than
  one block of the metric chain), and ``optimize`` for ga-paper seed 1 with
  a population of 2001 for 3 generations, so a population ends in a short
  row block of the SJNR.

The configs come from this checkout's ``bench/workloads.config_text``, so two
checkouts run the same configs. Every output file is hashed without its
``created_utc`` and ``config_hash`` lines; each command's exit code and
standard output are hashed with the output directory replaced by ``<out>``.
The config hash its files record is printed once per run, so a change of
the config keys shows as one line per run, and ``config_echo.txt`` shows
what changed. To check that a change keeps every artifact byte-identical,
run the script once with ``--root`` at a checkout of the parent commit and
once at the change, and diff the two outputs.
"""

import argparse
import hashlib
import os
import re
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))

from workloads import config_text, get_workload  # noqa: E402

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
CLI = "import sys; from risjam.cli import main; sys.exit(main(sys.argv[1:]))"


def _variant(name: str, **sections: dict[str, str]) -> str:
    """Seed 1 of workload ``name`` with the given keys set in each section."""
    workload = get_workload(name)
    settings = dict(workload.settings)
    for section, values in sections.items():
        settings[section] = {**settings.get(section, {}), **values}
    return config_text(replace(workload, settings=settings), 1)


def runs() -> list[tuple[str, list[str], str]]:
    """(name, CLI arguments, config text) of every run."""
    listed = [(f"ga-desk-seed{s}", ["optimize"], config_text(get_workload("ga-desk"), s))
              for s in (1, 2, 3)]
    listed += [(f"ga-paper-seed{s}", ["optimize"],
                config_text(get_workload("ga-paper"), s)) for s in (1, 2)]
    three_users = {"user_azimuth_rad": "1.0, 1.5707963267948966, 2.2",
                   "dist_ris_ue_m": "20, 25, 30"}
    listed.append(("one-user", ["optimize"], _variant(
        "ga-desk", scenario={"user_azimuth_rad": "1.0", "dist_ris_ue_m": "20"})))
    listed.append(("three-users", ["optimize"], _variant("ga-desk", scenario=three_users)))
    listed.append(("rectangle", ["optimize"], _variant(
        "ga-desk", geometry={"n_elements": "24", "n_rows": "4"})))
    listed.append(("unstable-best", ["optimize"], _variant(
        "ga-desk", traffic={"arrival_rate_per_s": "1e6"}, ga={"max_generations": "3"})))
    oracle = get_workload("sweep-oracle")
    oracle_text = config_text(oracle, 1)
    listed += [(f"sweep-{kind}", ["sweep", kind], oracle_text)
               for kind in ("delay-ee", "rel-beta", "sjnr-n")]
    listed.append(("sweep-delay-ee-n900", ["sweep", "delay-ee"],
                   _variant("sweep-oracle", geometry={"n_elements": "900"})))
    listed.append(("sweep-delay-ee-three-users", ["sweep", "delay-ee"],
                   _variant("sweep-oracle", scenario=three_users)))
    listed.append(("sweep-sjnr-n-ga", ["sweep", "sjnr-n"], _variant(
        "sweep-oracle", sweep={"policy": "ga", "n_elements_grid": "4, 16, 36"},
        ga={"population_size": "40", "max_generations": "20"})))
    listed.append(("sweep-rel-beta-edges", ["sweep", "rel-beta"], _variant(
        "sweep-oracle", sweep={
            "beta_grid": "-0.0, 0.0, 5e-324, 0.1, 0.1, 0.30000000000000004, 50",
            "n_elements_grid": "4, 4"})))
    listed.append(("mdl-oracle", ["mdl-oracle", "--arrivals", str(oracle.md1_arrivals)],
                   oracle_text))
    listed.append(("mdl-oracle-chunks", ["mdl-oracle", "--arrivals", str(3 * 2 ** 14 + 7),
                                         "--rho", "0.05,0.95"], oracle_text))
    listed.append(("sweep-delay-ee-blocks", ["sweep", "delay-ee"], _variant(
        "sweep-oracle", sweep={"arrival_rate_grid": "100:1300:1"})))
    listed.append(("ga-paper-pop2001", ["optimize"], _variant(
        "ga-paper", ga={"population_size": "2001", "max_generations": "3"})))
    return listed


# the lines that record a run's config hash, in a CSV or in solution.txt
CONFIG_HASH = re.compile(rb"config_hash ?= ?(\S+)")


def _digest(data: bytes) -> str:
    lines = data.splitlines(keepends=True)
    return hashlib.sha256(b"".join(
        line for line in lines
        if b"created_utc" not in line and not CONFIG_HASH.search(line))).hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=ROOT,
                        help="checkout whose src/ is run (default: this one)")
    parser.add_argument("--work", type=Path, default=None,
                        help="directory for configs and outputs (default: a "
                             "temporary one, removed afterwards)")
    args = parser.parse_args()
    env = dict(os.environ, PYTHONPATH=str(args.root.resolve() / "src"),
               **{var: "1" for var in THREAD_VARS})
    with tempfile.TemporaryDirectory() as scratch:
        work = (args.work or Path(scratch)).resolve()
        for name, command, text in runs():
            config, out = work / f"{name}.ini", work / name
            work.mkdir(parents=True, exist_ok=True)
            config.write_text(text)
            done = subprocess.run(
                [sys.executable, "-c", CLI, *command, "--config", str(config),
                 "--out", str(out)], env=env, capture_output=True, check=False)
            stdout = done.stdout.replace(str(out).encode(), b"<out>")
            exit_line = f"exit {done.returncode}\n".encode()
            print(f"{_digest(exit_line + stdout)}  {name}/stdout")
            hashes = set()
            for path in sorted(out.iterdir()) if out.exists() else ():
                data = path.read_bytes()
                hashes.update(CONFIG_HASH.findall(data))
                print(f"{_digest(data)}  {name}/{path.name}")
            for config_hash in sorted(hashes):
                print(f"{config_hash.decode()}  {name}/config_hash")
    return 0


if __name__ == "__main__":
    sys.exit(main())
