"""
``tools/artifact_digests.py`` and ``tools/seed_scan.py`` build their configs
from the benchmark's workload module; a rename there must fail here, not
only when a script is run to compare two commits.
"""

import importlib.util
from pathlib import Path

import pytest

from risjam.config import load_config

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "artifact_digests.py"


@pytest.fixture(scope="module")
def digests():
    spec = importlib.util.spec_from_file_location("artifact_digests", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_run_config_loads(digests, tmp_path):
    runs = digests.runs()
    assert [name for name, _, _ in runs] == [
        "ga-desk-seed1", "ga-desk-seed2", "ga-desk-seed3", "ga-paper-seed1",
        "ga-paper-seed2", "one-user", "three-users", "rectangle", "unstable-best",
        "sweep-delay-ee", "sweep-rel-beta", "sweep-sjnr-n", "sweep-delay-ee-n900",
        "sweep-delay-ee-three-users", "sweep-sjnr-n-ga", "sweep-rel-beta-edges",
        "mdl-oracle", "mdl-oracle-chunks", "sweep-delay-ee-blocks", "ga-paper-pop2001"]
    configs = {}
    for name, _, text in runs:
        path = tmp_path / f"{name}.ini"
        path.write_text(text)
        configs[name] = load_config(path)
    users = [configs[name].scenario.n_users for name in (
        "one-user", "ga-desk-seed1", "three-users", "sweep-delay-ee-three-users")]
    assert users == [1, 2, 3, 3]
    shapes = [(configs[name].geometry.n_rows, configs[name].geometry.n_cols)
              for name in ("ga-desk-seed1", "rectangle")]
    assert shapes == [(4, 4), (4, 6)]
    assert configs["sweep-delay-ee-n900"].geometry.n_elements == 900
    unstable = configs["unstable-best"]
    assert (unstable.traffic.arrival_rates, unstable.ga.max_generations) == ((1e6, 1e6), 3)
    ga_sweep = configs["sweep-sjnr-n-ga"]
    assert (ga_sweep.sweep.policy, ga_sweep.sweep.n_elements_grid) == ("ga", (4, 16, 36))
    assert (ga_sweep.ga.population_size, ga_sweep.ga.max_generations) == (40, 20)
    assert ga_sweep.sweep.arrival_rate_grid == configs["sweep-delay-ee"].sweep.arrival_rate_grid
    blocks = configs["sweep-delay-ee-blocks"].sweep
    assert len(blocks.arrival_rate_grid) * len(blocks.blocklength_grid) == 145_321
    short = configs["ga-paper-pop2001"]
    assert (short.geometry.n_elements, short.ga.population_size) == (400, 2001)
    assert short.ga.max_generations == 3
    chunks = dict((name, command) for name, command, _ in runs)["mdl-oracle-chunks"]
    assert chunks[1:] == ["--arrivals", str(3 * 2 ** 14 + 7), "--rho", "0.05,0.95"]


def test_digest_ignores_only_the_timestamp(digests):
    a = b"# kind=x\n# created_utc=2026-01-01\nrow\n"
    b = b"# kind=x\n# created_utc=2027-12-31\nrow\n"
    assert digests._digest(a) == digests._digest(b)
    assert digests._digest(a) != digests._digest(a.replace(b"row", b"r0w"))


def test_digest_drops_the_config_hash_lines(digests):
    csv = b"# kind=x\n# config_hash=sha256:0123\nrow\n"
    record = b"seed = 1\nconfig_hash = sha256:0123\n"
    assert digests._digest(csv) == digests._digest(csv.replace(b"0123", b"4567"))
    assert digests._digest(record) == digests._digest(b"seed = 1\n")
    assert digests.CONFIG_HASH.findall(csv + record) == [b"sha256:0123"] * 2


SEED_SCAN = SCRIPT.parent / "seed_scan.py"


@pytest.fixture(scope="module")
def seed_scan():
    spec = importlib.util.spec_from_file_location("seed_scan", SEED_SCAN)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_seed_scan_checks_each_run(seed_scan, tmp_path):
    assert seed_scan._seeds("3-5") == range(3, 6)
    assert seed_scan._seeds("7") == range(7, 8)
    workload = seed_scan.get_workload("ga-desk", tiny=True)
    scans = [seed_scan.scan_seed(workload, seed, tmp_path) for seed in (1, 2)]
    for seed, scan in zip((1, 2), scans):
        assert scan["seed"] == seed
        assert scan["feasible"] is True and scan["eta"] > 0
        assert scan["failed"] == []
        assert set(scan["residuals"]) == {"delay", "reliability", "utilization",
                                          "power_ordering"}
        assert all(v == 0.0 for v in scan["residuals"].values())


def test_seed_scan_rejects_a_sweep_workload(seed_scan):
    with pytest.raises(SystemExit) as exit_info:
        seed_scan.main(["--workload", "sweep-oracle", "--seeds", "1-2"])
    assert exit_info.value.code == 2
