"""
``tools/artifact_digests.py`` builds its configs from the benchmark's
workload module; a rename there must fail here, not only when the script is
run to compare two commits.
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
        "ga-paper-seed2", "one-user", "three-users", "rectangle",
        "sweep-delay-ee", "sweep-rel-beta", "sweep-sjnr-n", "sweep-delay-ee-n900",
        "sweep-delay-ee-three-users", "sweep-sjnr-n-ga", "mdl-oracle"]
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
    ga_sweep = configs["sweep-sjnr-n-ga"]
    assert (ga_sweep.sweep.policy, ga_sweep.sweep.n_elements_grid) == ("ga", (4, 16, 36))
    assert (ga_sweep.ga.population_size, ga_sweep.ga.max_generations) == (40, 20)
    assert ga_sweep.sweep.arrival_rate_grid == configs["sweep-delay-ee"].sweep.arrival_rate_grid


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
