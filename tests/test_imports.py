"""The library runs without importing scipy.

scipy.special alone costs a fresh interpreter about 0.3 s and 19 MB, so the
import path, an optimize run and a sweep must not load any scipy module.
"""

import os
import subprocess
import sys
from pathlib import Path

import risjam

SCRIPT = """
import sys
from pathlib import Path

import risjam
import risjam.cli
from risjam.config import load_config
from risjam.sweeps import run_optimize, sweep_reliability_vs_beta, write_sweep_csv

tmp = Path(sys.argv[1])
path = tmp / "tiny.ini"
path.write_text("[geometry]\\nn_elements = 4\\n"
                "[ga]\\npopulation_size = 10\\nmax_generations = 2\\n"
                "[sweep]\\nn_elements_grid = 4\\nbeta_grid = 0, 1, 10\\n")
cfg = load_config(path, seed=1, output_dir=tmp / "out")
run_optimize(cfg)
write_sweep_csv(sweep_reliability_vs_beta(cfg), tmp / "rel-beta.csv")
print(",".join(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def test_no_scipy_module_is_loaded(tmp_path):
    src = str(Path(risjam.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "solution.txt").exists()
    assert (tmp_path / "rel-beta.csv").exists()
    assert proc.stdout.strip() == ""
