"""The README's *Library use* example runs as printed."""

import os
import re
import subprocess
import sys
from pathlib import Path

import risjam

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_example_runs(tmp_path):
    section = README.read_text().split("## Library use", 1)[1]
    example = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    src = str(Path(risjam.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", example], capture_output=True,
                          text=True, env=env, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "True"
