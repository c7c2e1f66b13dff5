"""The README's *Library use* example runs as printed, its *Configuration*
block lists every config key with its default, and its allowed-ranges table
names every key and no other."""

import configparser
import os
import re
import subprocess
import sys
from pathlib import Path

import risjam
from risjam import config

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


def test_configuration_block_lists_the_schema():
    section = README.read_text().split("## Configuration", 1)[1]
    block = re.search(r"```ini\n(.*?)```", section, re.DOTALL).group(1)
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    parser.read_string(block)
    listed = [(s, k, v) for s in parser.sections() for k, v in parser.items(s)]
    assert listed == [(s, k, default) for s, keys in config.SCHEMA.items()
                      for k, (default, _) in keys.items()]


def test_range_table_names_every_key():
    # the backticked names in the key column of the allowed-ranges table,
    # `*` standing for any text, so `dist_*_m` covers the four distances
    section = README.read_text().split("## Configuration", 1)[1].split("\n## ", 1)[0]
    rows = [line.split("|")[1:3] for line in section.splitlines()
            if line.startswith("| ") and not line.startswith("| section ")]
    listed = [(cell.strip(), re.compile(name.replace("*", r"\w*")))
              for cell, keys in rows for name in re.findall(r"`([\w*]+)`", keys)]
    assert {s for s, _ in listed} == set(config.SCHEMA)
    for section, keys in config.SCHEMA.items():
        patterns = [pattern for s, pattern in listed if s == section]
        for key in keys:
            assert any(p.fullmatch(key) for p in patterns), (section, key)
        for pattern in patterns:
            assert any(pattern.fullmatch(key) for key in keys), (section, pattern.pattern)
