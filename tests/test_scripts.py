"""The census scripts run end to end and print the known small-order counts,
the README shows only the library names the package exports, and the package
version is the one in ``pyproject.toml``."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import smale_orders

ROOT = Path(__file__).resolve().parents[1]

SWEEP_4 = """\
orders up to 4 elements              50
  with an isolated element (rejected)       25
  failing connectivity                      16
  realized                                   9
    containing a north-south sphere          4
    disconnected assemblies                  3
lowest Euler characteristic                -60
genus histogram (connected assemblies):
  genus   0: 1
  genus   9: 1
  genus  10: 2
  genus  30: 1
  genus  31: 1
"""

SWEEP_6 = """\
orders up to 6 elements            5231
  with an isolated element (rejected)     1828
  failing connectivity                    2891
  realized                                 512
    containing a north-south sphere         89
    disconnected assemblies                 98
lowest Euler characteristic               -246
genus histogram (connected assemblies):
  genus   0: 1
  genus   9: 1
  genus  10: 2
  genus  11: 1
  genus  14: 2
  genus  15: 1
  genus  18: 3
  genus  19: 3
  genus  20: 25
  genus  21: 12
  genus  23: 7
  genus  26: 4
  genus  27: 4
  genus  29: 3
  genus  30: 1
  genus  31: 10
  genus  32: 31
  genus  33: 11
  genus  34: 2
  genus  35: 18
  genus  36: 7
  genus  38: 4
  genus  39: 3
  genus  40: 9
  genus  41: 17
  genus  42: 7
  genus  43: 7
  genus  44: 12
  genus  45: 10
  genus  46: 1
  genus  47: 1
  genus  49: 1
  genus  50: 1
  genus  55: 4
  genus  56: 8
  genus  57: 6
  genus  58: 3
  genus  59: 7
  genus  60: 5
  genus  64: 2
  genus  65: 4
  genus  66: 2
  genus  72: 1
  genus  73: 18
  genus  74: 34
  genus  75: 21
  genus  76: 1
  genus  77: 1
  genus  79: 3
  genus  80: 9
  genus  81: 9
  genus  82: 1
  genus  83: 3
  genus  84: 3
  genus  88: 1
  genus  89: 3
  genus  90: 3
  genus 120: 1
  genus 121: 6
  genus 122: 15
  genus 123: 16
  genus 124: 2
"""

GRADIENT_4 = """\
gradient-shaped connected orders            10
  realizable by a gradient-like map          4
  skipped (more than 4 saddles)              0
first-witness genus histogram:
  genus   0: 3
  genus   1: 1
"""

GRADIENT_6 = """\
gradient-shaped connected orders           457
  realizable by a gradient-like map         83
  skipped (more than 4 saddles)              0
first-witness genus histogram:
  genus   0: 47
  genus   1: 35
  genus   2: 1
"""

GRADIENT_7 = """\
gradient-shaped connected orders          6257
  realizable by a gradient-like map         83
  skipped (more than 4 saddles)              1
first-witness genus histogram:
  genus   0: 47
  genus   1: 35
  genus   2: 1
"""


@pytest.mark.parametrize(
    "script, args, expected",
    [
        ("sweep_small_orders.py", ["--max-size", "4", "--verify"], SWEEP_4),
        ("gradient_census.py", ["--max-size", "4"], GRADIENT_4),
        ("gradient_census.py", ["--max-size", "6"], GRADIENT_6),
        ("gradient_census.py", ["--max-size", "7"], GRADIENT_7),
        ("sweep_small_orders.py", ["--max-size", "6", "--verify"], SWEEP_6),
    ],
)
def test_script_counts(script, args, expected):
    src = str(Path(smale_orders.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    body, elapsed = proc.stdout.rsplit("elapsed ", 1)
    assert body == expected
    assert elapsed.endswith("s\n")


def test_readme_library_surface_is_exported():
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## Library surface", 1)[1]
    imported = re.search(r"from smale_orders import \((.*?)\)", block, re.S).group(1)
    names = re.findall(r"\w+", re.sub(r"#.*", "", imported))
    assert names
    assert sorted(set(names) - set(smale_orders.__all__)) == []


def test_package_version_is_the_pyproject_version():
    # read with a pattern, not tomllib, which Python 3.10 lacks
    project = (ROOT / "pyproject.toml").read_text().split("[project]", 1)[1]
    version = re.search(r'^version = "([^"]+)"$', project, re.M).group(1)
    assert version == smale_orders.__version__
