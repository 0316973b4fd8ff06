"""The census scripts run end to end and print the known small-order counts."""

import os
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
