"""The golden-master generators run as their docstrings say, outside pytest.

Each script runs in a fresh interpreter with ``PYTHONPATH`` set to the
package sources alone, so a generator that needed pytest's ``sys.path`` (a
test module, ``conftest.py``) would fail here.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import cptopt

DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize(
    "script, files",
    [
        (
            "make_traffic_golden.py",
            ["traffic_golden.csv", "traffic_golden_2x3.json", "traffic_digest_matrix.json"],
        ),
        ("make_spsa_golden.py", ["spsa_golden.json"]),
    ],
)
def test_generator_check_passes_from_the_sources_alone(script, files):
    env = dict(os.environ, PYTHONPATH=str(Path(cptopt.__file__).resolve().parent.parent))
    run = subprocess.run(
        [sys.executable, str(DATA / script), "--check"],
        cwd=DATA.parent.parent, env=env, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stdout + run.stderr
    assert run.stdout == "".join(f"{name}: unchanged\n" for name in files)
