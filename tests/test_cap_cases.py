"""The cap cases of tests/cap_cases.py on its two smallest cases; CI runs every case, one per step."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import cap_cases


@pytest.mark.parametrize("name", ["two-orbits-nonnormal", "schur-huge"])
def test_the_two_smallest_cases_pass(name, tmp_path):
    cap_cases.test_case(name, tmp_path)


def test_importing_the_table_loads_neither_numpy_nor_wgraph():
    code = "import sys, cap_cases; print(sorted({m.split('.')[0] for m in sys.modules} & {'numpy', 'wgraph'}))"
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=str(Path(__file__).parent)))
    assert run.stdout == "[]\n"
