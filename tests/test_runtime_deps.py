import os
import subprocess
import sys
from pathlib import Path

import rvbsim


def test_runtime_imports_no_scipy():
    # numpy is the only runtime dependency: SciPy serves as a test reference only
    code = ("import sys, rvbsim, rvbsim.cli, rvbsim.experiments, rvbsim.acceptance, rvbsim.io; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = os.environ | {"PYTHONPATH": str(Path(rvbsim.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[]"


def test_import_builds_no_spin_operators():
    # total_spin_operators is filled on its first call, so importing stays cheap
    code = ("import rvbsim, rvbsim.cli, rvbsim.experiments, rvbsim.acceptance, rvbsim.io; "
            "print(rvbsim.basis.total_spin_operators.cache_info().currsize)")
    env = os.environ | {"PYTHONPATH": str(Path(rvbsim.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "0"
