"""Start-up cost: importing the package must not load scipy, whose import
alone takes about a second of every process that runs `fwt`."""
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_package_imports_load_no_scipy():
    code = ("import sys, fwt, fwt.cli, fwt.checks, fwt.sim; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=120)
    assert proc.stdout.strip() == "[]"
