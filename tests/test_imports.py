"""Which layers load numpy: the exact ones do not, spectral does."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

EXACT_LAYERS = ("qcore", "combinatorics", "linalg", "latticeop", "dualop", "polynomials", "scattering")

PROBE = "\n".join(
    ["import sys"]
    + [f"import rsmorse.{name}" for name in EXACT_LAYERS]
    + ["print('numpy' in sys.modules)", "import rsmorse.spectral", "print('numpy' in sys.modules)"]
)


def test_exact_layers_load_without_numpy():
    # a fresh interpreter: this test process has numpy loaded already
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, timeout=120, check=False
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True"]
