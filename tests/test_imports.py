"""Which layers load numpy: the exact ones and the CLI do not, spectral does."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

NUMPY_FREE = ("qcore", "combinatorics", "linalg", "latticeop", "dualop", "polynomials", "scattering", "checks", "cli")

PROBE = "\n".join(
    ["import sys"]
    + [f"import rsmorse.{name}" for name in NUMPY_FREE]
    + ["print('numpy' in sys.modules)", "import rsmorse.spectral", "print('numpy' in sys.modules)"]
)

# every command but ortho and evolve, at small sizes, then ortho
COMMANDS_PROBE = """
import contextlib, io, sys
from rsmorse.cli import main
exact = [["poly", "--n", "2", "--max-weight", "2"], ["scatter", "--n", "2"]]
exact += [["verify", suite, "--n", "2", "--max-weight", "2"]
          for suite in ("pieri", "qdiff", "commute", "nonneg", "limits", "balance")]
for argv in exact:
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
print('numpy' in sys.modules)
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["ortho", "--n", "1", "--max-weight", "1"]) == 0
print('numpy' in sys.modules)
"""


def _fresh(probe):
    # a fresh interpreter: this test process has numpy loaded already
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120, check=False
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_exact_layers_load_without_numpy():
    assert _fresh(PROBE) == ["False", "True"]


def test_only_the_float_commands_load_numpy():
    assert _fresh(COMMANDS_PROBE) == ["False", "True"]
