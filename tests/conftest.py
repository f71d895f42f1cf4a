import subprocess
import sys
from pathlib import Path

import pytest

import sharbly
from sharbly.fields import QQ, PrimeField
from sharbly.homology import build_complex
from sharbly.voronoi import enumerate_cells

# The directory holding the imported `sharbly` package: `src/` in a bare
# checkout, site-packages when installed.
SHARBLY_ROOT = str(Path(sharbly.__file__).resolve().parent.parent)


@pytest.fixture
def run_cli(tmp_path):
    """Run `python [FLAGS] -m sharbly.cli ARGS` in a subprocess with caches in tmp_path.

    The child gets a minimal env, so an inherited SHARBLY_CACHE_DIR cannot
    leak in; PYTHONPATH points at the package this test process imported.
    """
    env = {
        "SHARBLY_CACHE_DIR": str(tmp_path),
        "PATH": "/usr/bin:/bin",
        "PYTHONPATH": SHARBLY_ROOT,
    }

    def run(args, python_flags=()):
        return subprocess.run(
            [sys.executable, *python_flags, "-m", "sharbly.cli", *args],
            capture_output=True,
            text=True,
            env=env,
        )

    return run


@pytest.fixture(scope="session")
def table2():
    return enumerate_cells(2)


@pytest.fixture(scope="session")
def table3():
    return enumerate_cells(3)


@pytest.fixture(scope="session")
def cx11(table2):
    return build_complex(2, 11, QQ, table=table2)


@pytest.fixture(scope="session")
def cx1(table2):
    return build_complex(2, 1, QQ, table=table2)


@pytest.fixture(scope="session")
def n3_prime_complexes(table3):
    """n = 3 complexes over F_32003 at every prime level p <= 61, by p."""
    field = PrimeField(32003)
    primes = [p for p in range(2, 62) if all(p % d for d in range(2, p))]
    return {p: build_complex(3, p, field, table=table3) for p in primes}
