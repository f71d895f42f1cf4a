import subprocess
import sys
from pathlib import Path

# The basis-free digest of scripts/output_hash.py: Betti numbers, Hecke char
# polys, eigenvalues and remainders, and the H_1 eigenvalue-probe decisions
# on its fixed case list.  A change that moves one of them updates this pin
# and says why.
BASIS_FREE = "1f9c97c5fd87a10c"


def test_basis_free_digest_is_pinned():
    script = Path(__file__).resolve().parents[1] / "scripts" / "output_hash.py"
    out = subprocess.run([sys.executable, str(script)], capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stdout + out.stderr
    digests = dict(line.split()[:2] for line in out.stdout.splitlines())
    assert digests.keys() == {"basis-free", "basis-bound", "certificates", "all"}
    assert digests["basis-free"] == BASIS_FREE
