import subprocess
import sys
from pathlib import Path

# The digests of scripts/output_hash.py on its fixed case list.  Basis-free:
# Betti numbers, Hecke char polys, eigenvalues and remainders, and the H_1
# eigenvalue-probe decisions.  Basis-bound: the H_k reps, the Hecke matrices
# and the `express_cycle` coordinates with their witnesses.  Certificates: the
# witnesses' y and u, reduction homotopies, bar terms and Undetermined
# reasons.  A change that moves one of them updates its pin and says why.
BASIS_FREE = "1f9c97c5fd87a10c"
BASIS_BOUND = "de71094426546262"
CERTIFICATES = "c73608dbd5489df5"


def test_basis_free_digest_is_pinned():
    script = Path(__file__).resolve().parents[1] / "scripts" / "output_hash.py"
    out = subprocess.run([sys.executable, str(script)], capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stdout + out.stderr
    digests = dict(line.split()[:2] for line in out.stdout.splitlines())
    assert digests.keys() == {"basis-free", "basis-bound", "certificates", "all"}
    assert digests["basis-free"] == BASIS_FREE
    assert digests["basis-bound"] == BASIS_BOUND
    assert digests["certificates"] == CERTIFICATES
