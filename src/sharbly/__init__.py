"""Exact Voronoi-cell homology of congruence subgroups of SL(n,Z).

Computes the Voronoi cell complex for n = 2, 3 (n = 4 behind a flag),
the homology of Gamma_0(N) with Steinberg-module coefficients over Q or
F_p (p odd), and Hecke operators on that homology, cross-validated for
n = 2 against an independent classical modular-symbol implementation.
"""

__version__ = "0.1.0"

from .errors import ConfigError, InternalCheckError, PreconditionError, UnsupportedError  # noqa: F401
from .fields import QQ, PrimeField, parse_field  # noqa: F401
from .voronoi import (  # noqa: F401
    VoronoiCell,
    cell_stabilizer,
    enumerate_cells,
    equivalent_cells,
    minimal_vectors,
    perfect_forms,
)
from .congruence import proj_points, split_orbits  # noqa: F401
from .sharbly import SharblyChain, ar_reduce, boundary, normalize, theta  # noqa: F401
from .homology import betti_numbers, build_complex, express_cycle, homology  # noqa: F401
from .hecke import EigenReport, hecke_cosets, hecke_on_h0  # noqa: F401
from .reduction import (  # noqa: F401
    Undetermined,
    Witness,
    hecke_on_h1_n2,
    one_sharbly_reduce,
    one_sharbly_reduce_n2,
    verify_eigen_chain,
)
from .manin import manin_dim, manin_hecke  # noqa: F401
