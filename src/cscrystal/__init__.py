"""Exact combinatorics of type-A tableau crystals.

The package realizes highest-weight crystals as semistandard tableaux,
walks them along a fixed reduced word to produce decorated triangles,
and uses the resulting coefficients to verify a deformed character
identity and to tabulate deformed weight multiplicities, all in exact
integer arithmetic.
"""

from .bzl import (
    bzl_path,
    c_coefficient,
    decorate_via_operators,
    decorate_via_stats,
    g_coefficient,
)
from .crystal import e_op, enumerate_crystal, f_op, phi
from .hpoly import HTable, h_table, tensor_weight_multiplicity, weight_multiplicity
from .laurent import (
    IdentityReport,
    LaurentPoly,
    cs_lhs,
    cs_rhs,
    shifted_sums,
    verify_bn_form,
    verify_identity,
)
from .rootsys import (
    Shape,
    dot_orbit_sign,
    lambda_from_fundamental,
    rho,
    shifted,
)
from .tableaux import (
    DecoratedTriangle,
    Tableau,
    content,
    is_strict,
    make_tableau,
    parse_tableau,
)
from .tpoly import TPoly

__version__ = "0.1.0"
