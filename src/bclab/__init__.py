"""bclab: a numerical laboratory for the boundary-control method.

Forward finite-difference simulation of second-order hyperbolic operators with
time-dependent coefficients, Dirichlet-to-Neumann traces, characteristic
(Goursat) coordinates, geometric-optics probes, and a verification harness for
the invariance identities that make boundary data a well-defined measurement.
"""

from .expr import Expr, ExprError, parse_expr
from . import dn, geometry, goursat, solver
# each module's __all__ lists its exports once
from .dn import *
from .geometry import *
from .goursat import *
from .solver import *

__version__ = "0.1.0"

__all__ = ["Expr", "ExprError", "parse_expr", *geometry.__all__, *dn.__all__,
           *goursat.__all__, *solver.__all__, "__version__"]
