"""Exact algebraic periods of surface homology models.

Computes Lefschetz numbers of iterations and their integer periodic
expansion (Dold coefficients) for homology actions of surface
homeomorphisms, constructs explicit integer-matrix models realizing any
finite target set of algebraic periods, manipulates Lefschetz zeta
function factorizations, and enumerates the partition census bounding
Morse-Smale mapping classes from below.

The public names are those in each library module's ``__all__``; the
package re-exports them all and lists none of them again.
"""

from .arith import *
from .census import *
from .exactmat import *
from .lefschetz import *
from .polycyc import *
from .realize import *
from .zeta import *

__version__ = "0.1.0"
