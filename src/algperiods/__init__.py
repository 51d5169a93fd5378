"""Exact algebraic periods of surface homology models.

Computes Lefschetz numbers of iterations and their integer periodic
expansion (Dold coefficients) for homology actions of surface
homeomorphisms, constructs explicit integer-matrix models realizing any
finite target set of algebraic periods, manipulates Lefschetz zeta
function factorizations, and enumerates the partition census bounding
Morse-Smale mapping classes from below.
"""

from .arith import (
    DoldClass,
    DoldViolation,
    LefschetzSequence,
    divisors,
    dold_coefficients,
    dold_congruence_check,
    moebius,
)
from .census import (
    CensusReport,
    Partition,
    census,
    enumerate_partitions,
    hardy_ramanujan_estimate,
    partition_count,
    partition_to_dold_nonorientable,
    partition_to_dold_orientable,
)
from .exactmat import (
    DimensionMismatch,
    IntMatrix,
    NotAntisymplectic,
    OddDimension,
    antisymplectic_charpoly_identity_check,
    block_diag,
    charpoly,
    charpoly_blocks,
    companion_cycle_quotient,
    cyclic_permutation,
    form_predicates,
)
from .lefschetz import (
    Analysis,
    FormViolation,
    HomologyModel,
    PeriodicPointGuarantee,
    SurfaceKind,
    algebraic_periods,
    analyze,
    ap_odd,
    periodic_point_certificate,
)
from .polycyc import (
    IntPolynomial,
    NonMonicInput,
    NotQuasiUnipotent,
    cyclotomic,
    cyclotomic_factorization,
    poly_divmod,
    trace_sequence_from_charpoly,
    x_pow_minus_one,
)
from .realize import (
    EmptyTarget,
    Mode,
    OddTargetUnrealizable,
    PieceSpec,
    SurfaceModel,
    TargetMismatch,
    realize_target,
)
from .zeta import (
    Factor,
    ZetaFactorization,
    canonicalize,
    format_factors,
    lefschetz_from_zeta,
    mper_from_factorization,
    parse_factors,
    series_expand,
    zeta_from_dold,
)

__version__ = "0.1.0"
