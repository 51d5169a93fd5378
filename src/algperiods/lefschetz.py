"""Lefschetz numbers, Dold coefficients and algebraic periods of homology models.

A homology model is a surface kind plus the integer matrix of the induced
map on rank-relevant first homology.  Lefschetz numbers of iterations are
computed degree-wise:

    orientable:      L_l = 1 - tr(A^l) + eps^l   (eps = +1 preserving, -1 reversing)
    non-orientable:  L_l = 1 - tr(A^l)

In the non-orientable case the trace lives on rational first homology
(rank genus - 1); the torsion Z/2 part never contributes and is never
represented.

The Dold class built by ``analyze`` is exact on quasi-unipotent models: the
support of the Dold class is contained in the divisors of the cyclotomic
orders of the characteristic polynomial together with {1, 2} (the reg_1
and reg_2 terms contributed by degrees 0 and 2), so computing the
expansion on that divisor-closed candidate set captures every nonzero
coefficient.  Non-quasi-unipotent models have unbounded Lefschetz
sequences and potentially infinite period sets, hence the error.  A
quasi-unipotent window [L_1, ..., L_n] is summed from the Dold class,
L_l = sum_{k | l} k * a_k, in O(sum_k n / k) small-integer additions; Newton's
recurrence (O(n * degree) big-integer steps) runs only on the candidate set
of ``analyze`` and on windows of non-quasi-unipotent models.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Optional

from .arith import DoldClass, LefschetzSequence, divisors, dold_coefficients
from .exactmat import (
    DimensionMismatch,
    IntMatrix,
    charpoly,
    form_predicates,
    is_antisymplectic,
    is_symplectic,
)
from .polycyc import (
    IntPolynomial,
    NotQuasiUnipotent,
    cyclotomic_factorization,
    trace_sequence_from_charpoly,
)

__all__ = [
    "FormViolation",
    "SurfaceKind",
    "HomologyModel",
    "Analysis",
    "PeriodicPointGuarantee",
    "euler_characteristic",
    "lefschetz_numbers_from_charpoly",
    "analyze",
    "algebraic_periods",
    "ap_odd",
    "periodic_point_certificate",
]


class FormViolation(Exception):
    """Strict mode: the matrix does not satisfy the form predicate of its kind."""


class SurfaceKind(enum.Enum):
    PRESERVING = "preserving"
    REVERSING = "reversing"
    NONORIENTABLE = "nonorientable"


def _degree_two_term(kind: SurfaceKind, l: int) -> int:
    if kind is SurfaceKind.PRESERVING:
        return 1
    if kind is SurfaceKind.REVERSING:
        return -1 if l % 2 else 1
    return 0


class HomologyModel:
    """Surface kind, genus, and the matrix of the induced map on H_1.

    Orientable kinds act on rank 2*genus, the non-orientable kind on the
    torsion-free rank genus - 1.  With ``strict=True`` the constructor
    additionally enforces the form predicate of the kind (symplectic for
    preserving, antisymplectic for reversing); analysis of arbitrary
    matrices should leave it off.  ``strict`` records that the check passed,
    so an :class:`Analysis` of the model does not run it again.
    """

    __slots__ = ("kind", "matrix", "genus", "strict")

    def __init__(self, kind: SurfaceKind, matrix: IntMatrix, genus: int, strict: bool = False):
        genus = int(genus)
        if genus < 0:
            raise ValueError("genus must be nonnegative")
        if kind is SurfaceKind.NONORIENTABLE:
            if genus < 1:
                raise ValueError("a non-orientable surface has genus at least 1")
            if matrix.dim != genus - 1:
                raise DimensionMismatch(
                    f"non-orientable genus {genus} needs a matrix of dimension {genus - 1},"
                    f" got {matrix.dim}"
                )
        else:
            if matrix.dim != 2 * genus:
                raise DimensionMismatch(
                    f"orientable genus {genus} needs a matrix of dimension {2 * genus},"
                    f" got {matrix.dim}"
                )
        if strict:
            if kind is SurfaceKind.PRESERVING and not is_symplectic(matrix):
                raise FormViolation("orientation-preserving matrix must be symplectic")
            if kind is SurfaceKind.REVERSING and not is_antisymplectic(matrix):
                raise FormViolation("orientation-reversing matrix must be antisymplectic")
        self.kind = kind
        self.matrix = matrix
        self.genus = genus
        self.strict = strict

    def __eq__(self, other: object):
        if isinstance(other, HomologyModel):
            return (
                self.kind is other.kind
                and self.matrix == other.matrix
                and self.genus == other.genus
            )
        return NotImplemented

    def __repr__(self) -> str:
        return f"HomologyModel({self.kind.value!r}, dim={self.matrix.dim}, genus={self.genus})"


def euler_characteristic(m: HomologyModel) -> int:
    """2 - 2*genus for orientable kinds, 2 - genus for non-orientable."""
    if m.kind is SurfaceKind.NONORIENTABLE:
        return 2 - m.genus
    return 2 - 2 * m.genus


def lefschetz_numbers_from_charpoly(kind: SurfaceKind, cp, n_max: int) -> list[int]:
    """[L_1, ..., L_{n_max}] with traces taken from the characteristic polynomial.

    Newton power sums make this cheap for large matrices; the test suite
    holds it to the matrix-power route.
    """
    traces = trace_sequence_from_charpoly(cp, n_max)
    return [1 - traces[l - 1] + _degree_two_term(kind, l) for l in range(1, n_max + 1)]


@dataclass(frozen=True)
class Analysis:
    """The analysis pass of one model, built by :func:`analyze`.

    Holds the characteristic polynomial, then either its cyclotomic
    factorization (order -> multiplicity) or the non-cyclotomic residual,
    then the Dold class (None when the model is not quasi-unipotent).  The
    Lefschetz window and the form checks are computed only when asked for.
    """

    model: HomologyModel
    charpoly: IntPolynomial
    factorization: Optional[Dict[int, int]]
    residual: Optional[IntPolynomial]
    dold: Optional[DoldClass]

    @property
    def quasi_unipotent(self) -> bool:
        return self.residual is None

    def lefschetz(self, n_max: int) -> list[int]:
        """[L_1, ..., L_{n_max}]: k * a_k added at each multiple of each Dold support
        element k, O(sum_k n_max / k) additions, or O(n_max * degree) Newton steps
        on the characteristic polynomial when the model is not quasi-unipotent."""
        if self.dold is None:
            return lefschetz_numbers_from_charpoly(self.model.kind, self.charpoly, n_max)
        window = [0] * n_max
        for k, a in self.dold.items():
            window[k - 1 :: k] = map((k * a).__add__, window[k - 1 :: k])
        return window

    @cached_property
    def form_checks(self) -> Optional[Dict[str, bool]]:
        """Symplectic and antisymplectic predicates; None for non-orientable models.

        For dim > 0 at most one predicate holds.  A strict model already
        passed the predicate of its kind, so it needs no matrix product;
        any other model takes one product for both predicates.
        """
        m = self.model
        if m.kind is SurfaceKind.NONORIENTABLE:
            return None
        if m.strict and m.matrix.dim:
            symplectic = m.kind is SurfaceKind.PRESERVING
            return {"symplectic": symplectic, "antisymplectic": not symplectic}
        symplectic, antisymplectic = form_predicates(m.matrix)
        return {"symplectic": symplectic, "antisymplectic": antisymplectic}


def analyze(m: HomologyModel) -> Analysis:
    """Characteristic polynomial, cyclotomic factorization and Dold class, once each.

    The Dold class is expanded on the divisor-closed candidate set only
    (see the module docstring), never on a window sized by an lcm.
    """
    cp = charpoly(m.matrix)
    try:
        mults = cyclotomic_factorization(cp)
    except NotQuasiUnipotent as exc:
        return Analysis(m, cp, None, exc.residual, None)
    candidates = {1, 2}
    for d in mults:
        candidates.update(divisors(d))
    lefschetz = lefschetz_numbers_from_charpoly(m.kind, cp, max(candidates))
    dold = dold_coefficients(LefschetzSequence({l: lefschetz[l - 1] for l in candidates}))
    return Analysis(m, cp, mults, None, dold)


def algebraic_periods(m: HomologyModel) -> DoldClass:
    """The Dold class of the model; its support is the set of algebraic periods.

    Requires the matrix to be quasi-unipotent (raises NotQuasiUnipotent
    with the residual factor otherwise).
    """
    analysis = analyze(m)
    if analysis.dold is None:
        raise NotQuasiUnipotent(analysis.residual)
    return analysis.dold


def ap_odd(m: HomologyModel) -> set[int]:
    """The odd algebraic periods of the model; they form the minimal set of Lefschetz periods."""
    return {n for n in algebraic_periods(m).support() if n % 2}


@dataclass(frozen=True)
class PeriodicPointGuarantee:
    """A statement about minimal periods forced in a whole homotopy class."""

    period: int
    guarantee: str  # "odd" or "either"
    periods: tuple[int, ...]
    statement: str


def periodic_point_certificate(d: DoldClass) -> list[PeriodicPointGuarantee]:
    """Periodic-point guarantees carried by a nonzero Dold coefficient.

    For transversal maps (Morse-Smale diffeomorphisms included), a_n != 0
    forces a point of minimal period n when n is odd, and a point of
    minimal period n or n/2 when n is even.
    """
    records = []
    for n in d.support():
        if n % 2:
            records.append(
                PeriodicPointGuarantee(
                    period=n,
                    guarantee="odd",
                    periods=(n,),
                    statement=(
                        f"every transversal map in the class has a point of minimal period {n}"
                    ),
                )
            )
        else:
            records.append(
                PeriodicPointGuarantee(
                    period=n,
                    guarantee="either",
                    periods=(n, n // 2),
                    statement=(
                        f"every transversal map in the class has a point of minimal period"
                        f" {n} or {n // 2}"
                    ),
                )
            )
    return records
