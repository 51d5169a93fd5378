"""Lefschetz numbers, Dold coefficients and algebraic periods of homology models.

A homology model is a surface kind plus the integer matrix of the induced
map on rank-relevant first homology.  Lefschetz numbers of iterations are
computed degree-wise:

    orientable:      L_l = 1 - tr(A^l) + eps^l   (eps = +1 preserving, -1 reversing)
    non-orientable:  L_l = 1 - tr(A^l)

In the non-orientable case the trace lives on rational first homology
(rank genus - 1); the torsion Z/2 part never contributes and is never
represented.

Every sequence here is written in the basis of the periodic functions
reg_k (reg_k(l) = k if k divides l, else 0), in which L_l = sum_{k | l} k a_k
for the Dold class (a_k).  The degree-0 and degree-2 terms are the Dold
class K of the kind: 2 reg_1 preserving, reg_2 reversing, reg_1
non-orientable.  The power sums of the roots of the cyclotomic polynomial
Phi_d are the Ramanujan sums c_d(l) = sum_{e | d} mu(d/e) reg_e(l), so a
quasi-unipotent model with factorization prod_d Phi_d^(m_d) has the Dold
class

    a_e = K_e - sum_{d : e | d} m_d mu(d/e),

read off the factorization with one Moebius value per divisor of each
order d (trial division, O(sqrt(d)) steps each), with no power sum and no
Moebius inversion.  The factorization is taken block by block: the
characteristic polynomial is the product of one polynomial per diagonal
block of the matrix's block-triangular form, each distinct block
polynomial is factored once (a degree-k block needs only the orders d with
phi(d) <= k), and its multiplicities count once per block that shares it.
Realization matrices repeat their blocks, so this is a handful of small
trial divisions in place of one of the full degree.  A block that is not
a product of cyclotomics leaves a residual; the product of the block
residuals is the cyclotomic-free part of the whole polynomial, which is
unique, so it equals the residual of factoring the product.

Non-quasi-unipotent models have unbounded Lefschetz sequences and
potentially infinite period sets, so they have no Dold class.  A window
[L_1, ..., L_n] sums a Dold class, k a_k at each multiple of k, in
O(sum_k n / k) additions: the model's own class when it is
quasi-unipotent, or else K added to the negated Newton power sums of the
characteristic polynomial (O(n * degree) big-integer steps).
"""

from __future__ import annotations

import enum
import operator
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from math import prod
from typing import Dict, Optional

from .arith import DoldClass, divisors, moebius
from .exactmat import (
    DimensionMismatch,
    IntMatrix,
    charpoly_blocks,
    form_predicates,
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


# The degree-0 and degree-2 terms of L_l as a Dold class: 1 + 1 = 2 reg_1(l),
# 1 + (-1)^l = reg_2(l), and 1 = reg_1(l).
_KIND_TERMS = {
    SurfaceKind.PRESERVING: {1: 2},
    SurfaceKind.REVERSING: {2: 1},
    SurfaceKind.NONORIENTABLE: {1: 1},
}


class HomologyModel:
    """Surface kind, genus, and the matrix of the induced map on H_1.

    Orientable kinds act on rank 2*genus, the non-orientable kind on the
    torsion-free rank genus - 1.  With ``strict=True`` the constructor
    additionally enforces the form predicate of the kind (symplectic for
    preserving, antisymplectic for reversing); analysis of arbitrary
    matrices should leave it off.  A strict orientable model keeps the pair
    of predicates it computed, so an :class:`Analysis` of the model reads
    its form checks from there and does not compute them again.
    """

    __slots__ = ("kind", "matrix", "genus", "_forms")

    def __init__(self, kind: SurfaceKind, matrix: IntMatrix, genus: int, strict: bool = False):
        genus = operator.index(genus)
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
        self._forms = None  # (symplectic, antisymplectic) once computed
        if strict and kind is not SurfaceKind.NONORIENTABLE:
            symplectic, antisymplectic = self._forms = form_predicates(matrix)
            if kind is SurfaceKind.PRESERVING and not symplectic:
                raise FormViolation("orientation-preserving matrix must be symplectic")
            if kind is SurfaceKind.REVERSING and not antisymplectic:
                raise FormViolation("orientation-reversing matrix must be antisymplectic")
        self.kind = kind
        self.matrix = matrix
        self.genus = genus

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
        """[L_1, ..., L_{n_max}]: k * a_k added at each multiple of each support element
        k of the Dold class, O(sum_k n_max / k) additions.  A model that is not
        quasi-unipotent adds the kind's class K to the negated Newton power sums of
        its characteristic polynomial, O(n_max * degree) big-integer steps."""
        dold = self.dold
        if dold is None:  # an empty Dold class is falsy but is the model's class
            dold = _KIND_TERMS[self.model.kind]
            window = [-s for s in trace_sequence_from_charpoly(self.charpoly, n_max)]
        else:
            window = [0] * n_max
        for k, a in dold.items():
            window[k - 1 :: k] = map((k * a).__add__, window[k - 1 :: k])
        return window

    @cached_property
    def form_checks(self) -> Optional[Dict[str, bool]]:
        """Symplectic and antisymplectic predicates; None for non-orientable models.

        For dim > 0 at most one predicate holds.  A strict model computed
        both when it was built; any other model takes one ``form_predicates``
        call for both.
        """
        m = self.model
        if m.kind is SurfaceKind.NONORIENTABLE:
            return None
        symplectic, antisymplectic = m._forms or form_predicates(m.matrix)
        return {"symplectic": symplectic, "antisymplectic": antisymplectic}


def analyze(m: HomologyModel) -> Analysis:
    """Characteristic polynomial, cyclotomic factorization and Dold class, once each.

    Each distinct block polynomial is factored once, its multiplicities
    counted once per block that shares it; a model with a block that is not
    quasi-unipotent gets the product of the block residuals, each to its
    count (see the module docstring).  ``factorization`` lists the orders in
    ascending order.  The Dold class of a quasi-unipotent model is read off
    the factorization, a_e = K_e - sum_{d : e | d} m_d mu(d/e): one Moebius
    value per divisor of each cyclotomic order, whatever the lcm.
    """
    blocks = charpoly_blocks(m.matrix)
    cp = prod(blocks, start=IntPolynomial((1,)))
    totals = Counter()
    residuals = []
    for block, count in Counter(blocks).items():
        try:
            mults = cyclotomic_factorization(block)
        except NotQuasiUnipotent as exc:
            residuals.append(exc.residual ** count)
            continue
        for d, mult in mults.items():
            totals[d] += mult * count
    if residuals:
        return Analysis(m, cp, None, prod(residuals, start=IntPolynomial((1,))), None)
    mults = dict(sorted(totals.items()))
    coeffs = dict(_KIND_TERMS[m.kind])
    for d, mult in mults.items():
        for e in divisors(d):
            coeffs[e] = coeffs.get(e, 0) - mult * moebius(d // e)
    return Analysis(m, cp, mults, None, DoldClass(coeffs))


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
        odd = n % 2
        periods = (n,) if odd else (n, n // 2)
        records.append(
            PeriodicPointGuarantee(
                period=n,
                guarantee="odd" if odd else "either",
                periods=periods,
                statement="every transversal map in the class has a point of minimal period "
                + " or ".join(map(str, periods)),
            )
        )
    return records
