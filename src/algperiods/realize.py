"""Constructions realizing a finite target set as algebraic periods.

Each construction assembles a homology model from periodic pieces: a
piece with label n carries a periodic homeomorphism of order tau(n) that
cyclically permutes handle curves.  :func:`realize_target` is the one
construction: a short branch per surface kind lists the pieces and their
blocks, and one shared tail assembles the matrix with one direct sum,
reads the genus off the blocks' dimensions (their sum for orientable
kinds, the sum + 1 for the non-orientable kind), analyses it and compares
the achieved periods with the target.  Orientable matrices are written in
the basis (all a-curves, then all b-curves), diag(H, H) preserving and
diag(H, -H) reversing for the direct sum H of the blocks: the one direct
sum takes the blocks and then their copies, negated when reversing.  So
the form check of :mod:`algperiods.exactmat` applies directly.

Orientation-preserving case.  Pieces for n in the working set (the
target with 1 toggled) each contribute an n-cycle permutation.

Orientation-reversing case.  Only even targets are realizable.  Pieces
come in mirror pairs; the map swaps the copies while shifting the cycle
index, so each piece contributes a "swap-shift" permutation on 2*tau(n)
curves (tau(n) = n when 4 | n, else n/2).  The -1 on the b-curves makes
the matrix antisymplectic; correctness is enforced by the postconditions
(antisymplectic, achieved periods), not by this particular sign recipe.
Two modes are exposed:

* ``Mode.FAITHFUL`` keeps the literal piece bookkeeping (2 toggled into
  the working set).  Recomputing the achieved class from traces shows
  that for 2 not in the target the period 2 is picked up as well; the
  resulting model is reported with deviation flags rather than patched.
* ``Mode.CORRECTED`` uses pieces only for the target minus {2} and, when
  2 is absent from the target, one extra 1x1 identity block (a
  diag(1, -1) pair after doubling); the achieved support then equals the
  target exactly.

Non-orientable case.  The torsion-free first homology has rank genus-1.
When 1 is in the target, one curve of the pivot piece (the smallest
other label) is eliminated, turning its cycle into the companion matrix
of (x^n - 1)/(x - 1); the target {1} has no pieces at all (the identity
on the projective plane).  Otherwise an identity piece of order 2 adds
one fixed curve.

One mismatch policy: when the achieved support differs from the target,
:class:`TargetMismatch` is raised, except for the faithful reversing
construction, which returns the model with its deviation flags.

All constructions are deterministic: targets are sorted, pieces are
emitted in increasing label order, and the achieved Dold class is always
read from the analysis of the assembled matrix, never trusted.
"""

from __future__ import annotations

import enum
import operator
from collections import namedtuple
from collections.abc import Iterable

from .arith import DoldClass
from .exactmat import (
    IntMatrix,
    block_diag,
    companion_cycle_quotient,
    cyclic_permutation,
)
from .lefschetz import Analysis, HomologyModel, SurfaceKind, analyze

__all__ = [
    "EmptyTarget",
    "OddTargetUnrealizable",
    "TargetMismatch",
    "Mode",
    "PieceSpec",
    "SurfaceModel",
    "realize_target",
]

DEVIATION_FLAG = "achieved-differs-from-target"
FAITHFUL_PERIOD_TWO_FLAG = "faithful-reversing-adds-period-2"


class EmptyTarget(Exception):
    """The empty set has no defined realization."""


class OddTargetUnrealizable(Exception):
    """Orientation-reversing models never have odd algebraic periods."""


class TargetMismatch(Exception):
    """The achieved period set of a construction differs from its target."""


class Mode(enum.Enum):
    FAITHFUL = "faithful"
    CORRECTED = "corrected"


# One periodic piece: label n, order tau of the map on it, copy count.
PieceSpec = namedtuple("PieceSpec", ["n", "tau", "copies"])


class SurfaceModel(namedtuple(
        "SurfaceModel", ["target", "kind", "mode", "pieces", "analysis", "flags"], defaults=[()])):
    """A realization result: the sorted target tuple, the kind, the mode (None
    unless reversing), the tuple of PieceSpec, the Analysis and the tuple of
    deviation flags.  ``genus``, ``model`` and ``achieved`` are read from the
    analysis."""

    __slots__ = ()

    @property
    def model(self) -> HomologyModel:
        return self.analysis.model

    @property
    def genus(self) -> int:
        return self.analysis.model.genus

    @property
    def achieved(self) -> DoldClass:
        return self.analysis.dold


def _normalized_target(a: Iterable[int]) -> tuple[int, ...]:
    elements = sorted(set(map(operator.index, a)))
    if not elements:
        raise EmptyTarget("the target set must be nonempty")
    if elements[0] < 1:
        raise ValueError("target elements must be positive integers")
    return tuple(elements)


def _swap_shift_block(tau: int) -> IntMatrix:
    """Permutation of the 2*tau paired curves of a doubled piece.

    Coordinates 0..tau-1 are the first copy, tau..2*tau-1 the mirror
    copy; the map sends (copy c, index j) to (copy 1-c, index j+1 mod tau).
    A single 2*tau-cycle when tau is odd, two tau-cycles when tau is even.
    """
    shift = [(i - 1) % tau for i in range(tau)]  # row i of a copy: column i - 1 of the other
    return IntMatrix._sparse([{tau + j: 1} for j in shift] + [{j: 1} for j in shift])


def realize_target(
    a: Iterable[int], kind: SurfaceKind, mode: Mode | None = Mode.CORRECTED
) -> SurfaceModel:
    """A model of ``kind`` whose algebraic periods are the finite set ``a``.

    ``mode`` applies to the reversing kind only, where it must be a
    :class:`Mode`; the other kinds report mode None.  Raises EmptyTarget,
    ValueError for nonpositive elements, TypeError for a kind that is not a
    SurfaceKind or a reversing mode that is not a Mode,
    OddTargetUnrealizable for an odd element in a reversing target, and
    TargetMismatch when a construction other than the faithful reversing
    one misses its target.
    """
    if not isinstance(kind, SurfaceKind):
        raise TypeError(f"kind must be a SurfaceKind, not {type(kind).__name__}")
    target = _normalized_target(a)
    target_set = set(target)
    if kind is not SurfaceKind.REVERSING:
        mode = None
    if kind is SurfaceKind.PRESERVING:
        pieces = [PieceSpec(n, n, 1) for n in sorted(target_set ^ {1})]
        blocks = [cyclic_permutation(p.n) for p in pieces]
    elif kind is SurfaceKind.REVERSING:
        if not isinstance(mode, Mode):
            raise TypeError(f"mode must be a Mode, not {type(mode).__name__}")
        if any(n % 2 for n in target):
            raise OddTargetUnrealizable(
                "orientation-reversing models admit only even algebraic periods; "
                f"target {list(target)} contains odd elements"
            )
        faithful = mode is Mode.FAITHFUL
        working = target_set ^ {2} if faithful else target_set - {2}
        pieces = [PieceSpec(n, n if n % 4 == 0 else n // 2, 2) for n in sorted(working)]
        blocks = [_swap_shift_block(p.tau) for p in pieces]
        if not faithful and 2 not in target_set:
            pieces.append(PieceSpec(2, 1, 1))
            blocks.append(IntMatrix.identity(1))
    elif 1 in target_set:
        pieces = [PieceSpec(n, n, 1) for n in target[1:]]
        blocks = [companion_cycle_quotient(p.n) for p in pieces[:1]]
        blocks += [cyclic_permutation(p.n) for p in pieces[1:]]
    else:
        pieces = [PieceSpec(1, 2, 1)] + [PieceSpec(n, n, 1) for n in target]
        blocks = [cyclic_permutation(n) for n in target] + [IntMatrix.identity(1)]

    genus = sum(b.dim for b in blocks)
    if kind is SurfaceKind.NONORIENTABLE:
        model = HomologyModel(kind, block_diag(blocks), genus + 1)
    else:
        mirror = blocks
        if kind is SurfaceKind.REVERSING:
            mirror = [IntMatrix._sparse([{j: -x for j, x in row.items()} for row in b.nonzero])
                      for b in blocks]
        model = HomologyModel(kind, block_diag(blocks + mirror), genus, strict=True)
    analysis = analyze(model)
    achieved = analysis.dold.support()  # sorted, like target
    flags: tuple[str, ...] = ()
    if achieved != target:
        if mode is not Mode.FAITHFUL:
            raise TargetMismatch(
                f"{kind.value} construction missed its target: achieved periods"
                f" {list(achieved)}, target {list(target)}"
            )
        flags = (DEVIATION_FLAG, FAITHFUL_PERIOD_TWO_FLAG)
    return SurfaceModel(target, kind, mode, tuple(pieces), analysis, flags)
