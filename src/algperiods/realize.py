"""Constructions realizing a finite target set as algebraic periods.

Each construction assembles a homology model from periodic pieces: a
piece with label n carries a periodic homeomorphism of order tau(n) that
cyclically permutes handle curves, and the global matrix is written in
the basis (all a-curves, then all b-curves) so that the symplectic
predicates of :mod:`algperiods.exactmat` apply directly.

Orientation-preserving case.  Pieces for n in the working set (the
target with 1 toggled) each contribute an n-cycle permutation on the
a-curves and the same on the b-curves; the assembled matrix is
diag(M, M) with M the direct sum of the cycles, which is symplectic.

Orientation-reversing case.  Only even targets are realizable.  Pieces
come in mirror pairs; the map swaps the copies while shifting the cycle
index, so each piece contributes a "swap-shift" permutation on 2*tau(n)
curves (tau(n) = n when 4 | n, else n/2).  Placing a -1 on every
second-copy b-coordinate (equivalently, using diag(P, -P)) makes the
assembled matrix antisymplectic; correctness is enforced by the
postconditions (antisymplectic, prescribed characteristic polynomial),
not by this particular sign recipe.  Two modes are exposed:

* ``Mode.FAITHFUL`` keeps the literal piece bookkeeping (2 toggled into
  the working set).  Recomputing the achieved class from traces shows
  that for 2 not in the target the period 2 is picked up as well; the
  resulting model is reported with a deviation flag rather than patched.
* ``Mode.CORRECTED`` uses pieces only for the target minus {2} and, when
  2 is absent from the target, one extra 2x2 block diag(1, -1); the
  achieved support then equals the target exactly.

Non-orientable case.  The torsion-free first homology has rank genus-1;
one curve of a chosen pivot piece is eliminated, turning that piece's
cycle into the companion matrix of (x^n - 1)/(x - 1) when the pivot is
nontrivial, or leaving a single fixed curve when the pivot is the
identity piece.

All constructions are deterministic: targets are sorted, pieces are
emitted in increasing label order, and the achieved Dold class is always
read from the analysis of the assembled matrix, never trusted.
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

from .arith import DoldClass
from .exactmat import (
    IntMatrix,
    block_diag,
    companion_cycle_quotient,
    cyclic_permutation,
    mat_scale,
)
from .lefschetz import Analysis, HomologyModel, SurfaceKind, analyze

__all__ = [
    "EmptyTarget",
    "OddTargetUnrealizable",
    "TargetMismatch",
    "Mode",
    "PieceSpec",
    "SurfaceModel",
    "realize_orientable_preserving",
    "realize_orientable_reversing",
    "realize_nonorientable",
    "realize_target",
    "preserving_model_from_multiplicities",
]

DEVIATION_FLAG = "achieved-differs-from-target"
FAITHFUL_PERIOD_TWO_FLAG = "faithful-reversing-adds-period-2"


class EmptyTarget(Exception):
    """The empty set has no defined realization."""


class OddTargetUnrealizable(Exception):
    """Orientation-reversing models never have odd algebraic periods."""


class TargetMismatch(Exception):
    """The achieved period set differs from the target (postcondition or strict mode)."""


class Mode(enum.Enum):
    FAITHFUL = "faithful"
    CORRECTED = "corrected"


@dataclass(frozen=True)
class PieceSpec:
    """One periodic piece: label n, order tau of the map on it, copy count."""

    n: int
    tau: int
    copies: int


@dataclass(frozen=True)
class SurfaceModel:
    """A realization result; ``achieved`` is read from the model's analysis."""

    target: tuple[int, ...]
    kind: SurfaceKind
    mode: Optional[Mode]
    genus: int
    pieces: tuple[PieceSpec, ...]
    analysis: Analysis
    flags: tuple[str, ...] = ()

    @property
    def model(self) -> HomologyModel:
        return self.analysis.model

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


def _analyze_construction(model: HomologyModel, target_set: set[int]) -> Analysis:
    """Analysis of a construction's model; TargetMismatch if it misses the target."""
    analysis = analyze(model)
    achieved = set(analysis.dold.support())
    if achieved != target_set:
        raise TargetMismatch(
            f"{model.kind.value} construction missed its target: achieved periods"
            f" {sorted(achieved)}, target {sorted(target_set)}"
        )
    return analysis


def preserving_model_from_multiplicities(multiplicities: Mapping[int, int]) -> HomologyModel:
    """Orientation-preserving model with ``copies`` pieces per label.

    The matrix is diag(M, M) with M the direct sum of copies[n] cycle
    permutations of length n; the genus is sum(n * copies).  Used by the
    single-copy realization and by the partition census correspondence.
    """
    cycles = []
    genus = 0
    for n in sorted(multiplicities):
        copies = multiplicities[n]
        if n < 1 or copies < 0:
            raise ValueError("labels must be positive and multiplicities nonnegative")
        cycles.extend(cyclic_permutation(n) for _ in range(copies))
        genus += n * copies
    half = block_diag(cycles)
    matrix = block_diag([half, half])
    return HomologyModel(SurfaceKind.PRESERVING, matrix, genus, strict=True)


def realize_orientable_preserving(a: Iterable[int]) -> SurfaceModel:
    """Orientation-preserving realization of an arbitrary finite target."""
    target = _normalized_target(a)
    target_set = set(target)
    if 1 in target_set:
        working = sorted(target_set - {1})
    else:
        working = sorted(target_set | {1})
    model = preserving_model_from_multiplicities({n: 1 for n in working})
    analysis = _analyze_construction(model, target_set)
    return SurfaceModel(
        target=target,
        kind=SurfaceKind.PRESERVING,
        mode=None,
        genus=model.genus,
        pieces=tuple(PieceSpec(n, n, 1) for n in working),
        analysis=analysis,
    )


def _swap_shift_block(n: int) -> IntMatrix:
    """Permutation of the 2*tau(n) paired curves of a doubled piece.

    Coordinates 0..tau-1 are the first copy, tau..2*tau-1 the mirror
    copy; the map sends (copy c, index j) to (copy 1-c, index j+1 mod tau).
    A single 2*tau-cycle when tau is odd (4 does not divide n), two
    n-cycles when tau = n is even.
    """
    tau = n if n % 4 == 0 else n // 2
    size = 2 * tau
    rows = [[0] * size for _ in range(size)]
    for j in range(tau):
        rows[tau + (j + 1) % tau][j] = 1
        rows[(j + 1) % tau][tau + j] = 1
    return IntMatrix(rows)


def _reversing_matrix(working: list[int], extra_block: bool) -> IntMatrix:
    a_blocks = [_swap_shift_block(n) for n in working]
    if extra_block:
        a_blocks.append(IntMatrix.identity(1))
    half = block_diag(a_blocks)
    return block_diag([half, mat_scale(half, -1)])


def realize_orientable_reversing(
    a: Iterable[int],
    mode: Mode = Mode.CORRECTED,
    strict: bool = False,
) -> SurfaceModel:
    """Orientation-reversing realization; the target must consist of even numbers."""
    target = _normalized_target(a)
    target_set = set(target)
    if any(n % 2 for n in target):
        raise OddTargetUnrealizable(
            "orientation-reversing models admit only even algebraic periods; "
            f"target {list(target)} contains odd elements"
        )
    if mode is Mode.FAITHFUL:
        if 2 in target_set:
            working = sorted(target_set - {2})
        else:
            working = sorted(target_set | {2})
        extra_block = False
    else:
        working = sorted(target_set - {2})
        extra_block = 2 not in target_set
    matrix = _reversing_matrix(working, extra_block)
    genus = matrix.dim // 2
    model = HomologyModel(SurfaceKind.REVERSING, matrix, genus, strict=True)
    analysis = analyze(model)
    achieved = analysis.dold
    flags: tuple[str, ...] = ()
    if set(achieved.support()) != target_set:
        flags = (DEVIATION_FLAG,)
        if mode is Mode.FAITHFUL:
            flags += (FAITHFUL_PERIOD_TWO_FLAG,)
        if strict:
            raise TargetMismatch(
                f"achieved periods {sorted(achieved.support())} differ from target {target}"
            )
    pieces = [PieceSpec(n, n if n % 4 == 0 else n // 2, 2) for n in working]
    if extra_block:
        pieces.append(PieceSpec(2, 1, 1))
    return SurfaceModel(
        target=target,
        kind=SurfaceKind.REVERSING,
        mode=mode,
        genus=genus,
        pieces=tuple(pieces),
        analysis=analysis,
        flags=flags,
    )


def realize_nonorientable(a: Iterable[int]) -> SurfaceModel:
    """Non-orientable realization of an arbitrary finite target."""
    target = _normalized_target(a)
    target_set = set(target)
    if target_set == {1}:
        # Identity on the projective plane: genus 1, empty matrix, L == 1.
        model = HomologyModel(SurfaceKind.NONORIENTABLE, IntMatrix(()), 1)
        return SurfaceModel(
            target=target,
            kind=SurfaceKind.NONORIENTABLE,
            mode=None,
            genus=1,
            pieces=(),
            analysis=_analyze_construction(model, target_set),
        )
    if 1 in target_set:
        working = sorted(target_set - {1})
        pivot = working[0]
        blocks = [companion_cycle_quotient(pivot)]
        blocks.extend(cyclic_permutation(n) for n in working[1:])
        genus = sum(working)
    else:
        working = sorted(target_set) + [1]
        blocks = [cyclic_permutation(n) for n in sorted(target_set)]
        blocks.append(IntMatrix.identity(1))
        genus = 2 + sum(target_set)
    matrix = block_diag(blocks)
    model = HomologyModel(SurfaceKind.NONORIENTABLE, matrix, genus)
    analysis = _analyze_construction(model, target_set)
    pieces = tuple(PieceSpec(n, 2 if n == 1 else n, 1) for n in sorted(working))
    return SurfaceModel(
        target=target,
        kind=SurfaceKind.NONORIENTABLE,
        mode=None,
        genus=genus,
        pieces=pieces,
        analysis=analysis,
    )


def realize_target(
    a: Iterable[int],
    kind: SurfaceKind,
    mode: Mode = Mode.CORRECTED,
    strict: bool = False,
) -> SurfaceModel:
    """Dispatch to the construction matching ``kind``."""
    if kind is SurfaceKind.PRESERVING:
        return realize_orientable_preserving(a)
    if kind is SurfaceKind.REVERSING:
        return realize_orientable_reversing(a, mode=mode, strict=strict)
    return realize_nonorientable(a)
