"""Vertically parametrized systems, reaction-network assembly, and the
combined bound report.

A vertical system is a coefficient matrix C, an integer exponent matrix A
with as many rows as variables, and a rational shift vector h scaling the
j-th monomial column by the j-th power of the small parameter.  Mass-action
steady states with conservation laws assemble into this shape by stacking
the conservation rows and totals next to the stoichiometric block.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

from tropibound.intersection import IntersectionReport, lower_bound
from tropibound.rational import (
    RationalMatrix,
    first_independent_rows,
    vector,
)
from tropibound.subdivision import (
    DecoratedSimplex,
    SubdivisionError,
    decorated_count,
    decorated_document,
    decorated_to_tropical,
)


class SystemError_(ValueError):
    pass


@functools.lru_cache(maxsize=1)
def _independent_rows(C: RationalMatrix) -> RationalMatrix:
    """C restricted to its first independent rows.  A one-entry memo:
    CLI ``verify`` reduces C for the Newton witnesses and again for the
    decorated count, and every draw of a rate scan shares its C, so the
    draws share one reduced matrix as well."""
    return C.submatrix_rows(first_independent_rows(C))


@dataclass(frozen=True)
class VerticalSystem:
    """C diag(t^h) x^A = 0 with C rational, A integer, h rational.

    Construction is the one place the shapes and the integrality of A are
    checked; everything downstream takes a validated system.
    """

    C: RationalMatrix
    A: RationalMatrix
    h: tuple[Fraction, ...]

    def __post_init__(self):
        C, A, h = self.C, self.A, self.h
        if not (C.cols == A.cols == len(h)):
            raise SystemError_(
                f"column mismatch: C has {C.cols} columns, A has {A.cols}, h has {len(h)}"
            )
        if not A.is_integer:
            raise SystemError_("exponent matrix must have integer entries")
        object.__setattr__(self, "h", vector(h))

    @property
    def n(self) -> int:
        return self.A.rows

    @property
    def r(self) -> int:
        return self.A.cols

    def reduced_coefficients(self) -> RationalMatrix:
        """The n independent rows of C, first ones found; same kernel.

        The square system, which the decorated count and the Newton
        witnesses both need, exists only when rank(C) = n; otherwise
        SystemError_ is raised.
        """
        reduced = _independent_rows(self.C)
        if reduced.rows != self.n:
            raise SystemError_(f"rank(C) = {reduced.rows} differs from n = {self.n}")
        return reduced


@dataclass(frozen=True)
class CRNModel:
    """Mass-action network data: stoichiometric matrix, reactant matrix,
    conservation matrix with totals, and rate exponents."""

    N_stoich: RationalMatrix
    B: RationalMatrix
    W: RationalMatrix
    T: tuple[Fraction, ...]
    h: tuple[Fraction, ...]

    def __post_init__(self):
        ns, rs = self.N_stoich.rows, self.N_stoich.cols
        if self.B.rows != ns or self.B.cols != rs:
            raise SystemError_("reactant matrix shape must match the stoichiometric matrix")
        if not self.B.is_integer:
            raise SystemError_("reactant matrix must be integer")
        if self.W.cols != ns:
            raise SystemError_("conservation matrix must have one column per species")
        if len(self.T) != self.W.rows:
            raise SystemError_("one total per conservation row required")
        if len(self.h) != rs:
            raise SystemError_("one rate exponent per reaction required")
        if not self.W.matmul(self.N_stoich).is_zero():
            raise SystemError_("conservation rows must annihilate the stoichiometric matrix")
        object.__setattr__(self, "T", vector(self.T))
        object.__setattr__(self, "h", vector(self.h))


@functools.lru_cache(maxsize=1)
def _crn_matrices(
    N_stoich: RationalMatrix, B: RationalMatrix, W: RationalMatrix, T: tuple[Fraction, ...]
) -> tuple[RationalMatrix, RationalMatrix]:
    """C and A of ``assemble_crn``.  A one-entry memo: the draws of a rate
    scan share them, so the matrices' own caches (``_ints``,
    ``integer_columns``) stay warm and the one-entry memos keyed on C or A
    hit by identity."""
    ns, rs = N_stoich.rows, N_stoich.cols
    crows = []
    for i in range(ns):
        crows.append(list(N_stoich.row(i)) + [0] * ns + [0])
    for i in range(W.rows):
        crows.append([0] * rs + list(W.row(i)) + [-T[i]])
    arows = []
    for i in range(ns):
        arows.append(list(B.row(i)) + [1 if j == i else 0 for j in range(ns)] + [0])
    return RationalMatrix.from_rows(crows), RationalMatrix.from_rows(arows)


def assemble_crn(model: CRNModel) -> VerticalSystem:
    """Stack steady-state and conservation equations into one vertical
    system.

    C = [[N, 0, 0], [0, W, -T]] pairs the reaction monomials x^B with the
    plain concentrations and a constant column; A = [B | Id | 0]; the rate
    exponents extend by zeros (conservation coefficients do not scale with
    the parameter).  Models that differ only in h share one C and one A.
    """
    C, A = _crn_matrices(model.N_stoich, model.B, model.W, model.T)
    h_full = tuple(model.h) + (Fraction(0),) * (model.N_stoich.rows + 1)
    return VerticalSystem(C, A, h_full)


@dataclass(frozen=True)
class BoundReport:
    tropical: IntersectionReport
    decorated: tuple[int, tuple[DecoratedSimplex, ...]] | None
    certified_bound: int
    method_notes: tuple[str, ...]

    def to_document(self) -> dict:
        return {
            "certified_bound": self.certified_bound,
            "tropical": self.tropical.to_document(),
            "decorated": None if self.decorated is None else decorated_document(*self.decorated),
            "method_notes": list(self.method_notes),
        }


class ComparisonViolation(AssertionError):
    """Two decorated simplices share a tropical image, or on a certified
    run one maps off the reported points: either contradicts the injective
    comparison map.  Distinct images that are all reported points number
    at most the reported points, so decorated <= tropical holds whenever
    neither is raised."""


def bound(system: VerticalSystem, cross_check: bool = False) -> BoundReport:
    """Run both bounding methods and reconcile them.

    The tropical count is certified when transverse; the decorated count
    needs no transversality and is the fallback.  The decorated simplices
    must have distinct tropical images, and on a certified run each image
    must be a reported tropical point; a violation aborts loudly since it
    would contradict the comparison map.  The tropical count is the number
    of reported points, so these two checks imply decorated <= tropical.
    """
    notes: list[str] = []
    tropical = lower_bound(system, cross_check=cross_check)

    decorated = None
    try:
        count, simplices = decorated_count(system.reduced_coefficients(), system.A, system.h)
    except (SystemError_, SubdivisionError) as exc:
        notes.append(f"{exc}; decorated-simplex bound skipped")
    else:
        decorated = (count, tuple(simplices))
        images = [
            decorated_to_tropical(s, system.A, system.h, matroid=tropical.matroid)
            for s in simplices
        ]
        if len(set(images)) != len(images):
            raise ComparisonViolation("two decorated simplices share one tropical image")
        if tropical.transverse:
            reported = {p.w for p in tropical.points}
            for s, w in zip(simplices, images):
                if w not in reported:
                    raise ComparisonViolation(
                        f"decorated simplex {s.cell.members} maps to"
                        f" {tuple(str(x) for x in w)}, not a reported point"
                    )

    if tropical.transverse:
        certified = tropical.count
        notes.append("tropical count certified transverse")
    elif decorated is not None:
        certified = decorated[0]
        notes.append(
            "tropical count not certified; falling back to the decorated-simplex bound"
        )
    else:
        certified = 0
        notes.append("no certified method applies; bound defaults to 0")
    if tropical.transverse and tropical.count == 0:
        notes.append("the shifted positive fan misses rowspan(A) entirely")
    notes.extend(tropical.diagnostics.messages)
    return BoundReport(
        tropical=tropical,
        decorated=decorated,
        certified_bound=certified,
        method_notes=tuple(notes),
    )
