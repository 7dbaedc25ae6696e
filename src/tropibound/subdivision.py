"""Regular subdivisions of an exponent configuration and positively
decorated simplices.

The columns of an integer exponent matrix are lifted by a rational height
vector; the full-dimensional lower cells of the lifted configuration form
the subdivision.  An (n+1)-cell is positively decorated by a coefficient
matrix when the corresponding column submatrix has a one-dimensional
kernel meeting the open positive orthant; each such cell certifies one
positive root of its subsystem and maps injectively into the tropical
intersection set.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import prod
from operator import mul
from typing import Sequence

from tropibound.bergman import is_positive_member
from tropibound.intersection import _image
from tropibound.matroid import OrientedMatroid
from tropibound.rational import (
    RationalMatrix,
    _echelon,
    _solution,
    integer_columns,
    integer_multiple,
    vector,
)


class SubdivisionError(ValueError):
    pass


@dataclass(frozen=True)
class Cell:
    """A full-dimensional cell: 1-based column indices in increasing
    order plus the witness v whose lift normal (v, 1) supports the cell's
    lower face."""

    members: tuple[int, ...]
    witness: tuple[Fraction, ...]

    def to_document(self) -> dict:
        return {"members": list(self.members), "witness": [str(x) for x in self.witness]}


@dataclass(frozen=True)
class DecoratedSimplex:
    cell: Cell
    kernel_vector: tuple[Fraction, ...]

    def to_document(self) -> dict:
        return {
            **self.cell.to_document(),
            "kernel_vector": [str(x) for x in self.kernel_vector],
        }


def full_cells(A: RationalMatrix, h: Sequence) -> list[Cell]:
    """All full-dimensional cells of the regular subdivision of the
    columns of A induced by the lift h.

    For each (n+1)-subset of columns whose lifted points affinely span a
    non-vertical hyperplane, solve for the support normal (v, 1), take the
    global argmin of (v, 1).(alpha_j, h_j), and keep the argmin set when
    it contains the subset, that is, when no lifted column lies strictly
    below the subset's hyperplane.  Those lifted points are affinely
    independent, so such an argmin set spans; one that misses the subset
    is either not full-dimensional or a full cell with the same, unique
    supporting normal, found again from its own subsets.  Cells are
    deduplicated by member set.

    A must be integer.  With (H, H h) from ``integer_multiple``, each
    subset runs one ``_echelon`` of its rows (alpha_j, -1 | -H h_j) in
    the unknowns H (v, c); the subset spans exactly when all n + 1
    columns are pivots, and then H (v, c) = (x, y) / d.  The argmin is
    taken over the integers alpha_j . x + d H h_j
    (``intersection._image``), a positive multiple of alpha_j . v + h_j,
    which equal y on the subset; Fractions are built only for a kept
    witness.
    """
    n, r = A.rows, A.cols
    cols = integer_columns(A)
    if len(set(cols)) != r:
        raise SubdivisionError("exponent matrix has repeated columns")
    if len(h) != r:
        raise SubdivisionError("lift length mismatch")
    H, hh = integer_multiple(vector(h))
    rows = [(*col, -1, -hj) for col, hj in zip(cols, hh)]
    found: dict[tuple[int, ...], Cell] = {}
    for subset in combinations(rows, n + 1):
        m, pivots, d, _ = _echelon(subset, n + 1)
        if len(pivots) <= n:
            continue
        *x, y = (row[n + 1] for row in m)
        vals = _image(cols, hh, x, d)
        members = tuple(j + 1 for j, val in enumerate(vals) if val == y)
        if min(vals) == y and members not in found:
            found[members] = Cell(members, tuple(Fraction(xi, d * H) for xi in x))
    return sorted(found.values(), key=lambda c: c.members)


def is_triangulation(cells: Sequence[Cell], n: int) -> bool:
    """True iff every full-dimensional cell has exactly n+1 members."""
    return all(len(c.members) == n + 1 for c in cells)


def positively_decorated(N: RationalMatrix, cell: Cell) -> DecoratedSimplex | None:
    """Decoration test for an (n+1)-member cell against an n-row matrix.

    The signed-cofactor vector lambda_k = (-1)^k det(N_Delta minus
    column k) spans the kernel of the column submatrix when that matrix
    has full rank; the cell is decorated iff all entries carry one strict
    sign.  Returns the decoration with the kernel vector normalized
    positive, or None.

    One ``_echelon`` of the rows of N_Delta, each scaled to integers by
    its D_i from ``integer_multiple``, gives at rank n the single kernel
    vector k of ``_solution``.  It is +-(prod D_i) lambda, and its free
    entry is d > 0, so lambda is one-signed exactly when k is positive,
    and then |lambda| = k / prod D_i.  Rank below n is never decorated:
    the first kernel vector is zero at every other free column.
    """
    n = N.rows
    if len(cell.members) != n + 1:
        raise SubdivisionError(
            f"decoration needs an {n + 1}-member cell, got {len(cell.members)}"
        )
    scaled = [integer_multiple([N[i, j - 1] for j in cell.members]) for i in range(n)]
    m, pivots, d, _ = _echelon([(*row, 0) for _, row in scaled], n + 1)
    k = _solution(m, pivots, d, n + 1)[1][0]
    if not all(x > 0 for x in k):
        return None
    D = prod(D for D, _ in scaled)
    return DecoratedSimplex(cell, tuple(Fraction(x, D) for x in k))


def decorated_count(
    N: RationalMatrix, A: RationalMatrix, h: Sequence
) -> tuple[int, list[DecoratedSimplex]]:
    """Count positively decorated (n+1)-cells of the subdivision.

    Cells with more than n+1 members are never decorated; they are
    skipped, not subdivided.
    """
    n = A.rows
    if N.rows != n:
        raise SubdivisionError(
            f"coefficient matrix has {N.rows} rows, expected n = {n}"
        )
    if N.cols != A.cols:
        raise SubdivisionError("coefficient and exponent matrices disagree on columns")
    simplices = []
    for cell in full_cells(A, h):
        if len(cell.members) != n + 1:
            continue
        d = positively_decorated(N, cell)
        if d is not None:
            simplices.append(d)
    return len(simplices), simplices


def decorated_document(count: int, simplices: Sequence[DecoratedSimplex]) -> dict:
    """The decorated count and its simplices, as both the `decorated`
    command and the bound report write them."""
    return {"count": count, "simplices": [s.to_document() for s in simplices]}


def decorated_to_tropical(
    d: DecoratedSimplex,
    A: RationalMatrix,
    h: Sequence,
    matroid: OrientedMatroid,
) -> tuple[Fraction, ...]:
    """Image of a decorated simplex in the tropical intersection set:
    w = A^T v for the cell's witness v.

    w + h must pass the positive-membership test for the coefficient
    matroid; a failure would falsify the comparison map's injectivity on
    this instance and raises immediately.
    """
    w = tuple(sum(map(mul, col, d.cell.witness)) for col in integer_columns(A))
    p = tuple(a + b for a, b in zip(w, vector(h)))
    if not is_positive_member(p, matroid):
        raise AssertionError(
            "decorated simplex maps outside the positive tropical set;"
            f" cell {d.cell.members}, image {tuple(str(x) for x in w)}"
        )
    return w
