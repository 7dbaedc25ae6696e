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
from typing import Sequence

from tropibound.bergman import is_positive_member
from tropibound.matroid import OrientedMatroid
from tropibound.rational import RationalMatrix, det, solve_affine, vector


class SubdivisionError(ValueError):
    pass


@dataclass(frozen=True)
class Cell:
    """A full-dimensional cell: 1-based column indices plus the witness v
    whose lift normal (v, 1) supports the cell's lower face."""

    members: tuple[int, ...]
    witness: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(sorted(self.members)))

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


def _argmin_set(cols, h, v) -> tuple[int, ...]:
    vals = [sum(vi * ci for vi, ci in zip(v, col)) + hj for col, hj in zip(cols, h)]
    m = min(vals)
    return tuple(j + 1 for j, x in enumerate(vals) if x == m)


def full_cells(A: RationalMatrix, h: Sequence) -> list[Cell]:
    """All full-dimensional cells of the regular subdivision of the
    columns of A induced by the lift h.

    For each (n+1)-subset of columns whose lifted points affinely span a
    non-vertical hyperplane, solve for the support normal (v, 1), take the
    global argmin of (v, 1).(alpha_j, h_j), and keep the argmin set when
    it contains the subset.  Those lifted points are affinely independent,
    so such an argmin set spans; one that misses the subset is either not
    full-dimensional or a full cell with the same, unique supporting
    normal, found again from its own subsets.  Cells are deduplicated by
    member set.
    """
    n, r = A.rows, A.cols
    cols = [A.column(j) for j in range(r)]
    hh = vector(h)
    if len(set(cols)) != r:
        raise SubdivisionError("exponent matrix has repeated columns")
    if len(hh) != r:
        raise SubdivisionError("lift length mismatch")
    found: dict[tuple[int, ...], Cell] = {}
    for subset in combinations(range(1, r + 1), n + 1):
        # unknowns (v, c): alpha_j . v - c = -h_j
        M = RationalMatrix.from_rows(
            [list(cols[j - 1]) + [-1] for j in subset]
        )
        sol = solve_affine(M, [-hh[j - 1] for j in subset])
        if sol is None or sol[1].rows != 0:
            continue
        v = sol[0][:n]
        members = _argmin_set(cols, hh, v)
        if members not in found and set(subset) <= set(members):
            found[members] = Cell(members, tuple(v))
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
    """
    n = N.rows
    if len(cell.members) != n + 1:
        raise SubdivisionError(
            f"decoration needs an {n + 1}-member cell, got {len(cell.members)}"
        )
    sub = N.submatrix_columns([j - 1 for j in cell.members])
    lam = []
    for k in range(n + 1):
        minor = sub.submatrix_columns([c for c in range(n + 1) if c != k])
        lam.append((-1) ** k * det(minor))
    if all(x > 0 for x in lam):
        return DecoratedSimplex(cell, tuple(lam))
    if all(x < 0 for x in lam):
        return DecoratedSimplex(cell, tuple(-x for x in lam))
    return None


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
    w = A.transpose().apply(d.cell.witness)
    p = tuple(a + b for a, b in zip(w, vector(h)))
    if not is_positive_member(p, matroid):
        raise AssertionError(
            "decorated simplex maps outside the positive tropical set;"
            f" cell {d.cell.members}, image {tuple(str(x) for x in w)}"
        )
    return w
