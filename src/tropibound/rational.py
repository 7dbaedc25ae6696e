"""Exact linear algebra over arbitrary-precision rationals.

Scalars are ``fractions.Fraction`` (always in lowest terms, positive
denominator), so every operation in this module is exact.  Matrices are
immutable values; operations return fresh objects.

Every elimination runs through one kernel, ``_echelon``: each row is
scaled to integers once, then fraction-free Gauss-Jordan elimination
with a single running pivot (Bareiss, "Sylvester's identity and
multistep integer-preserving Gaussian elimination", Math. Comp. 22,
1968) works on plain ints.  Reduced echelon forms, ranks, kernels,
affine solutions, determinants and independent row sets are all read
off its result; Fractions are built only for the values returned.

No floating point enters this module.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence, Union

RationalVector = tuple[Fraction, ...]

Scalar = Union[int, str, Fraction]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def to_rational(x: Scalar) -> Fraction:
    """Coerce ints, fraction strings like ``"-3/7"``, and Fractions."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise TypeError("bool is not a rational scalar")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x.strip().replace("−", "-"))
    raise TypeError(f"cannot interpret {x!r} as a rational number")


def vector(entries: Iterable[Scalar]) -> RationalVector:
    return tuple(to_rational(x) for x in entries)


class RationalMatrix:
    """Immutable dense matrix of rationals, stored row-major."""

    __slots__ = ("rows", "cols", "_entries")

    def __init__(self, rows: int, cols: int, entries: Iterable[Scalar]):
        ent = tuple(to_rational(x) for x in entries)
        if len(ent) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(ent)}")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "_entries", ent)

    def __setattr__(self, name, value):
        raise AttributeError("RationalMatrix is immutable")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[Scalar]]) -> "RationalMatrix":
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        for r in rows:
            if len(r) != ncols:
                raise ValueError("ragged rows")
        return cls(nrows, ncols, [x for row in rows for x in row])

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls(n, n, [1 if i == j else 0 for i in range(n) for j in range(n)])

    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        i, j = ij
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(ij)
        return self._entries[i * self.cols + j]

    def row(self, i: int) -> RationalVector:
        return self._entries[i * self.cols : (i + 1) * self.cols]

    def column(self, j: int) -> RationalVector:
        return tuple(self._entries[i * self.cols + j] for i in range(self.rows))

    def row_list(self) -> list[list[Fraction]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> "RationalMatrix":
        return RationalMatrix(
            self.cols,
            self.rows,
            [self._entries[i * self.cols + j] for j in range(self.cols) for i in range(self.rows)],
        )

    def matmul(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch for matmul")
        rows = []
        for i in range(self.rows):
            ri = self.row(i)
            for j in range(other.cols):
                rows.append(sum(ri[k] * other[k, j] for k in range(self.cols)))
        return RationalMatrix(self.rows, other.cols, rows)

    def apply(self, v: Sequence[Scalar]) -> RationalVector:
        """Matrix-vector product."""
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        vv = vector(v)
        return tuple(sum(a * x for a, x in zip(self.row(i), vv)) for i in range(self.rows))

    def submatrix_columns(self, cols: Sequence[int]) -> "RationalMatrix":
        return RationalMatrix(
            self.rows,
            len(cols),
            [self._entries[i * self.cols + j] for i in range(self.rows) for j in cols],
        )

    def submatrix_rows(self, rows: Sequence[int]) -> "RationalMatrix":
        return RationalMatrix(
            len(rows), self.cols, [self._entries[i * self.cols + j] for i in rows for j in range(self.cols)]
        )

    def is_zero(self) -> bool:
        return all(x == 0 for x in self._entries)

    def is_integer(self) -> bool:
        return all(x.denominator == 1 for x in self._entries)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RationalMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self._entries == other._entries
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self._entries))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in self.row(i)) for i in range(self.rows))
        return f"RationalMatrix({self.rows}x{self.cols}: {body})"


def _echelon(
    rows: Iterable[Sequence[Fraction]], ncols: int
) -> tuple[list[list[int]], list[int], int, int]:
    """Fraction-free Gauss-Jordan elimination; the one elimination kernel.

    Returns ``(m, pivots, d, scale)``.  Each pivot is the first nonzero
    entry of its column among the rows not yet used, columns taken left
    to right.  The first ``len(pivots)`` integer rows of ``m`` divided by
    ``d`` are the reduced row echelon form; the remaining rows are zero.
    ``scale`` is the product of the integer row scales, negated once per
    row swap, so a square matrix of full rank has determinant d / scale.
    """
    m: list[list[int]] = []
    scale = 1
    for row in rows:
        den = lcm(*[x.denominator for x in row])
        if den == 1:
            m.append([x.numerator for x in row])
        else:
            m.append([x.numerator * (den // x.denominator) for x in row])
            scale *= den
    nrows = len(m)
    pivots: list[int] = []
    d = 1
    pr = 0
    for pc in range(ncols):
        if pr == nrows:
            break
        for i in range(pr, nrows):
            if m[i][pc]:
                break
        else:
            continue
        if i != pr:
            m[pr], m[i] = m[i], m[pr]
            scale = -scale
        prow = m[pr]
        p = prow[pc]
        # Sylvester's identity makes every division below exact
        for i in range(nrows):
            if i == pr:
                continue
            f = m[i][pc]
            if f:
                m[i] = [(p * a - f * b) // d for a, b in zip(m[i], prow)]
            elif p != d:
                m[i] = [p * a // d for a in m[i]]
        d = p
        pivots.append(pc)
        pr += 1
    return m, pivots, d, scale


def _kernel(m: list[list[int]], pivots: list[int], d: int, ncols: int) -> RationalMatrix:
    """Kernel basis of the first ncols columns, read off an elimination:
    one back-substituted vector per free column."""
    pivot_set = set(pivots)
    free = [j for j in range(ncols) if j not in pivot_set]
    entries: list[Fraction] = []
    for f in free:
        v = [_ZERO] * ncols
        v[f] = _ONE
        for row, p in zip(m, pivots):
            if row[f]:
                v[p] = Fraction(-row[f], d)
        entries.extend(v)
    return RationalMatrix(len(free), ncols, entries)


def rref(M: RationalMatrix) -> tuple[RationalMatrix, list[int]]:
    """Reduced row echelon form and the pivot columns, in order."""
    m, pivots, d, _ = _echelon(M.row_list(), M.cols)
    return RationalMatrix(M.rows, M.cols, [Fraction(x, d) for row in m for x in row]), pivots


def rank(M: RationalMatrix) -> int:
    return len(_echelon(M.row_list(), M.cols)[1])


def kernel_basis(M: RationalMatrix) -> RationalMatrix:
    """Basis of the right kernel {x : Mx = 0}, one basis vector per row.

    Row count is cols(M) - rank(M): each free column of the reduced
    echelon form contributes the standard back-substituted vector.
    """
    m, pivots, d, _ = _echelon(M.row_list(), M.cols)
    return _kernel(m, pivots, d, M.cols)


def solve_affine(
    M: RationalMatrix, b: Sequence[Scalar]
) -> tuple[RationalVector, RationalMatrix] | None:
    """Solve Mx = b exactly.

    Returns (particular solution, kernel basis) when the system is
    consistent, and None otherwise; both are read off one elimination of
    the augmented matrix [M | b], whose left block reduces exactly as M.
    """
    if len(b) != M.rows:
        raise ValueError("right-hand side length mismatch")
    bb = vector(b)
    m, pivots, d, _ = _echelon([(*M.row(i), bb[i]) for i in range(M.rows)], M.cols + 1)
    if pivots and pivots[-1] == M.cols:
        return None
    particular = [_ZERO] * M.cols
    for row, p in zip(m, pivots):
        if row[-1]:
            particular[p] = Fraction(row[-1], d)
    return tuple(particular), _kernel(m, pivots, d, M.cols)


def det(M: RationalMatrix) -> Fraction:
    """Exact determinant, from the last fraction-free pivot."""
    if M.rows != M.cols:
        raise ValueError("determinant requires a square matrix")
    _, pivots, d, scale = _echelon(M.row_list(), M.cols)
    return Fraction(d, scale) if len(pivots) == M.rows else _ZERO


def row_space_equal(A: RationalMatrix, B: RationalMatrix) -> bool:
    """Whether two matrices span the same row space, i.e. share their
    reduced row echelon form up to zero rows."""
    if A.cols != B.cols:
        return False
    ma, pa, da, _ = _echelon(A.row_list(), A.cols)
    mb, pb, db, _ = _echelon(B.row_list(), B.cols)
    return pa == pb and all(
        x * db == y * da for ra, rb in zip(ma, mb) for x, y in zip(ra, rb)
    )


def first_independent_rows(M: RationalMatrix) -> list[int]:
    """Indices of the lexicographically first maximal independent row set:
    the pivot columns of the transpose."""
    return _echelon([M.column(j) for j in range(M.cols)], M.rows)[1]


def in_row_span(M: RationalMatrix, v: Sequence[Scalar]) -> bool:
    """Whether v lies in the row span of M."""
    return solve_affine(M.transpose(), v) is not None
