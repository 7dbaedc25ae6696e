"""Exact linear algebra over arbitrary-precision rationals.

Scalars are ``fractions.Fraction`` (always in lowest terms, positive
denominator), so every operation in this module is exact.  Matrices are
immutable values; operations return fresh objects.

This is the one module that turns rationals into integers, through
``integer_multiple``, ``primitive`` and ``integer_columns``.  Every
elimination runs through one kernel, ``_echelon``: fraction-free
Gauss-Jordan elimination of integer rows with a single running pivot
(Bareiss, "Sylvester's identity and multistep integer-preserving
Gaussian elimination", Math. Comp. 22, 1968), which rational rows enter
through ``integer_multiple``.  Reduced echelon forms, ranks, kernels,
affine solutions, determinants and independent row sets are read off
its result, solutions through ``_solution``; Fractions are built only
for the values returned.

The pipeline layers that eliminate (the fan walk, the subdivision and
``validate_inputs``) call ``_echelon`` on their own integer rows.  The
subdivision reads solutions off it with ``_solution``, as ``_solve``
does here.  The fan walk does not: it eliminates each tie system once,
beside an identity block, and reads the solutions off the row
operations recorded there.  The polyhedron probes eliminate nothing
here: ``_polyhedra`` takes inequalities alone and needs only
``primitive``.  ``solve_affine``, ``det``,
``rref``, ``rank``, ``row_space_equal`` and ``in_row_span`` are the
Fraction forms.  No pipeline layer calls them, but they stay because
the benchmark needs them: ``bench/tracing.py`` wraps them by name, and
``bench/workloads.py`` ``criterion7_family`` draws its systems through
``rank``.  The tests use them as references as well.

No floating point enters this module.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm, prod
from typing import Iterable, Sequence, Union

RationalVector = tuple[Fraction, ...]

Scalar = Union[int, str, Fraction]


def to_rational(x: Scalar) -> Fraction:
    """Coerce ints, fraction strings like ``"-3/7"``, and Fractions.

    A string is an optional sign, ASCII digits and an optional ``/`` and
    digits, after stripping whitespace and reading U+2212 as a minus.  A
    decimal or exponent string raises ValueError before ``Fraction`` sees
    it, so ``"1e100000000"`` never becomes a 10**8-digit integer.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise TypeError("bool is not a rational scalar")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        s = x.strip().replace("−", "-")
        if not re.fullmatch(r"[-+]?[0-9]+(/[0-9]+)?", s):
            raise ValueError(f"not an integer or fraction string: {x!r}")
        return Fraction(s)
    raise TypeError(f"cannot interpret {x!r} as a rational number")


def vector(entries: Iterable[Scalar]) -> RationalVector:
    return tuple(to_rational(x) for x in entries)


class RationalMatrix:
    """Immutable dense matrix of rationals, stored row-major.  Equality
    and the hash read one tuple of ints (``_ints``), a cached property:
    one-entry memos keyed on a matrix hash and compare it on every call,
    while most matrices never are.  ``integer_columns`` reads another
    (``_columns``), so every layer that reads an exponent matrix shares
    one conversion.  ``cached_property`` writes the instance dict, so the
    ``__setattr__`` guard does not stop it."""

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

    @cached_property
    def _ints(self) -> tuple[int, ...]:
        """The shape, the numerators, then the denominators.  Entries are
        in lowest terms with positive denominators, so two matrices are
        equal iff these tuples are."""
        ent = self._entries
        return (self.rows, self.cols, *(x.numerator for x in ent), *(x.denominator for x in ent))

    @cached_property
    def _columns(self) -> tuple[tuple[int, ...], ...]:
        """``integer_columns``; raising leaves nothing cached."""
        if not self.is_integer():
            raise ValueError("exponent matrix must have integer entries")
        return tuple(tuple(x.numerator for x in self.column(j)) for j in range(self.cols))

    def __eq__(self, other) -> bool:
        return isinstance(other, RationalMatrix) and self._ints == other._ints

    def __hash__(self) -> int:
        return hash(self._ints)

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in self.row(i)) for i in range(self.rows))
        return f"RationalMatrix({self.rows}x{self.cols}: {body})"


def integer_multiple(xs: Sequence[Fraction]) -> tuple[int, list[int]]:
    """D, the lcm of the denominators of xs, and the ints D x."""
    D = lcm(*(x.denominator for x in xs))
    if D == 1:
        return 1, [x.numerator for x in xs]
    return D, [x.numerator * (D // x.denominator) for x in xs]


def primitive(row: Sequence[int]) -> tuple[int, ...]:
    """An integer row divided by the gcd of its entries; a zero row as it is."""
    g = gcd(*row)
    return tuple(x // g for x in row) if g > 1 else tuple(row)


def integer_columns(M: RationalMatrix) -> tuple[tuple[int, ...], ...]:
    """The columns of an integer matrix as ints; ValueError on any other
    entry.  Built on first use and kept on the matrix."""
    return M._columns


def _integer_rows(M: RationalMatrix) -> list[list[int]]:
    """The rows of M through ``integer_multiple``: same row space and kernel."""
    return [integer_multiple(M.row(i))[1] for i in range(M.rows)]


def _echelon(
    rows: Iterable[Sequence[int]], ncols: int
) -> tuple[list[Sequence[int]], list[int], int, int]:
    """Fraction-free Gauss-Jordan elimination of integer rows; the one
    elimination kernel.

    Returns ``(m, pivots, d, sign)`` with d > 0.  Each pivot is the first
    nonzero entry of its column among the rows not yet used, columns
    taken left to right.  The first ``len(pivots)`` rows of ``m`` divided
    by ``d`` are the reduced row echelon form; the remaining rows are
    zero in the first ``ncols`` columns.  A square matrix of full rank
    has determinant ``sign * d``.
    """
    m = list(rows)
    nrows = len(m)
    pivots: list[int] = []
    d = sign = 1
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
            sign = -sign
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
    if d < 0:
        m = [[-x for x in row] for row in m]
        d, sign = -d, -sign
    return m, pivots, d, sign


def _solution(
    m: Sequence[Sequence[int]], pivots: Sequence[int], d: int, ncols: int
) -> tuple[list[int], list[list[int]]]:
    """The solutions of Mx = b, read off an elimination of [M | b] with
    M's ncols columns: x = (x0 + sum of s_f k_f) / d over the free
    columns f, with x0 zero off the pivots and k_f d times the
    back-substituted kernel vector (k_f[f] = d), all integer."""
    x0 = [0] * ncols
    for row, p in zip(m, pivots):
        x0[p] = row[ncols]
    pivot_set = set(pivots)
    kernel = []
    for f in range(ncols):
        if f not in pivot_set:
            k = [0] * ncols
            k[f] = d
            for row, p in zip(m, pivots):
                k[p] = -row[f]
            kernel.append(k)
    return x0, kernel


def _solve(M: RationalMatrix, b: Sequence) -> tuple[RationalVector, RationalMatrix] | None:
    """``solve_affine`` for a right-hand side of rationals or ints."""
    rows = [integer_multiple((*M.row(i), b[i]))[1] for i in range(M.rows)]
    m, pivots, d, _ = _echelon(rows, M.cols + 1)
    if pivots and pivots[-1] == M.cols:
        return None
    x0, kernel = _solution(m, pivots, d, M.cols)
    return tuple(Fraction(x, d) for x in x0), RationalMatrix(
        len(kernel), M.cols, [Fraction(x, d) for k in kernel for x in k]
    )


def rref(M: RationalMatrix) -> tuple[RationalMatrix, list[int]]:
    """Reduced row echelon form and the pivot columns, in order."""
    m, pivots, d, _ = _echelon(_integer_rows(M), M.cols)
    return RationalMatrix(M.rows, M.cols, [Fraction(x, d) for row in m for x in row]), pivots


def rank(M: RationalMatrix) -> int:
    return len(_echelon(_integer_rows(M), M.cols)[1])


def kernel_basis(M: RationalMatrix) -> RationalMatrix:
    """Basis of the right kernel {x : Mx = 0}, one basis vector per row.

    Row count is cols(M) - rank(M): each free column of the reduced
    echelon form contributes the standard back-substituted vector.
    """
    return _solve(M, [0] * M.rows)[1]


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
    return _solve(M, vector(b))


def det(M: RationalMatrix) -> Fraction:
    """Exact determinant: the signed last fraction-free pivot of the
    integer rows, over the product of their scales."""
    if M.rows != M.cols:
        raise ValueError("determinant requires a square matrix")
    scaled = [integer_multiple(M.row(i)) for i in range(M.rows)]
    _, pivots, d, sign = _echelon([row for _, row in scaled], M.cols)
    if len(pivots) < M.rows:
        return Fraction(0)
    return Fraction(sign * d, prod(D for D, _ in scaled))


def row_space_equal(A: RationalMatrix, B: RationalMatrix) -> bool:
    """Whether two matrices span the same row space, i.e. share their
    reduced row echelon form up to zero rows."""
    if A.cols != B.cols:
        return False
    ma, pa, da, _ = _echelon(_integer_rows(A), A.cols)
    mb, pb, db, _ = _echelon(_integer_rows(B), B.cols)
    return pa == pb and all(
        x * db == y * da for ra, rb in zip(ma, mb) for x, y in zip(ra, rb)
    )


def first_independent_rows(M: RationalMatrix) -> list[int]:
    """Indices of the lexicographically first maximal independent row set:
    the pivot columns of the transpose."""
    return _echelon([integer_multiple(M.column(j))[1] for j in range(M.cols)], M.rows)[1]


def in_row_span(M: RationalMatrix, v: Sequence[Scalar]) -> bool:
    """Whether v lies in the row span of M."""
    return solve_affine(M.transpose(), v) is not None
