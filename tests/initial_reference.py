"""Positive tropical membership from initial forms, with no circuits.

For the linear space L = ker C, a weight w lies in Trop+(L) iff the
variety of the initial ideal in_w<rowspan C> meets the open positive
orthant (Speyer-Williams, math/0312297; Ardila-Klivans-Williams,
math/0406116; min convention).  The ideal is generated by linear forms,
and in_w of a form keeps its terms on the lowest level of w it meets.
So in_w<rowspan C> splits by the levels of w: level k's forms F_k are
the level-k parts of the forms of rowspan C that vanish on every lower
level, and the variety is the product of the kernels of the F_k.

One elimination finds every F_k.  With the columns in increasing w, the
rows of the reduced echelon form whose pivot lies at or after a level's
first column span the forms that vanish below that level: a pivot column
is zero in every other row, so a combination vanishing there uses no row
with an earlier pivot.  Their restrictions to the level's columns span
F_k.  Membership asks that each nonzero F_k has a strictly positive
kernel vector, an exact linear program.

The same forms give the initial matroid in_w(M) of the matroid M of
ker C: it is the direct sum over the levels of the matroids of the
ker F_k, so its connected components are those of the levels, counted
by ``component_count`` with no circuits either.  A point lies in a
full-dimensional cell of the coarse structure iff that count is
rank(M).  ``intersection._is_interior`` asks the same of the classes
that the argmin sets of all circuits merge into; a non-minimal initial
form can join two components there, so the two rules can differ.

This module reads no circuits and imports nothing from ``tropibound``:
its elimination is sympy's ``rref``, its feasibility test sympy's
simplex.  It is the tests' independent check of ``is_positive_member``
and of ``_is_interior``.
"""

from fractions import Fraction
from itertools import groupby
from typing import Sequence

import sympy
from sympy.solvers.simplex import InfeasibleLPError, linprog


def _rational(x) -> sympy.Rational:
    q = Fraction(x)
    return sympy.Rational(q.numerator, q.denominator)


def initial_forms(C_rows: Sequence[Sequence], w: Sequence) -> list[sympy.Matrix]:
    """One matrix per level of w, lowest first: its rows span the level's
    part of in_w<rowspan C>, its columns are the level's elements in
    increasing index.  A level whose forms all vanish gets a matrix with
    no rows."""
    order = sorted(range(len(w)), key=lambda j: Fraction(w[j]))
    R, pivots = sympy.Matrix([[_rational(row[j]) for j in order] for row in C_rows]).rref()
    forms = []
    lo = 0
    for _, level in groupby(order, key=lambda j: Fraction(w[j])):
        hi = lo + len(list(level))
        rows = [i for i, p in enumerate(pivots) if p >= lo]
        forms.append(R.extract(rows, list(range(lo, hi))))
        lo = hi
    return forms


def has_positive_kernel_vector(F: sympy.Matrix) -> bool:
    """Whether F y = 0 for some y > 0.  By homogeneity that asks for a
    y >= 1, so for a z = y - 1 >= 0 with F z = -F 1, which sympy's exact
    simplex takes as the two inequalities F z <= -F 1 and -F z <= F 1."""
    if not any(F):
        return True
    s = F * sympy.ones(F.cols, 1)
    try:
        linprog([0] * F.cols, F.col_join(-F), (-s).col_join(s))
    except InfeasibleLPError:
        return False
    return True


def is_positive_member(C_rows: Sequence[Sequence], w: Sequence) -> bool:
    """Whether w lies in the positive tropicalization of ker C, read off
    the initial forms of rowspan C alone."""
    return all(map(has_positive_kernel_vector, initial_forms(C_rows, w)))


def component_count(C_rows: Sequence[Sequence], w: Sequence) -> int:
    """The number of connected components of in_w(M), read off the
    initial forms of rowspan C alone.

    A matroid and its dual have the same components, so each level may
    count those of the column matroid of its F_k.  The rows of F_k from
    ``initial_forms`` are reduced echelon rows pivoted inside the level,
    restricted to it, so F_k is [I | D] up to the order of its columns,
    beside rows that vanish on the level.  Each nonzero row ties its
    pivot to every other column where it is nonzero: the pivot and such
    a column lie in that column's fundamental circuit of the pivot
    basis, so in one component.  And if no row ties a set X of columns
    to the rest, every row is nonzero on one side only, F_k is block
    diagonal, and its column matroid is a direct sum over X and the
    rest.  So the components are the classes of the ties.  A level whose
    forms all vanish has no ties: each of its elements is a component.
    """
    count = 0
    for F in initial_forms(C_rows, w):
        parts = [{j} for j in range(F.cols)]
        for i in range(F.rows):
            row = {j for j in range(F.cols) if F[i, j]}
            if row:
                joined = set().union(*(part for part in parts if part & row))
                parts = [part for part in parts if not part & row] + [joined]
        count += len(parts)
    return count
