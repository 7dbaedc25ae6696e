"""Exact dimension and relative-interior points of small rational polyhedra.

A polyhedron is {t : G t <= b}, given as integer weak inequalities:
``(coeffs, rhs)`` means coeffs . t <= rhs.  There are no equalities;
the fan walk hands over its cells in the free coordinates of their
ties' solutions, where only ordering facets remain.  Callers make their
rows integer with the helpers of ``rational``, so no Fraction is
unpacked here.

Each question is one Fourier-Motzkin elimination on integer rows, of
the variables in index order: each combination of two rows stays
integer and is made ``rational.primitive``, so every row has one
primitive form (Schrijver, *Theory of Linear and Integer Programming*,
1986, §12.2).  The order changes neither the dimension nor, where that
is 0, the one point, and the fan walk reads nothing else.
Back-substitution puts each variable in the relative interior of its
interval, in integers over one common denominator, and only the
returned point is built of Fractions.  So the run gives the dimension,
which is the number of intervals that are not a single point, and a
sample in the relative interior.

``polyhedron_dimension`` is that run, elimination and back-substitution
in one function, and returns both; ``intersection._product_cells``
calls it once per cell probe of the fan walk.  ``cone_nonzero_point``
reads a nonzero point of a cone of positive dimension off the same run,
for ``intersection.tangent_direction``, which the pipeline never calls.
``feasible_point`` is the sample alone; no package code calls it, and it
stays only because ``bench/tracing.py`` wraps it by name.  Intended for
the desk-scale systems that arise from the cell pieces of the fan walk
(a handful of variables, tens of constraints); no attempt at asymptotic
cleverness.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import mul
from typing import Sequence

from tropibound.rational import primitive

Row = tuple[int, ...]

# An inequality (coeffs, rhs) means coeffs . t <= rhs.
Constraint = tuple[Row, int]


class _Infeasible(Exception):
    pass


def _clean(ineqs: list[Constraint]) -> list[Constraint]:
    """Drop tautologies, make rows primitive, raise on contradictions, dedupe."""
    rows: dict[Constraint, None] = {}
    for coeffs, rhs in ineqs:
        if any(coeffs):
            row = primitive((*coeffs, rhs))
            rows[row[:-1], row[-1]] = None
        elif rhs < 0:
            raise _Infeasible
    return list(rows)


def _eliminate(ineqs: list[Constraint], var: int) -> list[Constraint]:
    lowers = []   # x_var >= ... : (coeffs, rhs, coefficient of x_var)
    uppers = []
    passthrough = []
    for coeffs, rhs in ineqs:
        c = coeffs[var]
        if c == 0:
            passthrough.append((coeffs, rhs))
        elif c > 0:
            uppers.append((coeffs, rhs, c))
        else:
            lowers.append((coeffs, rhs, c))
    for lc, lr, la in lowers:
        for uc, ur, ua in uppers:
            # combine: (-la) * upper + ua * lower with la < 0 < ua eliminates var
            coeffs = tuple(ua * l - la * u for l, u in zip(lc, uc))
            passthrough.append((coeffs, ua * lr - la * ur))
    return _clean(passthrough)


def polyhedron_dimension(
    dim: int, inequalities: Sequence[Constraint]
) -> tuple[int, tuple[Fraction, ...] | None]:
    """Dimension of P = {t : inequalities} and a point in its relative
    interior, read off one Fourier-Motzkin run.  Returns (-1, None) when
    P is empty.

    The variables are eliminated in index order, t_0 first.
    Back-substitution puts each variable inside its interval over the
    variables already fixed: at the interval's one point when the
    interval is a single point, at the midpoint of a bounded interval, a
    step of 1 off the bound of a ray, and at 1 when nothing bounds it.
    The sample is built as integer numerators over one positive common
    denominator, and the dimension is the number of intervals that are
    not a single point.

    Why the run gives both (Schrijver §12.2; Rockafellar, *Convex
    Analysis*, 1970, Thm 6.8 and Cor. 6.5.1):

    - The rows the elimination holds at stage i describe exactly the
      projection Q_i of P onto the variables not yet eliminated.
    - Take s in the relative interior of Q_{i+1} and x in the relative
      interior of the fiber of Q_i over s.  Then (x, s) lies in the
      relative interior of Q_i, and dim Q_i = dim Q_{i+1} + dim(fiber).
    - Back-substitution picks such an x at every stage, so the sample
      lies in the relative interior of P, and dim P is the number of
      fibers that are not a single point.
    - A P of dimension 0 is one point, which the sample is.
    """
    try:
        # stages[var] holds the rows just before var is eliminated
        stages = [_clean(list(inequalities))]
        for var in range(dim):
            stages.append(_eliminate(stages[-1], var))
    except _Infeasible:
        return -1, None
    # Feasible: back-substitute, innermost variable first.  The sample is
    # nums / den, and each bound is a pair (numerator, positive denominator).
    nums = [0] * dim
    den = 1
    free = 0
    for var in reversed(range(dim)):
        lo: tuple[int, int] | None = None
        hi: tuple[int, int] | None = None
        for coeffs, rhs in stages[var]:
            c = coeffs[var]
            if c == 0:
                continue
            # variables eliminated earlier no longer occur here, and var
            # itself is still 0; later ones are already assigned
            bn = rhs * den - sum(map(mul, coeffs, nums))
            bd = c * den
            if c > 0:
                if hi is None or bn * hi[1] < hi[0] * bd:
                    hi = (bn, bd)
            else:
                bn, bd = -bn, -bd
                if lo is None or bn * lo[1] > lo[0] * bd:
                    lo = (bn, bd)
        if lo is None and hi is None:
            vn, vd = 1, 1
        elif lo is None:
            vn, vd = hi[0] - hi[1], hi[1]
        elif hi is None:
            vn, vd = lo[0] + lo[1], lo[1]
        else:
            # the midpoint, which is lo itself when lo = hi
            vn, vd = lo[0] * hi[1] + hi[0] * lo[1], 2 * lo[1] * hi[1]
        free += lo is None or hi is None or lo[0] * hi[1] != hi[0] * lo[1]
        g = gcd(vn, vd)
        vn, vd = vn // g, vd // g
        grow = vd // gcd(den, vd)
        if grow > 1:
            nums = [x * grow for x in nums]
            den *= grow
        nums[var] = vn * (den // vd)
    return free, tuple(Fraction(x, den) for x in nums)


def feasible_point(dim: int, inequalities: Sequence[Constraint]) -> tuple[Fraction, ...] | None:
    """A point in the relative interior of the polyhedron, or None if it
    is empty: ``polyhedron_dimension(...)[1]``.  No package code calls
    it; it stays because ``bench/tracing.py`` wraps it by name."""
    return polyhedron_dimension(dim, inequalities)[1]


def cone_nonzero_point(dim: int, rows: Sequence[Row]) -> tuple[Fraction, ...] | None:
    """A nonzero point of the homogeneous cone K = {u : G u <= 0}, with
    the rows of G given, or None when K is the origin alone: the
    relative-interior sample of ``polyhedron_dimension`` when K has
    positive dimension.

    That sample is nonzero.  If 0 is not in the relative interior of K,
    the sample is not 0.  If it is, K is a linear subspace, and so is each
    projection Q_i; every fiber over 0 is then 0 alone or all of R, and
    back-substitution, having set every earlier variable to 0, sets the
    variable of the first fiber that is all of R to 1.
    """
    d, u = polyhedron_dimension(dim, [(row, 0) for row in rows])
    return u if d > 0 else None
