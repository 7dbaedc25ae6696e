"""Exact feasibility, dimension, and sampling for small rational polyhedra.

Rows are integer.  An equality is ``(coeffs, rhs)`` meaning
coeffs . x = rhs; an inequality is ``(coeffs, rhs, strict)`` meaning
coeffs . x <= rhs, or < if strict.  Callers make their rows integer with
the helpers of ``rational``, so no Fraction is unpacked here.  The
equalities are eliminated once with ``rational._echelon`` and their
solutions read off with ``rational._solution``; the inequalities,
rewritten over the solution space, go through Fourier-Motzkin
elimination on integer rows with strict/weak tracking: each combination
of two rows stays integer and is made ``rational.primitive``, so every
row has one primitive form (Schrijver, *Theory of Linear and Integer
Programming*, 1986, §12.2).  The sample is back-substituted in integers
over one common denominator, and only the returned point is built of
Fractions.

One such run answers every question asked here.  Back-substitution
puts each variable in the relative interior of its interval, so the run
decides feasibility (``feasible_point``), counts the intervals that are
not a single point, which is the dimension (``polyhedron_dimension``),
and its sample lies in the relative interior, which is nonzero for a
cone of positive dimension (``cone_nonzero_point``).  Intended for the
desk-scale systems that arise from the cell pieces of the fan walk (a
handful of variables, tens of constraints); no attempt at asymptotic
cleverness.  ``cone_nonzero_point`` serves only
``intersection.tangent_direction``, which the pipeline never calls.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import mul
from typing import Sequence

from tropibound.rational import _echelon, _solution, primitive

Row = tuple[int, ...]

# An inequality is (coeffs, rhs, strict) meaning coeffs.x <= rhs, or < if strict.
Inequality = tuple[Row, int, bool]
# An equality is (coeffs, rhs).
Equality = tuple[Row, int]


class _Infeasible(Exception):
    pass


def _clean(ineqs: list[Inequality]) -> list[Inequality]:
    """Drop tautologies, make rows primitive, raise on contradictions, dedupe."""
    seen: dict[tuple[Row, int], bool] = {}
    for coeffs, rhs, strict in ineqs:
        if not any(coeffs):
            if rhs < 0 or (strict and rhs == 0):
                raise _Infeasible
            continue
        row = primitive((*coeffs, rhs))
        key = (row[:-1], row[-1])
        seen[key] = seen.get(key, False) or strict
    return [(row, rhs, strict) for (row, rhs), strict in seen.items()]


def _eliminate(ineqs: list[Inequality], var: int) -> list[Inequality]:
    lowers = []   # x_var >= ... : (coeffs', rhs', strict) for the bound expression
    uppers = []
    passthrough = []
    for coeffs, rhs, strict in ineqs:
        c = coeffs[var]
        if c == 0:
            passthrough.append((coeffs, rhs, strict))
        elif c > 0:
            uppers.append((coeffs, rhs, strict, c))
        else:
            lowers.append((coeffs, rhs, strict, c))
    for lc, lr, ls, la in lowers:
        for uc, ur, us, ua in uppers:
            # combine: (-la) * upper + ua * lower with la < 0 < ua eliminates var
            coeffs = tuple(ua * l - la * u for l, u in zip(lc, uc))
            rhs = ua * lr - la * ur
            passthrough.append((coeffs, rhs, ls or us))
    return _clean(passthrough)


def _choose_var(ineqs: list[Inequality], remaining: list[int]) -> int:
    """Variable whose elimination creates the fewest product rows."""
    best, best_cost = remaining[-1], None
    for v in remaining:
        lo = sum(1 for c, _, _ in ineqs if c[v] < 0)
        hi = sum(1 for c, _, _ in ineqs if c[v] > 0)
        cost = lo * hi - lo - hi
        if best_cost is None or cost < best_cost:
            best, best_cost = v, cost
    return best


def _feasible_ineqs(dim: int, ineqs: list[Inequality]) -> tuple[list[int], int, int] | None:
    """Fourier-Motzkin feasibility with a relative-interior sample.

    Returns the sample as integer numerators over one positive common
    denominator, and the number of back-substitution intervals that are
    not a single point; None when the system is infeasible.
    """
    try:
        stages: list[tuple[int, list[Inequality]]] = []
        current = _clean(list(ineqs))
        remaining = list(range(dim))
        while remaining:
            var = _choose_var(current, remaining)
            stages.append((var, current))
            current = _eliminate(current, var)
            remaining.remove(var)
    except _Infeasible:
        return None
    # Feasible: back-substitute, innermost variable first.  The sample is
    # nums / den, and each bound is a pair (numerator, positive denominator).
    nums = [0] * dim
    den = 1
    free = 0
    for var, constraints in reversed(stages):
        lo: tuple[int, int] | None = None
        hi: tuple[int, int] | None = None
        for coeffs, rhs, _ in constraints:
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
    return nums, den, free


def _sample(
    dim: int,
    equalities: Sequence[Equality],
    inequalities: Sequence[Inequality],
) -> tuple[tuple[Fraction, ...], int] | None:
    """The sample of ``feasible_point`` and the number of its intervals
    that are not a single point, which is the dimension when every row is
    weak (``polyhedron_dimension``).

    One elimination of the augmented equalities gives, through
    ``rational._solution``, x = (x0 + sum of s_f k_f) / d over the free
    columns f, with x0 and the kernel vectors k_f integer and d > 0.  An
    inequality a . x <= b then reads sum of s_f (a . k_f) <= d b - a . x0,
    an integer row in s, and one Fourier-Motzkin run over those rows gives
    s.  The map from s to x is affine and one-to-one, so it keeps the
    dimension and the relative interior.
    """
    m, pivots, d, _ = _echelon([(*row, rhs) for row, rhs in equalities], dim + 1)
    if pivots and pivots[-1] == dim:
        return None
    x0, kernel = _solution(m, pivots, d, dim)
    reduced: list[Inequality] = []
    for coeffs, rhs, strict in inequalities:
        reduced.append(
            (
                tuple(sum(map(mul, coeffs, k)) for k in kernel),
                d * rhs - sum(map(mul, coeffs, x0)),
                strict,
            )
        )
    run = _feasible_ineqs(len(kernel), reduced)
    if run is None:
        return None
    nums, den, free = run
    # x = (x0 + sum of (nums_f / den) k_f) / d
    point = tuple(
        Fraction(x0[j] * den + sum(s * k[j] for s, k in zip(nums, kernel)), den * d)
        for j in range(dim)
    )
    return point, free


def feasible_point(
    dim: int,
    equalities: Sequence[Equality],
    inequalities: Sequence[Inequality],
) -> tuple[Fraction, ...] | None:
    """An exact solution of the mixed system, or None if infeasible.

    Back-substitution puts each variable inside its interval over the
    variables already fixed: at the interval's one point when the
    interval is a single point, at the midpoint of a bounded interval, a
    step of 1 off the bound of a ray, and at 1 when nothing bounds it.
    Fourier-Motzkin keeps strict rows strict, so a nonempty interval is a
    single point only between two weak bounds; every other pick lies
    strictly inside, and so satisfies strict and weak rows alike.
    """
    run = _sample(dim, equalities, inequalities)
    return None if run is None else run[0]


def polyhedron_dimension(
    dim: int,
    equalities: Sequence[Equality],
    inequalities: Sequence[Inequality],
) -> tuple[int, tuple[Fraction, ...] | None]:
    """Dimension of P = {x : equalities, weak inequalities} and a point in
    its relative interior, read off one Fourier-Motzkin run over the
    inequalities made weak.  Returns (-1, None) when P is empty.

    Why the run gives both (Schrijver §12.2; Rockafellar, *Convex
    Analysis*, 1970, Thm 6.8 and Cor. 6.5.1):

    - The rows the elimination holds at stage i describe exactly the
      projection Q_i of P onto the variables not yet eliminated.
    - Take s in the relative interior of Q_{i+1} and x in the relative
      interior of the fiber of Q_i over s.  Then (x, s) lies in the
      relative interior of Q_i, and dim Q_i = dim Q_{i+1} + dim(fiber).
    - Back-substitution picks such an x at every stage (see
      ``feasible_point``), so the sample lies in the relative interior of
      P, and dim P is the number of fibers that are not a single point.
    - A P of dimension 0 is one point, which the sample is.
    """
    run = _sample(dim, equalities, [(c, r, False) for c, r, _ in inequalities])
    if run is None:
        return -1, None
    point, free = run
    return free, point


def cone_nonzero_point(
    dim: int,
    equalities: Sequence[Row],
    inequalities: Sequence[Row],
) -> tuple[Fraction, ...] | None:
    """A nonzero point of the homogeneous cone K = {u : Eu = 0, Gu <= 0},
    or None when K is the origin alone: the relative-interior sample of
    ``polyhedron_dimension`` when K has positive dimension.

    That sample is nonzero.  If 0 is not in the relative interior of K,
    the sample is not 0.  If it is, K is a linear subspace, and so is each
    projection Q_i; every fiber over 0 is then 0 alone or all of R, and
    back-substitution, having set every earlier variable to 0, sets the
    variable of the first fiber that is all of R to 1.
    """
    d, u = polyhedron_dimension(
        dim, [(row, 0) for row in equalities], [(row, 0, False) for row in inequalities]
    )
    return u if d > 0 else None
