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
Fractions.  Intended for the desk-scale systems that arise from the
cell pieces of the fan walk (a handful of variables, tens of
constraints); no attempt at asymptotic cleverness.  ``cone_nonzero_point``
serves only ``intersection.tangent_direction``, which the pipeline
never calls.
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


def _feasible_ineqs(dim: int, ineqs: list[Inequality]) -> tuple[list[int], int] | None:
    """Fourier-Motzkin feasibility with sample reconstruction.

    Returns the sample as integer numerators over one positive common
    denominator, or None when the system is infeasible.
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
    for var, constraints in reversed(stages):
        lo: tuple[int, int, bool] | None = None
        hi: tuple[int, int, bool] | None = None
        for coeffs, rhs, strict in constraints:
            c = coeffs[var]
            if c == 0:
                continue
            # variables eliminated earlier no longer occur here, and var
            # itself is still 0; later ones are already assigned
            bn = rhs * den - sum(map(mul, coeffs, nums))
            bd = c * den
            if c > 0:
                if hi is None or bn * hi[1] < hi[0] * bd or (bn * hi[1] == hi[0] * bd and strict):
                    hi = (bn, bd, strict)
            else:
                bn, bd = -bn, -bd
                if lo is None or bn * lo[1] > lo[0] * bd or (bn * lo[1] == lo[0] * bd and strict):
                    lo = (bn, bd, strict)
        if lo is None and hi is None:
            vn, vd = 0, 1
        elif lo is None:
            vn, vd = (hi[0] - hi[1], hi[1]) if hi[2] else hi[:2]
        elif hi is None:
            vn, vd = (lo[0] + lo[1], lo[1]) if lo[2] else lo[:2]
        elif lo[0] * hi[1] == hi[0] * lo[1]:
            # FM encodes strict lower-vs-upper combinations, so a pinched
            # interval can only arise with both bounds weak
            vn, vd = lo[:2]
        else:
            vn, vd = lo[0] * hi[1] + hi[0] * lo[1], 2 * lo[1] * hi[1]
        g = gcd(vn, vd)
        vn, vd = vn // g, vd // g
        grow = vd // gcd(den, vd)
        if grow > 1:
            nums = [x * grow for x in nums]
            den *= grow
        nums[var] = vn * (den // vd)
    return nums, den


def feasible_point(
    dim: int,
    equalities: Sequence[Equality],
    inequalities: Sequence[Inequality],
) -> tuple[Fraction, ...] | None:
    """An exact solution of the mixed system, or None if infeasible.

    One elimination of the augmented equalities gives, through
    ``rational._solution``, x = (x0 + sum of s_f k_f) / d over the free
    columns f, with x0 and the kernel vectors k_f integer and d > 0.  An
    inequality a . x <= b then reads sum of s_f (a . k_f) <= d b - a . x0,
    an integer row in s, and the sample s of those rows gives x.
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
    sample = _feasible_ineqs(len(kernel), reduced)
    if sample is None:
        return None
    nums, den = sample
    # x = (x0 + sum of (nums_f / den) k_f) / d
    return tuple(
        Fraction(x0[j] * den + sum(s * k[j] for s, k in zip(nums, kernel)), den * d)
        for j in range(dim)
    )


def polyhedron_dimension(
    dim: int,
    equalities: Sequence[Equality],
    inequalities: Sequence[Inequality],
) -> tuple[int, tuple[Fraction, ...] | None]:
    """Dimension of {x : equalities, weak inequalities} and a point in its
    relative interior.  Returns (-1, None) when empty.

    Implicit equalities (inequalities tight on the whole polyhedron) are
    detected by probing each one strictly and folded into the equality
    system.  One pass suffices: an inequality is implicit exactly when it
    cannot hold strictly on the polyhedron, and folding an implicit one
    into the equalities leaves the polyhedron, and so every other
    verdict, unchanged.
    """
    eqs = list(equalities)
    ineqs = [(c, r, False) for c, r, _ in inequalities]
    if feasible_point(dim, eqs, ineqs) is None:
        return -1, None
    still: list[Inequality] = []
    for i, (coeffs, rhs, _) in enumerate(ineqs):
        probe = still + ineqs[i + 1 :] + [(coeffs, rhs, True)]
        if feasible_point(dim, eqs, probe) is None:
            eqs.append((coeffs, rhs))
        else:
            still.append((coeffs, rhs, False))
    d = dim - len(_echelon([row for row, _ in eqs], dim)[1])
    strict_all = [(c, r, True) for c, r, _ in still]
    sample = feasible_point(dim, eqs, strict_all)
    return d, sample


def cone_nonzero_point(
    dim: int,
    equalities: Sequence[Row],
    inequalities: Sequence[Row],
) -> tuple[Fraction, ...] | None:
    """A nonzero point of the homogeneous cone {u : Eu = 0, Gu <= 0}, or
    None when the cone is the origin alone.

    When E has rank dim, Eu = 0 alone pins u to the origin, and one
    elimination returns None.  Otherwise any nonzero point can be scaled
    so some coordinate is +-1, so 2*dim slice feasibility checks decide
    the question.
    """
    if len(_echelon(equalities, dim)[1]) == dim:
        return None
    eqs = [(row, 0) for row in equalities]
    ineqs = [(row, 0, False) for row in inequalities]
    for i in range(dim):
        pin = tuple(int(j == i) for j in range(dim))
        for sign in (1, -1):
            pt = feasible_point(dim, eqs + [(pin, sign)], ineqs)
            if pt is not None:
                return pt
    return None
