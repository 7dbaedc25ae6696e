"""Exact feasibility, dimension, and sampling for small rational polyhedra.

Fourier-Motzkin elimination over Fractions with strict/weak inequality
tracking.  Intended for the desk-scale systems that arise from cone
pieces and tangent-direction tests (a handful of variables, tens of
constraints); no attempt at asymptotic cleverness.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Sequence

from tropibound.rational import RationalMatrix, _echelon, kernel_basis, solve_affine

Row = tuple[Fraction, ...]

# An inequality is (coeffs, rhs, strict) meaning coeffs.x <= rhs, or < if strict.
Inequality = tuple[Row, Fraction, bool]
# An equality is (coeffs, rhs).
Equality = tuple[Row, Fraction]


def _normalize(coeffs: Sequence[Fraction], rhs: Fraction) -> tuple[Row, Fraction]:
    """Scale to a canonical integer row (positive leading coefficient kept)."""
    denoms = [c.denominator for c in coeffs] + [rhs.denominator]
    lcm = 1
    for d in denoms:
        lcm = lcm * d // gcd(lcm, d)
    ints = [int(c * lcm) for c in coeffs] + [int(rhs * lcm)]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    if g > 1:
        ints = [x // g for x in ints]
    return tuple(Fraction(x) for x in ints[:-1]), Fraction(ints[-1])


def _dot(a: Sequence[Fraction], x: Sequence[Fraction]) -> Fraction:
    return sum((ai * xi for ai, xi in zip(a, x)), Fraction(0))


class _Infeasible(Exception):
    pass


def _clean(ineqs: list[Inequality]) -> list[Inequality]:
    """Drop tautologies, canonicalize, raise on contradictions, dedupe."""
    seen: dict[tuple[Row, Fraction], bool] = {}
    for coeffs, rhs, strict in ineqs:
        if all(c == 0 for c in coeffs):
            if rhs < 0 or (strict and rhs == 0):
                raise _Infeasible
            continue
        key_row, key_rhs = _normalize(coeffs, rhs)
        key = (key_row, key_rhs)
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


def _feasible_ineqs(dim: int, ineqs: list[Inequality]) -> tuple[Fraction, ...] | None:
    """Fourier-Motzkin feasibility with sample reconstruction."""
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
    # Feasible: back-substitute, innermost variable first.
    sample: list[Fraction] = [Fraction(0)] * dim
    for var, constraints in reversed(stages):
        lo: tuple[Fraction, bool] | None = None
        hi: tuple[Fraction, bool] | None = None
        for coeffs, rhs, strict in constraints:
            c = coeffs[var]
            if c == 0:
                continue
            # variables eliminated earlier no longer occur here; later ones
            # are already assigned, so one pass over j != var suffices
            rest = sum(coeffs[j] * sample[j] for j in range(dim) if j != var)
            bound = (rhs - rest) / c
            if c > 0:
                if hi is None or bound < hi[0] or (bound == hi[0] and strict):
                    hi = (bound, strict)
            else:
                if lo is None or bound > lo[0] or (bound == lo[0] and strict):
                    lo = (bound, strict)
        if lo is None and hi is None:
            value = Fraction(0)
        elif lo is None:
            value = hi[0] - 1 if hi[1] else hi[0]
        elif hi is None:
            value = lo[0] + 1 if lo[1] else lo[0]
        elif lo[0] == hi[0]:
            # FM encodes strict lower-vs-upper combinations, so a pinched
            # interval can only arise with both bounds weak
            value = lo[0]
        else:
            value = (lo[0] + hi[0]) / 2
        sample[var] = value
    return tuple(sample)


def feasible_point(
    dim: int,
    equalities: Sequence[Equality],
    inequalities: Sequence[Inequality],
) -> tuple[Fraction, ...] | None:
    """An exact solution of the mixed system, or None if infeasible."""
    if equalities:
        M = RationalMatrix(len(equalities), dim, [c for row, _ in equalities for c in row])
        sol = solve_affine(M, [rhs for _, rhs in equalities])
        if sol is None:
            return None
        x0, K = sol
    else:
        x0, K = tuple(Fraction(0) for _ in range(dim)), RationalMatrix.identity(dim)
    kdim = K.rows
    reduced: list[Inequality] = []
    for coeffs, rhs, strict in inequalities:
        new_coeffs = tuple(_dot(coeffs, K.row(i)) for i in range(kdim))
        new_rhs = rhs - _dot(coeffs, x0)
        reduced.append((new_coeffs, new_rhs, strict))
    s = _feasible_ineqs(kdim, reduced)
    if s is None:
        return None
    return tuple(
        x0[j] + sum(s[i] * K[i, j] for i in range(kdim)) for j in range(dim)
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
    if eqs:
        M = RationalMatrix(len(eqs), dim, [c for row, _ in eqs for c in row])
        d = kernel_basis(M).rows
    else:
        d = dim
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
    eqs = [(row, Fraction(0)) for row in equalities]
    ineqs = [(row, Fraction(0), False) for row in inequalities]
    for i in range(dim):
        pin = tuple(Fraction(1 if j == i else 0) for j in range(dim))
        for sign in (1, -1):
            pt = feasible_point(dim, eqs + [(pin, Fraction(sign))], ineqs)
            if pt is not None:
                return pt
    return None
