import random
from fractions import Fraction as F
from math import gcd, lcm

from fan_reference import reference_dimension
from tropibound import _polyhedra
from tropibound._polyhedra import (
    cone_nonzero_point,
    feasible_point,
    polyhedron_dimension,
)
from tropibound.rational import RationalMatrix, kernel_basis, rank, solve_affine


def eq(coeffs, rhs):
    """The row coeffs . x = rhs scaled to integers, as the module takes it."""
    den = lcm(*(F(x).denominator for x in (*coeffs, rhs)))
    return tuple(int(F(c) * den) for c in coeffs), int(F(rhs) * den)


def ineq(coeffs, rhs, strict=False):
    return (*eq(coeffs, rhs), strict)


def tight_rows(point, ineqs):
    """Indices of the inequalities that hold with equality at point."""
    return {
        i for i, (coeffs, rhs, _) in enumerate(ineqs) if sum(map(F.__mul__, point, coeffs)) == rhs
    }


def assert_matches_reference(got, want, ineqs):
    """got = (dimension, sample) agrees with a reference's: the same
    dimension, the same point at dimension 0, and a sample tight on
    exactly the rows the reference's relative-interior sample is tight
    on (the implicit equalities)."""
    assert got[0] == want[0]
    if got[0] == 0:
        assert got[1] == want[1]
    if got[0] >= 0:
        assert tight_rows(got[1], ineqs) == tight_rows(want[1], ineqs)


def satisfies(point, eqs, ineqs):
    for coeffs, rhs in eqs:
        if sum(c * x for c, x in zip(coeffs, point)) != rhs:
            return False
    for coeffs, rhs, strict in ineqs:
        lhs = sum(c * x for c, x in zip(coeffs, point))
        if lhs > rhs or (strict and lhs == rhs):
            return False
    return True


def test_triangle_feasible_and_full_dimensional():
    ineqs = [ineq([1, 1], 1), ineq([-1, 0], 0), ineq([0, -1], 0)]
    pt = feasible_point(2, [], ineqs)
    assert pt is not None and satisfies(pt, [], ineqs)
    dim, sample = polyhedron_dimension(2, [], ineqs)
    assert dim == 2
    assert satisfies(sample, [], [(c, r, True) for c, r, _ in ineqs])


def test_strict_infeasible():
    assert feasible_point(1, [], [ineq([1], 0, True), ineq([-1], 0, True)]) is None


def test_weak_pinch_is_a_point():
    ineqs = [ineq([1, 0], 0), ineq([-1, 0], 0)]
    dim, sample = polyhedron_dimension(2, [eq([1, 1], 1)], ineqs)
    assert dim == 0
    assert sample == (F(0), F(1))


def test_equalities_with_parameters():
    # x + y + z = 3, x - y = 1, z >= 0 strictly
    eqs = [eq([1, 1, 1], 3), eq([1, -1, 0], 1)]
    pt = feasible_point(3, eqs, [ineq([0, 0, -1], 0, True)])
    assert pt is not None and satisfies(pt, eqs, [])
    assert pt[2] > 0


def test_inconsistent_equalities():
    assert feasible_point(2, [eq([1, 0], 0), eq([1, 0], 1)], []) is None


def test_empty_dimension_is_minus_one():
    dim, sample = polyhedron_dimension(1, [], [ineq([1], -1), ineq([-1], -1)])
    assert dim == -1 and sample is None


def test_unbounded_strip_dimension():
    dim, _ = polyhedron_dimension(2, [], [ineq([1, 0], 1), ineq([-1, 0], 0)])
    assert dim == 2


def test_implicit_equality_detected():
    # x <= 0 and x >= 0 squeeze a line out of the plane
    dim, sample = polyhedron_dimension(2, [], [ineq([1, 0], 0), ineq([-1, 0], 0)])
    assert dim == 1
    assert sample[0] == 0


def test_cone_nonzero_points_found_and_absent():
    assert cone_nonzero_point(2, [(1, -1)], [(1, 0)]) is not None
    assert cone_nonzero_point(2, [(1, 0), (0, 1)], []) is None
    # pointed cone with interior: x <= 0, y <= 0
    pt = cone_nonzero_point(2, [], [(1, 0), (0, 1)])
    assert pt is not None and any(x != 0 for x in pt)


def test_zero_dimensional_space():
    assert feasible_point(0, [], []) == ()


def slice_reference(dim, equalities, inequalities):
    """The 2*dim slice probes alone, without the rank exit."""
    eqs = [(row, 0) for row in equalities]
    ineqs = [(row, 0, False) for row in inequalities]
    for i in range(dim):
        pin = tuple(int(j == i) for j in range(dim))
        for sign in (1, -1):
            pt = feasible_point(dim, eqs + [(pin, sign)], ineqs)
            if pt is not None:
                return pt
    return None


def test_cone_pinned_by_full_rank_equalities():
    # two independent equalities in R^2 leave only the origin, whatever G says
    eqs = [(1, 2), (3, -1)]
    assert cone_nonzero_point(2, eqs, [(-1, 0), (1, 1)]) is None
    # four rows of rank 3 in R^3, the third the sum of the first two
    eqs3 = [(1, 0, 1), (0, 1, 1), (1, 1, 2), (1, -1, 1)]
    assert cone_nonzero_point(3, eqs3, [(0, 0, 1)]) is None


def random_rows(rng, count, dim):
    return [tuple(rng.randint(-2, 2) for _ in range(dim)) for _ in range(count)]


def test_cone_nonzero_point_matches_slice_reference():
    rng = random.Random(2024)
    pinned = found = 0
    for _ in range(200):
        dim = rng.randint(1, 4)
        eqs = random_rows(rng, rng.randint(0, dim + 1), dim)
        if eqs and rng.random() < 0.3:
            eqs.append(tuple(a + b for a, b in zip(eqs[0], eqs[-1])))
        ineqs = random_rows(rng, rng.randint(0, 4), dim)
        got = cone_nonzero_point(dim, eqs, ineqs)
        assert (got is None) == (slice_reference(dim, eqs, ineqs) is None)
        if got is not None:
            assert any(got)
            assert all(sum(map(F.__mul__, got, row)) == 0 for row in eqs)
            assert all(sum(map(F.__mul__, got, row)) <= 0 for row in ineqs)
        pinned += got is None
        found += got is not None
    assert pinned and found


def test_cone_that_is_a_subspace_gets_a_nonzero_point():
    # 0 lies in the relative interior of a linear subspace, so the
    # sample is nonzero only because the first free fiber gets 1
    for dim, eqs, ineqs in [
        (3, [(1, -1, 0)], []),
        (2, [], []),
        (3, [], [(1, 1, 0), (-1, -1, 0), (0, 0, 1), (0, 0, -1)]),
    ]:
        u = cone_nonzero_point(dim, eqs, ineqs)
        assert u is not None and any(u)
        assert all(sum(map(F.__mul__, u, row)) == 0 for row in eqs + ineqs)


def implicit_cases(rng):
    """Seeded systems (dim, eqs, ineqs) with implicit equalities: rows
    tight at x0 whose positive combination is negated by a closing row
    are all implicit; slack rows are not, and a negative slack can empty
    the polyhedron."""
    while True:
        dim = rng.randint(1, 4)
        x0 = [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(dim)]

        def row():
            return [rng.randint(-2, 2) for _ in range(dim)]

        def at_x0(a):
            return sum(c * x for c, x in zip(a, x0))

        eqs = [eq(a, at_x0(a)) for a in (row() for _ in range(rng.randint(0, 1)))]
        tight = [row() for _ in range(rng.randint(1, 3))]
        lams = [rng.randint(1, 3) for _ in tight]
        closing = [-sum(lam * a[j] for lam, a in zip(lams, tight)) for j in range(dim)]
        ineqs = [ineq(a, at_x0(a)) for a in tight + [closing]]
        for _ in range(rng.randint(0, 4)):
            a = row()
            ineqs.append(ineq(a, at_x0(a) + rng.choice([-1, 1, 2, F(1, 2)])))
        rng.shuffle(ineqs)
        yield dim, eqs, ineqs


def test_one_pass_dimension_matches_two_pass():
    # the dimension read off one elimination against the implicit-equality
    # reference, which probes each row strictly
    implicit = empty = 0
    for dim, eqs, ineqs in implicit_cases(random.Random(7117)):
        got = polyhedron_dimension(dim, eqs, ineqs)
        assert_matches_reference(got, reference_dimension(dim, eqs, ineqs), ineqs)
        if got[0] < 0:
            empty += 1
        elif got[0] < polyhedron_dimension(dim, eqs, [])[0]:
            implicit += 1
        if implicit == 200:
            break
    assert empty >= 10


def test_dimension_ignores_variable_order_and_row_order():
    # permuting the variables changes the elimination order; shuffling
    # and duplicating rows changes the rows each stage holds
    rng = random.Random(31)
    cases = implicit_cases(random.Random(7117))
    for _ in range(300):
        dim, eqs, ineqs = next(cases)
        want = polyhedron_dimension(dim, eqs, ineqs)
        perm = rng.sample(range(dim), dim)
        p_eqs = [(tuple(c[j] for j in perm), r) for c, r in eqs]
        p_ineqs = [(tuple(c[j] for j in perm), r, s) for c, r, s in ineqs]
        p_ineqs += rng.choices(p_ineqs, k=rng.randint(0, 3))
        rng.shuffle(p_ineqs)
        got = polyhedron_dimension(dim, p_eqs, p_ineqs)
        assert got[0] == want[0], (dim, eqs, ineqs, perm)
        if got[0] >= 0:
            back = [None] * dim
            for i, j in enumerate(perm):
                back[j] = got[1][i]
            assert_matches_reference((got[0], tuple(back)), want, ineqs)


def test_one_elimination_per_dimension_and_cone_probe(monkeypatch):
    runs = []
    real = _polyhedra._feasible_ineqs

    def counted(dim, ineqs):
        runs.append(dim)
        return real(dim, ineqs)

    monkeypatch.setattr(_polyhedra, "_feasible_ineqs", counted)
    for dim, eqs, ineqs in [
        (2, [], [ineq([1, 1], 1), ineq([-1, 0], 0), ineq([0, -1], 0)]),
        (2, [], [ineq([1, 0], 0), ineq([-1, 0], 0)]),
        (2, [eq([1, 1], 1)], [ineq([1, 0], 0), ineq([-1, 0], 0)]),
        (1, [], [ineq([1], -1), ineq([-1], -1)]),
    ]:
        runs.clear()
        polyhedron_dimension(dim, eqs, ineqs)
        assert len(runs) == 1
    cones = [(2, [(1, -1)], [(1, 0)]), (2, [(1, 0), (0, 1)], []), (3, [(1, -1, 0)], [])]
    for dim, eqs, ineqs in cones:
        runs.clear()
        cone_nonzero_point(dim, eqs, ineqs)
        assert len(runs) == 1


def test_dimension_of_the_zero_dimensional_space():
    assert polyhedron_dimension(0, [], []) == (0, ())
    assert polyhedron_dimension(0, [], [((), -1, False)]) == (-1, None)


# The Fraction implementation the integer one replaced, kept as a
# reference: rows are scaled to primitive integer rows of Fractions,
# equalities go through solve_affine and the sample is back-substituted
# in Fractions.


def _ref_normalize(coeffs, rhs):
    den = lcm(*(c.denominator for c in (*coeffs, rhs)))
    ints = [int(c * den) for c in (*coeffs, rhs)]
    g = gcd(*ints)
    if g > 1:
        ints = [x // g for x in ints]
    return tuple(F(x) for x in ints[:-1]), F(ints[-1])


def _ref_clean(ineqs):
    seen = {}
    for coeffs, rhs, strict in ineqs:
        if all(c == 0 for c in coeffs):
            if rhs < 0 or (strict and rhs == 0):
                raise ValueError("infeasible")
            continue
        key = _ref_normalize(coeffs, rhs)
        seen[key] = seen.get(key, False) or strict
    return [(row, rhs, strict) for (row, rhs), strict in seen.items()]


def _ref_eliminate(ineqs, var):
    lowers, uppers, passthrough = [], [], []
    for coeffs, rhs, strict in ineqs:
        c = coeffs[var]
        if c == 0:
            passthrough.append((coeffs, rhs, strict))
        else:
            (uppers if c > 0 else lowers).append((coeffs, rhs, strict, c))
    for lc, lr, ls, la in lowers:
        for uc, ur, us, ua in uppers:
            coeffs = tuple(ua * l - la * u for l, u in zip(lc, uc))
            passthrough.append((coeffs, ua * lr - la * ur, ls or us))
    return _ref_clean(passthrough)


def _ref_choose_var(ineqs, remaining):
    best, best_cost = remaining[-1], None
    for v in remaining:
        lo = sum(1 for c, _, _ in ineqs if c[v] < 0)
        hi = sum(1 for c, _, _ in ineqs if c[v] > 0)
        cost = lo * hi - lo - hi
        if best_cost is None or cost < best_cost:
            best, best_cost = v, cost
    return best


def _ref_feasible_ineqs(dim, ineqs):
    try:
        stages = []
        current = _ref_clean(list(ineqs))
        remaining = list(range(dim))
        while remaining:
            var = _ref_choose_var(current, remaining)
            stages.append((var, current))
            current = _ref_eliminate(current, var)
            remaining.remove(var)
    except ValueError:
        return None
    sample = [F(0)] * dim
    for var, constraints in reversed(stages):
        lo = hi = None
        for coeffs, rhs, _ in constraints:
            c = coeffs[var]
            if c == 0:
                continue
            rest = sum((coeffs[j] * sample[j] for j in range(dim) if j != var), F(0))
            bound = (rhs - rest) / c
            if c > 0:
                hi = bound if hi is None else min(hi, bound)
            else:
                lo = bound if lo is None else max(lo, bound)
        if lo is None and hi is None:
            value = F(1)
        elif lo is None:
            value = hi - 1
        elif hi is None:
            value = lo + 1
        else:
            value = (lo + hi) / 2
        sample[var] = value
    return tuple(sample)


def _ref_feasible_point(dim, equalities, inequalities):
    if equalities:
        M = RationalMatrix(len(equalities), dim, [c for row, _ in equalities for c in row])
        sol = solve_affine(M, [rhs for _, rhs in equalities])
        if sol is None:
            return None
        x0, K = sol
    else:
        x0, K = tuple(F(0) for _ in range(dim)), RationalMatrix.identity(dim)
    reduced = [
        (
            tuple(sum(a * k for a, k in zip(coeffs, K.row(i))) for i in range(K.rows)),
            rhs - sum(a * x for a, x in zip(coeffs, x0)),
            strict,
        )
        for coeffs, rhs, strict in inequalities
    ]
    s = _ref_feasible_ineqs(K.rows, reduced)
    if s is None:
        return None
    return tuple(x0[j] + sum(s[i] * K[i, j] for i in range(K.rows)) for j in range(dim))


def _ref_dimension(dim, equalities, inequalities):
    eqs = list(equalities)
    ineqs = [(c, r, False) for c, r, _ in inequalities]
    if _ref_feasible_point(dim, eqs, ineqs) is None:
        return -1, None
    still = []
    for i, (coeffs, rhs, _) in enumerate(ineqs):
        if _ref_feasible_point(dim, eqs, still + ineqs[i + 1 :] + [(coeffs, rhs, True)]) is None:
            eqs.append((coeffs, rhs))
        else:
            still.append((coeffs, rhs, False))
    M = RationalMatrix(len(eqs), dim, [c for row, _ in eqs for c in row]) if eqs else None
    d = kernel_basis(M).rows if eqs else dim
    return d, _ref_feasible_point(dim, eqs, [(c, r, True) for c, r, _ in still])


def test_integer_rows_give_exact_fraction_points():
    # with one free direction left after the equalities, every bound of the
    # back-substitution comes from a row with no other variable: the sample
    # must stay exact, satisfy the input, and agree with the Fraction
    # implementation on the verdict, the dimension and the point itself
    rng = random.Random(4242)
    feasible = empty = 0
    for _ in range(300):
        dim = rng.randint(1, 4)
        x0 = [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(dim)]
        rows = []
        while len(rows) < dim - 1:
            row = [rng.randint(-2, 2) for _ in range(dim)]
            if rank(RationalMatrix.from_rows(rows + [row])) == len(rows) + 1:
                rows.append(row)
        ref_eqs = [
            (tuple(F(c) for c in row), sum((c * x for c, x in zip(row, x0)), F(0)))
            for row in rows
        ]
        ref_ineqs = [
            (
                tuple(F(rng.randint(-3, 3)) for _ in range(dim)),
                F(rng.randint(-6, 6), rng.randint(1, 4)),
                rng.random() < 0.5,
            )
            for _ in range(rng.randint(1, 5))
        ]
        eqs = [eq(c, r) for c, r in ref_eqs]
        ineqs = [ineq(c, r, strict) for c, r, strict in ref_ineqs]
        pt = feasible_point(dim, eqs, ineqs)
        assert pt == _ref_feasible_point(dim, ref_eqs, ref_ineqs)
        if pt is None:
            empty += 1
        else:
            feasible += 1
            assert all(type(x) is F for x in pt)
            assert satisfies(pt, eqs, ineqs)
        got = polyhedron_dimension(dim, eqs, ineqs)
        assert_matches_reference(got, _ref_dimension(dim, ref_eqs, ref_ineqs), ineqs)
        assert got[1] is None or all(type(x) is F for x in got[1])
    assert feasible > 100 and empty > 50
