import random
from fractions import Fraction as F

from tropibound._polyhedra import (
    cone_nonzero_point,
    feasible_point,
    polyhedron_dimension,
)
from tropibound.rational import RationalMatrix, kernel_basis


def ineq(coeffs, rhs, strict=False):
    return (tuple(F(c) for c in coeffs), F(rhs), strict)


def eq(coeffs, rhs):
    return (tuple(F(c) for c in coeffs), F(rhs))


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
    assert cone_nonzero_point(2, [(F(1), F(-1))], [(F(1), F(0))]) is not None
    assert cone_nonzero_point(2, [(F(1), F(0)), (F(0), F(1))], []) is None
    # pointed cone with interior: x <= 0, y <= 0
    pt = cone_nonzero_point(2, [], [(F(1), F(0)), (F(0), F(1))])
    assert pt is not None and any(x != 0 for x in pt)


def test_zero_dimensional_space():
    assert feasible_point(0, [], []) == ()


def slice_reference(dim, equalities, inequalities):
    """The 2*dim slice probes alone, without the rank exit."""
    eqs = [(row, F(0)) for row in equalities]
    ineqs = [(row, F(0), False) for row in inequalities]
    for i in range(dim):
        pin = tuple(F(1 if j == i else 0) for j in range(dim))
        for sign in (1, -1):
            pt = feasible_point(dim, eqs + [(pin, F(sign))], ineqs)
            if pt is not None:
                return pt
    return None


def test_cone_pinned_by_full_rank_equalities():
    # two independent equalities in R^2 leave only the origin, whatever G says
    eqs = [(F(1), F(2)), (F(3), F(-1))]
    assert cone_nonzero_point(2, eqs, [(F(-1), F(0)), (F(1), F(1))]) is None
    # four rows of rank 3 in R^3, the third the sum of the first two
    eqs3 = [(F(1), F(0), F(1)), (F(0), F(1), F(1)), (F(1), F(1), F(2)), (F(1), F(-1), F(1))]
    assert cone_nonzero_point(3, eqs3, [(F(0), F(0), F(1))]) is None


def random_rows(rng, count, dim):
    return [tuple(F(rng.randint(-2, 2)) for _ in range(dim)) for _ in range(count)]


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
        assert got == slice_reference(dim, eqs, ineqs)
        pinned += got is None
        found += got is not None
    assert pinned and found


def _two_pass_dimension(dim, equalities, inequalities):
    """polyhedron_dimension as it was, re-probing the leftover
    inequalities until a pass folds no new implicit equality."""
    eqs = list(equalities)
    ineqs = [(c, r, False) for c, r, _ in inequalities]
    if feasible_point(dim, eqs, ineqs) is None:
        return -1, None
    changed = True
    while changed:
        changed = False
        still = []
        for i, (coeffs, rhs, _) in enumerate(ineqs):
            probe = still + ineqs[i + 1 :] + [(coeffs, rhs, True)]
            if feasible_point(dim, eqs, probe) is None:
                eqs.append((coeffs, rhs))
                changed = True
            else:
                still.append((coeffs, rhs, False))
        ineqs = still
    if eqs:
        M = RationalMatrix(len(eqs), dim, [c for row, _ in eqs for c in row])
        d = kernel_basis(M).rows
    else:
        d = dim
    return d, feasible_point(dim, eqs, [(c, r, True) for c, r, _ in ineqs])


def test_one_pass_dimension_matches_two_pass():
    # rows tight at x0 whose positive combination is negated by a closing
    # row are all implicit equalities; slack rows are not, and a negative
    # slack can empty the polyhedron
    rng = random.Random(7117)
    implicit = empty = 0
    while implicit < 200:
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
        got = polyhedron_dimension(dim, eqs, ineqs)
        assert got == _two_pass_dimension(dim, eqs, ineqs), (dim, eqs, ineqs)
        if got[0] < 0:
            empty += 1
        elif got[0] < polyhedron_dimension(dim, eqs, [])[0]:
            implicit += 1
    assert empty >= 10
