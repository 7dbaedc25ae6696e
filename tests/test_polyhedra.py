import random
from fractions import Fraction as F
from math import lcm

from fan_reference import (
    _lift,
    _over_solutions,
    reference_cone_point,
    reference_dimension,
    reference_feasible_point,
)
from tropibound import _polyhedra
from tropibound._polyhedra import (
    cone_nonzero_point,
    feasible_point,
    polyhedron_dimension,
)
from tropibound.rational import RationalMatrix, rank


def eq(coeffs, rhs):
    """The equality coeffs . x = rhs scaled to integers: the module takes
    it as the two rows of ``folded``, the reference as it is."""
    den = lcm(*(F(x).denominator for x in (*coeffs, rhs)))
    return tuple(int(F(c) * den) for c in coeffs), int(F(rhs) * den)


def ineq(coeffs, rhs):
    """The weak row coeffs . x <= rhs, scaled as ``eq`` scales."""
    return eq(coeffs, rhs)


def folded(eqs):
    """Each equality coeffs . x = rhs as the two weak rows the module
    takes: coeffs . x <= rhs and -coeffs . x <= -rhs."""
    return [row for c, r in eqs for row in ((c, r), (tuple(-x for x in c), -r))]


def cone_folded(eqs):
    """Each equality row of a cone, E u = 0, as the rows E u <= 0 and
    -E u <= 0."""
    return [row for c in eqs for row in (c, tuple(-x for x in c))]


def strict(coeffs, rhs):
    """The row coeffs . x < rhs, as the reference elimination takes it."""
    return (*eq(coeffs, rhs), True)


def tight_rows(point, ineqs):
    """Indices of the inequalities that hold with equality at point."""
    return {
        i for i, (coeffs, rhs) in enumerate(ineqs) if sum(map(F.__mul__, point, coeffs)) == rhs
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
    # a row (coeffs, rhs) is weak and (coeffs, rhs, strict) may be strict
    for coeffs, rhs, *flag in ineqs:
        lhs = sum(c * x for c, x in zip(coeffs, point))
        if lhs > rhs or (any(flag) and lhs == rhs):
            return False
    return True


def test_triangle_feasible_and_full_dimensional():
    ineqs = [ineq([1, 1], 1), ineq([-1, 0], 0), ineq([0, -1], 0)]
    pt = feasible_point(2, ineqs)
    assert pt is not None and satisfies(pt, [], ineqs)
    dim, sample = polyhedron_dimension(2, ineqs)
    assert dim == 2
    assert satisfies(sample, [], [(c, r, True) for c, r in ineqs])


def test_strict_infeasible():
    assert reference_feasible_point(1, [], [strict([1], 0), strict([-1], 0)]) is None


def test_weak_pinch_is_a_point():
    ineqs = [ineq([1, 0], 0), ineq([-1, 0], 0)]
    dim, sample = polyhedron_dimension(2, folded([eq([1, 1], 1)]) + ineqs)
    assert dim == 0
    assert sample == (F(0), F(1))


def test_equalities_with_parameters():
    # x + y + z = 3, x - y = 1, z > 0 for the reference, and for the
    # module the equalities folded into rows and z >= 0, whose relative
    # interior has z > 0
    eqs = [eq([1, 1, 1], 3), eq([1, -1, 0], 1)]
    pt = reference_feasible_point(3, eqs, [strict([0, 0, -1], 0)])
    assert pt is not None and satisfies(pt, eqs, [])
    assert pt[2] > 0
    dim, pt = polyhedron_dimension(3, folded(eqs) + [ineq([0, 0, -1], 0)])
    assert dim == 1 and satisfies(pt, eqs, [])
    assert pt[2] > 0


def test_inconsistent_equalities():
    assert feasible_point(2, folded([eq([1, 0], 0), eq([1, 0], 1)])) is None


def test_empty_dimension_is_minus_one():
    dim, sample = polyhedron_dimension(1, [ineq([1], -1), ineq([-1], -1)])
    assert dim == -1 and sample is None


def test_unbounded_strip_dimension():
    dim, _ = polyhedron_dimension(2, [ineq([1, 0], 1), ineq([-1, 0], 0)])
    assert dim == 2


def test_implicit_equality_detected():
    # x <= 0 and x >= 0 squeeze a line out of the plane
    dim, sample = polyhedron_dimension(2, [ineq([1, 0], 0), ineq([-1, 0], 0)])
    assert dim == 1
    assert sample[0] == 0


def test_cone_nonzero_points_found_and_absent():
    assert cone_nonzero_point(2, cone_folded([(1, -1)]) + [(1, 0)]) is not None
    assert cone_nonzero_point(2, cone_folded([(1, 0), (0, 1)])) is None
    # pointed cone with interior: x <= 0, y <= 0
    pt = cone_nonzero_point(2, [(1, 0), (0, 1)])
    assert pt is not None and any(x != 0 for x in pt)


def test_zero_dimensional_space():
    assert feasible_point(0, []) == ()


def test_cone_pinned_by_full_rank_equalities():
    # two independent equalities in R^2 leave only the origin, whatever G says
    eqs = [(1, 2), (3, -1)]
    assert cone_nonzero_point(2, cone_folded(eqs) + [(-1, 0), (1, 1)]) is None
    # four rows of rank 3 in R^3, the third the sum of the first two
    eqs3 = [(1, 0, 1), (0, 1, 1), (1, 1, 2), (1, -1, 1)]
    assert cone_nonzero_point(3, cone_folded(eqs3) + [(0, 0, 1)]) is None


def random_rows(rng, count, dim):
    return [tuple(rng.randint(-2, 2) for _ in range(dim)) for _ in range(count)]


def test_cone_nonzero_point_matches_slice_reference():
    # the equalities folded into pairs of rows for the module, and solved
    # by the reference before it probes its slices
    rng = random.Random(2024)
    pinned = found = 0
    for _ in range(200):
        dim = rng.randint(1, 4)
        eqs = random_rows(rng, rng.randint(0, dim + 1), dim)
        if eqs and rng.random() < 0.3:
            eqs.append(tuple(a + b for a, b in zip(eqs[0], eqs[-1])))
        ineqs = random_rows(rng, rng.randint(0, 4), dim)
        got = cone_nonzero_point(dim, cone_folded(eqs) + ineqs)
        assert (got is None) == (reference_cone_point(dim, eqs, ineqs) is None)
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
        u = cone_nonzero_point(dim, cone_folded(eqs) + ineqs)
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
    # reference, which probes each row strictly; the module gets each
    # equality as two rows, and the reference solves them first
    implicit = empty = 0
    for dim, eqs, ineqs in implicit_cases(random.Random(7117)):
        got = polyhedron_dimension(dim, folded(eqs) + ineqs)
        assert_matches_reference(got, reference_dimension(dim, eqs, ineqs), ineqs)
        if got[0] < 0:
            empty += 1
        elif got[0] < polyhedron_dimension(dim, folded(eqs))[0]:
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
        want = polyhedron_dimension(dim, folded(eqs) + ineqs)
        perm = rng.sample(range(dim), dim)
        p_ineqs = [(tuple(c[j] for j in perm), r) for c, r in folded(eqs) + ineqs]
        p_ineqs += rng.choices(p_ineqs, k=rng.randint(0, 3))
        rng.shuffle(p_ineqs)
        got = polyhedron_dimension(dim, p_ineqs)
        assert got[0] == want[0], (dim, eqs, ineqs, perm)
        if got[0] >= 0:
            back = [None] * dim
            for i, j in enumerate(perm):
                back[j] = got[1][i]
            assert_matches_reference((got[0], tuple(back)), want, ineqs)


def test_one_elimination_per_dimension_and_cone_probe(monkeypatch):
    # one Fourier-Motzkin run per probe: each variable is eliminated at
    # most once, in index order
    runs = []
    real = _polyhedra._eliminate

    def counted(ineqs, var):
        runs.append(var)
        return real(ineqs, var)

    monkeypatch.setattr(_polyhedra, "_eliminate", counted)
    for dim, ineqs in [
        (2, [ineq([1, 1], 1), ineq([-1, 0], 0), ineq([0, -1], 0)]),
        (2, [ineq([1, 0], 0), ineq([-1, 0], 0)]),
        (2, folded([eq([1, 1], 1)]) + [ineq([1, 0], 0), ineq([-1, 0], 0)]),
        (1, [ineq([1], -1), ineq([-1], -1)]),
    ]:
        runs.clear()
        polyhedron_dimension(dim, ineqs)
        assert runs == list(range(len(runs))) and len(runs) <= dim
    cones = [
        (2, cone_folded([(1, -1)]) + [(1, 0)]),
        (2, cone_folded([(1, 0), (0, 1)])),
        (3, cone_folded([(1, -1, 0)])),
    ]
    for dim, rows in cones:
        runs.clear()
        cone_nonzero_point(dim, rows)
        assert runs == list(range(dim))


def test_dimension_of_the_zero_dimensional_space():
    assert polyhedron_dimension(0, []) == (0, ())
    assert polyhedron_dimension(0, [((), -1)]) == (-1, None)


def test_integer_rows_give_exact_fraction_points():
    # the equalities are solved on the test side, by the reference's own
    # Gauss-Jordan elimination, leaving one free coordinate s; every bound
    # of the back-substitution in s comes from a row with no other
    # variable: the sample must stay exact, satisfy the input, and agree
    # with the reference elimination on the verdict, the dimension and the
    # point itself
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
            )
            for _ in range(rng.randint(1, 5))
        ]
        eqs = [eq(c, r) for c, r in ref_eqs]
        ineqs = [ineq(c, r) for c, r in ref_ineqs]
        weak = [(c, r, False) for c, r in ref_ineqs]
        base, kernel, reduced = _over_solutions(dim, ref_eqs, weak)
        s_rows = [ineq(c, r) for c, r, _ in reduced]
        s = feasible_point(len(kernel), s_rows)
        pt = None if s is None else _lift(base, kernel, s)
        assert pt == reference_feasible_point(dim, ref_eqs, weak)
        if pt is None:
            empty += 1
        else:
            feasible += 1
            assert all(type(x) is F for x in s)
            assert satisfies(pt, eqs, ineqs)
        got = polyhedron_dimension(len(kernel), s_rows)
        assert got[1] is None or all(type(x) is F for x in got[1])
        lifted = (got[0], None if got[1] is None else _lift(base, kernel, got[1]))
        assert_matches_reference(lifted, reference_dimension(dim, ref_eqs, ref_ineqs), ineqs)
    assert feasible > 100 and empty > 50
