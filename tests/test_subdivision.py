import random
from fractions import Fraction
from itertools import combinations
from math import lcm

import pytest

from tropibound import _polyhedra
from tropibound.matroid import realize_from_kernel
from tropibound.rational import RationalMatrix, det, rank, solve_affine, vector
from tropibound.subdivision import (
    Cell,
    SubdivisionError,
    decorated_count,
    decorated_to_tropical,
    full_cells,
    is_triangulation,
    positively_decorated,
)

H_RUN = [0, 0, 0, 0, -1]


def integer_row(coeffs, rhs):
    """coeffs . x = rhs scaled to the integer row `_polyhedra` takes."""
    den = lcm(*(x.denominator for x in (*coeffs, rhs)))
    return tuple(int(x * den) for x in coeffs), int(rhs * den)


def brute_force_full_cells(A: RationalMatrix, h) -> set[tuple[int, ...]]:
    """Independent oracle: S is a cell iff some v achieves equality of the
    lifted product on S and strict inequality off S; full-dimensional iff
    the S columns affinely span.  Feasibility decided by exact
    Fourier-Motzkin on (v, c)."""
    n, r = A.rows, A.cols
    hh = vector(h)
    cols = [A.column(j) for j in range(r)]
    out = set()
    for size in range(n + 1, r + 1):
        for S in combinations(range(1, r + 1), size):
            homog = RationalMatrix.from_rows([list(cols[j - 1]) + [1] for j in S])
            if rank(homog) != n + 1:
                continue
            # unknowns (v, c): on S equality alpha_j . v + h_j = c, off S strict >
            eqs = [
                integer_row((*cols[j - 1], Fraction(-1)), -hh[j - 1]) for j in S
            ]
            ineqs = [
                (*integer_row((*(-x for x in cols[j - 1]), Fraction(1)), hh[j - 1]), True)
                for j in range(1, r + 1)
                if j not in S
            ]
            if _polyhedra.feasible_point(n + 1, eqs, ineqs) is not None:
                out.add(S)
    return out


def test_full_cells_running_example(running_A):
    cells = full_cells(running_A, H_RUN)
    assert [c.members for c in cells] == [
        (1, 2, 5),
        (1, 3, 5),
        (2, 4, 5),
        (3, 4, 5),
    ]


def test_witness_of_second_cell(running_A):
    cells = {c.members: c for c in full_cells(running_A, H_RUN)}
    assert cells[(1, 3, 5)].witness == vector([1, 0])


def test_flat_lift_single_cell(running_A):
    cells = full_cells(running_A, [0] * 5)
    assert len(cells) == 1
    assert cells[0].members == (1, 2, 3, 4, 5)
    assert cells[0].witness == vector([0, 0])


def test_full_cells_reject_duplicate_columns():
    A = RationalMatrix.from_rows([[0, 0, 1], [1, 1, 0]])
    with pytest.raises(SubdivisionError):
        full_cells(A, [0, 0, 0])


def test_witness_reproduces_members(running_A):
    hh = vector(H_RUN)
    for cell in full_cells(running_A, H_RUN):
        vals = [
            sum(vi * ci for vi, ci in zip(cell.witness, running_A.column(j)))
            + hh[j]
            for j in range(5)
        ]
        m = min(vals)
        assert tuple(j + 1 for j, x in enumerate(vals) if x == m) == cell.members


def test_cells_match_brute_force_oracle():
    rng = random.Random(12)
    for _ in range(8):
        while True:
            A = RationalMatrix.from_rows(
                [[rng.randint(0, 3) for _ in range(5)] for _ in range(2)]
            )
            cols = [A.column(j) for j in range(5)]
            if len(set(cols)) == 5 and rank(A) == 2:
                break
        h = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(5)]
        got = {c.members for c in full_cells(A, h)}
        assert got == brute_force_full_cells(A, h)


def full_cells_spanning_reference(A: RationalMatrix, h) -> list[Cell]:
    """Reference copy of `full_cells` that keeps an argmin set when its
    columns affinely span: the homogenized columns have rank n + 1."""
    n, r = A.rows, A.cols
    cols = [A.column(j) for j in range(r)]
    hh = vector(h)
    found: dict[tuple[int, ...], Cell] = {}
    for subset in combinations(range(1, r + 1), n + 1):
        M = RationalMatrix.from_rows([list(cols[j - 1]) + [-1] for j in subset])
        sol = solve_affine(M, [-hh[j - 1] for j in subset])
        if sol is None or sol[1].rows != 0:
            continue
        v = sol[0][:n]
        vals = [sum(vi * ci for vi, ci in zip(v, col)) + hj for col, hj in zip(cols, hh)]
        m = min(vals)
        members = tuple(j + 1 for j, x in enumerate(vals) if x == m)
        if members in found:
            continue
        homog = RationalMatrix.from_rows([list(cols[j - 1]) + [1] for j in members])
        if rank(homog) == n + 1:
            found[members] = Cell(members, tuple(v))
    return sorted(found.values(), key=lambda c: c.members)


def test_full_cells_match_spanning_reference():
    # keeping an argmin set only when it contains its subset gives the
    # same cells and witnesses as testing that its columns span; small
    # integer lifts make zeros and ties common
    rng = random.Random(16)
    checked = cells = 0
    for n in (1, 2, 3):
        for r in range(n + 1, 8):
            for _ in range(12):
                A = RationalMatrix.from_rows(
                    [[rng.randint(-2, 2) for _ in range(r)] for _ in range(n)]
                )
                if len(set(A.column(j) for j in range(r))) != r or rank(A) != n:
                    continue
                for _ in range(3):
                    h = [Fraction(rng.randint(-2, 2), rng.choice((1, 1, 2))) for _ in range(r)]
                    got = full_cells(A, h)
                    assert got == full_cells_spanning_reference(A, h)
                    checked += 1
                    cells += len(got)
    assert checked > 300 and cells > checked


def test_is_triangulation(running_A):
    cells = full_cells(running_A, H_RUN)
    assert is_triangulation(cells, 2)
    flat = full_cells(running_A, [0] * 5)
    assert not is_triangulation(flat, 2)


def test_random_lift_triangulates(running_A):
    rng = random.Random(14)
    for _ in range(5):
        h = [Fraction(rng.randint(-40, 40), 7) for _ in range(5)]
        cells = full_cells(running_A, h)
        assert {c.members for c in cells} == brute_force_full_cells(running_A, h)
        assert is_triangulation(cells, 2)


# --- decoration ------------------------------------------------------------


def test_decoration_golden_cell(running_N, running_A):
    cells = {c.members: c for c in full_cells(running_A, H_RUN)}
    d = positively_decorated(running_N, cells[(1, 3, 5)])
    assert d is not None
    assert d.kernel_vector == vector([1, 1, 2])
    # exact kernel check
    sub = running_N.submatrix_columns([0, 2, 4])
    assert all(x == 0 for x in sub.apply(d.kernel_vector))


def test_decoration_mixed_signs_rejected(running_N, running_A):
    cells = {c.members: c for c in full_cells(running_A, H_RUN)}
    assert positively_decorated(running_N, cells[(1, 2, 5)]) is None


def test_decoration_telescoping_chain():
    N = RationalMatrix.from_rows([[1, -1, 0], [0, 1, -1]])
    cell = Cell((1, 2, 3), vector([0, 0]))
    d = positively_decorated(N, cell)
    assert d is not None and d.kernel_vector == vector([1, 1, 1])


def decorated_cofactor_reference(N: RationalMatrix, cell: Cell):
    """Reference copy of the signed-cofactor decoration test: n + 1
    minors of N_Delta, each through `det`."""
    n = N.rows
    sub = N.submatrix_columns([j - 1 for j in cell.members])
    lam = []
    for k in range(n + 1):
        minor = sub.submatrix_columns([c for c in range(n + 1) if c != k])
        lam.append((-1) ** k * det(minor))
    if all(x > 0 for x in lam):
        return tuple(lam)
    if all(x < 0 for x in lam):
        return tuple(-x for x in lam)
    return None


def awkward_decoration_cases(seed, count):
    """Seeded (N, cell) pairs: rational N with unlike denominators, zero
    columns and, a quarter of the time, a row that is a multiple of
    another, so that N_Delta is often rank-deficient."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 4)
        r = rng.randint(n + 1, n + 3)
        rows = [
            [Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3, 5, 7))) for _ in range(r)]
            for _ in range(n)
        ]
        for j in range(r):
            if rng.random() < 0.1:
                for row in rows:
                    row[j] = Fraction(0)
        if n > 1 and rng.random() < 0.25:
            c = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
            rows[-1] = [c * x for x in rows[0]]
        members = tuple(sorted(rng.sample(range(1, r + 1), n + 1)))
        yield RationalMatrix.from_rows(rows), Cell(members, (Fraction(0),) * n)


def test_decoration_matches_cofactor_reference():
    # one elimination's kernel vector decides decoration exactly as the
    # n + 1 signed cofactors do, and gives their absolute values
    decorated = deficient = 0
    for N, cell in awkward_decoration_cases(19, 1500):
        expected = decorated_cofactor_reference(N, cell)
        got = positively_decorated(N, cell)
        if expected is None:
            assert got is None
        else:
            assert got is not None and got.kernel_vector == expected
            decorated += 1
        idx = [j - 1 for j in cell.members]
        deficient += rank(N.submatrix_columns(idx)) < N.rows
    assert decorated > 150 and deficient > 250


def test_decoration_invariant_under_row_operations():
    # T N has the same kernel as N for invertible T, and its maximal
    # minors are det T times those of N
    rng = random.Random(20)
    decorated = 0
    for N, cell in awkward_decoration_cases(21, 1000):
        n = N.rows
        while True:
            T = RationalMatrix.from_rows(
                [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
            )
            if det(T) != 0:
                break
        d = positively_decorated(N, cell)
        dt = positively_decorated(T.matmul(N), cell)
        assert (d is None) == (dt is None)
        if d is not None:
            assert dt.kernel_vector == tuple(abs(det(T)) * x for x in d.kernel_vector)
            decorated += 1
    assert decorated > 75


def test_decorated_count_running_example(running_N, running_A):
    count, simplices = decorated_count(running_N, running_A, H_RUN)
    assert count == 1
    assert simplices[0].cell.members == (1, 3, 5)


def test_all_positive_row_never_decorated():
    N = RationalMatrix.from_rows([[1, 1, 1]])
    A = RationalMatrix.from_rows([[0, 1, 2]])
    count, _ = decorated_count(N, A, [0, 0, -1])
    assert count == 0


def _newton_confirms_each_simplex(N, A, h):
    # each decorated simplex certifies one positive root of its square
    # subsystem; confirm numerically
    from tropibound.numeric import instantiate, newton
    from tropibound.systems import VerticalSystem

    _, simplices = decorated_count(N, A, h)
    for s in simplices:
        idx = [j - 1 for j in s.cell.members]
        sub = VerticalSystem(
            N.submatrix_columns(idx),
            A.submatrix_columns(idx),
            (0,) * len(idx),
        )
        F = instantiate(sub, 0.5)
        witness = None
        n = A.rows
        for seed in ([1.0] * n, [0.5] + [2.0] * (n - 1), [2.0] + [0.5] * (n - 1)):
            witness = newton(F, seed, tol=1e-11)
            if witness:
                break
        assert witness is not None, f"no positive root found for cell {s.cell.members}"
        assert all(x > 0 for x in witness.x)
    return len(simplices)


def test_decorated_roots_verified_by_newton(running_N, running_A):
    assert _newton_confirms_each_simplex(running_N, running_A, H_RUN) == 1


def test_decorated_roots_verified_on_random_instances():
    rng = random.Random(321)
    confirmed = 0
    tried = 0
    while confirmed < 4 and tried < 200:
        tried += 1
        n, r = 2, 5
        N = RationalMatrix.from_rows(
            [[rng.randint(-3, 3) for _ in range(r)] for _ in range(n)]
        )
        A = RationalMatrix.from_rows(
            [[rng.randint(0, 3) for _ in range(r)] for _ in range(n)]
        )
        cols = [A.column(j) for j in range(r)]
        if rank(N) != n or rank(A) != n or len(set(cols)) != r:
            continue
        h = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(r)]
        confirmed += _newton_confirms_each_simplex(N, A, h) > 0
    assert confirmed == 4


# --- comparison map -----------------------------------------------------------


def test_decorated_to_tropical_golden(running_N, running_A):
    M = realize_from_kernel(running_N)
    _, simplices = decorated_count(running_N, running_A, H_RUN)
    w = decorated_to_tropical(simplices[0], running_A, H_RUN, matroid=M)
    assert w == vector([0, 2, 0, 2, 1])


def test_decorated_image_is_reported_point(running_N, running_A):
    from tropibound.intersection import lower_bound
    from tropibound.systems import VerticalSystem

    report = lower_bound(VerticalSystem(running_N, running_A, H_RUN))
    _, simplices = decorated_count(running_N, running_A, H_RUN)
    reported = {p.w for p in report.points}
    images = {
        decorated_to_tropical(s, running_A, H_RUN, matroid=report.matroid) for s in simplices
    }
    assert images <= reported
    assert len(images) == len(simplices)  # injectivity on this instance
    assert len(simplices) < report.count  # strictly fewer here


def test_decorated_to_tropical_raises_outside_fan(running_N, running_A):
    from tropibound.subdivision import DecoratedSimplex

    M = realize_from_kernel(running_N)
    fake = DecoratedSimplex(Cell((1, 2, 5), vector([7, 9])), vector([1, 1, 1]))
    with pytest.raises(AssertionError):
        decorated_to_tropical(fake, running_A, H_RUN, matroid=M)


def test_lift_shift_invariance(running_N, running_A):
    rng = random.Random(15)
    base = {c.members for c in full_cells(running_A, H_RUN)}
    At = running_A.transpose()
    for _ in range(10):
        u = vector([Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(2)])
        c0 = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        shift = At.apply(u)
        h2 = [a + b + c0 for a, b in zip(vector(H_RUN), shift)]
        assert {c.members for c in full_cells(running_A, h2)} == base


def test_cells_cover_configuration(running_A):
    # exact point-in-union check on a rational grid inside the hull
    cells = full_cells(running_A, H_RUN)
    cols = [running_A.column(j) for j in range(5)]
    grid = [
        (Fraction(i, 2), Fraction(j, 2)) for i in range(0, 5) for j in range(0, 5)
    ]

    def in_simplex(pt, members):
        verts = [cols[j - 1] for j in members]
        M = RationalMatrix.from_rows(
            [[verts[k][i] for k in range(3)] for i in range(2)] + [[1, 1, 1]]
        )
        from tropibound.rational import solve_affine

        sol = solve_affine(M, [pt[0], pt[1], 1])
        return sol is not None and sol[1].rows == 0 and all(x >= 0 for x in sol[0])

    for pt in grid:
        # every grid point of the square [0,2]^2 = conv(columns) is covered
        assert any(in_simplex(pt, c.members) for c in cells)
