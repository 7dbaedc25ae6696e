import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from tropibound.bergman import is_positive_member
from tropibound.intersection import (
    InputValidationError,
    OracleMismatchError,
    _particular,
    _tie_transform,
    intersect_via_fan,
    intersect_via_vertices,
    is_isolated,
    lower_bound,
    tangent_direction,
    validate_inputs,
)
from tropibound.matroid import OrientedMatroid, realize_from_kernel
from tropibound.rational import RationalMatrix, rank, solve_affine, vector
from tropibound.systems import SystemError_, VerticalSystem

H_RUN = [0, 0, 0, 0, -1]
W_POINT_A = vector([0, 2, 0, 2, 1])
W_POINT_B = vector([0, -1, -1, -2, -1])


# --- validation ------------------------------------------------------------


def test_validate_running_example(running_N, running_A):
    d = validate_inputs(realize_from_kernel(running_N), running_A)
    assert d.n == 2 and d.ranks_ok and d.lineality_ok and d.ok


def test_validate_crn_ranks(hhk_model):
    from tropibound.systems import assemble_crn

    vs = assemble_crn(hhk_model)
    d = validate_inputs(realize_from_kernel(vs.C), vs.A)
    assert d.rank_C == 6 and d.rank_A == 6 and d.ok
    assert vs.C.rows == 8  # rank comes from the matroid, not the row count


def test_validate_rejects_duplicated_exponent_row(running_N):
    A = RationalMatrix.from_rows([[0, 2, 0, 2, 1], [0, 2, 0, 2, 1]])
    with pytest.raises(InputValidationError):
        validate_inputs(realize_from_kernel(running_N), A)


def test_validate_rejects_fractional_exponents(running_N):
    A = RationalMatrix.from_rows([["1/2", 0, 0, 0, 0], [0, 1, 0, 0, 0]])
    with pytest.raises(SystemError_):
        VerticalSystem(running_N, A, H_RUN)


def test_non_integer_exponents_refused_by_every_entry_point(running_N):
    # the fan walk, the isolation test and the oracle read A as integers
    # and refuse a fractional entry instead of scaling or truncating it
    A = RationalMatrix.from_rows([["1/2", 0, 0, 0, 0], [0, 1, 0, 0, 0]])
    M = realize_from_kernel(running_N)
    with pytest.raises(ValueError, match="integer entries"):
        intersect_via_fan(M, A, H_RUN)
    with pytest.raises(ValueError, match="integer entries"):
        tangent_direction((0, 0), M, A, H_RUN)
    with pytest.raises(ValueError, match="integer entries"):
        intersect_via_vertices(M, A, H_RUN)


def test_validate_flags_all_ones_in_rowspan():
    C = RationalMatrix.from_rows([[1, -1, 0], [0, 1, -1]])
    A = RationalMatrix.from_rows([[1, 1, 1], [0, 1, 2]])
    d = validate_inputs(realize_from_kernel(C), A)
    assert not d.lineality_ok and not d.ok


def test_validate_reads_rank_C_off_the_matroid():
    # rank(C) = r - rank(M) for the kernel realization M, checked against
    # elimination on C with fractional entries, zero columns, dependent
    # rows and a trivial kernel
    rng = random.Random(1231)
    deficient = zero_cols = full = 0
    for _ in range(120):
        r = rng.randint(2, 6)
        m = rng.randint(1, r + 1)
        rows = [
            [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(r)]
            for _ in range(m)
        ]
        if m > 1 and rng.random() < 0.5:
            rows[-1] = [Fraction(2, 3) * x - y for x, y in zip(rows[0], rows[(m - 1) // 2])]
        for j in rng.sample(range(r), rng.randint(0, r - 1)):
            for row in rows:
                row[j] = Fraction(0)
        C = RationalMatrix.from_rows(rows)
        if C.is_zero():
            continue
        A = RationalMatrix.from_rows([[1] + [0] * (r - 1)])
        rank_C = rank(C)
        assert validate_inputs(realize_from_kernel(C), A).rank_C == rank_C, rows
        deficient += rank_C < m
        zero_cols += any(all(row[j] == 0 for row in rows) for j in range(r))
        full += rank_C == r
    assert deficient >= 20 and zero_cols >= 20 and full >= 5


def test_validate_mismatched_shapes(running_N, running_A):
    with pytest.raises(SystemError_):
        VerticalSystem(running_N, running_A, [0, 0, 0])


# --- the 2x5 golden instance -------------------------------------------------


def test_lower_bound_running_example(running_N, running_A):
    report = lower_bound(VerticalSystem(running_N, running_A, H_RUN))
    assert report.count == 2
    assert report.transverse
    assert {p.w for p in report.points} == {W_POINT_A, W_POINT_B}
    for p in report.points:
        assert p.isolated and p.interior
        # v is pinned by w: solve A^T v = w independently and compare
        sol = solve_affine(running_A.transpose(), p.w)
        assert sol is not None and sol[1].rows == 0
        assert sol[0] == p.v
    assert {p.v for p in report.points} == {
        vector([1, 0]),
        vector([Fraction(-1, 2), Fraction(-1, 2)]),
    }


def test_reported_points_satisfy_membership(running_N, running_A):
    M = realize_from_kernel(running_N)
    report = lower_bound(VerticalSystem(running_N, running_A, H_RUN))
    for p in report.points:
        shifted = tuple(a + b for a, b in zip(p.w, vector(H_RUN)))
        assert is_positive_member(shifted, M)
        assert p.w == running_A.transpose().apply(p.v)


def test_empty_positive_fan_gives_zero(running_A):
    C = RationalMatrix.from_rows([[1, 1, 1, 1, 1], [1, 2, 3, 4, 5]])
    report = lower_bound(VerticalSystem(C, running_A, H_RUN))
    assert report.count == 0
    assert report.points == ()


def test_lower_bound_cross_check_passes(running_N, running_A):
    report = lower_bound(VerticalSystem(running_N, running_A, H_RUN), cross_check=True)
    assert report.count == 2


# --- tie systems -------------------------------------------------------------


def test_tie_transform_matches_solve_affine():
    # the fan walk eliminates [M | I] once per tie matrix M and applies the
    # transform to each right-hand side; consistency, the particular
    # solution and the kernel dimension must be those of solve_affine, also
    # when zero, repeated or dependent rows make rank(M) < rows(M) and leave
    # rows of the identity block behind the pivots
    rng = random.Random(1313)
    short = consistent = inconsistent = 0
    for _ in range(300):
        k, n = rng.randint(1, 8), rng.randint(1, 6)
        M = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)]
        if rng.random() < 0.3:
            M[rng.randrange(k)] = [0] * n
        if rng.random() < 0.3:
            M[rng.randrange(k)] = list(M[rng.randrange(k)])
        if k > 2 and rng.random() < 0.3:
            M[-1] = [a - 2 * b for a, b in zip(M[0], M[1])]
        transform = _tie_transform(M, n)
        short += len(transform.pivots) < k
        for _ in range(4):
            den = rng.choice([1, 1, 2, 3, 6])
            if rng.random() < 0.5:
                v0 = [Fraction(rng.randint(-5, 5), den) for _ in range(n)]
                b = [sum((a * x for a, x in zip(row, v0)), Fraction(0)) for row in M]
            else:
                b = [Fraction(rng.randint(-6, 6), den) for _ in range(k)]
            # the fan walk scales h, and so b, to integers by its lcm H
            H = lcm(*(x.denominator for x in b))
            x = _particular(transform, [int(y * H) for y in b])
            want = solve_affine(RationalMatrix.from_rows(M), b)
            assert (x is None) == (want is None), (M, b)
            if want is None:
                inconsistent += 1
                continue
            consistent += 1
            v = [Fraction(0)] * n
            for p, xi in zip(transform.pivots, x):
                v[p] = Fraction(xi, transform.d * H)
            assert tuple(v) == want[0], (M, b)
            assert n - len(transform.pivots) == want[1].rows
    assert short > 100 and consistent > 500 and inconsistent > 300


# --- degenerate shifts -------------------------------------------------------


def test_zero_shift_reports_honestly(running_N, running_A):
    report = lower_bound(VerticalSystem(running_N, running_A, [0, 0, 0, 0, 0]))
    assert report.count == len(report.points)
    # the origin survives as the unique candidate but sits on the lineality
    # line, a boundary cell, so the run must not claim certification
    assert [p.v for p in report.points] == [vector([0, 0])]
    assert report.points[0].isolated
    assert not report.points[0].interior
    assert not report.transverse


def test_positive_dimensional_intersection_flagged():
    C = RationalMatrix.from_rows([[1, -1, 0, 0]])
    A = RationalMatrix.from_rows([[1, 1, 2, 3]])
    report = lower_bound(VerticalSystem(C, A, [0, 0, 0, 0]))
    assert report.positive_dimensional
    assert not report.transverse
    assert report.count == 0
    assert intersect_via_vertices(realize_from_kernel(C), A, [0, 0, 0, 0]) == set()


def test_one_signed_pair_literal():
    C = RationalMatrix.from_rows([[1, 1]])
    A = RationalMatrix.from_rows([[1, 0]])
    rep = lower_bound(VerticalSystem(C, A, [0, 0]))
    assert rep.count == 0 and rep.points == ()
    assert any("positive fan is empty" in note for note in rep.notes)


def test_loop_element_empties_the_fan():
    # a unit coefficient row pins one coordinate to zero on the kernel,
    # producing a one-signed singleton circuit
    C = RationalMatrix.from_rows([[1, 0, 0], [0, 1, -1]])
    M = realize_from_kernel(C)
    assert any(len(c.support) == 1 for c in M.circuits)
    A = RationalMatrix.from_rows([[1, 0, 1], [0, 1, 2]])
    fan = intersect_via_fan(M, A, [0, 0, 0])
    assert fan.count == 0
    assert intersect_via_vertices(M, A, [0, 0, 0]) == set()


def test_repeated_exponent_columns_both_methods():
    C = RationalMatrix.from_rows([[1, -1, 0], [0, 1, -1]])
    A = RationalMatrix.from_rows([[1, 1, 0], [0, 0, 1]])
    M = realize_from_kernel(C)
    # equal shifts: the tied pair collapses to a line of solutions
    fan = intersect_via_fan(M, A, [0, 0, 0])
    assert fan.positive_dimensional and not fan.transverse and fan.count == 0
    assert intersect_via_vertices(M, A, [0, 0, 0]) == set()
    # unequal shifts: the tie is impossible, nothing survives
    fan2 = intersect_via_fan(M, A, [0, 1, 0])
    assert fan2.count == 0 and not fan2.positive_dimensional
    assert intersect_via_vertices(M, A, [0, 1, 0]) == set()


def test_crn_points_isolated_and_interior(hhk_model):
    from tropibound.systems import assemble_crn

    vs = assemble_crn(hhk_model)
    M = realize_from_kernel(vs.C)
    report = lower_bound(vs)
    assert report.count == 3
    for p in report.points:
        assert is_isolated(p.v, M, vs.A, vs.h)
        assert p.interior


def test_crn_underdetermined_ties_notes(hhk_model):
    # these shifts leave tie systems underdetermined: five are pinned to a
    # point by their cone facets and four cells meet rowspan(A) in positive
    # dimension
    import dataclasses

    from tropibound.systems import assemble_crn, bound

    vs = assemble_crn(dataclasses.replace(hhk_model, h=(7, 8, 3, 3, -1, 8)))
    report = bound(vs)
    tropical = report.tropical
    assert tropical.count == 5
    assert not tropical.transverse and tropical.positive_dimensional
    assert report.certified_bound == 0
    assert tropical.notes == (
        "5 underdetermined tie system(s) pinned to a point by cone facets",
        "4 positive cell(s) meet rowspan(A) in positive dimension",
    )
    # the vertex oracle's argument does not cover these boundary-pinned points
    oracle = intersect_via_vertices(tropical.matroid, vs.A, vs.h)
    assert oracle == {p.v for p in tropical.points}


def test_free_matroid_report():
    C = RationalMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    # kernel is trivial: every element is a loop, not a free matroid
    A3 = RationalMatrix.from_rows([[1, 0, 1], [0, 1, 1], [0, 0, 1]])
    report = lower_bound(VerticalSystem(C, A3, [0, 0, 0]))
    assert report.count == 0

    M = OrientedMatroid(3, [])
    A = RationalMatrix.from_rows([[1, 0, 1], [0, 1, 2]])
    # no circuits: the general walk sees one positive cell, the whole space
    rep = intersect_via_fan(M, A, [0, 0, 0])
    assert rep.free_matroid and rep.positive_dimensional
    assert not rep.transverse and rep.count == 0
    assert rep.notes == ("1 positive cell(s) meet rowspan(A) in positive dimension",)
    assert intersect_via_vertices(M, A, [0, 0, 0]) == set()


# --- isolation -----------------------------------------------------------------


def test_is_isolated_on_golden_points(running_N, running_A):
    M = realize_from_kernel(running_N)
    report = lower_bound(VerticalSystem(running_N, running_A, H_RUN))
    for p in report.points:
        assert is_isolated(p.v, M, running_A, H_RUN)


def test_is_isolated_false_on_a_line():
    C = RationalMatrix.from_rows([[1, -1, 0, 0]])
    A = RationalMatrix.from_rows([[1, 1, 2, 3]])
    M = realize_from_kernel(C)
    assert not is_isolated((5,), M, A, [0, 0, 0, 0])


def test_is_isolated_rejects_outside_points(running_N, running_A):
    M = realize_from_kernel(running_N)
    with pytest.raises(ValueError):
        is_isolated((100, 100), M, running_A, H_RUN)


def test_reported_non_isolated_point_carries_verified_direction():
    # frozen degenerate instance: the point (1/5, 1/10) is reported but a
    # whole segment of the intersection runs through it
    C = RationalMatrix.from_rows([[-2, -2, -1, -2, 1], [1, 2, -1, 2, 0]])
    A = RationalMatrix.from_rows([[-1, 2, -2, -1, -1], [-1, 2, 0, -2, -2]])
    h = [0, -1, 0, 0, 0]
    M = realize_from_kernel(C)
    rep = intersect_via_fan(M, A, h)
    assert not rep.transverse
    target = vector([Fraction(1, 5), Fraction(1, 10)])
    point = {p.v: p for p in rep.points}[target]
    assert not point.isolated
    u = tangent_direction(point.v, M, A, h)
    assert u is not None
    # the direction really stays inside the fan at a small exact step
    eps = Fraction(1, 10**7)
    At = A.transpose()
    shifted = tuple(
        a + eps * b + Fraction(c)
        for a, b, c in zip(At.apply(point.v), At.apply(u), h)
    )
    assert is_positive_member(shifted, M)


def test_tangent_probe_on_random_instances():
    # isolated points survive an epsilon probe in forty directions;
    # non-isolated points must hand back a direction that verifies
    rng = random.Random(424242)
    eps = Fraction(1, 10**7)
    ran = 0
    while ran < 25:
        C, A, h = random_instance(rng)
        M = realize_from_kernel(C)
        rep = intersect_via_fan(M, A, h)
        At = A.transpose()
        hh = vector(h)
        for p in rep.points:
            u = tangent_direction(p.v, M, A, h)
            assert (u is None) == p.isolated
            if u is None:
                for _ in range(40):
                    ur = tuple(
                        Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(A.rows)
                    )
                    if all(x == 0 for x in ur):
                        continue
                    shifted = tuple(
                        a + eps * b + c
                        for a, b, c in zip(At.apply(p.v), At.apply(ur), hh)
                    )
                    assert not is_positive_member(shifted, M)
            else:
                shifted = tuple(
                    a + eps * b + c for a, b, c in zip(At.apply(p.v), At.apply(u), hh)
                )
                assert is_positive_member(shifted, M)
        ran += 1


# --- oracle equivalence and properties ------------------------------------------


def _reference_vertices(OM, A, h):
    """The vertex oracle before its integer rewrite: each candidate
    reduced against the whole basis at every node, Fraction
    back-substitution at every leaf."""
    hh = vector(h)
    n = A.rows
    At = A.transpose()

    # Integer augmented rows (a . v = b scaled to integers per plane) so
    # the elimination below runs on plain ints.
    hyperplanes: dict[tuple[int, ...], None] = {}
    for sup in OM.circuit_supports:
        for a_idx in range(len(sup)):
            for b_idx in range(a_idx + 1, len(sup)):
                i, j = sup[a_idx], sup[b_idx]
                row = tuple(x - y for x, y in zip(At.row(i - 1), At.row(j - 1)))
                rhs = hh[j - 1] - hh[i - 1]
                if all(x == 0 for x in row):
                    continue
                den = lcm(*(x.denominator for x in (*row, rhs)))
                aug = tuple(int(x * den) for x in (*row, rhs))
                g = gcd(*aug)
                aug = tuple(x // g for x in aug)
                if tuple(-x for x in aug) in hyperplanes:
                    continue
                hyperplanes[aug] = None
    planes = list(hyperplanes)

    found: set[tuple[Fraction, ...]] = set()
    solved: set[tuple[Fraction, ...]] = set()

    def back_substitute(basis: list) -> tuple[Fraction, ...]:
        # integer arithmetic over one running denominator, reduced once
        num = [0] * n
        den = 1
        for pivot_col, brow in sorted(basis, key=lambda e: -e[0]):
            s = brow[n] * den - sum(brow[j] * num[j] for j in range(pivot_col + 1, n))
            pv = brow[pivot_col]
            if pv < 0:
                pv, s = -pv, -s
            num = [x * pv for x in num]
            num[pivot_col] = s
            den *= pv
        return tuple(Fraction(x, den) for x in num)

    def walk(start: int, basis: list):
        depth = len(basis)
        if depth == n:
            v = back_substitute(basis)
            if v in solved:
                return
            solved.add(v)
            w = At.apply(v)
            p = tuple(a + b for a, b in zip(w, hh))
            if is_positive_member(p, OM):
                found.add(v)
            return
        limit = len(planes) - (n - depth) + 1
        for k in range(start, limit):
            r = planes[k]
            for pivot_col, brow in basis:
                f = r[pivot_col]
                if f:
                    pv = brow[pivot_col]
                    r = tuple(pv * a - f * b for a, b in zip(r, brow))
            for col in range(n):
                if r[col]:
                    g = 0
                    for x in r:
                        g = gcd(g, x if x >= 0 else -x)
                    if g > 1:
                        r = tuple(x // g for x in r)
                    walk(k + 1, basis + [(col, r)])
                    break

    walk(0, [])
    return found


def _differential_case(rng, i):
    """Small seeded systems; i selects n = 1, a repeated exponent column or
    collinear columns (parallel tie planes), and integer or fractional h."""
    r = rng.randint(3, 7)
    n = 1 if i % 4 == 0 else rng.randint(1, min(3, r - 1))
    while True:
        rows = [[rng.randint(-3, 3) for _ in range(r)] for _ in range(n)]
        a, b, c = rng.sample(range(r), 3)
        for row in rows:
            if i % 4 == 1:
                row[b] = row[a]
            elif i % 4 == 2:
                row[c] = 2 * row[b] - row[a]
        A = RationalMatrix.from_rows(rows)
        C = RationalMatrix.from_rows(
            [[rng.randint(-3, 3) for _ in range(r)] for _ in range(rng.randint(1, r - 1))]
        )
        if rank(A) == n and not C.is_zero():
            break
    if i % 2:
        h = [Fraction(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(r)]
    else:
        h = [rng.randint(-4, 4) for _ in range(r)]
    return C, A, h


def test_vertex_oracle_matches_reference():
    rng = random.Random(4151)
    nonempty = rank_off = 0
    for i in range(150):
        C, A, h = _differential_case(rng, i)
        M = realize_from_kernel(C)
        got = intersect_via_vertices(M, A, h)
        assert got == _reference_vertices(M, A, h), (C, A, h)
        nonempty += bool(got)
        rank_off += rank(C) != A.rows
    assert nonempty >= 30 and rank_off >= 30


def random_instance(rng):
    while True:
        r = rng.randint(3, 8)
        n = rng.randint(1, min(3, r - 1))
        m = rng.randint(n, r - 1)
        C = RationalMatrix.from_rows(
            [[rng.randint(-3, 3) for _ in range(r)] for _ in range(m)]
        )
        A = RationalMatrix.from_rows(
            [[rng.randint(-3, 3) for _ in range(r)] for _ in range(n)]
        )
        if C.is_zero() or rank(A) < n or rank(C) != n:
            continue
        h = [Fraction(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(r)]
        return C, A, h


def test_oracle_equivalence_random_instances():
    rng = random.Random(20260809)
    for _ in range(60):
        C, A, h = random_instance(rng)
        M = realize_from_kernel(C)
        fan = intersect_via_fan(M, A, h)
        assert {p.v for p in fan.points} == intersect_via_vertices(M, A, h)


def test_oracle_mismatch_raises(monkeypatch, running_N, running_A):
    import tropibound.intersection as mod

    real = mod.intersect_via_vertices

    def broken(OM, A, h):
        return set(sorted(real(OM, A, h))[1:])

    monkeypatch.setattr(mod, "intersect_via_vertices", broken)
    with pytest.raises(OracleMismatchError):
        mod.lower_bound(VerticalSystem(running_N, running_A, H_RUN), cross_check=True)


def test_shift_covariance(running_N, running_A):
    rng = random.Random(31)
    base = lower_bound(VerticalSystem(running_N, running_A, H_RUN))
    base_vs = {p.v for p in base.points}
    At = running_A.transpose()
    for _ in range(10):
        u = vector([Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(2)])
        shift = At.apply(u)
        h2 = [a + b for a, b in zip(vector(H_RUN), shift)]
        rep = lower_bound(VerticalSystem(running_N, running_A, h2))
        assert rep.count == base.count
        assert {tuple(a + b for a, b in zip(p.v, u)) for p in rep.points} == base_vs


def test_report_document_roundtrip(running_N, running_A):
    import json

    report = lower_bound(VerticalSystem(running_N, running_A, H_RUN))
    doc = report.to_document()
    text = json.dumps(doc, sort_keys=True)
    parsed = json.loads(text)
    assert parsed["count"] == 2
    assert parsed["transverse"] is True
    assert {tuple(p["w"]) for p in parsed["points"]} == {
        ("0", "2", "0", "2", "1"),
        ("0", "-1", "-1", "-2", "-1"),
    }
