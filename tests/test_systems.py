import dataclasses
import importlib
import pkgutil
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import tropibound
from tropibound import systems as systems_module
from tropibound.intersection import _fan_plan
from tropibound.matroid import all_flats, maximal_flags, realize_from_kernel
from tropibound.rational import RationalMatrix, first_independent_rows, kernel_basis, rank, vector
from tropibound.systems import (
    ComparisonViolation,
    CRNModel,
    SystemError_,
    VerticalSystem,
    assemble_crn,
    bound,
)


def test_vertical_system_validates_shapes(running_N):
    with pytest.raises(SystemError_):
        VerticalSystem(running_N, RationalMatrix.identity(4), (0, 0, 0, 0))
    with pytest.raises(SystemError_):
        VerticalSystem(
            running_N,
            RationalMatrix.from_rows([["1/2", 0, 0, 0, 0], [0, 1, 0, 0, 0]]),
            (0,) * 5,
        )


def test_assemble_crn_golden_shapes(hhk_model):
    vs = assemble_crn(hhk_model)
    assert (vs.C.rows, vs.C.cols) == (8, 13)
    assert (vs.A.rows, vs.A.cols) == (6, 13)
    assert rank(vs.C) == 6
    assert rank(vs.A) == 6
    assert vs.h == vector([7, -6, -2, -3, -3, 3, 0, 0, 0, 0, 0, 0, 0])
    # conservation block sits against the totals column
    assert vs.C[6, 12] == -10 and vs.C[7, 12] == -20
    assert vs.C[6, 6] == 1 and vs.C[7, 10] == 1


def test_assemble_crn_kernel_dimension(hhk_model):
    vs = assemble_crn(hhk_model)
    r_s = hhk_model.N_stoich.cols
    n_s = hhk_model.N_stoich.rows
    WT = RationalMatrix.from_rows(
        [list(hhk_model.W.row(i)) + [-hhk_model.T[i]] for i in range(hhk_model.W.rows)]
    )
    expected = (r_s - rank(hhk_model.N_stoich)) + (n_s + 1 - rank(WT))
    assert kernel_basis(vs.C).rows == expected


def test_assemble_crn_rejects_bad_conservation(hhk_model):
    with pytest.raises(SystemError_):
        CRNModel(
            N_stoich=hhk_model.N_stoich,
            B=hhk_model.B,
            W=RationalMatrix.from_rows([[1, 0, 0, 0, 0, 0], [0, 0, 0, 0, 1, 1]]),
            T=(10, 20),
            h=hhk_model.h,
        )


def test_assemble_crn_zero_totals(hhk_model):
    model = CRNModel(
        N_stoich=hhk_model.N_stoich,
        B=hhk_model.B,
        W=hhk_model.W,
        T=(0, 0),
        h=hhk_model.h,
    )
    vs = assemble_crn(model)
    assert all(vs.C[i, 12] == 0 for i in range(8))
    # the constant column went dead: the rank check must notice
    from tropibound.intersection import validate_inputs

    d = validate_inputs(realize_from_kernel(vs.C), vs.A)
    assert d.rank_C == 6  # W rows still independent; rank survives here


def test_single_species_toy_assembly():
    model = CRNModel(
        N_stoich=RationalMatrix.from_rows([[-1]]),
        B=RationalMatrix.from_rows([[1]]),
        W=RationalMatrix(0, 1, []),
        T=(),
        h=(0,),
    )
    vs = assemble_crn(model)
    assert (vs.C.rows, vs.C.cols) == (1, 3)
    assert vs.C.row(0) == vector([-1, 0, 0])
    assert vs.A.row(0) == vector([1, 1, 0])


def test_assemble_crn_shares_C_and_A_across_rates(hhk_model):
    # draws that differ only in h get the same matrix objects, so the
    # caches on C and A stay warm; another network gets its own
    first = assemble_crn(hhk_model)
    second = assemble_crn(dataclasses.replace(hhk_model, h=(7, 8, 3, 3, -1, 8)))
    assert second.C is first.C and second.A is first.A
    assert second.h != first.h
    other = assemble_crn(dataclasses.replace(hhk_model, T=(10, 30)))
    assert other.C is not first.C and other.A is not first.A
    m = hhk_model
    ns, rs = m.N_stoich.rows, m.N_stoich.cols
    assert other.C == RationalMatrix.from_rows(
        [list(m.N_stoich.row(i)) + [0] * (ns + 1) for i in range(ns)]
        + [[0] * rs + list(m.W.row(i)) + [-t] for i, t in enumerate((10, 30))]
    )
    assert other.A == RationalMatrix.from_rows(
        [list(m.B.row(i)) + [int(i == j) for j in range(ns)] + [0] for i in range(ns)]
    )
    assert other.C != first.C and other.A == first.A


def test_bound_running_example(running_system):
    report = bound(running_system, cross_check=True)
    assert report.certified_bound == 2
    assert report.tropical.transverse
    assert report.decorated is not None and report.decorated[0] == 1
    assert report.decorated[0] < report.tropical.count


def test_bound_crn(hhk_model):
    report = bound(assemble_crn(hhk_model))
    assert report.certified_bound == 3
    assert report.tropical.transverse
    assert report.decorated is None
    assert any("repeated columns" in note for note in report.method_notes)


def test_bound_rank_deficient_skips_decorated():
    # distinct exponent columns, so only the rank(C) = n gate refuses
    system = VerticalSystem(
        RationalMatrix.from_rows([[1, -1, 1, -1], [2, -2, 2, -2]]),
        RationalMatrix.from_rows([[1, 0, 1, 2], [0, 1, 1, 3]]),
        (0, 0, 0, 0),
    )
    report = bound(system)
    assert report.decorated is None
    note = "rank(C) = 1 differs from n = 2; decorated-simplex bound skipped"
    assert note in report.method_notes
    with pytest.raises(SystemError_, match=r"^rank\(C\) = 1 differs from n = 2$"):
        system.reduced_coefficients()


def test_rate_scan_documents_ignore_memo_state(hhk_model, running_system):
    # 24 draws of the hhk rate exponents share C and so one matroid; the
    # one-entry memos on the matroid and the fan plan must give the same
    # documents warm (forward, reversed) as evicted by another system
    rng = random.Random(5)
    systems = [
        assemble_crn(dataclasses.replace(hhk_model, h=tuple(rng.randint(-8, 8) for _ in range(6))))
        for _ in range(24)
    ]
    realize_from_kernel.cache_clear()
    _fan_plan.cache_clear()
    forward = [bound(s).to_document() for s in systems]
    assert realize_from_kernel.cache_info().hits == 23
    assert _fan_plan.cache_info().hits == 23
    backward = [bound(s).to_document() for s in reversed(systems)][::-1]
    evicted = []
    for s in systems:
        bound(running_system)
        evicted.append(bound(s).to_document())
    # every memo of the package holds one entry
    memos = {
        f
        for info in pkgutil.iter_modules(tropibound.__path__, "tropibound.")
        for f in vars(importlib.import_module(info.name)).values()
        if hasattr(f, "cache_info")
    }
    assert {realize_from_kernel, _fan_plan, all_flats, maximal_flags} <= memos
    assert {f.cache_info().maxsize for f in memos} == {1}
    assert forward == backward == evicted
    assert len({str(doc) for doc in forward}) > 1


def test_rate_scan_reduces_C_once(hhk_model, monkeypatch):
    # three draws share C, so C is reduced to its independent rows once
    calls = []

    def counted(C):
        calls.append(C)
        return first_independent_rows(C)

    monkeypatch.setattr(systems_module, "first_independent_rows", counted)
    systems_module._independent_rows.cache_clear()
    for h in [(7, -6, -2, -3, -3, 3), (7, 8, 3, 3, -1, 8), (-4, 2, 6, -8, 1, -3)]:
        bound(assemble_crn(dataclasses.replace(hhk_model, h=h)))
    assert len(calls) == 1


def test_rate_scan_shares_one_reduced_C(hhk_model):
    # draws that share C get the one reduced matrix the memo keeps, C's
    # first independent rows; a rank-deficient C is refused on every call,
    # also once its reduction is memoized
    systems_module._independent_rows.cache_clear()
    reduced = [
        assemble_crn(dataclasses.replace(hhk_model, h=h)).reduced_coefficients()
        for h in [(7, -6, -2, -3, -3, 3), (7, 8, 3, 3, -1, 8), (-4, 2, 6, -8, 1, -3)]
    ]
    assert reduced[0] is reduced[1] is reduced[2]
    C = assemble_crn(hhk_model).C
    assert reduced[0] == C.submatrix_rows(first_independent_rows(C))
    deficient = VerticalSystem(
        RationalMatrix.from_rows([[1, -1, 1, -1], [2, -2, 2, -2]]),
        RationalMatrix.from_rows([[1, 0, 1, 2], [0, 1, 1, 3]]),
        (0, 0, 0, 0),
    )
    for _ in range(3):
        with pytest.raises(SystemError_, match=r"^rank\(C\) = 1 differs from n = 2$"):
            deficient.reduced_coefficients()
    assert systems_module._independent_rows.cache_info().hits == 4


def test_bound_empty_fan(running_A):
    system = VerticalSystem(
        RationalMatrix.from_rows([[1, 1, 1, 1, 1], [1, 2, 3, 4, 5]]),
        running_A,
        (0, 0, 0, 0, -1),
    )
    report = bound(system)
    assert report.certified_bound == 0
    assert report.tropical.count == 0


def test_bound_falls_back_to_the_decorated_count():
    # ROADMAP item 3's system: v = (-1, -1) is isolated but not interior,
    # so the tropical count 2 is not certified and the decorated count is
    # the bound; once item 3 lands that point is interior and the bound 2
    system = VerticalSystem(
        RationalMatrix.from_rows([[-1, 2, 3, 2, -3, 1], [-2, -3, -1, 2, 1, 2]]),
        RationalMatrix.from_rows([[-1, 1, -3, 0, 3, -2], [2, -3, 1, -2, -3, 0]]),
        (1, -1, -2, 0, 0, -2),
    )
    report = bound(system)
    assert (report.tropical.count, report.tropical.transverse) == (2, False)
    (point,) = [p for p in report.tropical.points if p.v == (-1, -1)]
    assert point.isolated and not point.interior
    assert report.decorated is not None and report.decorated[0] == 1
    assert report.certified_bound == 1
    assert report.method_notes == (
        "tropical count not certified; falling back to the decorated-simplex bound",
    )


def test_bound_defaults_to_zero_without_a_certified_method(hhk_model):
    # draw 0 of the crn_scan benchmark: the tropical count is not
    # certified and the decorated bound is skipped, so no method applies
    report = bound(assemble_crn(dataclasses.replace(hhk_model, h=(-6, 4, -8, -5, 7, 7))))
    assert not report.tropical.transverse
    assert report.decorated is None
    assert report.certified_bound == 0
    assert report.method_notes == (
        "exponent matrix has repeated columns; decorated-simplex bound skipped",
        "no certified method applies; bound defaults to 0",
    )


def test_bound_reduces_stacked_coefficients(hhk_model):
    vs = assemble_crn(hhk_model)
    Ct = vs.reduced_coefficients()
    assert Ct.rows == 6
    # reduction preserved the kernel
    from tropibound.rational import row_space_equal

    assert row_space_equal(kernel_basis(Ct), kernel_basis(vs.C))


def test_bound_document(running_system):
    doc = bound(running_system).to_document()
    assert doc["certified_bound"] == 2
    assert doc["decorated"]["count"] == 1
    assert doc["decorated"]["simplices"][0]["members"] == [1, 3, 5]
    assert doc["decorated"]["simplices"][0]["kernel_vector"] == ["1", "1", "2"]


def test_decorated_le_tropical_on_random_instances():
    rng = random.Random(99)
    checked = 0
    while checked < 25:
        r = rng.randint(3, 6)
        n = rng.randint(1, min(3, r - 1))
        C = RationalMatrix.from_rows(
            [[rng.randint(-3, 3) for _ in range(r)] for _ in range(n)]
        )
        A = RationalMatrix.from_rows(
            [[rng.randint(0, 3) for _ in range(r)] for _ in range(n)]
        )
        cols = [A.column(j) for j in range(r)]
        if C.is_zero() or rank(A) < n or rank(C) != n or len(set(cols)) != r:
            continue
        h = [Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(r)]
        try:
            report = bound(VerticalSystem(C, A, tuple(h)))
        except ComparisonViolation:
            pytest.fail("comparison inequality violated on a random instance")
        if report.tropical.transverse and report.decorated is not None:
            assert report.decorated[0] <= report.tropical.count
        checked += 1


def bound_invariants(C, A, h):
    report = bound(VerticalSystem(C, A, tuple(h)))
    return (
        report.certified_bound,
        report.tropical.count,
        report.tropical.transverse,
        {p.w for p in report.tropical.points},
    )


def integer_rows(rows, cols, lo, hi):
    return st.lists(
        st.lists(st.integers(lo, hi), min_size=cols, max_size=cols),
        min_size=rows,
        max_size=rows,
    ).map(RationalMatrix.from_rows)


@settings(max_examples=70, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_bound_invariant_under_coordinate_changes(data):
    r = data.draw(st.integers(3, 5), label="r")
    n = data.draw(st.integers(1, 2), label="n")
    C = data.draw(integer_rows(n, r, -3, 3), label="C")
    A = data.draw(integer_rows(n, r, -3, 3), label="A")
    assume(rank(C) == n and rank(A) == n)
    h = data.draw(st.lists(st.integers(-6, 6), min_size=r, max_size=r), label="h")
    expected = bound_invariants(C, A, h)

    # C -> UC for an invertible integer U: ker(C) is unchanged
    U = data.draw(integer_rows(n, n, -2, 2), label="U")
    assume(rank(U) == n)
    assert bound_invariants(U.matmul(C), A, h) == expected

    # C -> CD for a positive diagonal D: the signs of ker(C) are unchanged
    d = data.draw(
        st.lists(st.fractions(min_value=Fraction(1, 4), max_value=4), min_size=r, max_size=r),
        label="D",
    )
    CD = RationalMatrix.from_rows([[x * y for x, y in zip(row, d)] for row in C.row_list()])
    assert bound_invariants(CD, A, h) == expected

    # A -> VA for a unimodular V, built from elementary row operations: the
    # points v move to V^-T v and their w = A^T v stay
    V = [[int(i == j) for j in range(n)] for i in range(n)]
    for i, j, c in data.draw(
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(-2, 2)), max_size=4),
        label="row operations",
    ):
        if i == j:
            V[i] = [-x for x in V[i]]
        else:
            V[i] = [x + c * y for x, y in zip(V[i], V[j])]
    VA = RationalMatrix.from_rows(V).matmul(A)
    assert bound_invariants(C, VA, h) == expected

    # a column permutation of C, A and h permutes the coordinates of each w
    perm = data.draw(st.permutations(range(r)), label="perm")
    certified, count, transverse, ws = bound_invariants(
        C.submatrix_columns(perm), A.submatrix_columns(perm), [h[p] for p in perm]
    )
    assert (certified, count, transverse) == expected[:3]
    assert ws == {tuple(w[p] for p in perm) for w in expected[3]}


def test_bound_never_builds_the_sorted_circuit_tuple(hhk_model):
    # the pipeline reads the matroid's masks only: bound, with and without
    # the oracle, and its document leave the cached tuple of SignedCircuits
    # unbuilt, on hhk and on the first system of the criterion-7 family
    rng = random.Random(20260809)
    while True:
        r = rng.randint(3, 8)
        n = rng.randint(1, min(3, r - 1))
        m = rng.randint(n, r - 1)
        C = RationalMatrix.from_rows([[rng.randint(-3, 3) for _ in range(r)] for _ in range(m)])
        A = RationalMatrix.from_rows([[rng.randint(-3, 3) for _ in range(r)] for _ in range(n)])
        if not C.is_zero() and rank(A) == n and rank(C) == n:
            break
    h = [Fraction(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(r)]
    for system in (assemble_crn(hhk_model), VerticalSystem(C, A, h)):
        realize_from_kernel.cache_clear()
        reports = [bound(system), bound(system, cross_check=True)]
        for report in reports:
            report.to_document()
        M = realize_from_kernel(system.C)
        assert all(report.tropical.matroid is M for report in reports)
        assert M._masks and "circuits" not in M.__dict__
