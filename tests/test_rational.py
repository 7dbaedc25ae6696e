import ast
import random
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropibound.rational import (
    RationalMatrix,
    det,
    first_independent_rows,
    in_row_span,
    integer_multiple,
    kernel_basis,
    primitive,
    rank,
    row_space_equal,
    rref,
    solve_affine,
    to_rational,
    vector,
)

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "tropibound"


def random_matrix(rng, rows, cols, denom=3, span=4):
    return RationalMatrix.from_rows(
        [
            [Fraction(rng.randint(-span, span), rng.randint(1, denom)) for _ in range(cols)]
            for _ in range(rows)
        ]
    )


def dependent_matrix(rng, rows, cols, zero_cols=()):
    """A random matrix whose last row combines two earlier ones, so its
    rank is below its row count, with the given columns zeroed."""
    M = random_matrix(rng, rows - 1, cols).row_list()
    a, b = Fraction(rng.randint(-3, 3), 2), Fraction(rng.randint(-3, 3), 3)
    M.append([a * x + b * y for x, y in zip(M[0], M[-1])])
    return RationalMatrix.from_rows(
        [[0 if j in zero_cols else x for j, x in enumerate(row)] for row in M]
    )


# --- independent oracles ------------------------------------------------


def det_cofactor(M: RationalMatrix) -> Fraction:
    n = M.rows
    if n == 0:
        return Fraction(1)
    if n == 1:
        return M[0, 0]
    total = Fraction(0)
    for j in range(n):
        minor = RationalMatrix.from_rows(
            [[M[i, k] for k in range(n) if k != j] for i in range(1, n)]
        )
        total += (-1) ** j * M[0, j] * det_cofactor(minor)
    return total


def rank_by_minors(M: RationalMatrix) -> int:
    best = 0
    for k in range(1, min(M.rows, M.cols) + 1):
        found = False
        for rows in combinations(range(M.rows), k):
            for cols in combinations(range(M.cols), k):
                sub = RationalMatrix.from_rows([[M[i, j] for j in cols] for i in rows])
                if det_cofactor(sub) != 0:
                    found = True
                    break
            if found:
                break
        if found:
            best = k
    return best


def row_in_span_by_minors(M: RationalMatrix, row) -> bool:
    stacked = RationalMatrix.from_rows(M.row_list() + [list(row)])
    return rank_by_minors(stacked) == rank_by_minors(M)


# --- rref ---------------------------------------------------------------


def test_rref_diagonal():
    R, pivots = rref(RationalMatrix.from_rows([[2, 0], [0, 3]]))
    assert R == RationalMatrix.identity(2)
    assert pivots == [0, 1]


def test_rref_rank_one():
    R, pivots = rref(RationalMatrix.from_rows([[1, 1], [1, 1]]))
    assert R == RationalMatrix.from_rows([[1, 1], [0, 0]])
    assert pivots == [0]


def test_rref_random_against_minor_oracle():
    rng = random.Random(101)
    cases = [random_matrix(rng, 4, 6) for _ in range(10)]
    cases += [dependent_matrix(rng, 4, 6, zero_cols={0, 3}) for _ in range(5)]
    for M in cases:
        R, pivots = rref(M)
        assert rank_by_minors(R) == rank_by_minors(M) == len(pivots)
        # column j is a pivot iff it raises the rank of the columns before it
        prefix_ranks = [0] + [
            rank_by_minors(M.submatrix_columns(range(j + 1))) for j in range(M.cols)
        ]
        assert pivots == [j for j in range(M.cols) if prefix_ranks[j + 1] > prefix_ranks[j]]
        for i in range(R.rows):
            assert row_in_span_by_minors(M, R.row(i))
        for i in range(M.rows):
            assert row_in_span_by_minors(R, M.row(i))


def test_rref_idempotent():
    rng = random.Random(5)
    for _ in range(10):
        M = random_matrix(rng, 3, 5)
        R, _ = rref(M)
        R2, _ = rref(R)
        assert R2 == R


# --- rank ---------------------------------------------------------------


def test_rank_zero_matrix():
    assert rank(RationalMatrix(3, 4, [0] * 12)) == 0


def test_rank_stoichiometric_matrix(hhk_model):
    assert rank(hhk_model.N_stoich) == 4


def test_rank_stacked_exponent_matrix(hhk_model):
    from tropibound.systems import assemble_crn

    assert rank(assemble_crn(hhk_model).A) == 6


def test_rank_transpose_invariant():
    rng = random.Random(77)
    for _ in range(15):
        M = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 5))
        assert rank(M) == rank(M.transpose())


# --- kernel_basis -------------------------------------------------------


def test_kernel_basis_single_relation():
    K = kernel_basis(RationalMatrix.from_rows([[1, -1]]))
    assert K.rows == 1
    assert row_space_equal(K, RationalMatrix.from_rows([[1, 1]]))


def test_kernel_basis_matches_known_span(running_N):
    K = kernel_basis(running_N)
    expected = RationalMatrix.from_rows([[0, 0, 0, 1, 1], [-1, 1, 0, 2, 0], [0, 1, 1, 0, 0]])
    assert K.rows == 3
    assert row_space_equal(K, expected)


def test_kernel_rank_nullity_random():
    rng = random.Random(13)
    for _ in range(10):
        M = random_matrix(rng, 3, 7)
        K = kernel_basis(M)
        assert K.rows == 7 - rank(M)
        for i in range(K.rows):
            assert all(x == 0 for x in M.apply(K.row(i)))
        assert rank(K) == K.rows


# --- solve_affine -------------------------------------------------------


def test_solve_affine_identity():
    sol = solve_affine(RationalMatrix.identity(3), [5, -2, 7])
    assert sol is not None
    particular, K = sol
    assert particular == vector([5, -2, 7])
    assert K.rows == 0


def test_solve_affine_inconsistent():
    assert solve_affine(RationalMatrix.from_rows([[1], [1]]), [0, 1]) is None


def test_solve_affine_random_substitution():
    rng = random.Random(29)
    cases = [random_matrix(rng, 3, 5) for _ in range(12)]
    cases += [dependent_matrix(rng, 4, 5, zero_cols={2}) for _ in range(6)]
    for M in cases:
        x = vector([rng.randint(-4, 4) for _ in range(5)])
        b = M.apply(x)
        sol = solve_affine(M, b)
        assert sol is not None
        particular, K = sol
        assert M.apply(particular) == b
        # every kernel row really is in the kernel
        for i in range(K.rows):
            assert all(v == 0 for v in M.apply(K.row(i)))
        assert K == kernel_basis(M)


# --- det ----------------------------------------------------------------


def test_det_identity():
    assert det(RationalMatrix.identity(3)) == 1


def test_det_two_by_two():
    assert det(RationalMatrix.from_rows([[1, 2], [3, 4]])) == -2


def test_det_rejects_nonsquare():
    with pytest.raises(ValueError):
        det(RationalMatrix(2, 3, [0] * 6))


def test_det_random_against_cofactor():
    rng = random.Random(43)
    cases = [random_matrix(rng, 5, 5, denom=2, span=3) for _ in range(6)]
    cases += [dependent_matrix(rng, 4, 4) for _ in range(3)]
    cases += [random_matrix(rng, n, n, denom=7, span=9) for n in (1, 2, 3, 4)]
    cases += [RationalMatrix.from_rows([]), RationalMatrix.from_rows([[0, 1], [0, 2]])]
    # negative last pivots, with and without a row swap
    cases += [
        RationalMatrix.from_rows([[0, 1], [1, 0]]),
        RationalMatrix.from_rows([[-3]]),
        RationalMatrix.from_rows([[2, 1, 0], [1, 1, 1], [0, 1, -5]]),
    ]
    for M in cases:
        assert det(M) == det_cofactor(M)
    assert det(RationalMatrix.from_rows([])) == 1


def test_det_multiplicative():
    rng = random.Random(47)
    for _ in range(8):
        A = random_matrix(rng, 3, 3)
        B = random_matrix(rng, 3, 3)
        assert det(A.matmul(B)) == det(A) * det(B)


# --- misc helpers -------------------------------------------------------


def test_to_rational_rejects_float():
    with pytest.raises(TypeError):
        to_rational(0.5)
    for text in ("0.5", "0.0", "-1e0", "-1e5000", "1e100000000", "1_000", "1 /2"):
        with pytest.raises(ValueError):
            to_rational(text)
    assert [to_rational(t) for t in (" +3 ", "−3/6", "007")] == [3, Fraction(-1, 2), 7]


def test_matrix_is_immutable(running_N):
    with pytest.raises(AttributeError):
        running_N.rows = 5


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3), st.data())
def test_matrix_equality_and_hash_follow_shape_and_values(rows, cols, other_cols, data):
    entries = st.lists(
        st.fractions(-3, 3, max_denominator=4), min_size=rows * cols, max_size=rows * cols
    )
    xs, ys = data.draw(entries, label="xs"), data.draw(entries, label="ys")
    M = RationalMatrix(rows, cols, xs)
    # the same values through other input forms: equal, with equal hashes
    same = RationalMatrix(rows, cols, [f"{x.numerator}/{x.denominator}" for x in xs])
    assert M == same and hash(M) == hash(same) and M == M
    # equal exactly when the shape and every value agree, denominators included
    assert (M == RationalMatrix(rows, cols, ys)) == (xs == ys)
    halved = RationalMatrix(rows, cols, [x / 2 for x in xs])
    assert (M == halved) == (not any(xs))
    if other_cols != cols and rows * other_cols == rows * cols:
        assert M != RationalMatrix(rows, other_cols, xs)
    assert M != RationalMatrix(cols, rows, xs) or rows == cols
    assert M != xs


def test_first_independent_rows_skips_dependent():
    M = RationalMatrix.from_rows([[1, 0], [2, 0], [0, 1]])
    assert first_independent_rows(M) == [0, 2]
    rng = random.Random(53)
    for _ in range(8):
        M = dependent_matrix(rng, 5, 3, zero_cols={1})
        M = M.submatrix_rows(rng.sample(range(M.rows), M.rows))
        chosen: list[int] = []
        for i in range(M.rows):
            if rank_by_minors(M.submatrix_rows(chosen + [i])) > len(chosen):
                chosen.append(i)
        assert first_independent_rows(M) == chosen


def test_in_row_span():
    M = RationalMatrix.from_rows([[1, 0, 1], [0, 1, 1]])
    assert in_row_span(M, [1, 1, 2])
    assert not in_row_span(M, [0, 0, 1])


# --- integer scaling -----------------------------------------------------


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    st.lists(st.fractions(max_denominator=60), max_size=6),
    st.lists(st.integers(-60, 60), max_size=6),
)
def test_integer_multiple_and_primitive(xs, ints):
    D, scaled = integer_multiple(xs)
    assert D == lcm(*(x.denominator for x in xs))
    assert all(type(k) is int for k in scaled)
    assert scaled == [D * x for x in xs]
    for row in (scaled, ints, [0] * len(ints)):
        prim = primitive(row)
        if not any(row):
            assert prim == tuple(row)
            continue
        # a positive multiple of row with gcd 1
        c = next(Fraction(p, x) for p, x in zip(prim, row) if x)
        assert c > 0 and list(prim) == [c * x for x in row]
        assert gcd(*prim) == 1


def test_only_rational_turns_rationals_into_integers():
    # every other module scales through integer_multiple, primitive and
    # integer_columns instead of unpacking Fractions or taking lcms
    offences = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "rational.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and node.attr in ("numerator", "denominator"):
                offences.append(f"{path.name}:{node.lineno} reads .{node.attr}")
            elif isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                if name == "lcm":
                    offences.append(f"{path.name}:{node.lineno} calls lcm")
    assert len(list(PACKAGE.glob("*.py"))) > 1
    assert offences == []


def test_references_import_nothing_from_polyhedra():
    # the references of tests/*_reference.py check _polyhedra, so none of
    # them may share its code
    offences = []
    references = sorted(PACKAGE.parents[1].joinpath("tests").glob("*_reference.py"))
    for path in references:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [f"{node.module}.{a.name}" for a in node.names]
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            else:
                continue
            if any(name.split(".")[:2] == ["tropibound", "_polyhedra"] for name in names):
                offences.append(f"{path.name}:{node.lineno} imports tropibound._polyhedra")
    assert references and offences == []


def test_only_the_cli_writer_serializes_json():
    # documents reach their bytes through cli.write_json alone, which
    # stands on json.JSONEncoder: no other module may use that class
    offences = []
    for path in sorted(PACKAGE.glob("*.py")):
        banned = {"dump", "dumps"} | ({"JSONEncoder"} if path.name != "cli.py" else set())
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.module in ("json", "json.encoder"):
                for alias in node.names:
                    if alias.name in banned:
                        offences.append(f"{path.name}:{node.lineno} imports json.{alias.name}")
            elif (
                isinstance(node, ast.Attribute)
                and node.attr in banned
                and (node.attr == "JSONEncoder" or isinstance(node.value, ast.Name) and node.value.id == "json")
            ):
                offences.append(f"{path.name}:{node.lineno} uses json.{node.attr}")
    assert offences == []
