import random
import re
from fractions import Fraction
from itertools import combinations

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import matroid_reference
from matroid_reference import initial_circuit
from tropibound import matroid
from tropibound.matroid import (
    Flat,
    MatroidError,
    OrientedMatroid,
    SignedCircuit,
    all_flats,
    circuits_via_subsets,
    maximal_flags,
    realize_from_kernel,
)
from tropibound.rational import RationalMatrix, _echelon, integer_multiple, kernel_basis, rank

RUNNING_CIRCUITS = {
    SignedCircuit((3,), (1, 2)),
    SignedCircuit((5,), (1, 4)),
    SignedCircuit((2, 5), (3, 4)),
    SignedCircuit((1, 2), (3,)),
    SignedCircuit((1, 4), (5,)),
    SignedCircuit((3, 4), (2, 5)),
}


def circuits_by_sympy(G: RationalMatrix) -> set[SignedCircuit]:
    """Independent oracle: scan every column subset for a unique-up-to-scale
    dependency using sympy's nullspace."""
    S = sympy.Matrix([[sympy.Rational(x) for x in G.row(i)] for i in range(G.rows)])
    r = S.rank()
    out: set[SignedCircuit] = set()
    supports: list[set[int]] = []
    for size in range(1, min(G.cols, r + 1) + 1):
        for cols in combinations(range(G.cols), size):
            if any(s < set(cols) for s in supports):
                continue
            null = S[:, list(cols)].nullspace()
            if len(null) != 1:
                continue
            lam = null[0]
            if any(lam[i] == 0 for i in range(size)):
                continue
            pos = tuple(cols[i] + 1 for i in range(size) if lam[i] > 0)
            neg = tuple(cols[i] + 1 for i in range(size) if lam[i] < 0)
            c = SignedCircuit(pos, neg)
            out |= {c, c.negated()}
            supports.append(set(cols))
    return out


def test_signed_circuit_normalizes_and_validates():
    # a hand-built circuit is normalized and checked where it enters an
    # OrientedMatroid: lists, duplicates and unsorted parts give the
    # circuits that sorted tuples of distinct elements give, and those are
    # kept as they are
    want = (SignedCircuit((1, 3), (2,)), SignedCircuit((2,), (1, 3)))
    for pos, neg in [
        ([1, 3], [2]),
        ([3, 1], (2, 2)),
        ((1, 3, 3), [2]),
        ((3, 1, 1, 3), (2,)),
        ((1, 3), (2,)),
    ]:
        for given in ([SignedCircuit(pos, neg)], [SignedCircuit(pos, neg), want[0]]):
            circuits = OrientedMatroid(3, given).circuits
            assert circuits == want
            assert all(type(c) is SignedCircuit for c in circuits)
            assert all(type(c.positive) is tuple and type(c.negative) is tuple for c in circuits)
    # an overlap, also one hidden by a duplicate or by a list, is refused
    # with the normalized parts named, and so is an empty circuit
    for pos, neg, named in [
        ((1,), (1, 2), "(1,) / (1, 2)"),
        ([2, 1], [1], "(1, 2) / (1,)"),
        ((1, 1), (1,), "(1,) / (1,)"),
        ((2, 2), [2, 3], "(2,) / (2, 3)"),
    ]:
        message = "positive and negative parts overlap: " + named
        with pytest.raises(MatroidError, match=re.escape(message)):
            OrientedMatroid(3, [SignedCircuit(pos, neg)])
    for pos, neg in [((), ()), ([], [])]:
        with pytest.raises(MatroidError, match="empty signed circuit"):
            OrientedMatroid(3, [SignedCircuit(pos, neg)])
    # each record equals its plain tuple and hashes as it does
    c, f = SignedCircuit((1, 3), (2,)), Flat((1, 2), 1)
    assert c == ((1, 3), (2,)) and hash(c) == hash(((1, 3), (2,)))
    assert f == ((1, 2), 1) and hash(f) == hash(((1, 2), 1))


def test_realize_running_example(running_N):
    M = realize_from_kernel(running_N)
    assert set(M.circuits) == RUNNING_CIRCUITS
    assert M.rank == 3


def test_realize_two_element_dependency():
    M = realize_from_kernel(RationalMatrix.from_rows([[1, -1]]))
    assert set(M.circuits) == {SignedCircuit((1,), (2,)), SignedCircuit((2,), (1,))}


def test_realize_rejects_zero_matrix():
    with pytest.raises(MatroidError):
        realize_from_kernel(RationalMatrix(2, 3, [0] * 6))


def test_circuits_random_against_sympy_oracle():
    rng = random.Random(11)
    for _ in range(8):
        C = RationalMatrix.from_rows(
            [[rng.randint(-3, 3) for _ in range(4)] for _ in range(2)]
        )
        if C.is_zero():
            continue
        M = realize_from_kernel(C)
        assert set(M.circuits) == circuits_by_sympy(kernel_basis(C))


def test_circuits_via_subsets_supports(running_N):
    G = kernel_basis(running_N)
    circuits = circuits_via_subsets(G)
    supports = {tuple(sorted(c.support)) for c in circuits}
    assert supports == {(1, 2, 3), (1, 4, 5), (2, 3, 4, 5)}


def test_circuits_via_subsets_free_matroid():
    assert circuits_via_subsets(RationalMatrix.identity(3)) == []


def test_four_element_relation_signs(running_N):
    # the unique relation on columns {2,3,4,5} of the kernel span puts
    # {3,4} against {2,5}
    circuits = circuits_via_subsets(kernel_basis(running_N))
    four = [c for c in circuits if c.support == frozenset({2, 3, 4, 5})]
    assert SignedCircuit((3, 4), (2, 5)) in four
    assert SignedCircuit((2, 5), (3, 4)) in four


def test_realize_agrees_with_subset_scan(running_N):
    M = realize_from_kernel(running_N)
    assert set(M.circuits) == set(circuits_via_subsets(kernel_basis(running_N)))


def test_realize_memo_returns_equal_matroids(running_N):
    C2 = RationalMatrix.from_rows([[1, 2, -1, 0], [0, 1, 1, -3]])
    for C in (running_N, C2, running_N):
        assert realize_from_kernel(C) == OrientedMatroid(
            C.cols, circuits_via_subsets(kernel_basis(C))
        )


def test_matroid_is_immutable(running_N):
    # rank and sign_masks are cached properties; once built, they refuse
    # assignment as the fields do
    OM = realize_from_kernel(running_N)
    assert OM.rank == 3 and len(OM.sign_masks) == len(OM.circuits) // 2
    for name in ("rank", "sign_masks", "circuits", "ground_size"):
        with pytest.raises(AttributeError):
            setattr(OM, name, None)
    assert OM.rank == 3


def circuits_by_kernel_basis(G: RationalMatrix) -> set[SignedCircuit]:
    """Every column subset whose kernel is one full-support line, read off
    ``kernel_basis`` of the Fraction slice."""
    out: set[SignedCircuit] = set()
    for size in range(1, min(G.cols, rank(G) + 1) + 1):
        for cols in combinations(range(G.cols), size):
            ker = kernel_basis(G.submatrix_columns(cols))
            if ker.rows != 1 or 0 in ker.row(0):
                continue
            lam = ker.row(0)
            c = SignedCircuit(
                tuple(cols[i] + 1 for i in range(size) if lam[i] > 0),
                tuple(cols[i] + 1 for i in range(size) if lam[i] < 0),
            )
            out |= {c, c.negated()}
    return out


def test_circuits_via_subsets_fractional_rows():
    # rows with unlike denominators go through the integer row scaling
    rng = random.Random(7)
    for _ in range(20):
        rows, cols = rng.randint(1, 3), rng.randint(2, 6)
        G = RationalMatrix.from_rows(
            [
                [Fraction(rng.randint(-4, 4), rng.randint(1, 6)) for _ in range(cols)]
                for _ in range(rows)
            ]
        )
        assert set(circuits_via_subsets(G)) == circuits_by_kernel_basis(G)


def circuits_by_integer_scan(G: RationalMatrix) -> list[SignedCircuit]:
    """Reference: the integer subset scan that the depth-first search replaced.

    Scans column subsets of size at most rank(G)+1, skipping any that
    strictly contain a scanned dependent subset, and reads the unique
    relation of a slice with one free column off its echelon form.
    """
    r = G.cols
    g_rank = rank(G)
    ints = [integer_multiple(G.row(i))[1] for i in range(G.rows)]
    circuits: list[SignedCircuit] = []
    dependent: set[int] = set()
    bits = [1 << j for j in range(r)]
    for size in range(1, min(r, g_rank + 1) + 1):
        for cols, colbits in zip(combinations(range(r), size), combinations(bits, size)):
            colmask = sum(colbits)
            if any(colmask - b in dependent for b in colbits):
                dependent.add(colmask)
                continue
            m, pivots, _, _ = _echelon([[row[j] for j in cols] for row in ints], size)
            if len(pivots) != size - 1:
                continue
            (free,) = set(range(size)).difference(pivots)
            lam = [1] * size
            for row, p in zip(m, pivots):
                lam[p] = -row[free]
            if 0 in lam:
                continue
            pos = tuple(cols[i] + 1 for i, x in enumerate(lam) if x > 0)
            neg = tuple(cols[i] + 1 for i, x in enumerate(lam) if x < 0)
            c = SignedCircuit(pos, neg)
            circuits.extend([c, c.negated()])
            dependent.add(colmask)
    return sorted(set(circuits))


@st.composite
def awkward_matrices(draw):
    """Rational G with zero, parallel and scaled columns, fractional
    entries and, sometimes, a row that is a combination of the others."""
    nrows = draw(st.integers(1, 4), label="rows")
    ncols = draw(st.integers(1, 7), label="cols")
    entry = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    columns = []
    for j in range(ncols):
        kind = draw(st.sampled_from(["free", "zero", "copy"] if j else ["free", "zero"]))
        if kind == "free":
            columns.append(draw(st.lists(entry, min_size=nrows, max_size=nrows)))
        elif kind == "zero":
            columns.append([Fraction(0)] * nrows)
        else:
            source = columns[draw(st.integers(0, j - 1))]
            scale = draw(st.sampled_from([Fraction(1), Fraction(-1), Fraction(2), Fraction(-3, 2)]))
            columns.append([x * scale for x in source])
    rows = [[col[i] for col in columns] for i in range(nrows)]
    if nrows > 1 and draw(st.booleans(), label="deficient"):
        a, b = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
        rows[-1] = [a * x + b * y for x, y in zip(rows[0], rows[1])]
    return RationalMatrix.from_rows(rows)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(awkward_matrices())
def test_circuit_search_matches_integer_subset_scan(G):
    # same circuits, both orientations, in the same order
    assert circuits_via_subsets(G) == circuits_by_integer_scan(G)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(awkward_matrices(), st.randoms(use_true_random=False))
def test_matroid_layer_matches_reference_construction(C, rng):
    # the layer built on masks and sorted tuples gives the same objects, in
    # the same order, as building, negating and sorting records
    if C.is_zero():
        return
    G = kernel_basis(C)
    circuits = circuits_via_subsets(G)
    assert circuits == matroid_reference.circuits_via_subsets(G)
    M = realize_from_kernel(C)
    R = matroid_reference.ReferenceMatroid(C.cols, circuits)
    assert M.circuits == R.circuits
    assert M.circuit_supports == R.circuit_supports
    assert M._masks == R._masks
    flats = all_flats.__wrapped__(M)
    assert flats == matroid_reference.all_flats(R)
    assert M.to_document() == R.to_document()
    # one orientation of some circuits, both of others, repeats, any order
    given_circuits = [c for c in circuits if rng.random() < 0.7] + rng.sample(
        circuits, min(2, len(circuits))
    )
    rng.shuffle(given_circuits)
    assert OrientedMatroid(C.cols, given_circuits).circuits == (
        matroid_reference.ReferenceMatroid(C.cols, given_circuits).circuits
    )


def test_initial_circuit_golden(running_N):
    M = realize_from_kernel(running_N)
    w = (0, 2, 0, 2, 0)
    got = {initial_circuit(w, c) for c in M.circuits}
    expected_half = {
        SignedCircuit((3,), (1,)),
        SignedCircuit((5,), (1,)),
        SignedCircuit((5,), (3,)),
    }
    assert got == expected_half | {c.negated() for c in expected_half}


def test_initial_circuit_uniform_weight(running_N):
    M = realize_from_kernel(running_N)
    for c in M.circuits:
        assert initial_circuit((0, 0, 0, 0, 0), c) == c


def test_initial_circuit_single_example(running_N):
    assert initial_circuit((0, 2, 0, 2, 0), SignedCircuit((2, 5), (3, 4))) == SignedCircuit(
        (5,), (3,)
    )


# --- flats ----------------------------------------------------------------


def test_all_flats_running_example(running_N):
    M = realize_from_kernel(running_N)
    flats = all_flats(M)
    by_rank = {}
    for f in flats:
        by_rank.setdefault(f.rank, set()).add(frozenset(f.elements))
    assert by_rank[0] == {frozenset()}
    assert by_rank[1] == {frozenset({i}) for i in range(1, 6)}
    assert by_rank[2] == {
        frozenset({1, 2, 3}),
        frozenset({1, 4, 5}),
        frozenset({2, 4}),
        frozenset({2, 5}),
        frozenset({3, 4}),
        frozenset({3, 5}),
    }
    assert by_rank[3] == {frozenset(range(1, 6))}


def test_all_flats_free_matroid():
    M = OrientedMatroid(3, [])
    assert len(all_flats(M)) == 8


def test_flats_match_exhaustive_closure_oracle():
    rng = random.Random(3)
    for _ in range(5):
        C = RationalMatrix.from_rows(
            [[rng.randint(-2, 2) for _ in range(5)] for _ in range(2)]
        )
        if C.is_zero():
            continue
        M = realize_from_kernel(C)
        G = kernel_basis(C)

        def col_rank(S):
            return rank(G.submatrix_columns([e - 1 for e in S])) if S else 0

        # S is a flat iff every column outside S raises the rank of S
        expected = {}
        for size in range(6):
            for S in combinations(range(1, 6), size):
                k = col_rank(S)
                if all(col_rank(S + (e,)) > k for e in range(1, 6) if e not in S):
                    expected[frozenset(S)] = k
        assert {frozenset(f.elements): f.rank for f in all_flats(M)} == expected


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_flats_match_rank_oracle_with_loops_coloops_and_parallels(data):
    r = data.draw(st.integers(2, 6), label="r")
    rows = data.draw(
        st.lists(st.lists(st.integers(-2, 2), min_size=r, max_size=r), max_size=2), label="C"
    )
    # a unit row makes a loop, a two-entry row a parallel pair, and a zero
    # column of C a coloop
    for e in data.draw(st.lists(st.integers(0, r - 1), max_size=2), label="loops"):
        rows.append([int(j == e) for j in range(r)])
    for e, f in data.draw(
        st.lists(st.tuples(st.integers(0, r - 1), st.integers(0, r - 1)), max_size=2),
        label="parallels",
    ):
        if e != f:
            rows.append([1 if j == e else -2 if j == f else 0 for j in range(r)])
    coloops = data.draw(st.sets(st.integers(0, r - 1), max_size=r - 1), label="coloops")
    rows = [[0 if j in coloops else x for j, x in enumerate(row)] for row in rows]
    if not any(any(row) for row in rows):
        rows.append([int(j not in coloops) for j in range(r)])
    C = RationalMatrix.from_rows(rows)

    # ker(C) realizes the dual of the column matroid of C
    rank_C = rank(C)

    def rank_M(S):
        rest = [j for j in range(r) if j + 1 not in S]
        return len(S) - rank_C + (rank(C.submatrix_columns(rest)) if rest else 0)

    expected = {}
    for size in range(r + 1):
        for S in combinations(range(1, r + 1), size):
            k = rank_M(S)
            if all(rank_M(S + (e,)) > k for e in range(1, r + 1) if e not in S):
                expected[frozenset(S)] = k
    assert {frozenset(f.elements): f.rank for f in all_flats(realize_from_kernel(C))} == expected


def test_flats_close_each_cover_once_per_flat(running_N, monkeypatch):
    # the covers of F partition E - F, so the upward walk closes each cover
    # of each flat below the hyperplanes exactly once, after the one
    # closure of the empty set; the first hyperplane's one cover is the
    # ground set, which ends the walk
    calls = []
    real_close = matroid._close

    def counting_close(mask, masks):
        calls.append(mask)
        return real_close(mask, masks)

    monkeypatch.setattr(matroid, "_close", counting_close)
    generic = RationalMatrix.from_rows(
        [[3, -1, 4, 1, -5, 9, 2, -6], [5, 3, -5, 8, 9, -7, 9, 3], [2, 3, 8, -4, 6, 2, -6, 4]]
    )
    loopy = RationalMatrix.from_rows([[1, 0, 0, 0, 0], [0, 1, -2, 0, 0], [0, 0, 0, 1, 1]])
    for M in (
        realize_from_kernel(running_N),
        realize_from_kernel(generic),
        realize_from_kernel(loopy),
        OrientedMatroid(4, []),
    ):
        calls.clear()
        flats = all_flats.__wrapped__(M)
        top = flats[-1].rank
        covers = sum(
            1
            for F in flats
            for G in flats
            if G.rank == F.rank + 1 < top and frozenset(F.elements) < frozenset(G.elements)
        )
        assert len(calls) == covers + 1 + (top > 0)


def nested_by_pairs(supports: list[frozenset[int]]) -> str | None:
    """Reference: the first strictly nested pair, comparing every pair."""
    for a, b in combinations(supports, 2):
        if a < b:
            return f"circuit supports are nested: {set(a)} < {set(b)}"
    return None


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_nested_support_check_matches_pairwise_reference(data):
    r = data.draw(st.integers(1, 6), label="r")
    signs = st.lists(st.sampled_from([0, 1, -1]), min_size=r, max_size=r).filter(any)
    circuits = [
        SignedCircuit(
            tuple(e + 1 for e, x in enumerate(s) if x > 0),
            tuple(e + 1 for e, x in enumerate(s) if x < 0),
        )
        for s in data.draw(st.lists(signs, max_size=8), label="circuits")
    ]
    supports = sorted({c.support for c in circuits}, key=lambda s: (len(s), sorted(s)))
    message = nested_by_pairs(supports)
    if message is None:
        OrientedMatroid(r, circuits)
    else:
        with pytest.raises(MatroidError) as raised:
            OrientedMatroid(r, circuits)
        assert str(raised.value) == message


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_negation_closure_keeps_tuple_order(data):
    # circuits supplied in one or both orientations, repeated or not, close
    # to the same sorted tuple as sorting the closed set by the record
    # order, which is that of (positive, negative) tuples
    r = data.draw(st.integers(1, 6), label="r")
    signs = st.lists(st.sampled_from([0, 1, -1]), min_size=r, max_size=r).filter(any)
    circuits = []
    for s, both in data.draw(st.lists(st.tuples(signs, st.booleans()), max_size=6), label="c"):
        c = SignedCircuit(
            tuple(e + 1 for e, x in enumerate(s) if x > 0),
            tuple(e + 1 for e, x in enumerate(s) if x < 0),
        )
        circuits += [c, c.negated()] if both else [c]
    supports = sorted({c.support for c in circuits}, key=lambda s: (len(s), sorted(s)))
    if nested_by_pairs(supports) is not None:
        return
    reference = tuple(sorted(set(circuits) | {c.negated() for c in circuits}))
    assert OrientedMatroid(r, circuits).circuits == reference


def test_negation_built_once_per_new_circuit(running_N, monkeypatch):
    given_circuits = realize_from_kernel(running_N).circuits
    calls = []
    real = SignedCircuit.negated

    def counting(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(SignedCircuit, "negated", counting)
    # closed input needs no negation
    assert OrientedMatroid(5, given_circuits).circuits == given_circuits
    assert calls == []
    # one negation per circuit whose negation is missing, however often it
    # is given
    half = [c for c in given_circuits if c.positive < c.negative]
    assert OrientedMatroid(5, [*half, *half[:2]]).circuits == given_circuits
    assert sorted(calls) == sorted(half)
    calls.clear()
    assert OrientedMatroid(5, [*given_circuits[:3], *half]).circuits == given_circuits
    assert sorted(calls) == sorted(c for c in half if c.negated() not in given_circuits[:3])
    # a circuit leaving the ground set is refused even after its negation
    bad = SignedCircuit((6,), (1,))
    with pytest.raises(MatroidError, match="leaves the ground set"):
        OrientedMatroid(5, [*given_circuits, bad.negated(), bad])


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_column_permutation_relabels_circuits_and_flats(data):
    r = data.draw(st.integers(1, 6), label="r")
    C_rows = data.draw(
        st.lists(
            st.lists(st.integers(-2, 2), min_size=r, max_size=r), min_size=1, max_size=r
        ).filter(lambda rows: any(any(row) for row in rows)),
        label="C",
    )
    perm = data.draw(st.permutations(range(r)), label="perm")
    # column j+1 of the permuted matrix is column perm[j]+1 of C
    relabel = {perm[j] + 1: j + 1 for j in range(r)}
    M = realize_from_kernel(RationalMatrix.from_rows(C_rows))
    MP = realize_from_kernel(RationalMatrix.from_rows([[row[p] for p in perm] for row in C_rows]))
    # a nonzero C always yields a circuit (loops when its kernel is zero),
    # so no kernel realization is a free matroid
    assert M.circuits and MP.circuits

    def moved(elements):
        return tuple(sorted(relabel[e] for e in elements))

    assert set(MP.circuits) == {
        SignedCircuit(moved(c.positive), moved(c.negative)) for c in M.circuits
    }
    assert {(frozenset(f.elements), f.rank) for f in all_flats(MP)} == {
        (frozenset(moved(f.elements)), f.rank) for f in all_flats(M)
    }


# --- flags ----------------------------------------------------------------


def test_maximal_flags_running_example(running_N):
    M = realize_from_kernel(running_N)
    flags = maximal_flags(M)
    assert len(flags) == 14
    chains = {tuple(frozenset(f.elements) for f in flag) for flag in flags}
    assert (frozenset({2}), frozenset({1, 2, 3})) in chains
    assert (frozenset({2}), frozenset({2, 4})) in chains
    for flag in flags:
        assert [f.rank for f in flag] == [1, 2]


def test_maximal_flags_free_matroid_two_elements():
    M = OrientedMatroid(2, [])
    flags = maximal_flags(M)
    assert {tuple(frozenset(f.elements) for f in flag) for flag in flags} == {
        (frozenset({1}),),
        (frozenset({2}),),
    }


def test_maximal_flags_rank_one():
    M = realize_from_kernel(RationalMatrix.from_rows([[1, -1]]))
    assert M.rank == 1
    assert maximal_flags(M) == ((),)


# --- structural invariants -------------------------------------------------


def test_negation_closure_and_support_bound(running_N):
    M = realize_from_kernel(running_N)
    circuits = set(M.circuits)
    for c in circuits:
        assert c.negated() in circuits
        assert len(c.support) <= M.rank + 1


def test_circuit_exchange_on_desk_instances(running_N):
    M = realize_from_kernel(running_N)
    supports = [set(s) for s in M.circuit_supports]
    for s1, s2 in combinations(supports, 2):
        common = s1 & s2
        for e in common:
            union = (s1 | s2) - {e}
            assert any(set(s3) <= union for s3 in supports)


def test_escape_hatch_from_circuits():
    M = OrientedMatroid(3, [SignedCircuit((1, 2), (3,))])
    assert SignedCircuit((3,), (1, 2)) in M.circuits


def test_rejects_nested_supports():
    with pytest.raises(MatroidError):
        OrientedMatroid(4, [SignedCircuit((1,), (2,)), SignedCircuit((1, 3), (2,))])


def test_serialization_document(running_N):
    M = realize_from_kernel(running_N)
    doc = M.to_document()
    assert doc["ground_size"] == 5
    assert {tuple(c["positive"]) for c in doc["circuits"]} == {
        tuple(c.positive) for c in M.circuits
    }
    assert doc["flats_by_rank"]["1"] == [[1], [2], [3], [4], [5]]
