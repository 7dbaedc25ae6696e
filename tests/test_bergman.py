import argparse
import io
import json
import random
from fractions import Fraction

import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

import initial_reference
from fan_reference import (
    contains,
    generators,
    reference_full_chains,
    reference_positive_member,
    sample_relative_interior,
)
from tropibound.bergman import (
    _is_positive_flat,
    _positive_flats,
    compare_with_coarse,
    fine_fan,
    is_member,
    is_positive_member,
    positive_chains,
    positive_fan,
)
from tropibound.cli import _positive_bergman, write_json
from tropibound.intersection import _is_interior
from tropibound.matroid import (
    Flat,
    OrientedMatroid,
    SignedCircuit,
    _chain_count,
    _covers,
    _full_chains,
    _mask,
    all_flats,
    maximal_flag_count,
    maximal_flags,
    realize_from_kernel,
)
from tropibound.rational import RationalMatrix
from tropibound.systems import assemble_crn

RAYS = {
    1: (0, 1, 0, 0, 0),
    2: (0, 0, 0, 1, 0),
    3: (0, 0, 0, -1, -1),
    4: (0, -1, -1, 0, 0),
    5: (0, -1, -1, -1, -1),
    6: (0, 0, 0, 0, 1),
    7: (0, 0, 1, 0, 0),
}
COARSE_CONES = {
    1: (1, 2),
    2: (1, 3),
    3: (2, 4),
    4: (3, 5),
    5: (4, 5),
    6: (1, 6),
    7: (4, 6),
    8: (2, 7),
    9: (3, 7),
    10: (6, 7),
}


@pytest.fixture(scope="module")
def M(running_N):
    return realize_from_kernel(running_N)


def cone_sample(k: int):
    i, j = COARSE_CONES[k]
    return tuple(a + b for a, b in zip(RAYS[i], RAYS[j]))


def test_all_rays_are_members(M):
    for ray in RAYS.values():
        assert is_member(ray, M)


def test_all_coarse_cone_samples_are_members(M):
    for k in COARSE_CONES:
        assert is_member(cone_sample(k), M)


def test_positive_verdicts_split_the_coarse_cones(M):
    for k in range(1, 6):
        assert is_positive_member(cone_sample(k), M)
    for k in range(6, 11):
        assert not is_positive_member(cone_sample(k), M)


def test_membership_counterexample(M):
    # unique argmin on the support {1,2,3}
    assert not is_member((0, -1, 0, 0, 0), M)


def test_positive_golden_weight(M):
    assert is_positive_member((0, 2, 0, 2, 0), M)


def test_positive_fails_off_the_positive_part(M):
    assert not is_positive_member((0, 1, 0, 0, 1), M)


def test_constant_weights_always_member():
    M2 = OrientedMatroid(4, [SignedCircuit((1, 2), (3, 4))])
    for c in (-3, 0, 5):
        assert is_member((c,) * 4, M2)
        assert is_positive_member((c,) * 4, M2)


def test_one_signed_circuit_never_positive():
    M2 = realize_from_kernel(RationalMatrix.from_rows([[1, 1]]))
    assert set(M2.circuits) == {SignedCircuit((1, 2), ()), SignedCircuit((), (1, 2))}
    rng = random.Random(0)
    for _ in range(50):
        w = (rng.randint(-5, 5), rng.randint(-5, 5))
        assert not is_positive_member(w, M2)


def test_membership_rejects_floats(M):
    with pytest.raises(TypeError):
        is_member((0.5, 0, 0, 0, 0), M)
    with pytest.raises(ValueError, match="weight vector length mismatch"):
        is_member((0, 0, 0, 0), M)


# --- fine fan -------------------------------------------------------------


def test_fine_fan_has_fourteen_cones(M):
    assert len(fine_fan(M)) == 14


def test_rays_lie_in_fine_fan_support(M):
    cones = fine_fan(M)
    for ray in RAYS.values():
        assert any(contains(c, 5, ray) for c in cones)


def test_sample_relative_interior_examples(M):
    f1 = Flat((2,), 1)
    f2 = Flat((1, 2, 3), 2)
    assert sample_relative_interior((f1, f2), 5) == (1, 2, 1, 0, 0)
    assert sample_relative_interior((Flat((4,), 1),), 5) == (0, 0, 0, 1, 0)


def test_samples_are_members(M):
    for cone in fine_fan(M):
        assert is_member(sample_relative_interior(cone, 5), M)


def test_free_matroid_fan_covers_everything():
    M2 = OrientedMatroid(3, [])
    cones = fine_fan(M2)
    rng = random.Random(1)
    for _ in range(50):
        w = tuple(rng.randint(-4, 4) for _ in range(3))
        assert is_member(w, M2)
        assert any(contains(c, 3, w) for c in cones)


def test_fine_fan_soundness_random_combinations(M):
    rng = random.Random(2)
    for cone in fine_fan(M):
        for _ in range(30):
            gens = generators(cone, 5)
            lams = [Fraction(rng.randint(0, 6), rng.randint(1, 3)) for _ in gens]
            mu = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
            w = [mu] * 5
            for lam, gen in zip(lams, gens):
                w = [a + lam * g for a, g in zip(w, gen)]
            assert is_member(w, M)


def test_fine_fan_completeness_sampled(running_N):
    # exact two-sided check: random w is a member iff some fine cone holds it
    M = realize_from_kernel(running_N)
    cones = fine_fan(M)
    rng = random.Random(3)
    hits = 0
    for _ in range(1000):
        w = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 2)) for _ in range(5))
        member = is_member(w, M)
        in_cone = any(contains(c, 5, w) for c in cones)
        assert member == in_cone
        hits += member
    assert hits  # the sampling really exercised the fan


def test_cone_contains_strict_flags_boundary():
    f1 = Flat((2,), 1)
    f2 = Flat((2, 4), 2)
    assert contains((f1, f2), 5, (0, 2, 0, 2, 0))
    assert not contains((f1, f2), 5, (0, 2, 0, 2, 0), strict=True)
    assert contains((f1, f2), 5, (0, 3, 0, 2, 0), strict=True)


# --- positive fan ----------------------------------------------------------


def test_positive_fan_running_example(M):
    cones = positive_fan(M)
    assert len(cones) == 6
    chains = {tuple(frozenset(f.elements) for f in c) for c in cones}
    assert chains == {
        (frozenset({1}), frozenset({1, 2, 3})),
        (frozenset({1}), frozenset({1, 4, 5})),
        (frozenset({2}), frozenset({1, 2, 3})),
        (frozenset({2}), frozenset({2, 4})),
        (frozenset({4}), frozenset({1, 4, 5})),
        (frozenset({4}), frozenset({2, 4})),
    }


def test_positive_fan_support_matches_coarse_verdicts(M):
    cones = positive_fan(M)
    for k in range(1, 6):
        assert any(contains(c, 5, cone_sample(k)) for c in cones)
    for k in range(6, 11):
        assert not any(contains(c, 5, cone_sample(k)) for c in cones)


def positive_fan_document(OM):
    """The CLI's positive_fan document of OM, written and read back: its
    iterator hands over the text of the cones array, not the cones."""
    doc, _, _ = _positive_bergman(OM, argparse.Namespace(coarse_compare=None))
    stream = io.StringIO()
    write_json(doc, stream)
    return json.loads(stream.getvalue())


def test_positive_fan_empty_for_one_signed_circuit():
    M2 = realize_from_kernel(RationalMatrix.from_rows([[1, 1]]))
    assert positive_fan(M2) == ()
    doc = positive_fan_document(M2)
    assert doc["cones"] == [] and not doc["free_matroid"]


def test_positive_fan_free_matroid_flag():
    # no CLI input realizes a free matroid, so the handler gets one directly
    doc = positive_fan_document(OrientedMatroid(3, []))
    assert doc["kind"] == "positive_fan" and doc["free_matroid"]
    # every maximal chain of the free matroid on 3 elements is positive
    assert doc["ground_size"] == 3 and len(doc["cones"]) == 6


def test_positive_fan_two_sided_random_oracle():
    rng = random.Random(9)
    C = RationalMatrix.from_rows([[rng.randint(-3, 3) for _ in range(5)] for _ in range(2)])
    M2 = realize_from_kernel(C)
    chains = positive_chains(M2)
    for _ in range(1000):
        w = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 2)) for _ in range(5))
        assert is_positive_member(w, M2) == any(contains(c, 5, w) for c in chains)


def test_positive_chains_cover_positive_fan_cones(M):
    chains = {tuple(frozenset(f.elements) for f in chain) for chain in positive_chains(M)}
    for cone in positive_fan(M):
        assert tuple(frozenset(f.elements) for f in cone) in chains


def reference_positive_chains(OM):
    """Brute force: every chain of proper flats, in depth-first order, whose
    relative-interior sample is a positive member and that no positive
    flat extends upward."""
    proper = [f for f in all_flats(OM) if 0 < f.rank < OM.rank]

    def positive(chain):
        return is_positive_member(sample_relative_interior(chain, OM.ground_size), OM)

    out = []

    def walk(chain):
        below = frozenset(chain[-1].elements) if chain else frozenset()
        above = [f for f in proper if below < frozenset(f.elements)]
        if positive(chain) and not any(positive(chain + [f]) for f in above):
            out.append(tuple(chain))
        for f in above:
            walk(chain + [f])

    walk([])
    return out


def check_positive_flats_against_samples(OM):
    assert positive_chains(OM) == reference_positive_chains(OM)
    assert maximal_flag_count(OM) == len(maximal_flags(OM))
    assert positive_fan(OM) == tuple(
        cone
        for cone in fine_fan(OM)
        if is_positive_member(sample_relative_interior(cone, OM.ground_size), OM)
    )


@pytest.mark.parametrize(
    "OM",
    [
        OrientedMatroid(4, [SignedCircuit((1, 2, 3), ())]),
        OrientedMatroid(5, [SignedCircuit((1, 2), (3,)), SignedCircuit((4, 5), ())]),
        OrientedMatroid(4, []),
        OrientedMatroid(6, [SignedCircuit((1, 2, 3), (4, 5, 6))]),
        OrientedMatroid(6, [SignedCircuit((2,), (1, 3, 4, 5, 6))]),
    ],
    ids=["one-signed", "one-signed-beside-mixed", "free", "mixed-3-3", "mixed-1-5"],
)
def test_positive_chains_match_sample_reference(OM):
    check_positive_flats_against_samples(OM)


@st.composite
def c_rows(draw):
    """The rows of a C with r = 1..6 columns: 1..r rows of entries in
    -2..2, not all zero.  A random rowspan(C) often holds a nonnegative
    vector, a one-signed circuit that leaves no positive flat, so for r > 1
    half the draws take each row as the cyclic differences y_i - y_(i+1)
    of a y in {-1, 0, 1}^r: every row sums to 0, so (1, ..., 1) lies in
    ker(C) and no circuit is one-signed."""
    r = draw(st.integers(1, 6))
    row = st.lists(st.integers(-2, 2), min_size=r, max_size=r)
    if r > 1 and draw(st.booleans()):
        y = st.lists(st.integers(-1, 1), min_size=r, max_size=r)
        row = y.map(lambda y: [a - b for a, b in zip(y, y[1:] + y[:1])])
    return draw(st.lists(row, min_size=1, max_size=r).filter(lambda rows: any(map(any, rows))))


C_ROWS = c_rows()


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(C_ROWS)
def test_positive_chains_match_sample_reference_random(C_rows):
    check_positive_flats_against_samples(realize_from_kernel(RationalMatrix.from_rows(C_rows)))


def check_chains_strictly_increase(OM):
    """Every chain strictly increases; the maximal flags and the positive
    fan's chains have ranks 1, ..., rank - 1, and ``positive_chains``
    holds only proper nonempty flats."""
    full = (*maximal_flags(OM), *positive_fan(OM))
    for chain in (*full, *positive_chains(OM)):
        sets = [frozenset(f.elements) for f in chain]
        assert all(a < b for a, b in zip(sets, sets[1:])), chain
        assert all(0 < f.rank < OM.rank for f in chain), chain
    for chain in full:
        assert [f.rank for f in chain] == list(range(1, OM.rank)), chain


def test_chains_strictly_increase(running_N, hhk_model):
    loops = OrientedMatroid(2, [SignedCircuit((1,), ()), SignedCircuit((2,), ())])
    rank_one = realize_from_kernel(RationalMatrix.from_rows([[1, -1]]))
    assert (loops.rank, rank_one.rank) == (0, 1)
    for OM in (
        realize_from_kernel(running_N),
        realize_from_kernel(assemble_crn(hhk_model).C),
        OrientedMatroid(4, []),
        loops,
        rank_one,
    ):
        check_chains_strictly_increase(OM)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(C_ROWS, st.data())
def test_initial_form_membership_matches_circuits_random(C_rows, data):
    # the circuit rule against the initial forms of rowspan(C), which read
    # no circuits.  Where C has a positive chain, a w from the closed cone
    # of one, shifted along (1, ..., 1), is checked with that w with one
    # entry nudged by 1, so that about half of all points are members;
    # elsewhere one w is drawn from {-1, 0, 1}^r
    r = len(C_rows[0])
    OM = realize_from_kernel(RationalMatrix.from_rows(C_rows))
    chains = positive_chains(OM)
    if chains:
        chain = data.draw(st.sampled_from(chains), label="chain")
        w = [data.draw(st.integers(-2, 2), label="shift")] * r
        for f in chain:
            weight = data.draw(st.integers(0, 3), label="weight")
            for e in f.elements:
                w[e - 1] += weight
        nudged = list(w)
        nudged[data.draw(st.integers(0, r - 1), label="at")] += data.draw(
            st.sampled_from([-1, 1]), label="by"
        )
        points = [w, nudged]
    else:
        points = [data.draw(st.lists(st.integers(-1, 1), min_size=r, max_size=r), label="w")]
    for w in points:
        assert initial_reference.is_positive_member(C_rows, w) == is_positive_member(w, OM), w


@st.composite
def balanced_c_rows(draw):
    """The rows of a C with r = 3..8 columns: 1..r - 1 rows, each the
    cyclic differences y_i - y_(i+1) of a y in {-1, 0, 1}^r, not all
    zero.  (1, ..., 1) lies in ker(C), so no circuit is one-signed; rows
    may repeat or depend, and columns may be zero or parallel."""
    r = draw(st.integers(3, 8))
    y = st.lists(st.integers(-1, 1), min_size=r, max_size=r)
    row = y.map(lambda y: [a - b for a, b in zip(y, y[1:] + y[:1])])
    return draw(st.lists(row, min_size=1, max_size=r - 1).filter(lambda rows: any(map(any, rows))))


@settings(max_examples=250, deadline=None, derandomize=True, database=None)
@given(balanced_c_rows(), st.data())
def test_chain_cones_match_initial_forms_random(C_rows, data):
    # the flag description of _is_positive_flat against the initial forms
    # of rowspan(C), which read no circuits.  Three random chains of proper
    # nonempty flats per C, positive or not: each is the flats of a
    # maximal chain that get a positive weight, sampled in its cone's
    # relative interior and shifted along (1, ..., 1).  The sample is a
    # member iff the empty flat and every flat of the chain are positive.
    # Where _is_interior holds at a member, the initial matroid has
    # rank(M) components.  The converse fails at ROADMAP item 3's kind of
    # point, where a non-minimal initial form merges two components; such
    # points are counted as an event, not asserted away.
    r = len(C_rows[0])
    OM = realize_from_kernel(RationalMatrix.from_rows(C_rows))
    proper = [f for f in all_flats(OM) if 0 < f.rank < OM.rank]
    signs = OM.sign_masks
    for _ in range(3):
        flag = []
        while above := [f for f in proper if not flag or set(flag[-1].elements) < set(f.elements)]:
            flag.append(data.draw(st.sampled_from(above), label="flat"))
        weights = [data.draw(st.integers(0, 3), label="weight") for _ in flag]
        chain = [f for f, weight in zip(flag, weights) if weight]
        w = [data.draw(st.integers(-2, 2), label="shift")] * r
        for f, weight in zip(flag, weights):
            for e in f.elements:
                w[e - 1] += weight
        positive = _is_positive_flat(0, signs) and all(
            _is_positive_flat(_mask(f.elements), signs) for f in chain
        )
        assert initial_reference.is_positive_member(C_rows, w) == positive, (chain, w)
        if not positive:
            continue
        full = initial_reference.component_count(C_rows, w) == OM.rank
        if _is_interior(w, OM):
            assert full, (chain, w)
        elif full:
            event("rank(M) initial components where _is_interior is false (ROADMAP item 3)")


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(C_ROWS)
def test_chains_strictly_increase_random(C_rows):
    check_chains_strictly_increase(realize_from_kernel(RationalMatrix.from_rows(C_rows)))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_positive_flats_are_graded_random(data):
    # the positive flats form a graded poset: with the empty flat and E
    # among them, two of them two or more ranks apart have a third strictly
    # between them, so each chain of positive flats refines to one that
    # steps through covers.  C has zero columns, parallel columns (up to
    # sign) and repeated rows.  A random rowspan(C) often holds a
    # nonnegative vector, a one-signed circuit that leaves no positive
    # flat; rows summing to 0 put (1, ..., 1) in ker(C) and rule that out
    r = data.draw(st.integers(1, 8), label="r")
    m = data.draw(st.integers(1, r), label="m")
    if data.draw(st.booleans(), label="balanced"):
        pairs = st.lists(st.tuples(st.integers(0, r - 1), st.integers(0, r - 1)), max_size=3 * r)
        rows = []
        for _ in range(m):
            row = [0] * r
            for i, j in data.draw(pairs, label="moves"):
                if row[i] < 3 and row[j] > -3:
                    row[i], row[j] = row[i] + 1, row[j] - 1
            rows.append(row)
    else:
        columns = []
        for _ in range(r):
            kind = data.draw(st.sampled_from(("fresh",) * 6 + ("parallel", "zero")), label="kind")
            if kind == "parallel" and columns:
                sign = data.draw(st.sampled_from((1, -1)), label="sign")
                columns.append([sign * x for x in data.draw(st.sampled_from(columns))])
            elif kind == "zero":
                columns.append([0] * m)
            else:
                columns.append(data.draw(st.lists(st.integers(-3, 3), min_size=m, max_size=m)))
        rows = [list(row) for row in zip(*columns)]
    if data.draw(st.booleans(), label="repeat"):
        rows.append([-x for x in data.draw(st.sampled_from(rows))])
    assume(any(map(any, rows)))
    OM = realize_from_kernel(RationalMatrix.from_rows(rows))
    flats = _positive_flats(OM)
    if flats:
        sets = {frozenset(f.elements) for f in flats}
        assert frozenset() in sets and frozenset(range(1, r + 1)) in sets
    for F in flats:
        for G in flats:
            if set(F.elements) < set(G.elements) and G.rank - F.rank >= 2:
                assert any(
                    set(F.elements) < set(H.elements) < set(G.elements) for H in flats
                ), (rows, F, G)


def check_cover_walk(OM, keep):
    """The cover walk lists the scanning reference's chains, in order,
    and ``_chain_count`` counts them: over all flats, over the positive
    ones, and over the flats that ``keep`` selects besides the rank-0
    one; no chain at all when no rank-0 flat is given.  The maximal flags
    are the chains over all flats whose relative-interior sample lies in
    the fan: all of them, or none when a loop makes the rank-0 flat
    nonempty."""
    flats = all_flats(OM)
    for given in (flats, _positive_flats(OM), [f for f in flats if f.rank == 0 or keep(f)]):
        expected = reference_full_chains(given, OM.rank) if given else []
        assert _full_chains(given, OM.rank) == expected
        assert _chain_count(_covers(given, OM.rank)) == len(expected)
    r = OM.ground_size
    chains = reference_full_chains(flats, OM.rank)
    fine = [c for c in chains if is_member(sample_relative_interior(c, r), OM)]
    assert len(fine) in (0, len(chains)) and (not fine) == bool(flats[0].elements)
    assert list(maximal_flags(OM)) == fine and maximal_flag_count(OM) == len(fine)
    assert _chain_count(_covers(_positive_flats(OM), OM.rank)) == len(positive_fan(OM))


@pytest.mark.parametrize(
    "OM",
    [
        OrientedMatroid(4, []),
        OrientedMatroid(2, [SignedCircuit((1,), ()), SignedCircuit((2,), ())]),
        realize_from_kernel(RationalMatrix.from_rows([[1, -1]])),
        realize_from_kernel(RationalMatrix.from_rows([[1, 1]])),
        OrientedMatroid(4, [SignedCircuit((1, 2, 3), ())]),
        OrientedMatroid(5, [SignedCircuit((1, 2), (3,)), SignedCircuit((4, 5), ())]),
    ],
    ids=["free", "loops", "rank-1", "rank-1-one-signed", "one-signed", "one-signed-beside-mixed"],
)
def test_cover_walk_matches_scanning_reference(OM):
    check_cover_walk(OM, lambda f: f.rank != 1 or 1 not in f.elements)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_cover_walk_matches_scanning_reference_random(data):
    C_rows = data.draw(C_ROWS, label="C")
    OM = realize_from_kernel(RationalMatrix.from_rows(C_rows))
    kept = data.draw(st.sets(st.sampled_from(all_flats(OM))), label="kept")
    check_cover_walk(OM, kept.__contains__)


def test_hhk_covers_and_cone_counts(hhk_model):
    OM = realize_from_kernel(assemble_crn(hhk_model).C)
    levels = _covers(all_flats(OM), OM.rank)
    edges = [sum(len(above) for _, above in level) for level in levels]
    # from the empty flat, between ranks 1..6, and none above the top
    assert edges == [10, 84, 284, 492, 436, 165, 0]
    assert sum(edges[1:]) == 1461
    assert maximal_flag_count(OM) == len(maximal_flags(OM)) == 29484
    assert _chain_count(_covers(_positive_flats(OM), OM.rank)) == len(positive_fan(OM)) == 8064


# --- invariance properties ---------------------------------------------------


def test_lineality_and_scaling_invariance(M):
    rng = random.Random(21)
    for _ in range(200):
        w = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(5))
        c = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        lam = Fraction(rng.randint(1, 7), rng.randint(1, 3))
        shifted = tuple(x + c for x in w)
        scaled = tuple(lam * x for x in w)
        assert is_member(w, M) == is_member(shifted, M) == is_member(scaled, M)
        assert (
            is_positive_member(w, M)
            == is_positive_member(shifted, M)
            == is_positive_member(scaled, M)
        )


def test_positive_implies_member(M):
    rng = random.Random(22)
    for _ in range(300):
        w = tuple(rng.randint(-4, 4) for _ in range(5))
        if is_positive_member(w, M):
            assert is_member(w, M)


def test_negation_pair_invariance(running_N):
    M = realize_from_kernel(running_N)
    flipped = OrientedMatroid(M.ground_size, [c.negated() for c in M.circuits])
    rng = random.Random(23)
    for _ in range(200):
        w = tuple(rng.randint(-4, 4) for _ in range(5))
        assert is_member(w, M) == is_member(w, flipped)
        assert is_positive_member(w, M) == is_positive_member(w, flipped)


# ties between int and Fraction values of one level included
WEIGHTS = st.sampled_from([-1, 0, 1, 2, Fraction(1, 2), Fraction(-3, 2), Fraction(2), Fraction(0)])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_positive_member_matches_both_orientation_reference(data):
    # level masks, one orientation per circuit, against the minimum over
    # each circuit's support in both orientations; on arbitrary weights
    # and on points of positive cones, where every circuit is read
    r = data.draw(st.integers(2, 7), label="r")
    k = data.draw(st.integers(1, r - 1), label="k")
    entry = st.integers(-2, 2)
    rows = data.draw(
        st.lists(st.lists(entry, min_size=r, max_size=r), min_size=k, max_size=k), label="C"
    )
    C = RationalMatrix.from_rows(rows)
    if C.is_zero():
        return
    OM = realize_from_kernel(C)
    w = data.draw(st.lists(WEIGHTS, min_size=r, max_size=r), label="w")
    assert is_positive_member(w, OM) == reference_positive_member(w, OM)
    cones = positive_fan(OM)
    if cones:
        chain = data.draw(st.sampled_from(cones), label="cone")
        shift = data.draw(WEIGHTS, label="shift")
        face = [shift] * r
        for f in chain:
            c = data.draw(st.sampled_from([0, 1, Fraction(1, 3)]), label="coefficient")
            for e in f.elements:
                face[e - 1] += c
        assert is_positive_member(face, OM) and reference_positive_member(face, OM)
    for check in (is_positive_member, reference_positive_member):
        with pytest.raises(TypeError):
            check([*w[:-1], 0.5], OM)
        with pytest.raises(ValueError):
            check(w[:-1], OM)
        with pytest.raises(ValueError):
            check([*w, 0], OM)


def test_compare_with_coarse_document(M):
    report = compare_with_coarse(
        M, [RAYS[i] for i in range(1, 8)], [list(COARSE_CONES[k]) for k in range(1, 11)]
    )
    assert all(r["member"] for r in report["rays"])
    verdicts = [c["positive_member"] for c in report["cones"]]
    assert verdicts == [True] * 5 + [False] * 5
