import argparse
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropibound.bergman import (
    FlagCone,
    compare_with_coarse,
    fine_fan,
    is_member,
    is_positive_member,
    positive_chains,
    positive_fan,
    sample_relative_interior,
)
from tropibound.cli import _positive_bergman
from tropibound.matroid import (
    Flat,
    FlagOfFlats,
    OrientedMatroid,
    SignedCircuit,
    all_flats,
    maximal_flag_count,
    maximal_flags,
    realize_from_kernel,
)
from tropibound.rational import RationalMatrix

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


# --- fine fan -------------------------------------------------------------


def test_fine_fan_has_fourteen_cones(M):
    assert len(fine_fan(M)) == 14


def test_rays_lie_in_fine_fan_support(M):
    cones = fine_fan(M)
    for ray in RAYS.values():
        assert any(c.contains(ray) for c in cones)


def test_sample_relative_interior_examples(M):
    f1 = Flat((2,), 1)
    f2 = Flat((1, 2, 3), 2)
    cone = FlagCone(FlagOfFlats((f1, f2)), 5)
    assert sample_relative_interior(cone) == (1, 2, 1, 0, 0)
    single = FlagCone(FlagOfFlats((Flat((4,), 1),)), 5)
    assert sample_relative_interior(single) == (0, 0, 0, 1, 0)


def test_samples_are_members(M):
    for cone in fine_fan(M):
        assert is_member(sample_relative_interior(cone), M)


def test_free_matroid_fan_covers_everything():
    M2 = OrientedMatroid(3, [])
    cones = fine_fan(M2)
    rng = random.Random(1)
    for _ in range(50):
        w = tuple(rng.randint(-4, 4) for _ in range(3))
        assert is_member(w, M2)
        assert any(c.contains(w) for c in cones)


def test_fine_fan_soundness_random_combinations(M):
    rng = random.Random(2)
    for cone in fine_fan(M):
        for _ in range(30):
            lams = [Fraction(rng.randint(0, 6), rng.randint(1, 3)) for _ in cone.generators]
            mu = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
            w = [mu] * 5
            for lam, gen in zip(lams, cone.generators):
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
        in_cone = any(c.contains(w) for c in cones)
        assert member == in_cone
        hits += member
    assert hits  # the sampling really exercised the fan


def test_cone_contains_strict_flags_boundary():
    f1 = Flat((2,), 1)
    f2 = Flat((2, 4), 2)
    cone = FlagCone(FlagOfFlats((f1, f2)), 5)
    assert cone.contains((0, 2, 0, 2, 0))
    assert not cone.contains((0, 2, 0, 2, 0), strict=True)
    assert cone.contains((0, 3, 0, 2, 0), strict=True)


# --- positive fan ----------------------------------------------------------


def test_positive_fan_running_example(M):
    cones = positive_fan(M)
    assert len(cones) == 6
    chains = {tuple(f.as_set for f in c.flag.chain) for c in cones}
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
        assert any(c.contains(cone_sample(k)) for c in cones)
    for k in range(6, 11):
        assert not any(c.contains(cone_sample(k)) for c in cones)


def positive_fan_document(OM):
    """The CLI's positive_fan document of OM, its cones materialised."""
    doc, _, _ = _positive_bergman(OM, argparse.Namespace(coarse_compare=None))
    return {**doc, "cones": list(doc["cones"])}


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
    cones = [FlagCone(fl, 5) for fl in chains]
    for _ in range(1000):
        w = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 2)) for _ in range(5))
        assert is_positive_member(w, M2) == any(c.contains(w) for c in cones)


def test_positive_chains_cover_positive_fan_cones(M):
    chains = {tuple(f.as_set for f in fl.chain) for fl in positive_chains(M)}
    for cone in positive_fan(M):
        assert tuple(f.as_set for f in cone.flag.chain) in chains


def reference_positive_chains(OM):
    """Brute force: every chain of proper flats, in depth-first order, whose
    relative-interior sample is a positive member and that no positive
    flat extends upward."""
    proper = [f for f in all_flats(OM) if 0 < f.rank < OM.rank]

    def positive(chain):
        cone = FlagCone(FlagOfFlats(tuple(chain)), OM.ground_size)
        return is_positive_member(sample_relative_interior(cone), OM)

    out = []

    def walk(chain):
        above = [f for f in proper if not chain or chain[-1].as_set < f.as_set]
        if positive(chain) and not any(positive(chain + [f]) for f in above):
            out.append(FlagOfFlats(tuple(chain)))
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
        if is_positive_member(sample_relative_interior(cone), OM)
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


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_positive_chains_match_sample_reference_random(data):
    r = data.draw(st.integers(1, 6), label="r")
    C_rows = data.draw(
        st.lists(
            st.lists(st.integers(-2, 2), min_size=r, max_size=r), min_size=1, max_size=r
        ).filter(lambda rows: any(any(row) for row in rows)),
        label="C",
    )
    check_positive_flats_against_samples(realize_from_kernel(RationalMatrix.from_rows(C_rows)))


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


def test_compare_with_coarse_document(M):
    report = compare_with_coarse(
        M, [RAYS[i] for i in range(1, 8)], [list(COARSE_CONES[k]) for k in range(1, 11)]
    )
    assert all(r["member"] for r in report["rays"])
    verdicts = [c["positive_member"] for c in report["cones"]]
    assert verdicts == [True] * 5 + [False] * 5
