"""Acceptance suite: one test per shipped criterion, each printing a
single PASS/FAIL line (run with -s to see them inline).

Every expected value below is exact; the only tolerance-bearing criterion
is the final empirical witness count, which the output labels heuristic.
"""

import math
import random
import time
from fractions import Fraction

from fan_reference import contains, generators
from matroid_reference import initial_circuit
from tropibound.bergman import fine_fan, is_member, is_positive_member, positive_chains
from tropibound.intersection import (
    intersect_via_fan,
    intersect_via_vertices,
    lower_bound,
)
from tropibound.matroid import SignedCircuit, realize_from_kernel
from tropibound.numeric import count_roots, instantiate
from tropibound.rational import RationalMatrix, rank, vector
from tropibound.subdivision import decorated_count, decorated_to_tropical, full_cells
from tropibound.systems import VerticalSystem, assemble_crn, bound

H_RUN = [0, 0, 0, 0, -1]

RAYS = {
    1: (0, 1, 0, 0, 0),
    2: (0, 0, 0, 1, 0),
    3: (0, 0, 0, -1, -1),
    4: (0, -1, -1, 0, 0),
    5: (0, -1, -1, -1, -1),
    6: (0, 0, 0, 0, 1),
    7: (0, 0, 1, 0, 0),
}
COARSE = [(1, 2), (1, 3), (2, 4), (3, 5), (4, 5), (1, 6), (4, 6), (2, 7), (3, 7), (6, 7)]


def report(number: int, ok: bool, detail: str):
    verdict = "PASS" if ok else "FAIL"
    print(f"CRITERION {number}: {verdict} - {detail}")
    assert ok, detail


def test_criterion_1_circuits_golden(running_N):
    start = time.perf_counter()
    M = realize_from_kernel(running_N)
    elapsed = time.perf_counter() - start
    expected = {
        SignedCircuit((3,), (1, 2)),
        SignedCircuit((5,), (1, 4)),
        SignedCircuit((2, 5), (3, 4)),
        SignedCircuit((1, 2), (3,)),
        SignedCircuit((1, 4), (5,)),
        SignedCircuit((3, 4), (2, 5)),
    }
    ok = set(M.circuits) == expected and elapsed < 1.0
    report(1, ok, f"six signed circuits recovered exactly in {elapsed:.3f}s")


def test_criterion_2_initial_circuits_golden(running_N):
    M = realize_from_kernel(running_N)
    got = {initial_circuit((0, 2, 0, 2, 0), c) for c in M.circuits}
    half = {
        SignedCircuit((3,), (1,)),
        SignedCircuit((5,), (1,)),
        SignedCircuit((5,), (3,)),
    }
    expected = half | {c.negated() for c in half}
    report(2, got == expected, "initial circuits at w=(0,2,0,2,0) match the six pairs")


def test_criterion_3_bergman_support(running_N):
    start = time.perf_counter()
    M = realize_from_kernel(running_N)
    rays_ok = all(is_member(ray, M) for ray in RAYS.values())
    samples = [
        tuple(a + b for a, b in zip(RAYS[i], RAYS[j])) for i, j in COARSE
    ]
    members_ok = all(is_member(s, M) for s in samples)
    positives = [is_positive_member(s, M) for s in samples]
    split_ok = positives == [True] * 5 + [False] * 5
    elapsed = time.perf_counter() - start
    ok = rays_ok and members_ok and split_ok and elapsed < 1.0
    report(
        3,
        ok,
        f"7 rays and 10 cone samples verified; positives are exactly the"
        f" first five cones ({elapsed:.3f}s)",
    )


def test_criterion_4_intersection_golden(running_N, running_A):
    start = time.perf_counter()
    rep = lower_bound(VerticalSystem(running_N, running_A, H_RUN))
    elapsed = time.perf_counter() - start
    ws = {p.w for p in rep.points}
    ok = (
        rep.count == 2
        and rep.transverse
        and ws == {vector([0, 2, 0, 2, 1]), vector([0, -1, -1, -2, -1])}
        and all(p.isolated and p.interior for p in rep.points)
        and elapsed < 5.0
    )
    report(4, ok, f"two exact intersection points, isolated and interior ({elapsed:.3f}s)")


def test_criterion_5_subdivision_golden(running_N, running_A):
    cells = full_cells(running_A, H_RUN)
    members = [c.members for c in cells]
    cells_ok = members == [(1, 2, 5), (1, 3, 5), (2, 4, 5), (3, 4, 5)]
    witness_ok = {c.members: c for c in cells}[(1, 3, 5)].witness == vector([1, 0])
    count, simplices = decorated_count(running_N, running_A, H_RUN)
    matroid = realize_from_kernel(running_N)
    kernel_ok = count == 1 and simplices[0].kernel_vector == vector([1, 1, 2])
    image = decorated_to_tropical(simplices[0], running_A, H_RUN, matroid=matroid)
    image_ok = image == vector([0, 2, 0, 2, 1])
    tropical = lower_bound(VerticalSystem(running_N, running_A, H_RUN))
    strict_ok = count < tropical.count
    ok = cells_ok and witness_ok and kernel_ok and image_ok and strict_ok
    report(
        5,
        ok,
        "four cells, witness (1,0), one decorated simplex with kernel (1,1,2),"
        " image (0,2,0,2,1), strictly below the tropical count",
    )


def test_criterion_6_crn_golden(hhk_model):
    start = time.perf_counter()
    system = assemble_crn(hhk_model)
    rep = bound(system)
    elapsed = time.perf_counter() - start
    ok = (
        rep.tropical.count == 3
        and rep.tropical.transverse
        and rep.certified_bound == 3
        and elapsed < 60.0
    )
    report(6, ok, f"reaction network bound 3, transverse ({elapsed:.1f}s)")


def test_criterion_7_oracle_equivalence(running_N, running_A, hhk_model):
    mismatches = 0
    # shipped instances
    fan = lower_bound(VerticalSystem(running_N, running_A, H_RUN))
    M = realize_from_kernel(running_N)
    vx = intersect_via_vertices(M, running_A, H_RUN)
    mismatches += {p.v for p in fan.points} != vx

    crn = assemble_crn(hhk_model)
    M2 = realize_from_kernel(crn.C)
    fan2 = intersect_via_fan(M2, crn.A, crn.h)
    start = time.perf_counter()
    vx2 = intersect_via_vertices(M2, crn.A, crn.h)
    elapsed = time.perf_counter() - start
    mismatches += {p.v for p in fan2.points} != vx2

    rng = random.Random(20260809)
    ran = 0
    while ran < 200:
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
        MM = realize_from_kernel(C)
        s1 = {p.v for p in intersect_via_fan(MM, A, h).points}
        s2 = intersect_via_vertices(MM, A, h)
        mismatches += s1 != s2
        ran += 1
    report(
        7,
        mismatches == 0,
        f"fan walk and vertex oracle agree on both shipped instances and {ran}"
        f" random ones (hhk oracle {1000 * elapsed:.0f} ms)",
    )


def test_criterion_8_property_suites(running_N, running_A, hhk_model):
    failures = []

    # lineality and scaling invariance, 1000 random weights per instance
    instances = [realize_from_kernel(running_N), realize_from_kernel(assemble_crn(hhk_model).C)]
    rng = random.Random(88)
    for M in instances:
        r = M.ground_size
        for _ in range(1000):
            w = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(r))
            c = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            lam = Fraction(rng.randint(1, 7), rng.randint(1, 3))
            shifted = tuple(x + c for x in w)
            scaled = tuple(lam * x for x in w)
            if not (is_member(w, M) == is_member(shifted, M) == is_member(scaled, M)):
                failures.append("membership invariance")
                break
            if not (
                is_positive_member(w, M)
                == is_positive_member(shifted, M)
                == is_positive_member(scaled, M)
            ):
                failures.append("positive membership invariance")
                break

    # shift covariance of the bound under h -> h + A^T u, 50 random u
    base = lower_bound(VerticalSystem(running_N, running_A, H_RUN))
    base_vs = {p.v for p in base.points}
    At = running_A.transpose()
    for _ in range(50):
        u = vector([Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(2)])
        h2 = [a + b for a, b in zip(vector(H_RUN), At.apply(u))]
        rep = lower_bound(VerticalSystem(running_N, running_A, h2))
        if rep.count != base.count or {
            tuple(a + b for a, b in zip(p.v, u)) for p in rep.points
        } != base_vs:
            failures.append("shift covariance")
            break

    # decorated <= tropical wherever both are computed
    run_report = bound(VerticalSystem(running_N, running_A, tuple(H_RUN)))
    if run_report.decorated is None or run_report.decorated[0] > run_report.tropical.count:
        failures.append("decorated/tropical comparison")

    # fine-fan soundness and completeness sampling
    M = realize_from_kernel(running_N)
    cones = positive_chains(M)
    maximal = fine_fan(M)
    for _ in range(1000):
        w = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 2)) for _ in range(5))
        if is_member(w, M) != any(contains(c, 5, w) for c in maximal):
            failures.append("fine-fan membership sampling")
            break
        if is_positive_member(w, M) != any(contains(c, 5, w) for c in cones):
            failures.append("positive fan sampling")
            break
    for cone in maximal:
        for _ in range(25):
            gens = generators(cone, 5)
            lams = [Fraction(rng.randint(0, 5), rng.randint(1, 2)) for _ in gens]
            mu = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
            w = [mu] * 5
            for lam, gen in zip(lams, gens):
                w = [a + lam * g for a, g in zip(w, gen)]
            if not is_member(w, M):
                failures.append("fine-fan soundness")
                break

    report(8, not failures, "exact property suites, zero tolerance" + (
        "" if not failures else f" ({failures})"
    ))


def test_criterion_9_numeric_witnesses(running_system, hhk_model):
    rep = lower_bound(running_system)
    ws = count_roots(instantiate(running_system, 0.01), rep)
    run_ok = len(ws) >= 2 and all(w.residual <= 1e-9 for w in ws)

    crn = assemble_crn(hhk_model)
    rep2 = lower_bound(crn)
    ws2 = count_roots(instantiate(crn, 0.01), rep2)
    crn_ok = len(ws2) >= 3 and all(w.residual <= 1e-9 for w in ws2)

    def separated(wit):
        logs = [[math.log(v) for v in w.x] for w in wit]
        return all(
            max(abs(a - b) for a, b in zip(logs[i], logs[j])) >= 1e-4
            for i in range(len(logs))
            for j in range(i + 1, len(logs))
        )

    ok = run_ok and crn_ok and separated(ws) and separated(ws2)
    report(
        9,
        ok,
        f"empirical witnesses at t=0.01: {len(ws)} >= 2 and {len(ws2)} >= 3"
        " (heuristic criterion; residuals term-scaled)",
    )
