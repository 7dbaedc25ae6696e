import collections
import dataclasses
import functools
import importlib.util
import itertools
import random
import re
import sys
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import initial_reference
from fan_reference import reference_cone_point, reference_merge, reference_probe_cells
from tropibound.bergman import _is_positive_flat, is_positive_member, positive_chains, positive_fan
from tropibound.intersection import (
    InputValidationError,
    OracleMismatchError,
    _cell_partitions,
    _classes,
    _fan_plan,
    _fine_cells,
    _is_interior,
    _level_flag,
    _product_cells,
    _verdicts,
    intersect_via_fan,
    intersect_via_vertices,
    is_isolated,
    lower_bound,
    tangent_direction,
    validate_inputs,
)
from tropibound.matroid import (
    OrientedMatroid,
    SignedCircuit,
    _elements,
    _flat_levels,
    _mask,
    all_flats,
    realize_from_kernel,
)
from tropibound.rational import (
    RationalMatrix,
    first_independent_rows,
    integer_columns,
    integer_multiple,
    primitive,
    rank,
    solve_affine,
    vector,
)
from tropibound.subdivision import decorated_count, full_cells
from tropibound.systems import SystemError_, VerticalSystem, assemble_crn

H_RUN = [0, 0, 0, 0, -1]
WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
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
    # the fan walk, the isolation test, the oracle and the subdivision read
    # A as integers and refuse a fractional entry instead of scaling or
    # truncating it; A's columns are distinct, so the subdivision's
    # repeated-column refusal cannot fire first
    A = RationalMatrix.from_rows([["1/2", 2, 0, 2, 1], [0, 0, 2, 2, 1]])
    M = realize_from_kernel(running_N)
    with pytest.raises(ValueError, match="integer entries"):
        intersect_via_fan(M, A, H_RUN)
    with pytest.raises(ValueError, match="integer entries"):
        tangent_direction((0, 0), M, A, H_RUN)
    with pytest.raises(ValueError, match="integer entries"):
        intersect_via_vertices(M, A, H_RUN)
    with pytest.raises(ValueError, match="integer entries"):
        full_cells(A, H_RUN)
    with pytest.raises(ValueError, match="integer entries"):
        decorated_count(running_N, A, H_RUN)


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


def test_tie_system_matches_solve_affine():
    # the fan plan eliminates the pivot ties of each partition combination
    # once per pivot set, full rank or not, with h symbolic, and evaluates
    # the result at each H h; for every combination, its plan entry's
    # consistency, its solution x / (d H) and its free directions must be
    # those of solve_affine on the combination's full tie matrix, also
    # when zero, repeated or dependent differences of A's columns make the
    # ties dependent, and when fractional h makes H > 1
    rng = random.Random(1313)
    short = full = consistent = inconsistent = free = scaled = 0
    for _ in range(300):
        r = rng.randint(2, 8)
        n = rng.randint(1, min(5, r))
        at_int = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(r)]
        if rng.random() < 0.3:
            at_int[rng.randrange(r)] = [0] * n
        if rng.random() < 0.3:
            at_int[rng.randrange(r)] = list(at_int[rng.randrange(r)])
        if r > 2 and rng.random() < 0.3:
            at_int[-1] = [2 * b - a for a, b in zip(at_int[0], at_int[1])]
        A = RationalMatrix.from_rows([list(col) for col in zip(*at_int)])
        C = RationalMatrix.from_rows(
            [[rng.randint(-2, 2) for _ in range(r)] for _ in range(rng.randint(1, 2))]
        )
        if C.is_zero() or rank(A) < n:
            continue
        OM = realize_from_kernel(C)
        components, empty = _cell_partitions(OM)
        if empty is not None:
            continue
        combos = list(itertools.product(*(c.partitions for c in components)))
        if len(combos) > 100:
            continue
        plan = _fan_plan(OM, A)
        # each combination's entry: d, h_rows, free directions, and the
        # indices of the check rows that must hold, in the plan's table;
        # pivot sets in order of first appearance
        pivot_sets, underdetermined, entries = {}, iter(plan.underdetermined), []
        for combo in combos:
            pairs, rows = _combination_ties(combo, at_int)
            key = _pivot_ties(pairs, rows, n)
            if key is None:
                system = next(underdetermined)
                entry = (system.d, system.h_rows, system.kernel, system.check)
            else:
                d, h_rows, held = plan.pivoted[pivot_sets.setdefault(key, len(pivot_sets))]
                # each tie's check row is sum_i (A^T_a - A^T_b)_i h_row_i + d (e_a - e_b)
                check = {}
                for (a, b), row in zip(pairs, rows):
                    c = [sum(x * h_row[j] for x, h_row in zip(row, h_rows)) for j in range(r)]
                    c[a], c[b] = c[a] + d, c[b] - d
                    if any(c):
                        check[plan.checks.index(tuple(c))] = None
                assert tuple(check) in held
                entry = (d, h_rows, (), tuple(check))
            entries.append((combo, pairs, rows, entry))
        assert next(underdetermined, None) is None and len(pivot_sets) == len(plan.pivoted)
        for combo, pairs, rows, entry in rng.sample(entries, min(8, len(entries))):
            d, h_rows, kernel, check = entry
            if not pairs:
                continue
            label = {e - 1: k for k, block in enumerate(b for c in combo for b in c) for e in block}
            short += bool(kernel)
            full += not kernel
            M = RationalMatrix.from_rows(rows)
            for _ in range(4):
                den = rng.choice([1, 2, 3, 6])
                if rng.random() < 0.5:
                    # w + h is constant on each block at this h
                    v0 = [Fraction(rng.randint(-5, 5), den) for _ in range(n)]
                    t = [Fraction(rng.randint(-4, 4), den) for _ in range(r)]
                    h = [t[label[e]] - sum(map(mul, at_int[e], v0)) for e in range(r)]
                else:
                    h = [Fraction(rng.randint(-6, 6), den) for _ in range(r)]
                H, h_int = integer_multiple(h)
                scaled += H > 1
                want = solve_affine(M, [h[b] - h[a] for a, b in pairs])
                holds = _verdicts(plan.checks, h_int)
                assert holds(check) == (want is not None), (at_int, pairs, h)
                if want is None:
                    inconsistent += 1
                    continue
                consistent += 1
                v = tuple(Fraction(sum(map(mul, row, h_int)), d * H) for row in h_rows)
                assert M.apply(v) == tuple(h[b] - h[a] for a, b in pairs)
                assert len(kernel) == want[1].rows
                if kernel:
                    free += 1
                    assert not any(x for f in kernel for x in M.apply(f))
                    assert rank(RationalMatrix.from_rows(kernel)) == len(kernel)
                else:
                    assert v == want[0], (at_int, pairs, h)
    assert short > 350 and full > 200 and free > 1300
    assert consistent > 2000 and inconsistent > 300 and scaled > 1800


def test_pivot_sets_match_solve_affine():
    # the fan plan eliminates only the pivot ties of each full-rank
    # partition combination, once per distinct pivot set, and checks the
    # other ties by check rows; at each H h a pivot set's verdict and v must
    # be those of solve_affine on the full tie matrices of its combinations,
    # also when zero, repeated or dependent columns of A make ties
    # dependent, and when fractional h makes H > 1
    rng = random.Random(2727)
    shared = short = consistent = inconsistent = scaled = 0
    for _ in range(60):
        r, n = rng.randint(3, 8), rng.randint(1, 3)
        at_int = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(r)]
        if rng.random() < 0.3:
            at_int[rng.randrange(r)] = [0] * n
        if rng.random() < 0.3:
            at_int[rng.randrange(r)] = list(at_int[rng.randrange(r)])
        if rng.random() < 0.3:
            at_int[-1] = [2 * b - a for a, b in zip(at_int[0], at_int[1])]
        A = RationalMatrix.from_rows([list(col) for col in zip(*at_int)])
        C = RationalMatrix.from_rows(
            [[rng.randint(-2, 2) for _ in range(r)] for _ in range(rng.randint(1, 2))]
        )
        if C.is_zero() or rank(A) < n:
            continue
        OM = realize_from_kernel(C)
        components, empty = _cell_partitions(OM)
        if empty is not None:
            continue
        plan = _fan_plan(OM, A)
        # the combinations of each pivot set, in order of first appearance
        groups = {}
        for combo in itertools.product(*(c.partitions for c in components)):
            pairs, rows = _combination_ties(combo, at_int)
            key = _pivot_ties(pairs, rows, n)
            if key is None:
                short += 1
            else:
                groups.setdefault(key, []).append((pairs, rows))
        assert len(plan.pivoted) == len(groups)
        shared += sum(len(g) > 1 for g in groups.values())
        for (d, h_rows, held), group in zip(plan.pivoted, groups.values()):
            for _ in range(3):
                den = rng.choice([1, 2, 3, 6])
                if rng.random() < 0.5:
                    # w + h is constant on the blocks of one combination
                    pairs, _ = rng.choice(group)
                    label = list(range(r))
                    for a, b in pairs:
                        label[b] = label[a]
                    v0 = [Fraction(rng.randint(-5, 5), den) for _ in range(n)]
                    t = [Fraction(rng.randint(-4, 4), den) for _ in range(r)]
                    h = [t[label[e]] - sum(map(mul, at_int[e], v0)) for e in range(r)]
                else:
                    h = [Fraction(rng.randint(-6, 6), den) for _ in range(r)]
                H, h_int = integer_multiple(h)
                scaled += H > 1
                wants = [
                    solve_affine(RationalMatrix.from_rows(rows), [h[b] - h[a] for a, b in pairs])
                    for pairs, rows in group
                ]
                named = {i for check in held for i in check}
                failed = {i for i in named if sum(map(mul, plan.checks[i], h_int))}
                ok = any(failed.isdisjoint(check) for check in held)
                assert ok == any(want is not None for want in wants), (at_int, group, h)
                if not ok:
                    inconsistent += 1
                    continue
                consistent += 1
                v = tuple(Fraction(sum(map(mul, row, h_int)), d * H) for row in h_rows)
                for want in wants:
                    assert want is None or (want[0] == v and want[1].rows == 0)
    assert shared > 400 and short > 250 and consistent > 2000 and inconsistent > 400
    assert scaled > 2000


def test_fan_plan_eliminates_once_per_pivot_set(monkeypatch):
    # 2,265 partition combinations of the one 3-positive, 5-negative
    # circuit: 2,259 of full rank with 24 distinct pivot ties, and 6 whose
    # ties all vanish, which share the empty pivot set; each combination
    # is eliminated once beside the identity, and a pivot set reads its
    # entry off the first such elimination, with no second one
    import tropibound.intersection
    from tropibound.rational import _echelon

    calls = []
    beside = []

    def counted(rows, ncols):
        rows = list(rows)
        calls.append(ncols)
        identity = [[int(i == j) for j in range(len(rows))] for i in range(len(rows))]
        if [list(row[ncols:]) for row in rows] == identity:
            beside.append(ncols)
        return _echelon(rows, ncols)

    monkeypatch.setattr(tropibound.intersection, "_echelon", counted)
    _fan_plan.cache_clear()
    C = RationalMatrix.from_rows([[1, 2, 1, -1, -3, -1, -2, -1]])
    A = RationalMatrix.from_rows([[0, 1, 3, 2, -1, 1, 2, 0]])
    plan = _fan_plan(realize_from_kernel(C), A)
    _fan_plan.cache_clear()
    assert len(plan.pivoted) == 24 and len(plan.underdetermined) == 6
    # the inputs once (A has 1 row, so 2 columns), then each combination
    # over the columns of its pairs, beside the identity
    assert len(calls) == 1 + 2265 and calls[0] == 2
    assert beside == calls[1:]
    # the underdetermined combinations share the empty pivot set's entry
    assert len({id(system.kernel) for system in plan.underdetermined}) == 1
    assert plan.underdetermined[0].kernel == ((1,),)


@functools.cache
def _scan_cases(hhk_model) -> tuple[tuple, ...]:
    """(OM, A, shifts) for the fan-walk differential tests: the 24 hhk
    draws of the crn_scan benchmark, each scaled by 1, 2 and 3; the
    criterion-7 family with its own h; and one system with a circuit of
    6 elements whose underdetermined ties leave 2 free coordinates.  Each
    underdetermined system of the family, and each with 2 free
    coordinates of the last system, also gets a seeded integer h at
    which w + h is constant on its blocks at some v, so that its ties
    hold there."""
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    # the module's dataclasses look their module up in sys.modules
    sys.modules[spec.name] = workloads
    try:
        spec.loader.exec_module(workloads)
    finally:
        del sys.modules[spec.name]
    vs = assemble_crn(hhk_model)
    hhk = [
        tuple(k * x for x in vector((*h, 0, 0, 0, 0, 0, 0, 0)))
        for h in workloads.crn_base_draws()
        for k in (1, 2, 3)
    ]
    cases = [(realize_from_kernel(vs.C), vs.A, hhk)]
    # (C, A, shifts, the fewest free coordinates of a system to seed)
    systems = [
        (RationalMatrix.from_rows(C), RationalMatrix.from_rows(A), [tuple(vector(h))], 1)
        for C, A, h in workloads.criterion7_family()
    ]
    systems.append(
        (
            RationalMatrix.from_rows([[1, 2, -1, -1, 1, -2]]),
            RationalMatrix.from_rows([[1, 0, 0, 1, 2, 0], [0, 1, 0, 1, 1, 1], [0, 0, 1, 1, -1, 2]]),
            [],
            2,
        )
    )
    rng = random.Random(3301)
    for C, A, shifts, free in systems:
        OM = realize_from_kernel(C)
        at_int = integer_columns(A)
        for system in _fan_plan(OM, A).underdetermined:
            if len(system.kernel) < free:
                continue
            blocks = [block for cells in system.groups for block in cells[0]]
            label = {e - 1: i for i, block in enumerate(blocks) for e in block}
            v0 = [rng.randint(-3, 3) for _ in range(A.rows)]
            t = [rng.randint(-4, 4) for _ in range(A.cols)]
            shifts.append(tuple(t[label[e]] - sum(map(mul, at_int[e], v0)) for e in range(A.cols)))
        cases.append((OM, A, shifts))
    return tuple(cases)


def test_cell_probes_match_v_space_reference(hhk_model):
    # the fan walk probes an underdetermined system's cells in the free
    # coordinates of its ties' solutions, with each ordering facet reduced
    # once; every cell's dimension, and its point v = x / (d H) where that
    # is 0, must be those of the v-space probe it replaced
    seen = set()
    for OM, A, shifts in _scan_cases(hhk_model):
        plan = _fan_plan(OM, A)
        for h in shifts:
            H, h_int = integer_multiple(vector(h))
            for system in plan.underdetermined:
                one = plan._replace(underdetermined=(system,))
                got = [
                    (dim, point and tuple(Fraction(xi, point[1] * H) for xi in point[0]))
                    for _, _, dim, point in _product_cells(
                        one, h_int, _verdicts(plan.checks, h_int)
                    )
                ]
                want = reference_probe_cells(plan.at_int, system.groups, H, h_int)
                if got:
                    assert got == want, (OM, A, h)
                    seen.update((len(system.kernel), dim) for dim, _ in got)
                else:
                    assert {dim for dim, _ in want} == {-1}, (OM, A, h)
    # empty, pinned and positive-dimensional pieces, with 1 and 2 free
    # coordinates
    assert seen >= {(1, -1), (1, 0), (1, 1), (2, -1), (2, 0), (2, 1), (2, 2)}


def test_fan_plan_lists_cells_only_where_ties_hold(monkeypatch, hhk_model):
    # an underdetermined combination's cells are listed the first time a
    # walk finds its ties holding, and kept: system 80 of the criterion-7
    # family (the base of random_family) has 21 such combinations, all
    # failing at its h, and hhk draw 1 has one that holds, over both of
    # hhk's components
    import tropibound.intersection as mod

    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    listed = []

    def counted(above, partition):
        listed.append(partition)
        return _fine_cells(above, partition)

    monkeypatch.setattr(mod, "_fine_cells", counted)
    _fan_plan.cache_clear()
    C_rows, A_rows, h = workloads.criterion7_family()[80]
    OM, A = realize_from_kernel(RationalMatrix.from_rows(C_rows)), RationalMatrix.from_rows(A_rows)
    intersect_via_fan(OM, A, h)
    assert len(_fan_plan(OM, A).underdetermined) == 21 and listed == []
    vs = assemble_crn(dataclasses.replace(hhk_model, h=workloads.crn_base_draws()[1]))
    OM = realize_from_kernel(vs.C)
    counts = []
    for _ in range(2):
        intersect_via_fan(OM, vs.A, vs.h)
        counts.append(len(listed))
    h_int = integer_multiple(vector(vs.h))[1]
    plan = _fan_plan(OM, vs.A)
    holding = [
        system
        for system in plan.underdetermined
        if not any(sum(map(mul, plan.checks[i], h_int)) for i in system.check)
    ]
    _fan_plan.cache_clear()
    assert len(holding) == 1 and counts == [2, 2]
    assert listed == list(holding[0].combo)


class _CountedRows(list):
    """Check rows that record which of them are read."""

    def __init__(self, rows):
        super().__init__(rows)
        self.read = []

    def __getitem__(self, i):
        self.read.append(i)
        return super().__getitem__(i)


def test_lazy_check_rows_match_eager_rule(monkeypatch, hhk_model):
    # one list of verdicts per shift serves every entry of the plan: a
    # pivot set holds iff one of its combinations has no failing check
    # row, an underdetermined system iff none of its own fails, and each
    # row of the plan's table is read at most once per shift, by the
    # walk itself too
    import tropibound.intersection as mod

    rows = _CountedRows([(1, 0), (0, 1), (2, 0)])
    holds = _verdicts(rows, (0, 2))
    # the first combination fails on row 1, and the second reuses row 0's verdict
    assert not holds((0, 1)) and holds((0, 2)) and not holds((1,)) and rows.read == [0, 1, 2]
    accepted = rejected = holding = failing = shared = 0
    for OM, A, shifts in _scan_cases(hhk_model):
        plan = _fan_plan(OM, A)
        # the rows that more than one pivot set or system names
        entries = [{i for c in combos for i in c} for *_, combos in plan.pivoted]
        entries += [set(system.check) for system in plan.underdetermined]
        owners = collections.Counter(i for entry in entries for i in entry)
        shared += sum(k > 1 for k in owners.values())
        for h in shifts:
            h_int = integer_multiple(vector(h))[1]
            failed = {i for i, row in enumerate(plan.checks) if sum(map(mul, row, h_int))}
            rows = _CountedRows(plan.checks)
            holds = _verdicts(rows, h_int)
            for _, _, combos in plan.pivoted:
                eager = any(failed.isdisjoint(check) for check in combos)
                assert any(map(holds, combos)) == eager, (OM, A, h)
                accepted += eager
                rejected += not eager
            for system in plan.underdetermined:
                eager = failed.isdisjoint(system.check)
                assert holds(system.check) == eager, (OM, A, h)
                holding += eager
                failing += not eager
            assert len(set(rows.read)) == len(rows.read) <= len(plan.checks)
            # the walk reads the same rows once each, through one list
            # shared by the pivot sets and the cell probes
            rows = _CountedRows(plan.checks)
            monkeypatch.setattr(mod, "_fan_plan", lambda OM, A: plan._replace(checks=rows))
            intersect_via_fan(OM, A, h)
            monkeypatch.undo()
            assert len(set(rows.read)) == len(rows.read), (OM, A, h)
    assert accepted > 2000 and rejected > 5000 and holding > 600 and failing > 800
    # 178 rows are named by more than one entry of their plan
    assert shared > 150


# --- block partitions ----------------------------------------------------------


def _components(OM):
    """The circuit-connected components of OM as element tuples, in
    order of their lowest element."""
    return [_elements(c) for c in _classes((1 << OM.ground_size) - 1, OM._masks)]


def _chain_partitions(OM):
    """Reference: per circuit-connected component, every chain of
    ``positive_chains`` on the component's matroid read as a cell and
    grouped by its sorted blocks; ``(None, comp)`` for the first component
    with a one-signed circuit."""
    groups = []
    for comp in _components(OM):
        to_local = {g: i + 1 for i, g in enumerate(comp)}
        local = OrientedMatroid(
            len(comp),
            [
                SignedCircuit(
                    tuple(to_local[e] for e in c.positive),
                    tuple(to_local[e] for e in c.negative),
                )
                for c in OM.circuits
                if c.support <= to_local.keys()
            ],
        )
        chains = positive_chains(local)
        if not chains:
            return None, tuple(comp)
        grouped = {}
        for flag in chains:
            blocks, below = [], frozenset()
            for f in flag:
                blocks.append(tuple(comp[e - 1] for e in f.elements if e not in below))
                below = frozenset(f.elements)
            blocks.append(tuple(g for e, g in enumerate(comp, 1) if e not in below))
            grouped.setdefault(tuple(sorted(blocks)), []).append(tuple(blocks))
        groups.append(grouped)
    return groups, None


def _combination_ties(combo, at_int):
    """The 0-based element pairs a partition combination ties, as the fan
    plan lists them, and their rows A^T_a - A^T_b."""
    pairs = [(block[0] - 1, e - 1) for blocks in combo for block in blocks for e in block[1:]]
    return pairs, [[x - y for x, y in zip(at_int[a], at_int[b])] for a, b in pairs]


def _pivot_ties(pairs, rows, n):
    """The first n pairs with independent rows, or None when the rows have
    rank below n."""
    if not pairs:
        return None if n else ()
    independent = first_independent_rows(RationalMatrix.from_rows(rows))
    return tuple(pairs[i] for i in independent) if len(independent) == n else None


def check_partitions_against_chains(OM, A=None):
    """The flat recursion gives each component the sorted partitions of
    the chain reference.  Without A every partition's cells match the
    chains' as a multiset.  With A every combination is either full rank
    and counted in exactly one pivot set, or underdetermined with cells
    that match the chains': the pivot sets come in order of first
    appearance, each one's d and h_rows solve its pivot ties at every
    unit h (by ``solve_affine``), and each combination names, in order
    of first appearance, the check rows of its other ties, d times the
    tie's residual there, by index in the plan's table of distinct
    nonzero rows; each pivot set keeps each combination's indices once,
    in order of first appearance."""
    ref, ref_empty = _chain_partitions(OM)
    components, empty = _cell_partitions(OM)
    assert empty == ref_empty
    if empty is not None:
        assert components == ()
        if A is not None:
            plan = _fan_plan(OM, A)
            assert plan.checks == plan.pivoted == plan.underdetermined == ()
        return
    assert [c.partitions for c in components] == [tuple(sorted(g)) for g in ref]
    if A is None:
        for c, grouped in zip(components, ref):
            for p in c.partitions:
                assert sorted(_fine_cells(c.above, p)) == sorted(grouped[p])
        return
    plan = _fan_plan(OM, A)
    n, r, at_int = A.rows, A.cols, integer_columns(A)
    short, held, solved = [], {}, {}
    for combo in itertools.product(*(c.partitions for c in components)):
        pairs, rows = _combination_ties(combo, at_int)
        key = _pivot_ties(pairs, rows, n)
        if key is None:
            short.append(combo)
            continue
        if key not in solved:
            # V[j] solves the pivot ties at h = e_j, the j-th unit vector
            pivot_rows = RationalMatrix.from_rows([rows[pairs.index(pair)] for pair in key])
            V = []
            for j in range(r):
                sol = solve_affine(pivot_rows, [(b == j) - (a == j) for a, b in key])
                assert sol is not None and sol[1].rows == 0
                V.append(sol[0])
            solved[key] = V
            held[key] = {}
        d, h_rows, _ = plan.pivoted[list(solved).index(key)]
        V = solved[key]
        assert h_rows == tuple(tuple(d * V[j][i] for j in range(r)) for i in range(n))
        check = {}
        for (a, b), row in zip(pairs, rows):
            c = tuple(
                d * (sum(map(mul, row, V[j])) - (b == j) + (a == j)) for j in range(r)
            )
            if any(c):
                check[plan.checks.index(c)] = None
        held[key][tuple(check)] = None
    assert [combos for *_, combos in plan.pivoted] == [tuple(c) for c in held.values()]
    # the table: distinct nonzero rows, each named by some entry
    named = {i for *_, combos in plan.pivoted for check in combos for i in check}
    named.update(i for system in plan.underdetermined for i in system.check)
    assert len(set(plan.checks)) == len(plan.checks) and all(map(any, plan.checks))
    assert named == set(range(len(plan.checks)))
    assert len(plan.underdetermined) == len(short)
    for combo, system in zip(short, plan.underdetermined):
        assert [sorted(c) for c in system.groups] == [sorted(g[p]) for g, p in zip(ref, combo)]


@pytest.mark.parametrize(
    "OM",
    [
        OrientedMatroid(4, [SignedCircuit((1, 2, 3), ())]),
        OrientedMatroid(5, [SignedCircuit((1, 2), (3,)), SignedCircuit((4, 5), ())]),
        OrientedMatroid(4, []),
        OrientedMatroid(6, [SignedCircuit((1, 2, 3), (4, 5, 6))]),
        OrientedMatroid(8, [SignedCircuit((1, 2, 3), (4, 5, 6, 7, 8))]),
        OrientedMatroid(6, [SignedCircuit((1, 4), (2,)), SignedCircuit((3, 6), (5,))]),
    ],
    ids=["one-signed", "one-signed-beside-mixed", "free", "mixed-3-3", "mixed-3-5", "two-components"],
)
def test_partitions_match_positive_chains(OM):
    check_partitions_against_chains(OM)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_partitions_match_positive_chains_random(data):
    r = data.draw(st.integers(1, 7), label="r")
    C_rows = data.draw(
        st.lists(
            st.lists(st.integers(-2, 2), min_size=r, max_size=r), min_size=1, max_size=r
        ).filter(lambda rows: any(any(row) for row in rows)),
        label="C",
    )
    check_partitions_against_chains(realize_from_kernel(RationalMatrix.from_rows(C_rows)))


def test_fan_plan_cells_match_positive_chains(hhk_model):
    # the 200 systems of acceptance criterion 7, then hhk
    from tropibound.systems import assemble_crn

    rng = random.Random(20260809)
    underdetermined = 0
    for _ in range(200):
        C, A, _ = random_instance(rng)
        OM = realize_from_kernel(C)
        check_partitions_against_chains(OM, A)
        underdetermined += bool(_fan_plan(OM, A).underdetermined)
    assert underdetermined >= 20
    vs = assemble_crn(hhk_model)
    check_partitions_against_chains(realize_from_kernel(vs.C), vs.A)


def test_fan_walk_lists_no_positive_chain(monkeypatch):
    # one circuit of 3 positive and 5 negative elements has 70,245
    # positive chains but 2,265 block partitions; the fan walk reads the
    # partitions off the flats and never lists a chain
    import tropibound.bergman
    import tropibound.intersection

    def refuse(OM):
        raise AssertionError("the fan walk listed positive chains")

    # also where an import would have bound the name
    for module in (tropibound.bergman, tropibound.intersection):
        monkeypatch.setattr(module, "positive_chains", refuse, raising=False)
    _fan_plan.cache_clear()
    C = RationalMatrix.from_rows([[1, 2, 1, -1, -3, -1, -2, -1]])
    A = RationalMatrix.from_rows([[0, 1, 3, 2, -1, 1, 2, 0]])
    report = lower_bound(VerticalSystem(C, A, (0, 1, -2, 3, 0, 2, -1, 1)), cross_check=True)
    components, empty = _cell_partitions(report.matroid)
    assert empty is None and len(components[0].partitions) == 2265
    assert report.count == 1 and report.transverse


def check_component_flats(OM):
    """Each component's flats from ``_flat_levels`` on global labels are
    those of the component's circuits relabelled into a matroid of its
    own, level by level, and ``_is_positive_flat`` keeps exactly the flats
    that the frozenset rule keeps, on every component and on OM itself."""

    def frozenset_rule(f, M):
        F = frozenset(f.elements)
        return all(
            c.support <= F or not (F.issuperset(c.positive) or F.issuperset(c.negative))
            for c in M.circuits
        )

    signs = [(_mask(c.positive), _mask(c.negative)) for c in OM.circuits]
    for f in all_flats(OM):
        assert _is_positive_flat(_mask(f.elements), signs) == frozenset_rule(f, OM)
    assert _is_positive_flat(0, signs) == all(c.positive and c.negative for c in OM.circuits)
    for comp in _components(OM):
        to_local = {g: i + 1 for i, g in enumerate(comp)}
        local_circuits = [
            SignedCircuit(
                tuple(to_local[e] for e in c.positive),
                tuple(to_local[e] for e in c.negative),
            )
            for c in OM.circuits
            if c.support <= to_local.keys()
        ]
        local = OrientedMatroid(len(comp), local_circuits)
        top = _mask(comp)
        levels = _flat_levels(top, [_mask(s) for s in OM.circuit_supports if set(s) <= set(comp)])
        want = [set() for _ in range(local.rank + 1)]
        for f in all_flats(local):
            want[f.rank].add(_mask(comp[e - 1] for e in f.elements))
        assert levels == want, comp
        inside = [(p, q) for p, q in signs if not (p | q) & ~top]
        assert _is_positive_flat(0, inside) == all(c.positive and c.negative for c in local.circuits)
        for f in all_flats(local):
            F = _mask(comp[e - 1] for e in f.elements)
            assert _is_positive_flat(F, inside) == frozenset_rule(f, local), (comp, f)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_component_flats_match_local_matroids(data):
    # loops (a unit row of C), coloops (a zero column), and parallel or
    # scaled columns, beside whatever the random rows give
    r = data.draw(st.integers(2, 7), label="r")
    rows = data.draw(
        st.lists(st.lists(st.integers(-2, 2), min_size=r, max_size=r), min_size=1, max_size=r - 1),
        label="C",
    )
    index = st.integers(0, r - 1)
    cols = [list(c) for c in zip(*rows)]
    if data.draw(st.booleans(), label="coloop"):
        cols[data.draw(index, label="zero column")] = [0] * len(rows)
    if data.draw(st.booleans(), label="parallel"):
        i, j = data.draw(index, label="copied"), data.draw(index, label="copy")
        k = data.draw(st.sampled_from([1, -1, 2, -3]), label="scale")
        cols[j] = [k * x for x in cols[i]]
    rows = [list(row) for row in zip(*cols)]
    if data.draw(st.booleans(), label="loop"):
        e = data.draw(index, label="loop element")
        rows.append([int(j == e) for j in range(r)])
    assume(any(any(row) for row in rows))
    check_component_flats(realize_from_kernel(RationalMatrix.from_rows(rows)))


def test_component_flats_match_local_matroids_hhk(hhk_model):
    check_component_flats(realize_from_kernel(assemble_crn(hhk_model).C))


def integer_rows(rows, cols, lo, hi):
    return st.lists(
        st.lists(st.integers(lo, hi), min_size=cols, max_size=cols),
        min_size=rows,
        max_size=rows,
    ).map(RationalMatrix.from_rows)


def check_scaling_h(C, A, h, k):
    """The positive fan is a cone and rowspan(A) is linear, so the shift
    k h for a rational k > 0 scales every v and w by k and changes nothing
    else; the second call evaluates the warm plan at a new H h."""
    report = lower_bound(VerticalSystem(C, A, tuple(h)))
    hits = _fan_plan.cache_info().hits
    scaled = lower_bound(VerticalSystem(C, A, tuple(k * x for x in h)))
    assert _fan_plan.cache_info().hits == hits + 1
    assert [p.v for p in scaled.points] == [tuple(k * x for x in p.v) for p in report.points]
    assert [p.w for p in scaled.points] == [tuple(k * x for x in p.w) for p in report.points]
    docs = [report.to_document(), scaled.to_document()]
    for doc in docs:
        for point in doc["points"]:
            del point["v"], point["w"]
    assert docs[0] == docs[1]
    return report


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_scaling_h_scales_every_point(data):
    # k has a denominator, so H changes
    r = data.draw(st.integers(3, 6), label="r")
    n = data.draw(st.integers(1, 2), label="n")
    C = data.draw(integer_rows(n, r, -3, 3), label="C")
    A = data.draw(integer_rows(n, r, -3, 3), label="A")
    assume(not C.is_zero() and rank(A) == n)
    h = data.draw(st.lists(st.integers(-6, 6), min_size=r, max_size=r), label="h")
    k = data.draw(
        st.tuples(st.integers(1, 7), st.integers(2, 5))
        .map(lambda t: Fraction(*t))
        .filter(lambda k: k.denominator > 1),
        label="k",
    )
    check_scaling_h(C, A, h, k)


def test_scaling_h_scales_pinned_points(hhk_model):
    # at this shift five underdetermined hhk tie systems are pinned by
    # their cone facets, so the facet rows handed to _polyhedra carry H
    vs = assemble_crn(dataclasses.replace(hhk_model, h=(7, 8, 3, 3, -1, 8)))
    report = check_scaling_h(vs.C, vs.A, vs.h, Fraction(5, 3))
    assert report.notes[0] == "5 underdetermined tie system(s) pinned to a point by cone facets"


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
    # the vertex oracle finds these boundary-pinned points too
    oracle = intersect_via_vertices(tropical.matroid, vs.A, vs.h)
    assert oracle == {p.v for p in tropical.points}


def test_pinned_points_survive_unimodular_coordinate_changes(hhk_model):
    # at this shift 2 underdetermined hhk tie systems hold and 5 of their
    # product cells are pinned to a point; A -> V A for a unimodular V,
    # built from row operations, moves v to V^-T v and keeps w = A^T v, so
    # the walk must list the same points with the same flags and verdicts,
    # and the same notes
    vs = assemble_crn(dataclasses.replace(hhk_model, h=(7, 8, 3, 3, -1, 8)))
    OM = realize_from_kernel(vs.C)
    h_int = integer_multiple(vector(vs.h))[1]
    plan = _fan_plan(OM, vs.A)
    holding = [
        system
        for system in plan.underdetermined
        if not any(sum(map(mul, plan.checks[i], h_int)) for i in system.check)
    ]
    base = intersect_via_fan(OM, vs.A, vs.h)
    assert len(holding) == 2 and base.notes[0].startswith("5 underdetermined")

    def summary(report):
        points = sorted((p.w, p.supporting_flag, p.isolated, p.interior) for p in report.points)
        return points, report.notes, report.transverse

    n = vs.A.rows
    for seed in range(5):
        rng = random.Random(seed)
        V = [[int(i == j) for j in range(n)] for i in range(n)]
        for _ in range(3 * n):
            i, j = rng.sample(range(n), 2)
            V[i] = [x + rng.choice([-2, -1, 1, 2]) * y for x, y in zip(V[i], V[j])]
        i, j = rng.sample(range(n), 2)
        V[i], V[j] = [-x for x in V[j]], V[i]
        V = RationalMatrix.from_rows(V)
        report = intersect_via_fan(OM, V.matmul(vs.A), vs.h)
        assert summary(report) == summary(base), seed
        assert sorted(V.transpose().apply(p.v) for p in report.points) == [
            p.v for p in base.points
        ]


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


def _reference_tangent_direction(v, OM, A, h):
    """The isolation search before it carried points and kernels down the
    levels: every state's cone probed with ``reference_cone_point``, the
    reference elimination, which shares no code with ``_polyhedra``."""
    at_int = integer_columns(A)
    n = A.rows
    V, v_int = integer_multiple(vector(v))
    H, h_int = integer_multiple(vector(h))
    p = [H * sum(map(mul, row, v_int)) + V * x for row, x in zip(at_int, h_int)]

    tasks: list[tuple[list[tuple[int, int]], tuple[int, ...]]] = []
    for c in OM.circuits:
        if c.negated() < c:
            continue
        m = min(p[e - 1] for e in c.positive + c.negative)
        pos = [e for e in c.positive if p[e - 1] == m]
        neg = [e for e in c.negative if p[e - 1] == m]
        if not pos or not neg:
            raise ValueError("point is not in the positive fan; isolation is undefined")
        tasks.append(([(i, j) for i in pos for j in neg], tuple(sorted(pos + neg))))
    tasks.sort(key=lambda t: (len(t[0]), len(t[1])))
    if not tasks:
        # no circuits: the fan is everything and every direction stays in
        return tuple(Fraction(1 if i == 0 else 0) for i in range(n)) if n else None

    @functools.cache
    def diff(a: int, b: int) -> tuple[int, ...]:
        return primitive([x - y for x, y in zip(at_int[a - 1], at_int[b - 1])])

    # each level maps its accepted states (frozenset of equality rows,
    # frozenset of inequality rows) to a nonzero point of their cone
    level: dict[tuple[frozenset, frozenset], tuple | None] = {(frozenset(), frozenset()): None}
    for witnesses, arg in tasks:
        accepted: dict[tuple[frozenset, frozenset], tuple | None] = {}
        for eqs, ineqs in level:
            for i_pos, i_neg in witnesses:
                e2 = eqs | {diff(i_pos, i_neg)}
                i2 = ineqs | {diff(i_pos, j) for j in arg if j != i_pos and j != i_neg}
                if (e2, i2) in accepted:
                    continue
                u = reference_cone_point(n, list(e2), list(i2))
                if u is not None:
                    accepted[(e2, i2)] = u
        if not accepted:
            return None
        level = accepted
    return next(iter(level.values()))


@functools.cache
def _reference_isolated(v, OM, A, h: tuple) -> bool:
    """Whether ``_reference_tangent_direction`` finds no direction, kept
    per case: ``test_rank_test_matches_tangent_search`` checks the cases
    of the two tests before it again."""
    return _reference_tangent_direction(v, OM, A, h) is None


def _isolation_cases(hhk_model):
    """(source, OM, A, h, v) for every point of seeded random systems, of
    the frozen degenerate instance and of hhk rate draws."""
    rng = random.Random(20261018)
    systems = [("random", *random_instance(rng)) for _ in range(60)]
    systems.append(
        (
            "degenerate",
            RationalMatrix.from_rows([[-2, -2, -1, -2, 1], [1, 2, -1, 2, 0]]),
            RationalMatrix.from_rows([[-1, 2, -2, -1, -1], [-1, 2, 0, -2, -2]]),
            [0, -1, 0, 0, 0],
        )
    )
    draws = [(7, -6, -2, -3, -3, 3), (7, 8, 3, 3, -1, 8), (-4, 2, 6, -8, 1, -3)]
    draws += [tuple(rng.randint(-8, 8) for _ in range(6)) for _ in range(5)]
    for h in draws:
        vs = assemble_crn(dataclasses.replace(hhk_model, h=h))
        systems.append(("hhk", vs.C, vs.A, vs.h))
    for source, C, A, h in systems:
        OM = realize_from_kernel(C)
        for p in intersect_via_fan(OM, A, h).points:
            yield source, OM, A, h, p.v


def _assert_direction_stays(w, A, u, OM):
    """u is nonzero and w + eps A^T u lies in the positive fan at a small
    exact step."""
    assert any(u)
    eps = Fraction(1, 10**7)
    assert is_positive_member([x + eps * y for x, y in zip(w, A.transpose().apply(u))], OM)


def test_isolation_search_matches_per_state_probes(hhk_model):
    verdicts = []
    sources = []
    for source, OM, A, h, v in _isolation_cases(hhk_model):
        u = tangent_direction(v, OM, A, h)
        assert (u is None) == _reference_isolated(v, OM, A, tuple(h)), (OM, A, h, v)
        verdicts.append(u is None)
        sources.append(source)
        if u is not None:
            w = [a + Fraction(c) for a, c in zip(A.transpose().apply(v), h)]
            _assert_direction_stays(w, A, u, OM)
    # both verdicts occur, on the degenerate point and on a dozen hhk points
    assert verdicts.count(True) >= 30 and verdicts.count(False) >= 5
    assert sources.count("degenerate") >= 1 and sources.count("hhk") >= 12


def _fan_face_cases(count):
    """(C, OM, A, h, v, w) for v at any point of the positive fan, not
    only at intersection points: h = w - A^T v for w on a random face of
    a random positive cone, so many circuits have large argmin sets, and
    A has up to four rows, so the cones have room for directions."""
    rng = random.Random(7411)
    while count:
        r = rng.randint(3, 7)
        n = rng.randint(1, min(4, r - 1))
        C = RationalMatrix.from_rows(
            [[rng.randint(-3, 3) for _ in range(r)] for _ in range(rng.randint(1, r - 1))]
        )
        A = RationalMatrix.from_rows([[rng.randint(-3, 3) for _ in range(r)] for _ in range(n)])
        if C.is_zero() or rank(A) < n:
            continue
        OM = realize_from_kernel(C)
        cones = positive_fan(OM)
        if not cones:
            continue
        chain = rng.choice(cones)
        w = [0] * OM.ground_size
        for f in chain:
            c = rng.choice([0, 0, 1, 2, 3])
            for e in f.elements:
                w[e - 1] += c
        v = vector([Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(A.rows)])
        h = [x - y for x, y in zip(w, A.transpose().apply(v))]
        yield C, OM, A, h, v, w
        count -= 1


def test_isolation_search_matches_per_state_probes_on_fan_faces():
    verdicts = []
    for C, OM, A, h, v, w in _fan_face_cases(150):
        u = tangent_direction(v, OM, A, h)
        assert (u is None) == _reference_isolated(v, OM, A, tuple(h)), (C, A, h, v)
        verdicts.append(u is None)
        if u is not None:
            _assert_direction_stays(w, A, u, OM)
    assert verdicts.count(True) >= 50 and verdicts.count(False) >= 50


def test_rank_test_matches_tangent_search(hhk_model):
    # is_isolated once decided interior points by a rank test; it now
    # reads every verdict off the probed cells, and that verdict must be
    # the per-circuit tangent-cone search's at interior points and at the
    # others, with both verdicts occurring at both kinds of point
    cases = [(OM, A, h, v) for _, OM, A, h, v in _isolation_cases(hhk_model)]
    cases += [(OM, A, h, v) for _, OM, A, h, v, _ in _fan_face_cases(150)]
    seen = {}
    for OM, A, h, v in cases:
        isolated = is_isolated(v, OM, A, h)
        assert isolated == _reference_isolated(v, OM, A, tuple(h)), (OM, A, h, v)
        interior = _is_interior([x + Fraction(y) for x, y in zip(A.transpose().apply(v), h)], OM)
        seen[interior, isolated] = seen.get((interior, isolated), 0) + 1
    assert seen.get((True, True), 0) + seen.get((True, False), 0) >= 100, seen
    assert seen.get((False, True), 0) + seen.get((False, False), 0) >= 30, seen
    assert len(seen) == 4, seen


def test_walk_isolation_matches_reference_search(monkeypatch, hhk_model):
    # every fan-walk point's isolated flag, read off the probed cells,
    # against the per-circuit tangent-cone search, on the 200 systems of
    # acceptance criterion 7 and the 24 crn_scan draws
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    rng = random.Random(20260809)
    systems = [random_instance(rng) for _ in range(200)]
    for h in workloads.crn_base_draws():
        vs = assemble_crn(dataclasses.replace(hhk_model, h=h))
        systems.append((vs.C, vs.A, vs.h))
    verdicts = []
    for C, A, h in systems:
        OM = realize_from_kernel(C)
        for p in intersect_via_fan(OM, A, h).points:
            want = _reference_isolated(p.v, OM, A, tuple(h))
            assert p.isolated == want, (C, A, h, p.v)
            verdicts.append(p.isolated)
    assert verdicts.count(True) >= 100 and verdicts.count(False) >= 5, verdicts


def test_classes_match_union_find():
    # bitmask classes against the element union-find, on random groups
    # that overlap or not and leave some elements out
    rng = random.Random(3301)
    for _ in range(300):
        r = rng.randint(1, 8)
        groups = [
            rng.sample(range(1, r + 1), rng.randint(1, r)) for _ in range(rng.randint(0, 5))
        ]
        got = [list(_elements(c)) for c in _classes((1 << r) - 1, map(_mask, groups))]
        assert got == reference_merge(r, [sorted(g) for g in groups]), groups


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


def balanced_instance(rng):
    """A system drawn as ``random_instance`` draws one, but each row of C
    is the cyclic differences y_i - y_(i+1) of a y in {-1, 0, 1}^r, as
    ``C_ROWS`` in tests/test_bergman.py draws half its rows.  Every row
    sums to 0, so (1, ..., 1) lies in ker C, no circuit is one-signed and
    the positive fan is not empty."""
    while True:
        r = rng.randint(3, 8)
        n = rng.randint(1, min(3, r - 1))
        m = rng.randint(n, r - 1)
        rows = []
        for _ in range(m):
            y = [rng.randint(-1, 1) for _ in range(r)]
            rows.append([a - b for a, b in zip(y, y[1:] + y[:1])])
        C = RationalMatrix.from_rows(rows)
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
    # draws whose positive fan is not empty, so that the walk proper runs
    points = 0
    for _ in range(60):
        C, A, h = balanced_instance(rng)
        M = realize_from_kernel(C)
        assert _cell_partitions(M)[1] is None, C
        fan = intersect_via_fan(M, A, h)
        assert {p.v for p in fan.points} == intersect_via_vertices(M, A, h)
        points += fan.count
    assert points >= 50


def test_pruned_oracle_matches_reference():
    # the circuit-driven branching drops a plane only from the branches
    # after the one that takes it, never from the whole search, so it finds
    # every point the unpruned reference finds; with integer h in [-2, 2]
    # many pairs tie identically, and systems 388 and 715 of the second
    # loop lose points unless such a circuit is exempt
    nonempty = 0
    rng = random.Random(2408)
    for i in range(1000):
        C, A, h = _differential_case(rng, i)
        M = realize_from_kernel(C)
        got = intersect_via_vertices(M, A, h)
        assert got == _reference_vertices(M, A, h), (C, A, h)
        nonempty += bool(got)
    rng = random.Random(77)
    for _ in range(800):
        C, A, _ = random_instance(rng)
        h = [rng.randint(-2, 2) for _ in range(A.cols)]
        M = realize_from_kernel(C)
        got = intersect_via_vertices(M, A, h)
        assert got == _reference_vertices(M, A, h), (C, A, h)
        nonempty += bool(got)
    assert nonempty >= 400


def test_pruned_oracle_on_hhk_reference_draws(monkeypatch, hhk_model):
    # the 24 rate draws of the crn_scan benchmark; the unpruned reference
    # needs minutes for them, so the fan walk is the reference here
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    for h in workloads.crn_base_draws():
        vs = assemble_crn(dataclasses.replace(hhk_model, h=h))
        M = realize_from_kernel(vs.C)
        fan = {p.v for p in intersect_via_fan(M, vs.A, vs.h).points}
        assert intersect_via_vertices(M, vs.A, vs.h) == fan, h


def _rank_cliff_recipe(ranks):
    """The rank-cliff recipe: one Random(3) stream, three systems per
    (r, n) for r in ``ranks`` and n in (2, 3), each with C and A of
    n x r and entries in [-3, 3], redrawn together until both have rank
    n, then h_j = randint(-8, 8) / randint(1, 4).  The recipe's ranks
    are (8, 10, 11, 12), so a prefix of them draws the same systems."""
    rng = random.Random(3)
    for r in ranks:
        for n in (2, 3):
            for _ in range(3):
                while True:
                    C, A = (
                        RationalMatrix.from_rows(
                            [[rng.randint(-3, 3) for _ in range(r)] for _ in range(n)]
                        )
                        for _ in range(2)
                    )
                    if rank(C) == rank(A) == n:
                        break
                yield C, A, [Fraction(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(r)]


def test_circuit_driven_oracle_on_rank_cliff_recipe():
    # the oracle branches on the live planes of its most constrained
    # circuit; at r = 8 and 10 its vertices must be the reference's,
    # which visits every independent set of n planes
    nonempty = 0
    for C, A, h in _rank_cliff_recipe((8, 10)):
        M = realize_from_kernel(C)
        got = intersect_via_vertices(M, A, h)
        assert got == _reference_vertices(M, A, h), (C, A, h)
        nonempty += bool(got)
    assert nonempty >= 6


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_oracle_vertices_follow_relabelling(data):
    # the oracle's branch order follows the plane indices, but its vertex
    # set does not: permuting the columns of C, A and h together leaves it
    # unchanged, and adding A^T u to h moves it by -u (the relabelling of
    # the random_family benchmark); integer h in [-2, 2] ties many pairs
    # identically
    rng = random.Random(data.draw(st.integers(0, 2**32), label="seed"))
    C, A, h = random_instance(rng)
    if data.draw(st.booleans(), label="small integer h"):
        h = [rng.randint(-2, 2) for _ in range(A.cols)]
    perm = data.draw(st.permutations(range(A.cols)), label="perm")
    u = data.draw(st.lists(st.integers(-2, 2), min_size=A.rows, max_size=A.rows), label="u")
    shift = [sum(map(mul, u, A.column(j))) for j in range(A.cols)]

    def permuted(rows):
        return RationalMatrix.from_rows([[row[j] for j in perm] for row in rows])

    got = intersect_via_vertices(
        realize_from_kernel(permuted(C.row_list())),
        permuted(A.row_list()),
        [h[j] + shift[j] for j in perm],
    )
    want = intersect_via_vertices(realize_from_kernel(C), A, h)
    assert got == {tuple(x - y for x, y in zip(v, u)) for v in want}


def test_point_flags_are_flats(monkeypatch, hhk_model):
    # each level set of a fan point is a flat of a positive chain; checked
    # on the 24 crn_scan draws, the hhk shift whose points are pinned by
    # cone facets, and random systems.  The walk reads a point's flag and
    # interiority off its integer image; both must be those of the exact
    # image w + h
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    systems = []
    for h in [*workloads.crn_base_draws(), (7, 8, 3, 3, -1, 8)]:
        vs = assemble_crn(dataclasses.replace(hhk_model, h=h))
        systems.append((vs.C, vs.A, vs.h))
    rng = random.Random(6029)
    systems += [random_instance(rng) for _ in range(300)]
    levels = 0
    for C, A, h in systems:
        OM = realize_from_kernel(C)
        flats = {frozenset(f.elements) for f in all_flats(OM)}
        for point in intersect_via_fan(OM, A, h).points:
            flag = [frozenset(level) for level in point.supporting_flag]
            assert all(a < b for a, b in zip(flag, flag[1:])), (C, A, h, point.v)
            assert all(level in flats for level in flag), (C, A, h, point.v)
            image = [wi + hi for wi, hi in zip(point.w, vector(h))]
            assert point.supporting_flag == _level_flag(image), (C, A, h, point.v)
            assert point.interior == _is_interior(image, OM), (C, A, h, point.v)
            levels += len(flag)
    assert levels >= 300


def test_hhk_points_are_initial_form_members(monkeypatch, hhk_model):
    # every point w + h the fan walk reports on the 24 crn_scan draws is a
    # member by the initial forms of rowspan(C), which read no circuits
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    C = assemble_crn(hhk_model).C
    C_rows = [C.row(i) for i in range(C.rows)]
    OM = realize_from_kernel(C)
    points = 0
    for h in workloads.crn_base_draws():
        vs = assemble_crn(dataclasses.replace(hhk_model, h=h))
        assert vs.C == C
        for point in intersect_via_fan(OM, vs.A, vs.h).points:
            image = [w + x for w, x in zip(point.w, vector(vs.h))]
            assert initial_reference.is_positive_member(C_rows, image), (h, point.v)
            assert is_positive_member(image, OM), (h, point.v)
            points += 1
    assert points >= 24


def test_oracle_vertices_are_initial_form_members(monkeypatch, hhk_model):
    # ROADMAP item 12: every vertex the oracle returns lies, shifted to
    # w = A^T v + h, in the positive fan by the initial forms of
    # rowspan(C), which read no circuits; on the criterion-7 family, the
    # 24 crn_scan draws and 60 balanced draws
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    cases = [
        (RationalMatrix.from_rows(C), RationalMatrix.from_rows(A), vector(h))
        for C, A, h in workloads.criterion7_family()
    ]
    for h in workloads.crn_base_draws():
        vs = assemble_crn(dataclasses.replace(hhk_model, h=h))
        cases.append((vs.C, vs.A, vs.h))
    rng = random.Random(20260809)
    cases += [balanced_instance(rng) for _ in range(60)]
    counts = [0, 0, 0]  # vertices per source, in the order above
    for k, (C, A, h) in enumerate(cases):
        C_rows = [C.row(i) for i in range(C.rows)]
        At = A.transpose()
        for v in intersect_via_vertices(realize_from_kernel(C), A, h):
            w = [x + y for x, y in zip(At.apply(v), h)]
            assert initial_reference.is_positive_member(C_rows, w), (C, A, h, v)
            counts[(k >= 200) + (k >= 224)] += 1
    assert counts[0] >= 80 and counts[1] >= 24 and counts[2] >= 50


def test_interiority_matches_initial_form_components(monkeypatch, hhk_model):
    # _is_interior merges the argmin sets of every circuit; the
    # circuit-free rule counts the components of the initial matroid from
    # the initial forms of rowspan(C).  Both must call the same fan points
    # interior on the criterion-7 family and the 24 crn_scan draws.
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    vs = assemble_crn(hhk_model)
    cases = [
        (vs.C, vs.A, assemble_crn(dataclasses.replace(hhk_model, h=h)).h)
        for h in workloads.crn_base_draws()
    ]
    cases += [
        (RationalMatrix.from_rows(C), RationalMatrix.from_rows(A), vector(h))
        for C, A, h in workloads.criterion7_family()
    ]
    interior = boundary = 0
    for C, A, h in cases:
        OM = realize_from_kernel(C)
        C_rows = [C.row(i) for i in range(C.rows)]
        for point in intersect_via_fan(OM, A, h).points:
            image = [w + x for w, x in zip(point.w, h)]
            full = initial_reference.component_count(C_rows, image) == OM.rank
            assert full == _is_interior(image, OM), (C, A, h, point.v)
            interior += full
            boundary += not full
    assert interior >= 100 and boundary >= 10
    # the known disagreement: here the form {1, 3, 5, 6} merges the minimal
    # initial circuits {1, 6} and {3, 5}, so _is_interior finds fewer
    # classes than the 4 = rank(M) components of the initial matroid
    C = RationalMatrix.from_rows([[-1, 2, 3, 2, -3, 1], [-2, -3, -1, 2, 1, 2]])
    A = RationalMatrix.from_rows([[-1, 1, -3, 0, 3, -2], [2, -3, 1, -2, -3, 0]])
    h = vector([1, -1, -2, 0, 0, -2])
    OM = realize_from_kernel(C)
    (point,) = [p for p in intersect_via_fan(OM, A, h).points if p.v == (-1, -1)]
    image = [w + x for w, x in zip(point.w, h)]
    assert initial_reference.component_count([C.row(0), C.row(1)], image) == OM.rank == 4
    assert not _is_interior(image, OM) and not point.interior


def test_isolated_points_are_oracle_vertices(monkeypatch, hhk_model):
    # the oracle's completeness argument: at an isolated point the ties it
    # meets among pairs in a common circuit support have rank n, so it is a
    # vertex of the oracle's arrangement, also on a cell boundary; checked
    # on the 24 crn_scan draws, the hhk shift whose points are pinned by
    # cone facets, and the criterion-7 family
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    systems = []
    for h in [*workloads.crn_base_draws(), (7, 8, 3, 3, -1, 8)]:
        vs = assemble_crn(dataclasses.replace(hhk_model, h=h))
        systems.append((vs.C, vs.A, vs.h))
    for C_rows, A_rows, h in workloads.criterion7_family():
        systems.append((RationalMatrix.from_rows(C_rows), RationalMatrix.from_rows(A_rows), h))
    isolated = boundary = 0
    for C, A, h in systems:
        OM = realize_from_kernel(C)
        at_int = integer_columns(A)
        for point in intersect_via_fan(OM, A, h).points:
            if not point.isolated:
                continue
            p = [w + x for w, x in zip(point.w, vector(h))]
            rows = [
                [x - y for x, y in zip(at_int[i - 1], at_int[j - 1])]
                for sup in OM.circuit_supports
                for i, j in itertools.combinations(sup, 2)
                if p[i - 1] == p[j - 1]
            ]
            assert rank(RationalMatrix.from_rows(rows)) == A.rows, (C, A, h, point.v)
            isolated += 1
            boundary += not point.interior
    assert isolated >= 100 and boundary >= 5


def test_level_flag_and_interiority_ignore_scale_and_shift():
    # the fan walk reads both off an integer positive multiple of w + h
    rng = random.Random(4477)
    verdicts = set()
    for _ in range(400):
        C, _, _ = random_instance(rng)
        OM = realize_from_kernel(C)
        p = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(OM.ground_size)]
        flag, interior = _level_flag(p), _is_interior(p, OM)
        p_int = integer_multiple(p)[1]
        c, t = rng.randint(1, 5), rng.randint(-5, 5)
        for q in (p_int, [c * x + t for x in p_int]):
            assert (_level_flag(q), _is_interior(q, OM)) == (flag, interior), (C, p, c, t)
        verdicts.add(interior)
    assert verdicts == {False, True}


def test_oracle_mismatch_raises(monkeypatch, running_N, running_A):
    import tropibound.intersection as mod

    real = mod.intersect_via_vertices

    def broken(OM, A, h):
        return set(sorted(real(OM, A, h))[1:])

    monkeypatch.setattr(mod, "intersect_via_vertices", broken)
    with pytest.raises(OracleMismatchError):
        mod.lower_bound(VerticalSystem(running_N, running_A, H_RUN), cross_check=True)


def test_oracle_dropping_a_walk_point_raises_on_a_positive_dimensional_system(monkeypatch):
    # the walk's set lies inside the oracle's whether or not a piece has
    # positive dimension, so a walk point the oracle lacks always raises
    import tropibound.intersection as mod

    C = RationalMatrix.from_rows([[-1, 0, 1, 2]])
    A = RationalMatrix.from_rows([[2, 1, 1, 2]])
    system = VerticalSystem(C, A, (2, 1, 0, 2))
    report = lower_bound(system, cross_check=True)
    assert report.positive_dimensional and [p.v for p in report.points] == [(-2,)]
    real = mod.intersect_via_vertices
    monkeypatch.setattr(mod, "intersect_via_vertices", lambda *a: real(*a) - {(-2,)})
    with pytest.raises(OracleMismatchError):
        mod.lower_bound(system, cross_check=True)


def test_extra_oracle_vertex_raises_without_a_positive_dimensional_piece(
    monkeypatch, running_N, running_A
):
    import tropibound.intersection as mod

    system = VerticalSystem(running_N, running_A, H_RUN)
    assert not lower_bound(system).positive_dimensional
    real = mod.intersect_via_vertices
    extra = (Fraction(7, 3),) * running_A.rows

    monkeypatch.setattr(mod, "intersect_via_vertices", lambda *a: real(*a) | {extra})
    with pytest.raises(OracleMismatchError):
        mod.lower_bound(system, cross_check=True)


def _small_system(rng):
    """C and A of n x r with rank n, n <= 2, r <= 6, entries and h in
    [-2, 2]: small enough that many draws have a positive-dimensional
    piece."""
    while True:
        n = rng.randint(1, 2)
        r = rng.randint(n + 1, 6)
        C, A = (
            RationalMatrix.from_rows([[rng.randint(-2, 2) for _ in range(r)] for _ in range(n)])
            for _ in range(2)
        )
        if rank(C) == n and rank(A) == n:
            return C, A, [rng.randint(-2, 2) for _ in range(r)]


def test_cross_check_contract_on_small_systems():
    # the contract lower_bound checks: the walk's set inside the oracle's,
    # equal without a positive-dimensional piece, and every vertex only
    # the oracle finds not isolated
    rng = random.Random(11)
    positive_dimensional = mismatched = 0
    for _ in range(1000):
        C, A, h = _small_system(rng)
        OM = realize_from_kernel(C)
        report = intersect_via_fan(OM, A, h)
        walk, oracle = {p.v for p in report.points}, intersect_via_vertices(OM, A, h)
        assert walk <= oracle, (C, A, h)
        positive_dimensional += report.positive_dimensional
        if walk != oracle:
            assert report.positive_dimensional, (C, A, h)
            assert not any(is_isolated(v, OM, A, h) for v in oracle - walk), (C, A, h)
            mismatched += 1
        lower_bound(VerticalSystem(C, A, tuple(h)), cross_check=True)
    assert positive_dimensional >= 20 and mismatched >= 1


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


def test_walk_follows_column_relabelling_and_row_span_shift():
    # permuting the columns of C, A and h together relabels the elements,
    # and adding A^T u to h moves every v by -u; the fan plan then meets
    # other partitions, pivot ties and check rows, which its table dedupes
    # by value, yet the walk must list the same points with relabelled
    # flags, the same verdicts, the same notes and the same certified
    # bound (the relabelling of the random_family benchmark); an empty
    # fan's note names the first component with a one-signed circuit,
    # which need not be the same one after relabelling
    from tropibound.systems import bound

    def element_lists(notes):
        lists = re.findall(r"\[([\d, ]+)\]", "".join(notes))
        return [[int(e) for e in m.split(", ")] for m in lists]

    def unlabelled(notes):
        return tuple(re.sub(r"\[[\d, ]+\]", "[]", note) for note in notes)

    rng = random.Random(4404)
    # per family: random_instance draws, then balanced_instance draws,
    # whose positive fan is never empty
    points, pieces, pinned, empty = ([0, 0] for _ in range(4))
    for i in range(240 + 120):
        family = int(i >= 240)
        C, A, h = (balanced_instance if family else random_instance)(rng)
        # at h = 0 the intersection is a cone, and integer h in [-1, 1] ties
        # many pairs identically, so that pinned points and pieces of
        # positive dimension occur
        if i % 3 == 1:
            h = [0] * A.cols
        elif i % 3 == 2:
            h = [rng.randint(-1, 1) for _ in range(A.cols)]
        r, n = A.cols, A.rows
        # new element j + 1 is old element perm[j] + 1
        perm = rng.sample(range(r), r)
        label = {old + 1: new + 1 for new, old in enumerate(perm)}
        u = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
        moved = [a + b for a, b in zip(h, A.transpose().apply(u))]
        base = bound(VerticalSystem(C, A, h))
        report = bound(
            VerticalSystem(
                C.submatrix_columns(perm), A.submatrix_columns(perm), [moved[j] for j in perm]
            )
        )
        got, want = report.tropical, base.tropical
        assert report.certified_bound == base.certified_bound, (C, A, h, perm, u)
        assert (got.count, got.transverse, got.positive_dimensional, unlabelled(got.notes)) == (
            want.count,
            want.transverse,
            want.positive_dimensional,
            unlabelled(want.notes),
        ), (C, A, h, perm, u)
        for elements in element_lists(got.notes):
            component = tuple(sorted(perm[e - 1] + 1 for e in elements))
            assert component in _components(want.matroid), (C, A, h, perm, u)
            assert any(
                set(c.support) <= set(component) and not (c.positive and c.negative)
                for c in want.matroid.circuits
            )
        relabelled = {
            p.v: (
                tuple(tuple(sorted(label[e] for e in F)) for F in p.supporting_flag),
                p.isolated,
                p.interior,
            )
            for p in want.points
        }
        assert {
            tuple(a + b for a, b in zip(p.v, u)): (p.supporting_flag, p.isolated, p.interior)
            for p in got.points
        } == relabelled, (C, A, h, perm, u)
        points[family] += got.count
        pieces[family] += got.positive_dimensional
        pinned[family] += any("pinned" in note for note in got.notes)
        empty[family] += bool(element_lists(got.notes))
    assert points[0] > 100 and pieces[0] > 5 and pinned[0] > 5 and empty[0] > 50
    assert points[1] > 100 and pieces[1] > 5 and pinned[1] > 5 and empty[1] == 0


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
