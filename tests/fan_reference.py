"""Reference geometry of a fine fan cone, reference predicates on
weight vectors, and a reference Fourier-Motzkin elimination, for the
tests.

A cone is the tuple of its chain's flats: the nonnegative span of the
flats' indicator vectors plus the all-ones lineality line, on the ground
set {1..ground_size}.
"""

import itertools
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from tropibound.bergman import _coerce
from tropibound.matroid import Flat


def generators(chain, ground_size: int) -> tuple[tuple[int, ...], ...]:
    """The indicator vectors of the chain's flats."""
    return tuple(
        tuple(1 if e in f.as_set else 0 for e in range(1, ground_size + 1)) for f in chain
    )


def blocks(chain, ground_size: int) -> list[tuple[int, ...]]:
    """Partition of {1..ground_size} by the chain: F1, F2-F1, ..., complement."""
    out: list[tuple[int, ...]] = []
    prev: frozenset[int] = frozenset()
    for f in chain:
        out.append(tuple(sorted(f.as_set - prev)))
        prev = f.as_set
    out.append(tuple(sorted(set(range(1, ground_size + 1)) - prev)))
    return out


def contains(chain, ground_size: int, w: Sequence, strict: bool = False) -> bool:
    """Exact membership of w in the closed cone.

    Equivalent to: w constant on each block and block values weakly
    decreasing along the chain.  With strict=True, membership in the
    relative interior (strictly decreasing block values).
    """
    ww = _coerce(w)
    values = []
    for block in blocks(chain, ground_size):
        vals = {ww[e - 1] for e in block}
        if len(vals) != 1:
            return False
        values.append(next(iter(vals)))
    for a, b in zip(values, values[1:]):
        if a < b or (strict and a == b):
            return False
    return True


def sample_relative_interior(chain: Sequence[Flat], ground_size: int) -> tuple[int, ...]:
    """Sum of the chain's indicator vectors, counted per element as the
    number of chain flats containing it: a canonical relative-interior
    point of the chain's cone with zero lineality part."""
    acc = [0] * ground_size
    for f in chain:
        for e in f.elements:
            acc[e - 1] += 1
    return tuple(acc)


def reference_full_chains(flats: Iterable[Flat], top_rank: int) -> list[tuple[Flat, ...]]:
    """The chains F1 < F2 < ... of the given flats with ranks 1, 2, ...,
    top_rank - 1, depth first in the given order, each extension found by
    scanning every given flat of the next rank; the empty chain alone
    when top_rank <= 1.  The reference for the cover walk of
    ``matroid._full_chains``, which also needs a rank-0 flat to start."""
    by_rank: dict[int, list[Flat]] = {}
    for f in flats:
        if 1 <= f.rank < top_rank:
            by_rank.setdefault(f.rank, []).append(f)
    out: list[tuple[Flat, ...]] = []

    def extend(prefix: tuple[Flat, ...]):
        depth = len(prefix) + 1
        if depth >= top_rank:
            out.append(prefix)
            return
        for f in by_rank.get(depth, []):
            if not prefix or prefix[-1].as_set < f.as_set:
                extend((*prefix, f))

    extend(())
    return out


def _argmin_two_signed(w: Sequence, positive: tuple[int, ...], negative: tuple[int, ...]) -> bool:
    m = min(w[e - 1] for e in positive + negative)
    return any(w[e - 1] == m for e in positive) and any(w[e - 1] == m for e in negative)


def reference_positive_member(w: Sequence, OM) -> bool:
    """Positive membership read circuit by circuit, both orientations of
    each, off the minimum over its support: the reference for the level
    masks of ``bergman.is_positive_member``."""
    ww = _coerce(w)
    if len(ww) != OM.ground_size:
        raise ValueError("weight vector length mismatch")
    return all(_argmin_two_signed(ww, c.positive, c.negative) for c in OM.circuits)


def reference_merge(size: int, groups: Iterable[Sequence[int]]) -> list[list[int]]:
    """Partition of {1..size} into the classes of the union-find that
    merges each group, sorted: the reference for the bitmask classes of
    ``intersection._classes``."""
    parent = list(range(size + 1))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for group in groups:
        root = find(group[0])
        for e in group[1:]:
            parent[find(e)] = root
    classes: dict[int, list[int]] = {}
    for e in range(1, size + 1):
        classes.setdefault(find(e), []).append(e)
    return sorted(classes.values())


def reference_probe_cells(
    at_int: Sequence[Sequence[int]], groups, H: int, h_int: Sequence[int]
) -> list[tuple[int, tuple[Fraction, ...] | None]]:
    """Per product cell of an underdetermined fan-plan system, in the
    order of ``itertools.product`` over its groups (each component's
    cells, which share one block partition), the dimension of the cell's
    piece and, when that is 0, its point v.

    Each cell is probed in v-space, as the fan walk once did: its ties
    (w + h)_a = (w + h)_b as equalities and its ordering facets
    (w + h)_a <= (w + h)_b as inequalities, times H, go to
    ``reference_dimension`` over all n coordinates of v.  Ties that fail
    at h leave every piece empty, so they are solved once first.  The
    reference for
    ``intersection._probe_cells``, which probes in the free coordinates
    of the ties' solutions with ``_polyhedra.polyhedron_dimension``.
    """
    n = len(at_int[0])

    def tie(a: int, b: int) -> tuple[tuple[int, ...], int]:
        return tuple(H * (x - y) for x, y in zip(at_int[a], at_int[b])), h_int[b] - h_int[a]

    eqs = [tie(block[0] - 1, e - 1) for cells in groups for block in cells[0] for e in block[1:]]
    combos = list(itertools.product(*groups))
    if _solve_equalities(n, eqs) is None:
        return [(-1, None)] * len(combos)
    verdicts = []
    for combo in combos:
        ineqs = [
            tie(lower[0] - 1, upper[0] - 1)
            for cell in combo
            for upper, lower in zip(cell, cell[1:])
        ]
        dim, v = reference_dimension(n, eqs, ineqs)
        verdicts.append((dim, v if dim == 0 else None))
    return verdicts


# An exact Fourier-Motzkin elimination that keeps strict rows, the
# reference for ``_polyhedra``, with which it shares no code: the
# equalities go through its own Gauss-Jordan elimination over Fractions,
# the inequalities are scaled to primitive integer rows, and the sample
# is back-substituted in Fractions.  An equality is (coeffs, rhs) and an
# inequality (coeffs, rhs, strict), meaning coeffs . x <= rhs, or < if
# strict; entries are ints or Fractions.


def _normalize(coeffs, rhs):
    den = lcm(*(c.denominator for c in (*coeffs, rhs)))
    ints = [int(c * den) for c in (*coeffs, rhs)]
    g = gcd(*ints)
    if g > 1:
        ints = [x // g for x in ints]
    return tuple(ints[:-1]), ints[-1]


def _clean(ineqs):
    seen = {}
    for coeffs, rhs, strict in ineqs:
        if all(c == 0 for c in coeffs):
            if rhs < 0 or (strict and rhs == 0):
                raise ValueError("infeasible")
            continue
        key = _normalize(coeffs, rhs)
        seen[key] = seen.get(key, False) or strict
    return [(row, rhs, strict) for (row, rhs), strict in seen.items()]


def _eliminate(ineqs, var):
    lowers, uppers, passthrough = [], [], []
    for coeffs, rhs, strict in ineqs:
        c = coeffs[var]
        if c == 0:
            passthrough.append((coeffs, rhs, strict))
        else:
            (uppers if c > 0 else lowers).append((coeffs, rhs, strict, c))
    for lc, lr, ls, la in lowers:
        for uc, ur, us, ua in uppers:
            coeffs = tuple(ua * l - la * u for l, u in zip(lc, uc))
            passthrough.append((coeffs, ua * lr - la * ur, ls or us))
    return _clean(passthrough)


def _choose_var(ineqs, remaining):
    best, best_cost = remaining[-1], None
    for v in remaining:
        lo = sum(1 for c, _, _ in ineqs if c[v] < 0)
        hi = sum(1 for c, _, _ in ineqs if c[v] > 0)
        cost = lo * hi - lo - hi
        if best_cost is None or cost < best_cost:
            best, best_cost = v, cost
    return best


def _feasible_ineqs(dim, ineqs):
    """A sample of the inequalities, back-substituted at the midpoint of
    each bounded interval, a step of 1 off the bound of a ray and at 1
    when nothing bounds the variable; None when infeasible."""
    try:
        stages = []
        current = _clean(list(ineqs))
        remaining = list(range(dim))
        while remaining:
            var = _choose_var(current, remaining)
            stages.append((var, current))
            current = _eliminate(current, var)
            remaining.remove(var)
    except ValueError:
        return None
    sample = [Fraction(0)] * dim
    for var, constraints in reversed(stages):
        lo = hi = None
        for coeffs, rhs, _ in constraints:
            c = coeffs[var]
            if c == 0:
                continue
            rest = sum((coeffs[j] * sample[j] for j in range(dim) if j != var), Fraction(0))
            bound = (rhs - rest) / c
            if c > 0:
                hi = bound if hi is None else min(hi, bound)
            else:
                lo = bound if lo is None else max(lo, bound)
        if lo is None and hi is None:
            value = Fraction(1)
        elif lo is None:
            value = hi - 1
        elif hi is None:
            value = lo + 1
        else:
            value = (lo + hi) / 2
        sample[var] = value
    return tuple(sample)


def _solve_equalities(dim, equalities):
    """(x0, kernel) with {x : equalities} = {x0 + sum of s_i kernel[i]},
    read off the reduced row echelon form: x0 zero off the pivot columns
    and one kernel vector per free column f, 1 at f and zero at the other
    free columns.  None when the equalities are inconsistent."""
    rows = [[Fraction(c) for c in (*coeffs, rhs)] for coeffs, rhs in equalities]
    pivots = []
    for col in range(dim):
        r = next((i for i in range(len(pivots), len(rows)) if rows[i][col]), None)
        if r is None:
            continue
        k = len(pivots)
        rows[k], rows[r] = rows[r], rows[k]
        pivot = rows[k][col]
        rows[k] = [x / pivot for x in rows[k]]
        for i, row in enumerate(rows):
            if i != k and row[col]:
                rows[i] = [x - row[col] * y for x, y in zip(row, rows[k])]
        pivots.append(col)
    if any(row[dim] for row in rows[len(pivots) :]):
        return None
    x0 = [Fraction(0)] * dim
    for row, col in zip(rows, pivots):
        x0[col] = row[dim]
    kernel = []
    for f in range(dim):
        if f not in pivots:
            k = [Fraction(int(j == f)) for j in range(dim)]
            for row, col in zip(rows, pivots):
                k[col] = -row[f]
            kernel.append(k)
    return x0, kernel


def _over_solutions(dim, equalities, inequalities):
    """The solutions x0 + sum of s_i kernel[i] of the equalities, and the
    inequalities rewritten as rows in s; None when the equalities are
    inconsistent."""
    solved = _solve_equalities(dim, equalities)
    if solved is None:
        return None
    x0, kernel = solved
    rows = [
        (
            tuple(sum(a * x for a, x in zip(coeffs, k)) for k in kernel),
            rhs - sum(a * x for a, x in zip(coeffs, x0)),
            strict,
        )
        for coeffs, rhs, strict in inequalities
    ]
    return x0, kernel, rows


def _lift(x0, kernel, s):
    return tuple(x0[j] + sum(si * k[j] for si, k in zip(s, kernel)) for j in range(len(x0)))


def reference_feasible_point(dim: int, equalities, inequalities) -> tuple | None:
    """A point of {x : equalities, inequalities}, strict rows held
    strictly, or None when there is none."""
    solved = _over_solutions(dim, equalities, inequalities)
    if solved is None:
        return None
    x0, kernel, rows = solved
    s = _feasible_ineqs(len(kernel), rows)
    return None if s is None else _lift(x0, kernel, s)


def reference_dimension(dim: int, equalities, inequalities) -> tuple[int, tuple | None]:
    """Dimension of {x : equalities, weak inequalities (coeffs, rhs)} and
    a point in its relative interior, or (-1, None) when empty, by
    implicit equalities: the reference for
    ``_polyhedra.polyhedron_dimension``, which reads both off one
    elimination.

    The inequalities are rewritten over the solutions of the equalities,
    and each is probed once, strictly, with the others weak; a row that
    cannot hold strictly is implicit (tight on the whole polyhedron).
    The dimension is the number of free columns left by the equalities
    and the implicit rows, and a point with every other row strict lies
    in the relative interior.
    """
    solved = _over_solutions(dim, equalities, [(c, r, False) for c, r in inequalities])
    if solved is None:
        return -1, None
    x0, kernel, rows = solved
    k = len(kernel)
    if _feasible_ineqs(k, rows) is None:
        return -1, None
    implicit = [
        _feasible_ineqs(k, rows[:i] + rows[i + 1 :] + [(c, r, True)]) is None
        for i, (c, r, _) in enumerate(rows)
    ]
    tight = [(c, r) for (c, r, _), imp in zip(rows, implicit) if imp]
    s = _feasible_ineqs(k, [(c, r, not imp) for (c, r, _), imp in zip(rows, implicit)])
    return len(_solve_equalities(k, tight)[1]), _lift(x0, kernel, s)
