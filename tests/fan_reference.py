"""Reference geometry of a fine fan cone, and reference predicates on
weight vectors, for the tests.

A cone is the tuple of its chain's flats: the nonnegative span of the
flats' indicator vectors plus the all-ones lineality line, on the ground
set {1..ground_size}.
"""

import itertools
from fractions import Fraction
from typing import Iterable, Sequence

from tropibound._polyhedra import feasible_point
from tropibound.bergman import _coerce
from tropibound.matroid import Flat
from tropibound.rational import RationalMatrix, rank


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
    at h leave every piece empty.  The reference for
    ``intersection._probe_cells``, which probes in the free coordinates
    of the ties' solutions with ``_polyhedra.polyhedron_dimension``.
    """
    n = len(at_int[0])

    def tie(a: int, b: int) -> tuple[tuple[int, ...], int]:
        return tuple(H * (x - y) for x, y in zip(at_int[a], at_int[b])), h_int[b] - h_int[a]

    eqs = [tie(block[0] - 1, e - 1) for cells in groups for block in cells[0] for e in block[1:]]
    verdicts = []
    for combo in itertools.product(*groups):
        ineqs = [
            (*tie(lower[0] - 1, upper[0] - 1), False)
            for cell in combo
            for upper, lower in zip(cell, cell[1:])
        ]
        dim, v = reference_dimension(n, eqs, ineqs)
        verdicts.append((dim, v if dim == 0 else None))
    return verdicts


def reference_dimension(dim: int, equalities, inequalities) -> tuple[int, tuple | None]:
    """Dimension of {x : equalities, weak inequalities} and a point in its
    relative interior, or (-1, None) when empty, by implicit equalities:
    the reference for ``_polyhedra.polyhedron_dimension``, which reads
    both off one elimination.

    Each inequality is probed once, strictly, with ``feasible_point``; a
    row that cannot hold strictly is implicit (tight on the whole
    polyhedron) and joins the equalities.  One pass suffices, since
    folding an implicit row into the equalities leaves the polyhedron,
    and so every other verdict, unchanged.  The dimension is dim less the
    rank of the equalities, and a point with every other row strict lies
    in the relative interior.  Only the feasibility verdicts of
    ``feasible_point`` are used, never the dimension it counts.
    """
    eqs = list(equalities)
    ineqs = [(c, r, False) for c, r, _ in inequalities]
    if feasible_point(dim, eqs, ineqs) is None:
        return -1, None
    still = []
    for i, (coeffs, rhs, _) in enumerate(ineqs):
        if feasible_point(dim, eqs, still + ineqs[i + 1 :] + [(coeffs, rhs, True)]) is None:
            eqs.append((coeffs, rhs))
        else:
            still.append((coeffs, rhs, False))
    if eqs:
        dim_left = dim - rank(RationalMatrix(len(eqs), dim, [c for row, _ in eqs for c in row]))
    else:
        dim_left = dim
    return dim_left, feasible_point(dim, eqs, [(c, r, True) for c, r, _ in still])
