"""Exact enumeration of the positive tropical linear space, shifted by -h,
intersected with the row span of an integer exponent matrix.

Two structurally different complete enumerations are provided: the primary
one solves the tie systems of the distinct block partitions of the
positive cells (componentwise, since circuits never straddle connected
components), one elimination per partition combination, whose recorded
row operations give its pivot ties' solutions and free coordinates,
listing the cells themselves only where an underdetermined system's
ties hold, and probing each cell as inequalities alone in those free
coordinates; the oracle enumerates vertices of the tie-hyperplane
arrangement, one circuit at a time.
Per-point isolation is certified exactly, never by genericity arguments,
and read off the cells the walk already probes: a point is not isolated
iff it lies in the closed cone of a probed cell whose piece has positive
dimension, and ``tangent_direction`` finds a direction of that piece in
the same free coordinates.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from operator import mul, or_
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, NamedTuple, Sequence

from tropibound import _polyhedra
from tropibound.bergman import _argmin, _is_positive_flat, _level_masks, is_positive_member
from tropibound.matroid import (
    OrientedMatroid,
    _elements,
    _flat_levels,
    _mask,
    realize_from_kernel,
)
from tropibound.rational import (
    RationalMatrix,
    _echelon,
    integer_columns,
    integer_multiple,
    primitive,
    vector,
)

if TYPE_CHECKING:
    from tropibound.systems import VerticalSystem


class InputValidationError(ValueError):
    pass


class OracleMismatchError(AssertionError):
    """The fan walk and the vertex oracle disagreed; one of them is wrong."""


@dataclass(frozen=True)
class Diagnostics:
    r: int
    n: int
    rank_A: int
    rank_C: int
    ranks_ok: bool
    lineality_ok: bool
    messages: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return self.ranks_ok and self.lineality_ok


def validate_inputs(OM: OrientedMatroid, A: RationalMatrix) -> Diagnostics:
    """Check the rank hypotheses and the lineality obstruction.

    Hard error when rank(A) < rows(A): the monomial parametrization is
    not injective and no bound can be stated.  Everything else is
    reported in the diagnostics and degrades certification, not
    computation.  rank(C) is read off the kernel realization OM of C as
    r - rank(OM), so C is never eliminated here.  A is eliminated once,
    as the rows (A^T_j, 1) over its columns j, read through
    ``integer_columns``, which the matrix keeps: so a non-integer A
    raises ValueError here, as ``_fan_plan`` would next.  rank(A) is the
    number of pivots among the first n columns, and the all-ones vector
    lies in rowspan(A) iff the last column has no pivot.
    """
    n, r = A.rows, A.cols
    rows = [(*col, 1) for col in integer_columns(A)]
    pivots = _echelon(rows, n + 1)[1]
    rank_A = sum(p < n for p in pivots)
    if rank_A < n:
        raise InputValidationError(
            f"exponent matrix has rank {rank_A} < {n} rows; parametrization is not injective"
        )
    rank_C = r - OM.rank
    messages = []
    ranks_ok = rank_C == n
    if not ranks_ok:
        messages.append(
            f"rank(C) = {rank_C} differs from n = {n}; the root-count bound does not apply"
        )
    ones_in = n not in pivots
    if ones_in:
        messages.append(
            "the all-ones vector lies in rowspan(A); every solution translates along a line"
        )
    return Diagnostics(
        r=r,
        n=n,
        rank_A=rank_A,
        rank_C=rank_C,
        ranks_ok=ranks_ok,
        lineality_ok=not ones_in,
        messages=tuple(messages),
    )


@dataclass(frozen=True)
class IntersectionPoint:
    """One point of the shifted positive fan meeting rowspan(A).

    w = A^T v exactly, and w + h passes the positive-membership test.
    ``supporting_flag`` is the chain of upper level sets of w + h as
    element tuples, smallest first, each one a flat.  ``interior``
    records whether w + h sits in the relative interior of a
    full-dimensional cell of the coarse structure (the locus where the
    initial circuits stay constant); ``isolated`` records that no nonzero
    tangent direction inside rowspan(A) stays in the fan.
    """

    v: tuple[Fraction, ...]
    w: tuple[Fraction, ...]
    supporting_flag: tuple[tuple[int, ...], ...]
    isolated: bool
    interior: bool


@dataclass(frozen=True)
class IntersectionReport:
    points: tuple[IntersectionPoint, ...]
    count: int
    transverse: bool
    diagnostics: Diagnostics
    free_matroid: bool
    positive_dimensional: bool
    notes: tuple[str, ...]
    # the oriented matroid the points were found in; not part of the document
    matroid: OrientedMatroid = field(compare=False, repr=False)

    def to_document(self) -> dict:
        return {
            "method": "fan",
            "count": self.count,
            "transverse": self.transverse,
            "lineality_ok": self.diagnostics.lineality_ok,
            "free_matroid": self.free_matroid,
            "positive_dimensional": self.positive_dimensional,
            "diagnostics": {
                "r": self.diagnostics.r,
                "n": self.diagnostics.n,
                "rank_A": self.diagnostics.rank_A,
                "rank_C": self.diagnostics.rank_C,
                "ranks_ok": self.diagnostics.ranks_ok,
                "messages": list(self.diagnostics.messages),
            },
            "points": [
                {
                    "v": [str(x) for x in p.v],
                    "w": [str(x) for x in p.w],
                    "flag": [list(f) for f in p.supporting_flag],
                    "isolated": p.isolated,
                    "interior": p.interior,
                }
                for p in self.points
            ],
            "notes": list(self.notes),
        }


def _level_flag(p: Sequence) -> tuple[tuple[int, ...], ...]:
    """The proper upper level sets of p as element tuples, smallest first.

    For p in the positive fan they are flats: p lies in the closed cone
    of a chain of positive flats (Ardila-Klivans-Williams, see
    ``_is_positive_flat``), and each proper upper level set of a point
    of that cone is one of the chain's flats.  A positive multiple of p
    plus a constant has the same level sets.
    """
    values = sorted(set(p), reverse=True)
    return tuple(tuple(e for e, x in enumerate(p, 1) if x >= cut) for cut in values[:-1])


def _is_interior(p: Sequence, OM: OrientedMatroid) -> bool:
    """Whether p lies in a full-dimensional cell of the coarse structure.

    The tangent space of the constant-initial-circuits locus at p is cut
    out by tying each circuit's argmin set; merging those sets
    (``_classes``) leaves exactly rank(M) parts iff the cell has the
    fan's full dimension.  Each circuit is read once, up to negation, as
    its sign bitmasks.
    """
    levels = _level_masks(p)
    argmins = {_argmin(levels, P | N) for P, N in OM.sign_masks}
    return len(_classes((1 << OM.ground_size) - 1, argmins)) == OM.rank


_OUTSIDE = "point is not in the positive fan; isolation is undefined"


def _image(
    at_int: Sequence[Sequence[int]], h_int: Sequence[int], x: Sequence[int], d: int
) -> list[int]:
    """p = A^T x + d (H h) for the rows ``at_int`` of an integer A^T and
    ``h_int`` = H h: the image A^T v + h of v = x / (d H), times d H.
    With d H > 0 it is a positive multiple, with the same argmins, ties
    and level sets.  The vertex oracle passes the rows of H A^T, and so
    gets H d (A^T v + h) for v = x / d."""
    return [sum(map(mul, row, x)) + d * hj for row, hj in zip(at_int, h_int)]


def _lowest_terms(x: Sequence[int], d: int) -> tuple[tuple[int, ...], int]:
    """x and d divided by their gcd, with d > 0: the one key of the point
    x / d, under which the fan walk and the vertex oracle each test a
    candidate point once."""
    g = gcd(d, *x) if d > 0 else -gcd(d, *x)
    return tuple(xi // g for xi in x), d // g


def tangent_direction(
    v: Sequence, OM: OrientedMatroid, A: RationalMatrix, h: Sequence
) -> tuple[Fraction, ...] | None:
    """A nonzero direction u with A^T (v + eps u) + h inside the positive
    fan for all small eps > 0, or None when no such direction exists.

    By the rule of ``intersect_via_fan``, one exists iff p = A^T v + h
    lies in the closed cone of a probed product cell whose piece at h has
    positive dimension.  That piece is a polyhedron holding v and a
    second point, so its tangent cone at v is nonzero.  The piece lies in
    the solutions v = (x + sum of t_f l_f) / (d H) of its system's ties,
    where it is cut out by the cell's ordering facets, already reduced
    onto the free coordinates t (``_Underdetermined.facets``); so its
    tangent cone at v is {t : row . t <= 0} over the facets tight at p.
    ``_polyhedra.cone_nonzero_point`` finds t != 0 there, in the relative
    interior of that cone, and u = sum of t_f l_f is nonzero, since the
    l_f are independent.  v + eps u stays in the piece for small
    eps > 0, so its image stays in the cell's closed cone, inside the
    positive fan.

    A must be integer, and (OM, A) go through ``_fan_plan``, so
    rank(A) < n raises ``InputValidationError``.  ValueError when p is
    outside the positive fan.
    """
    V, v_int = integer_multiple(vector(v))
    H, h_int = integer_multiple(vector(h))
    p = _image(integer_columns(A), h_int, [H * x for x in v_int], V)
    if not is_positive_member(p, OM):
        raise ValueError(_OUTSIDE)
    plan = _fan_plan(OM, A)
    for system, cell, dim, _ in _product_cells(plan, h_int, _verdicts(plan.checks, h_int)):
        if dim > 0 and _in_closed_cone(p, cell):
            tight = [(a, b) for c in cell for a, b in _ordering_pairs(c) if p[a] == p[b]]
            rows = [system.facets[pair][0] for pair in tight]
            t = _polyhedra.cone_nonzero_point(len(system.kernel), rows)
            return tuple(sum(map(mul, t, column)) for column in zip(*system.kernel))
    return None


def is_isolated(v: Sequence, OM: OrientedMatroid, A: RationalMatrix, h: Sequence) -> bool:
    """Exact certificate: no nonzero tangent direction inside rowspan(A)
    stays in the positive fan at p = A^T v + h (``tangent_direction``).

    ValueError when p is outside the positive fan.
    """
    return tangent_direction(v, OM, A, h) is None


# ---------------------------------------------------------------------------
# componentwise cell enumeration


def _classes(ground: int, groups: Iterable[int]) -> list[int]:
    """The partition of the bitmask ``ground`` into the classes of the
    union-find that merges each group bitmask: every class is a bitmask,
    an element in no group is a class alone, and the classes come in
    order of their lowest element.  A group absorbs every class it
    meets, so the classes stay disjoint."""
    classes: list[int] = []
    for g in groups:
        apart = []
        for c in classes:
            if c & g:
                g |= c
            else:
                apart.append(c)
        apart.append(g)
        classes = apart
    rest = ground & ~functools.reduce(or_, classes, 0)
    while rest:
        classes.append(rest & -rest)
        rest &= rest - 1
    return sorted(classes, key=lambda c: c & -c)


# a positive cell as its ordered, nonempty blocks of element labels
_Cell = tuple[tuple[int, ...], ...]


class _Component(NamedTuple):
    """One circuit-connected component's positive fan, flat by flat.

    Flats are bitmasks of global labels (element e is bit e - 1).
    ``above`` maps the empty flat 0 and each positive proper flat to the
    positive proper flats strictly containing it; ``partitions`` are the
    distinct block partitions of the component's positive cells, each as
    sorted blocks, in sorted order.
    """

    above: dict[int, tuple[int, ...]]
    partitions: tuple[_Cell, ...]


def _cell_partitions(
    OM: OrientedMatroid,
) -> tuple[tuple[_Component, ...], tuple[int, ...] | None]:
    """Per circuit-connected component, the block partitions of its
    positive cells, found by a recursion over its positive proper flats
    memoized by flat.

    A cell here is the cone of a chain F_1 < ... < F_k of positive
    proper flats that no positive proper flat extends at its top
    (Ardila-Klivans-Williams, arXiv math/0406116; see
    ``_is_positive_flat``), with blocks F_1, F_2 - F_1, ..., E - F_k.  A
    step of the chain need not be a cover: a chain that skips a rank
    spans a cone of lower dimension inside the positive fan, and its
    partition is listed too.  So the partitions of the chains starting
    above a flat F are parts(F) = {E - F} when no positive proper flat
    lies above F, and otherwise the union over positive proper G > F of
    {G - F} + parts(G).  Each parts(F) is built once, larger flats
    first; the component's partitions are parts of the empty flat, which
    is {E} when it has no positive proper flat.  A component's flats are
    the bitmasks of global labels that ``_flat_levels`` finds from the
    circuit supports inside it, and its positive flats those that pass
    ``_is_positive_flat`` with the circuits inside it.  Returns
    ``(components, None)``, or ``((), comp)`` for the first component
    ``comp`` that admits no positive weight: there the empty flat fails,
    because some circuit is one-signed.

    While the recursion runs, a partition is one int: with r the ground
    size, block B is its bitmask shifted to bit offset r * (lowest
    element of B - 1).  Blocks are disjoint, so no two share an offset
    and {G - F} + parts(G) is one integer addition per partition.  Only
    the partitions of the empty flat are decoded, r bits at a time; the
    blocks come out ordered by lowest element, so already sorted.
    """
    elements = functools.cache(_elements)
    signs = OM.sign_masks
    r = OM.ground_size
    full, slots = (1 << r) - 1, range(0, r * r, r)

    def block(B: int) -> int:
        return B << r * ((B & -B).bit_length() - 1)

    components = []
    for top in _classes(full, OM._masks):
        inside = [(p, q) for p, q in signs if not (p | q) & ~top]
        if not _is_positive_flat(0, inside):
            return (), _elements(top)
        levels = _flat_levels(top, [c for c in OM._masks if not c & ~top])
        # the proper flats have ranks 1 to rank - 1, the levels between the ends
        proper = [F for level in levels[1:-1] for F in level if _is_positive_flat(F, inside)]
        above = {F: tuple(G for G in proper if G != F and G & F == F) for F in [0, *proper]}
        # a flat strictly above F has more elements, so larger flats go first
        parts: dict[int, set[int]] = {}
        for F in sorted(above, key=int.bit_count, reverse=True):
            parts[F] = (
                {p + b for G in above[F] for b in (block(G & ~F),) for p in parts[G]}
                if above[F]
                else {block(top & ~F)}
            )
        decoded = (tuple(elements(B) for B in (p >> i & full for i in slots) if B) for p in parts[0])
        components.append(_Component(above, tuple(sorted(decoded))))
    return tuple(components), None


def _fine_cells(above: dict[int, tuple[int, ...]], partition: _Cell) -> tuple[_Cell, ...]:
    """The positive cells with the block partition ``partition``: the
    orderings of its blocks in which every proper prefix union is a
    positive proper flat (a key of ``above``) and the last one has no
    positive proper flat above it."""
    cells: list[_Cell] = []

    def walk(F: int, order: tuple[tuple[int, ...], ...], rest: list[tuple[int, ...]]) -> None:
        if len(rest) == 1:
            if not above[F]:
                cells.append((*order, rest[0]))
            return
        for i, block in enumerate(rest):
            G = F | _mask(block)
            if G in above:
                walk(G, (*order, block), rest[:i] + rest[i + 1 :])

    walk(0, (), list(partition))
    return tuple(cells)


@dataclass(frozen=True)
class _Underdetermined:
    """An underdetermined combination's ties, eliminated with h left
    symbolic, and, listed the first time they are read, its cells and
    their ordering facets in the coordinates of the ties' solution space.

    d, ``h_rows`` and ``kernel`` are its pivot set's, shared by every
    combination with those pivot ties (``_fan_plan``); ``check`` are the
    indices of its own check rows in the plan's table.  With
    x_i = h_row_i . (H h), the ties hold at h iff each of those rows has
    row . (H h) = 0, and then their solutions are
    v = (x + sum of t_f l_f) / (d H) over t in R^k, where the k free
    directions l_f form ``kernel``.  The cells matter only at an h where
    the ties hold, so ``groups`` and ``facets`` are memoized properties,
    computed by the first ``_product_cells`` that finds the ties holding; a
    scan over shifts sharing the plan lists each entry's cells at most
    once.
    """

    d: int
    h_rows: tuple
    kernel: tuple[tuple[int, ...], ...]
    check: tuple[int, ...]
    at_int: tuple[tuple[int, ...], ...]
    # each component's block partition
    combo: tuple[_Cell, ...]
    # the plan's ``_fine_cells``, memoized by component index and partition
    fine_cells: Callable[[int, _Cell], tuple[_Cell, ...]]

    @functools.cached_property
    def groups(self) -> tuple[tuple[_Cell, ...], ...]:
        """Each component's positive cells with its partition."""
        return tuple(self.fine_cells(i, partition) for i, partition in enumerate(self.combo))

    @functools.cached_property
    def facets(self) -> dict[tuple[int, int], tuple[tuple[int, ...], tuple[int, ...]]]:
        """Each ordering facet of the cells, keyed by its 0-based pair
        (a, b), as (row, diff).  The facet (w + h)_a <= (w + h)_b, times
        d H, reads row . t <= d ((H h)_b - (H h)_a) - diff . x, with diff
        the difference A^T_a - A^T_b and row the diff . l_f."""
        facets = {}
        for cells in self.groups:
            for cell in cells:
                for a, b in _ordering_pairs(cell):
                    if (a, b) not in facets:
                        diff = tuple(x - y for x, y in zip(self.at_int[a], self.at_int[b]))
                        facets[a, b] = (tuple(sum(map(mul, diff, f)) for f in self.kernel), diff)
        return facets


def _ordering_pairs(cell: _Cell) -> list[tuple[int, int]]:
    """The 0-based pairs (a, b) of a cell's ordering facets
    (w + h)_a <= (w + h)_b: the first elements of each block and of the
    block before it."""
    return [(lower[0] - 1, upper[0] - 1) for upper, lower in zip(cell, cell[1:])]


class _FanPlan(NamedTuple):
    """Everything the fan walk needs that depends only on (OM, A)."""

    diagnostics: Diagnostics
    empty: tuple[int, ...] | None  # a component admitting no positive weight
    at_int: tuple[tuple[int, ...], ...]  # the rows of A^T
    # the distinct nonzero check rows of every tie system, in order of
    # first appearance; the entries below name them by index
    checks: tuple[tuple[int, ...], ...]
    # per distinct pivot tie set of the full-rank partition combinations,
    # in order of first appearance: its d and h_rows, and per distinct
    # combination the indices of its check rows
    pivoted: tuple[tuple[int, tuple, tuple[tuple[int, ...], ...]], ...]
    # per underdetermined combination, its ``_Underdetermined`` entry
    underdetermined: tuple[_Underdetermined, ...]


@functools.lru_cache(maxsize=1)
def _fan_plan(OM: OrientedMatroid, A: RationalMatrix) -> _FanPlan:
    """Validate (OM, A), find each component's block partitions, and
    eliminate the ties of each partition combination once, sharing one
    entry among the combinations with the same pivot ties, whatever
    their rank.

    A is read through ``integer_columns``, so a non-integer A raises
    ValueError.  The ties of a combination tie each block's first element
    to each of its other elements, and are eliminated with h left
    symbolic: so a one-entry memo lets every shift of a scan over one
    matroid and one A share the plan; the result is immutable because
    callers share it.  Tie (a, b) reads
    (A^T_a - A^T_b) . v = (e_b - e_a) . h.

    Each combination is eliminated once: one ``_echelon`` of
    [D | I_n] over the k columns of D, the n x k differences
    A^T_a - A^T_b of its k pairs, one column per pair.  It finds the
    pivot ties, the first rho <= n pairs with independent differences,
    as ``first_independent_rows`` does, and the identity columns record
    its row operations as L.  With P the n x rho pivot differences, rows
    t < rho have L_t P = d e_t, so with
    h_row_i = sum_t L[t][i] (e_b_t - e_a_t) over the pivot ties
    t = (a_t, b_t), v_i = h_row_i . h / d solves them:
    d H v_i = h_row_i . (H h).  Rows rho to n - 1 have L_f P = 0, and L
    is invertible, so they are n - rho independent free directions l_f,
    and the solutions are v = (x + sum of t_f l_f) / (d H) with
    x_i = h_row_i . (H h).  At full rank there are none and L = d P^-1.
    The first combination with a pivot set reads its d, h_rows and free
    directions off that elimination.

    Why one entry per pivot set is sound: ``_echelon`` does row
    operations only at pivot columns, and a column that depends on
    earlier ones is already zero below the pivot rows, so it starts
    none.  The operations, and d, depend only on the pivot columns in
    order, so every combination with the same pivot ties records the
    same L and d, and its echelon is L times its differences.  Its
    column of pair (a, b) is then
    L (A^T_a - A^T_b): lam_t in rows t < rho and 0 below, so
    A^T_a - A^T_b is sum_t lam_t / d times the difference of pivot tie t.
    Where the pivot ties hold, (a, b) then holds iff its check row
    c = sum_t lam_t (e_b_t - e_a_t) + d (e_a - e_b) has c . (H h) = 0.
    The lam are read off the first rho rows only.  So every combination
    with the same pivot ties shares L, d and each pair's check row, and
    differs only in which pairs it has.

    The distinct nonzero check rows of the whole plan form one table,
    ``checks``, and every entry names its rows by index there.  A row is
    one linear condition c . (H h) = 0 on h, whichever pivot set it came
    from, so one verdict per row and shift serves every entry that
    names it (``_verdicts``).  A full-rank combination becomes the tuple
    of its distinct row indices, in order of first appearance, and its
    pivot set keeps each distinct tuple once: the pivot set is
    consistent at h iff one of its tuples has no failing row.  A
    combination of rank below n becomes an ``_Underdetermined`` entry:
    its pivot set's d, h_rows and free directions, and its own row
    indices.  Its positive cells, and their ordering facets reduced onto
    the free coordinates, are listed only when a walk first finds its
    ties holding (``_Underdetermined.groups`` and ``.facets``), since
    only a consistent underdetermined system is probed cell by cell; one
    memo per plan lists each component partition's cells once, for
    every combination that shares it.
    """
    diagnostics = validate_inputs(OM, A)
    at_int = integer_columns(A)
    n = A.rows
    components, empty = _cell_partitions(OM)
    cells = functools.cache(lambda i, partition: _fine_cells(components[i].above, partition))
    # the rows of A beside the identity, whose columns record the row operations
    A_rows = [(row, [int(i == j) for j in range(n)]) for i, row in enumerate(zip(*at_int))]
    # each distinct nonzero check row -> its index in the plan's table
    index: dict[tuple[int, ...], int] = {}
    # pivot pairs -> (d, h_rows, free directions, pair -> index of its
    # check row or None when that is 0, full-rank combinations' indices)
    pivoted: dict[tuple, tuple[int, tuple, tuple, dict, dict]] = {}
    underdetermined = []
    # an empty fan has no cells; product() of no factors would yield one
    if empty is None:
        for combo in itertools.product(*(c.partitions for c in components)):
            pairs = [(block[0] - 1, e - 1) for blocks in combo for block in blocks for e in block[1:]]
            k = len(pairs)
            rows = [[Ai[a] - Ai[b] for a, b in pairs] + e for Ai, e in A_rows]
            m, independent, d, _ = _echelon(rows, k)
            key = tuple(map(pairs.__getitem__, independent))
            rank = len(key)
            if key not in pivoted:
                h_rows = [[0] * A.cols for _ in range(n)]
                for (a, b), Lt in zip(key, m):
                    for h_row, x in zip(h_rows, Lt[k:]):
                        h_row[a], h_row[b] = h_row[a] - x, h_row[b] + x
                free = tuple(tuple(row[k:]) for row in m[rank:])
                pivoted[key] = (d, tuple(map(tuple, h_rows)), free, {}, {})
            d, h_rows, free, row_of, combos = pivoted[key]
            for j, pair in enumerate(pairs):
                if pair not in row_of:
                    # c = sum_t lam_t (e_b_t - e_a_t) + d (e_a - e_b) with
                    # lam_t = m[t][j] for t < rho: the pair itself enters with -d
                    c = [0] * A.cols
                    lams = [row[j] for row in m[:rank]] + [-d]
                    for (a, b), lam in zip((*key, pair), lams):
                        c[a], c[b] = c[a] - lam, c[b] + lam
                    row_of[pair] = index.setdefault(tuple(c), len(index)) if any(c) else None
            check = tuple(dict.fromkeys(i for i in map(row_of.get, pairs) if i is not None))
            if rank == n:
                combos[check] = None
            else:
                underdetermined.append(
                    _Underdetermined(d, h_rows, free, check, at_int, combo, cells)
                )
    pivot_sets = tuple(
        (d, h, tuple(combos)) for key, (d, h, _, _, combos) in pivoted.items() if len(key) == n
    )
    return _FanPlan(diagnostics, empty, at_int, tuple(index), pivot_sets, tuple(underdetermined))


def _verdicts(
    checks: Sequence[Sequence[int]], h_int: Sequence[int]
) -> Callable[[Iterable[int]], bool]:
    """The test, at the shift with integer multiple H h, of whether every
    check row named by some indices has c . (H h) = 0.

    The verdicts live in one list, shared by every call of the returned
    test and computed the first time a row is read, so each row of the
    table is evaluated at most once per shift.  A call reads its rows in
    order and stops at the first that fails.
    """
    verdicts: list[bool | None] = [None] * len(checks)

    def holds(rows: Iterable[int]) -> bool:
        for i in rows:
            held = verdicts[i]
            if held is None:
                held = verdicts[i] = not sum(map(mul, checks[i], h_int))
            if not held:
                return False
        return True

    return holds


def _product_cells(
    plan: _FanPlan, h_int: Sequence[int], holds: Callable[[Iterable[int]], bool]
) -> Iterator[tuple[_Underdetermined, tuple[_Cell, ...], int, tuple[list[int], int] | None]]:
    """Each product cell of the plan's underdetermined systems whose ties
    hold at the shift with integer multiple ``h_int`` = H h, in the order
    of ``itertools.product`` over its system's groups, with its system,
    the dimension of its piece there and, when that is 0, the piece's
    point as (x', d') with v = x' / (d' H); H itself enters only where
    the caller builds v.  A system's ties hold iff ``holds``, the
    shift's ``_verdicts`` of the plan's check rows, passes its row
    indices; a system whose ties fail is skipped before its cells are
    listed.

    Each cell is probed by ``_polyhedra.polyhedron_dimension``, one
    Fourier-Motzkin run, in the k free coordinates t of the ties'
    solutions v = (x + sum of t_f l_f) / (d H): the ties hold on the
    whole solution space, so the cell's piece there is cut out by its
    ordering facets of ``_Underdetermined.facets`` alone, as
    inequalities, each facet's right-hand side found once per system.  A
    zero-dimensional piece is one point, its sample t; with
    (den, nums) = ``integer_multiple(t)`` it is
    x' = den x + sum of nums_f l_f over d' = den d, in integers.
    """
    for system in plan.underdetermined:
        if not holds(system.check):
            continue
        d, kernel = system.d, system.kernel
        x = [sum(map(mul, row, h_int)) for row in system.h_rows]
        facets = {
            (a, b): (row, d * (h_int[b] - h_int[a]) - sum(map(mul, diff, x)))
            for (a, b), (row, diff) in system.facets.items()
        }
        for cell in itertools.product(*system.groups):
            ineqs = [facets[pair] for c in cell for pair in _ordering_pairs(c)]
            dim, t = _polyhedra.polyhedron_dimension(len(kernel), ineqs)
            point = None
            if dim == 0:
                den, nums = integer_multiple(t)
                moved = [sum(map(mul, nums, column)) for column in zip(*kernel)]
                point = ([xi * den + m for xi, m in zip(x, moved)], d * den)
            yield system, cell, dim, point


def _in_closed_cone(p: Sequence[int], cell: tuple[_Cell, ...]) -> bool:
    """Whether p lies in the closed cone of a product cell: p is constant
    on each block, and p[a] <= p[b] for each of its ``_ordering_pairs``."""
    return all(
        all(p[e - 1] == p[block[0] - 1] for block in c for e in block[1:])
        and all(p[a] <= p[b] for a, b in _ordering_pairs(c))
        for c in cell
    )


def intersect_via_fan(OM: OrientedMatroid, A: RationalMatrix, h: Sequence) -> IntersectionReport:
    """Primary enumeration: the tie systems of the distinct block
    partitions of the positive cells.

    Circuits never straddle circuit-connected components, so positive
    cells are products of per-component cells and their tie systems
    depend only on the induced block partition.  Every intersection point
    lies in the closed cone of some cell, hence solves some enumerated
    tie system.  Underdetermined systems are analyzed exactly, cell by
    cell with the cell's ordering facets: empty pieces are discarded,
    zero-dimensional pieces contribute their point, and
    higher-dimensional pieces flag the run as non-transverse.

    The partitions are found, and the ties of the integer A eliminated
    with h left symbolic, once per (OM, A) in ``_fan_plan``, one
    elimination per system; the systems with the same pivot ties, full
    rank or not, share one entry, and every entry names its check rows
    in one plan-wide table.  Per call, ``integer_multiple`` gives H and
    the ints H h, and one list of verdicts (``_verdicts``), read by the
    pivot sets and by ``_product_cells`` alike, evaluates each row of
    the table at most once, the first time an entry reads it: a
    full-rank pivot set is consistent iff, for some one of its
    combinations, each check row . (H h) is 0 (its combinations are
    tried in order, each until a row fails), an underdetermined system
    iff all of its own are, and then x_i = h_row_i . (H h).  A full-rank
    pivot set has the unique solution v = x / (d H).  An underdetermined
    system's solutions are v = (x + sum of t_f l_f) / (d H), with its
    pivot set's free directions l_f, and its cells are probed in those k
    free coordinates t (``_product_cells``): the plan entry lists the cells
    and reduces each ordering facet onto them the first time its ties
    hold, so a call only finds each facet's right-hand side and hands
    ``_polyhedra`` k variables and inequalities alone; a cell that pins
    its piece to one point gives it as integers (x', d') too.  Every
    point, of a pivot set or pinned, is one key (x, d) in lowest terms,
    tested once: its image p = d H (A^T v + h) (``_image``) for positive
    membership in integers.  A pinned point outside the positive fan is
    an internal error.  Fractions are built only for accepted points,
    v = x / (d H) and w = (p - d H h) / (d H).  Each point's level flag
    and interiority are read off p: a positive multiple has the same
    level sets and the same argmins.

    Isolation is read off the same probes: a point v with p in the
    positive fan is not isolated iff p lies in the closed cone of a
    probed product cell whose piece at h has positive dimension
    (``_in_closed_cone``, a comparison of ints).  If p lies in such a
    cell, the cell's piece is convex, holds v and holds a second point;
    its closed cone lies in the positive fan, so the segment between the
    two points lies in the intersection.  Conversely, take u != 0 with
    v + eps u in the intersection for eps in (0, eps0).  The closed
    cones of the positive cells cover the positive fan, so each closed
    cell meets that ray in a closed interval, and finitely many closed
    intervals cover (0, eps0): one of them is some [0, beta] with
    beta > 0.  That cell's ties hold on a segment, so its system is
    underdetermined and consistent at h, the walk probes it, and its
    piece has positive dimension.  With no such piece every point is
    isolated.
    """
    plan = _fan_plan(OM, A)
    H, h_int = integer_multiple(vector(h))

    notes: list[str] = []
    if plan.empty is not None:
        notes.append(
            f"component {list(plan.empty)} admits no positive weight; the positive fan is empty"
        )

    # each point (x, d) in lowest terms, v = x / (d H), tested once: its
    # image p, or None outside the positive fan
    images: dict[tuple[tuple[int, ...], int], list[int] | None] = {}

    def accept(x: Sequence[int], d: int) -> list[int] | None:
        key = _lowest_terms(x, d)
        if key not in images:
            p = _image(plan.at_int, h_int, *key)
            images[key] = p if is_positive_member(p, OM) else None
        return images[key]

    holds = _verdicts(plan.checks, h_int)
    for d, h_rows, combos in plan.pivoted:
        if any(map(holds, combos)):
            accept([sum(map(mul, row, h_int)) for row in h_rows], d)
    # the product cells whose piece has positive dimension
    pieces = []
    pinned = 0
    for _, cell, dim, point in _product_cells(plan, h_int, holds):
        if dim == 0:
            if accept(*point) is None:
                raise RuntimeError(
                    "pinned cone point escaped the positive fan; cell bookkeeping is wrong"
                )
            pinned += 1
        elif dim > 0:
            pieces.append(cell)
    if pinned:
        notes.append(
            f"{pinned} underdetermined tie system(s) pinned to a point by cone facets"
        )
    if pieces:
        notes.append(
            f"{len(pieces)} positive cell(s) meet rowspan(A) in positive dimension"
        )

    diagnostics = plan.diagnostics
    positive_dimensional = bool(pieces)
    points = sorted(
        (
            IntersectionPoint(
                v=tuple(Fraction(xi, d * H) for xi in x),
                w=tuple(Fraction(pj - d * hj, d * H) for pj, hj in zip(p, h_int)),
                supporting_flag=_level_flag(p),
                isolated=not any(_in_closed_cone(p, cell) for cell in pieces),
                interior=_is_interior(p, OM),
            )
            for (x, d), p in images.items()
            if p is not None
        ),
        key=lambda pt: pt.v,
    )
    free_matroid = not OM.circuits
    transverse = (
        diagnostics.ok
        and not free_matroid
        and not positive_dimensional
        and all(pt.isolated and pt.interior for pt in points)
    )
    return IntersectionReport(
        points=tuple(points),
        count=len(points),
        transverse=transverse,
        diagnostics=diagnostics,
        free_matroid=free_matroid,
        positive_dimensional=positive_dimensional,
        notes=tuple(notes),
        matroid=OM,
    )


def intersect_via_vertices(
    OM: OrientedMatroid, A: RationalMatrix, h: Sequence
) -> set[tuple[Fraction, ...]]:
    """Independent oracle: the exact v of every vertex of the
    tie-hyperplane arrangement whose image lies in the positive fan.

    The planes are the ties w_i = w_j for every pair i, j sharing a
    circuit support, and every isolated point is a vertex here, on a
    cell boundary too.  Suppose the planes through an intersection point
    v had rank below n.  Then some u != 0 keeps every tie among pairs in
    a common circuit support that holds at v.  A circuit's argmin
    elements of A^T v + h are tied, so they move together along
    v + eps u, and for small eps > 0 its other elements stay above them:
    every circuit keeps its argmin set, so A^T (v + eps u) + h stays in
    the positive fan and v is not isolated.  The search shares no code
    path with the fan walk: no cells, chains or calls into `_polyhedra`;
    only the image arithmetic of ``_image``, the point key of
    ``_lowest_terms`` and the membership test.

    A depth-first search chooses one plane at a time.  Each node carries
    its remaining candidate planes as integer rows already reduced
    against the planes chosen above it; choosing a pivot row reduces the
    child's candidates against that one row and drops those whose
    coefficients vanished, since such a plane contains the node's flat
    or misses it and can never pivot below.  The flat itself is carried
    as v = (u + sum of v_c * q_c) / d over its free columns c, each pivot
    substituted in once.  At depth n - 1 the flat is a line, and the same
    substitution of a branch plane gives the vertex where it meets the
    line, which is tested in place of a child.  Vertices are keyed by
    their integer numerators and denominator in lowest terms
    (``_lowest_terms``), and each new one is tested once, in integers:
    A is read through ``integer_columns`` and (H, H h) come from
    ``integer_multiple``, so
    H * d * (A^T v + h) = (H A^T) num + (H h) d is a positive multiple of
    A^T v + h, every circuit has the same argmin and the verdict is
    exact.  Fractions are built only for accepted vertices.

    The search branches on circuits, one positive tropical hypersurface
    at a time and the most constrained first, as tropical prevarieties
    are traversed (Bogart, Jensen, Speyer, Sturmfels and Thomas,
    "Computing tropical varieties", J. Symbolic Comput. 42, 2007).  A
    point in the positive fan has, for every signed circuit, a positive
    and a negative element tied at the circuit's argmin, so it lies on
    the plane of one opposite-sign pair of every circuit, or that pair
    is tied identically (equal columns of A and equal h).  Each circuit
    gets a bitmask of its opposite-sign planes; a circuit with an
    identically tied pair is exempt, and a pair whose row vanishes but
    whose sides differ is never tied and adds no bit.  A node's held
    planes are its chosen pivots and the candidates that reduced to
    0 = 0; they contain its flat.  While some mask holds no held plane,
    the node takes such a mask with the fewest live candidates and
    branches on those, in index order: branch j drops the mask's earlier
    planes from its candidates, and a line node tests only the vertices
    of the mask's live planes.  A mask with no live candidate cuts the node,
    so an empty mask means no vertex at all.  Once every mask holds a
    plane, the node branches on every candidate in index order, branch j
    dropping the earlier ones, and visits each set of planes once.

    This loses no valid vertex p.  At each node on p's path, take the
    branch whose plane is the first plane through p among those the node
    branches on.  The planes a branch drops come before it, so none
    passes through p; a plane dropped as 0 = c with c != 0 misses the
    flat, which holds p.  So every plane through p is held or live.  While
    the flat is more than {p}, some plane through p does not contain it,
    since p is a vertex.  A mask with no held plane has a plane through
    p, which is then live, so the node has a branch through p, and that
    branch adds rank: the path reaches p as the flat, or a line node
    where that plane meets the line at p.  A branch only orders the
    search; its child keeps the other circuits' planes and the same-sign
    ties as candidates.  Dropping planes from the whole search instead,
    keeping only the opposite-sign ties inside each circuit, cut the hhk
    oracle about eightfold but missed 1 of the 5 points at
    h = (7, 8, 3, 3, -1, 8), whose planes need a same-sign tie to pin it.

    Only the v set is returned, with no isolation, interiority or level
    flags: that set is all ``lower_bound`` and acceptance criterion 7
    compare.  A matroid with no circuits has no planes and so no vertices.
    """
    n = A.rows
    H, h_int = integer_multiple(vector(h))
    at_int = [[H * x for x in col] for col in integer_columns(A)]

    def tie(i: int, j: int) -> tuple[int, ...]:
        # w_i = w_j as an integer augmented row a . v = b of H A^T and H h,
        # divided by its gcd, so each plane has one primitive form and the
        # elimination below runs on plain ints
        row = [x - y for x, y in zip(at_int[i - 1], at_int[j - 1])]
        return primitive((*row, h_int[j - 1] - h_int[i - 1]))

    # each pair i < j sharing a circuit support, once, in support order
    pairs = dict.fromkeys(
        pair for sup in OM.circuit_supports for pair in itertools.combinations(sup, 2)
    )
    ties = {pair: tie(*pair) for pair in pairs}
    planes: list[tuple[int, ...]] = []
    bit: dict[tuple[int, ...], int] = {}  # either sign of a plane -> its bit
    for aug in ties.values():
        if any(aug[:n]) and aug not in bit:
            bit[aug] = bit[tuple(-x for x in aug)] = 1 << len(planes)
            planes.append(aug)

    masks = set()
    for P, N in OM.sign_masks:
        # tie(j, i) is -tie(i, j), which has the same bit and is 0 alike
        pair_ties = [ties[min(i, j), max(i, j)] for i in _elements(P) for j in _elements(N)]
        if (0,) * (n + 1) not in pair_ties:
            masks.add(functools.reduce(or_, (bit[t] for t in pair_ties if any(t[:n])), 0))

    found: set[tuple[Fraction, ...]] = set()
    seen: set[tuple[tuple[int, ...], int]] = set()

    def walk(
        cands: list, u: list[int], free: dict[int, list[int]], d: int, unheld: list[int]
    ) -> None:
        # the node's flat: v = (u + sum over free columns c of v_c * free[c]) / d;
        # ``unheld`` are the masks none of whose planes contains it
        live = functools.reduce(or_, (t for t, _ in cands), 0)
        # branch on the live planes of the mask with the fewest, or on
        # every candidate in index order once each mask holds a plane
        mask = min(unheld, key=lambda m: (m & live).bit_count()) if unheld else live
        branches = [(t, r) for t, r in cands if t & mask]
        done = 0  # the branch planes so far, dropped from every later branch
        # a child keeps at most len(cands) - 1 - j candidates and needs
        # len(free) - 1 of them; with one free column that is every branch
        for mark, r in branches[: len(cands) - len(free) + 1]:
            col = next(j for j, x in enumerate(r) if x)
            pv, rn = r[col], r[n]
            # substitute v_col = (r[n] - sum of r[c] * v_c) / r[col]
            qp = free[col]
            num = [pv * a + rn * b for a, b in zip(u, qp)]
            den = d * pv
            if len(free) == 1:
                # r meets the line in a vertex: key it in lowest terms and
                # test it once
                key = num, den = _lowest_terms(num, den)
                if key not in seen:
                    seen.add(key)
                    if is_positive_member(_image(at_int, h_int, num, den), OM):
                        found.add(tuple(Fraction(x, den) for x in num))
                continue
            child = []
            held = mark
            done |= mark
            for t, s in cands:
                if t & done:
                    continue
                f = s[col]
                if f:
                    s = [pv * a - f * b for a, b in zip(s, r)]
                    if not any(s[:n]):
                        if not s[n]:
                            held |= t  # the plane contains the child's flat
                        continue
                    g = gcd(*s)
                    if g > 1:
                        s = [x // g for x in s]
                child.append((t, s))
            walk(
                child,
                num,
                {
                    c: [pv * a - r[c] * b for a, b in zip(q, qp)]
                    for c, q in free.items()
                    if c != col
                },
                den,
                [m for m in unheld if not m & held],
            )

    walk(
        [(bit[p], p) for p in planes],
        [0] * n,
        {c: [int(j == c) for j in range(n)] for c in range(n)},
        1,
        sorted(masks),
    )
    return found


def lower_bound(system: VerticalSystem, cross_check: bool = False) -> IntersectionReport:
    """Count the shifted positive tropical kernel against rowspan(A).

    The count is certified exactly when the report says transverse;
    otherwise it is still computed and reported honestly.  With
    cross_check=True the vertex oracle (``intersect_via_vertices``)
    checks the walk's v-set, and an OracleMismatchError is raised when
    the walk lists a v the oracle lacks, or when the two sets differ and
    the report is not ``positive_dimensional``.

    Every tie the walk solves pairs two elements of one circuit-connected
    component: a block tie does, and so does an ordering facet that pins
    a piece, since both of its blocks belong to one component's cell.
    Any two elements of a connected component lie in a common circuit
    (Oxley, Matroid Theory, Prop. 4.1.2), so each such tie is one of the
    oracle's planes.  A walk point solves n independent ties, so it is a
    vertex of the oracle's arrangement, and both engines test its image
    for positive membership exactly: the walk's set always lies inside
    the oracle's.  A positive-dimensional piece holds vertices that are
    not isolated, and the walk need not list them.  Without one, every
    intersection point is isolated (the rule of ``intersect_via_fan``),
    the walk finds every isolated point, and the oracle finds no other:
    the two sets are equal.
    """
    OM = realize_from_kernel(system.C)
    report = intersect_via_fan(OM, system.A, system.h)
    if cross_check:
        found = {p.v for p in report.points}
        other = intersect_via_vertices(OM, system.A, system.h)
        if not found <= other or (found != other and not report.positive_dimensional):
            raise OracleMismatchError(
                f"fan walk found {sorted(found)} but vertex oracle found {sorted(other)}"
            )
    return report
