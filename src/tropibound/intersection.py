"""Exact enumeration of the positive tropical linear space, shifted by -h,
intersected with the row span of an integer exponent matrix.

Two structurally different complete enumerations are provided: the primary
one solves the tie systems of the distinct block partitions of the
positive cells (componentwise, since circuits never straddle connected
components), one elimination per set of pivot ties, listing the cells
themselves only where an underdetermined system's ties hold; the oracle
enumerates vertices of the tie-hyperplane arrangement, one circuit at a
time.
Per-point isolation is certified exactly, never by genericity arguments,
and read off the cells the walk already probes: a point is not isolated
iff it lies in the closed cone of a probed cell whose piece has positive
dimension.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from operator import mul, or_
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple, Sequence

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
    _solution,
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
    as the rows (A^T_j, 1) over its columns j: rank(A) is the number of
    pivots among the first n columns, and the all-ones vector lies in
    rowspan(A) iff the last column has no pivot.
    """
    n, r = A.rows, A.cols
    rows = [integer_multiple((*A.column(j), 1))[1] for j in range(r)]
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


def tangent_direction(
    v: Sequence, OM: OrientedMatroid, A: RationalMatrix, h: Sequence
) -> tuple[Fraction, ...] | None:
    """A nonzero direction u with A^T (v + eps u) + h inside the positive
    fan for all small eps > 0, or None when no such direction exists.

    By the rule of ``intersect_via_fan``, one exists iff p = A^T v + h
    lies in the closed cone of a probed product cell whose piece at h has
    positive dimension.  That piece is a polyhedron holding v and a
    second point, so its tangent cone at v is nonzero: the cell's block
    ties (A^T_a - A^T_b) . u = 0 as equalities and its ordering facets
    tight at p, (A^T_a - A^T_b) . u <= 0, as inequalities.
    ``_polyhedra.cone_nonzero_point`` finds u there, in the relative
    interior of that tangent cone, and v + eps u stays in the piece for
    small eps > 0, so its image stays in the cell's closed cone, inside
    the positive fan.

    A must be integer, and (OM, A) go through ``_fan_plan``, so
    rank(A) < n raises ``InputValidationError``.  ValueError when p is
    outside the positive fan.
    """
    at_int = integer_columns(A)
    V, v_int = integer_multiple(vector(v))
    H, h_int = integer_multiple(vector(h))
    # V H (A^T v + h), a positive multiple with the same argmins and ties
    p = [H * sum(map(mul, row, v_int)) + V * x for row, x in zip(at_int, h_int)]
    if not is_positive_member(p, OM):
        raise ValueError(_OUTSIDE)
    cells = _product_cells(_fan_plan(OM, A), H, h_int)
    cell = next((c for c, (dim, _) in cells if dim > 0 and _in_closed_cone(p, c)), None)
    if cell is None:
        return None
    ties = [(block[0] - 1, e - 1) for c in cell for block in c for e in block[1:]]
    tight = [(a, b) for c in cell for a, b in _ordering_pairs(c) if p[a] == p[b]]
    eqs, ineqs = (
        [tuple(x - y for x, y in zip(at_int[a], at_int[b])) for a, b in pairs]
        for pairs in (ties, tight)
    )
    return _polyhedra.cone_nonzero_point(A.rows, eqs, ineqs)


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


def _tie_system(
    at_int: Sequence[Sequence[int]], pairs: Iterable[tuple[int, int]], n: int
) -> tuple[int, tuple, tuple, tuple]:
    """Eliminate the ties (w + h)_a = (w + h)_b of 0-based element pairs
    once, with h left symbolic.

    The tie reads (A^T_a - A^T_b) . v = (e_b - e_a) . h, one row
    (A^T_a - A^T_b | e_b - e_a), and ``_echelon`` pivots in the n
    v-columns only.  Returns ``(d, v_rows, h_rows, check)``: the pivot
    rows split into their v-part, d times the reduced echelon form, and
    their h-part, then the h-parts of the other rows, whose v-parts are
    zero.  So at an h with integer multiple (H, H h) the ties are
    consistent iff every check row . (H h) is 0, and then they are
    equivalent to the equalities (H v_row) . v = h_row . (H h).
    """
    rows = []
    for a, b in pairs:
        h_part = [0] * len(at_int)
        h_part[a], h_part[b] = -1, 1
        rows.append([x - y for x, y in zip(at_int[a], at_int[b])] + h_part)
    m, pivots, d, _ = _echelon(rows, n)
    solved, rest = m[: len(pivots)], m[len(pivots) :]
    return (
        d,
        tuple(tuple(row[:n]) for row in solved),
        tuple(tuple(row[n:]) for row in solved),
        tuple(tuple(row[n:]) for row in rest),
    )


@dataclass(frozen=True)
class _Underdetermined:
    """An underdetermined combination's ties, eliminated with h left
    symbolic, and, listed the first time they are read, its cells and
    their ordering facets in the coordinates of the ties' solution space.

    With x_i = h_row_i . (H h), the ties hold at h iff every check row
    . (H h) is 0, and then their solutions are
    v = (x0 + sum of t_f k_f) / (d H) over t in R^k, where x0 is x_i at
    pivot i and 0 elsewhere and the k_f form ``kernel`` (``_solution``).
    The cells matter only at an h where the ties hold, so ``groups`` and
    ``facets`` are memoized properties, computed by the first
    ``_probe_cells`` that finds the ties holding; a scan over shifts
    sharing the plan lists each entry's cells at most once.
    """

    d: int
    pivots: tuple[int, ...]
    kernel: tuple[tuple[int, ...], ...]
    h_rows: tuple
    check: tuple
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
    def facets(self) -> tuple[tuple[int, int, tuple[int, ...], tuple[int, ...]], ...]:
        """Each ordering facet of the cells, once per 0-based pair, as
        (a, b, row, diffs).  The facet (w + h)_a <= (w + h)_b, times d H,
        reads row . t <= d ((H h)_b - (H h)_a) - diffs . x, with row the
        (A^T_a - A^T_b) . k_f and diffs the entries of A^T_a - A^T_b at
        the pivots."""
        facets = {}
        for cells in self.groups:
            for cell in cells:
                for a, b in _ordering_pairs(cell):
                    if (a, b) not in facets:
                        diff = [x - y for x, y in zip(self.at_int[a], self.at_int[b])]
                        row = tuple(sum(map(mul, diff, k)) for k in self.kernel)
                        facets[a, b] = (a, b, row, tuple(diff[i] for i in self.pivots))
        return tuple(facets.values())


def _ordering_pairs(cell: _Cell) -> list[tuple[int, int]]:
    """The 0-based pairs (a, b) of a cell's ordering facets
    (w + h)_a <= (w + h)_b: the first elements of each block and of the
    block before it."""
    return [(lower[0] - 1, upper[0] - 1) for upper, lower in zip(cell, cell[1:])]


def _underdetermined(
    at_int: tuple[tuple[int, ...], ...],
    pairs: Sequence[tuple[int, int]],
    n: int,
    combo: tuple[_Cell, ...],
    fine_cells: Callable[[int, _Cell], tuple[_Cell, ...]],
) -> _Underdetermined:
    """The plan entry of an underdetermined combination: its ties
    eliminated once and their solutions read as a point plus the free
    coordinates; its cells wait until they are read."""
    d, v_rows, h_rows, check = _tie_system(at_int, pairs, n)
    pivots = tuple(next(j for j, c in enumerate(row) if c) for row in v_rows)
    # the kernel needs no right-hand side, so a zero column stands in for x
    kernel = _solution([(*row, 0) for row in v_rows], pivots, d, n)[1]
    return _Underdetermined(
        d, pivots, tuple(map(tuple, kernel)), h_rows, check, at_int, combo, fine_cells
    )


class _FanPlan(NamedTuple):
    """Everything the fan walk needs that depends only on (OM, A)."""

    diagnostics: Diagnostics
    empty: tuple[int, ...] | None  # a component admitting no positive weight
    at_int: tuple[tuple[int, ...], ...]  # the rows of A^T
    # per distinct pivot tie set of the full-rank partition combinations,
    # in order of first appearance: d and the h_rows of its
    # ``_tie_system``, the distinct nonzero check rows of the other ties,
    # per combination the bitmask of its check rows, fewest rows first
    pivoted: tuple[tuple[int, tuple, tuple, tuple[int, ...]], ...]
    # per underdetermined combination, its ``_Underdetermined`` entry
    underdetermined: tuple[_Underdetermined, ...]


@functools.lru_cache(maxsize=1)
def _fan_plan(OM: OrientedMatroid, A: RationalMatrix) -> _FanPlan:
    """Validate (OM, A), find each component's block partitions, and
    eliminate the ties of the partition combinations, sharing one
    elimination among the combinations with the same pivot ties.

    A is read through ``integer_columns``, so a non-integer A raises
    ValueError.  The ties of a combination tie each block's first element
    to each of its other elements, and are eliminated with h left
    symbolic: so a one-entry memo lets every shift of a scan over one
    matroid and one A share the plan; the result is immutable because
    callers share it.

    One ``_echelon`` of the n x k transposed differences A^T_a - A^T_b of
    a combination's k pairs finds its first n pairs with independent
    differences, its pivot ties, as ``first_independent_rows`` does.
    When there are n, the ties have full rank and their solution depends
    on the pivot ties alone: ``_tie_system`` of just those pairs, once
    per distinct pivot set, gives d and the h_rows with
    d H v_i = h_row_i . (H h).  Each other pair (a, b) then holds iff
    its check row c = sum_i (A^T_a - A^T_b)_i h_row_i + d (e_a - e_b)
    has c . (H h) = 0.  The echelon holds d times the reduced form (its
    d is the pivot set's: both are |det| of the pivot differences).  Its
    column of (a, b) writes A^T_a - A^T_b as sum_t lam_t / d times the
    difference of pivot tie t = (a_t, b_t), and pivot t reads
    sum_i (A^T_a_t - A^T_b_t)_i h_row_i = d (e_b_t - e_a_t); so
    c = sum_t lam_t (e_b_t - e_a_t) + d (e_a - e_b), read off without a
    product.  The nonzero check rows are kept once per pivot set, and
    each combination becomes the bitmask of its own, kept with the
    masks of fewer rows first; so a pivot set is consistent at h iff some
    mask has no check row that fails there (``_consistent``).  A
    combination of rank below n keeps its full ``_tie_system``, read as
    the free coordinates of its solutions (``_underdetermined``).  Its
    positive cells, and their ordering facets reduced onto those
    coordinates, are listed only when a walk first finds its ties
    holding (``_Underdetermined.groups`` and ``.facets``), since only a
    consistent underdetermined system is probed cell by cell; one memo
    per plan lists each component partition's cells once, for every
    combination that shares it.
    """
    diagnostics = validate_inputs(OM, A)
    at_int = integer_columns(A)
    n = A.rows
    components, empty = _cell_partitions(OM)
    cells = functools.cache(lambda i, partition: _fine_cells(components[i].above, partition))
    A_rows = tuple(zip(*at_int))
    # pivot pairs -> (d, h_rows, pair -> bit of its check row, check rows, masks)
    pivoted: dict[tuple, tuple[int, tuple, dict, list, set[int]]] = {}
    underdetermined = []
    # an empty fan has no cells; product() of no factors would yield one
    if empty is None:
        for combo in itertools.product(*(c.partitions for c in components)):
            pairs = [(block[0] - 1, e - 1) for blocks in combo for block in blocks for e in block[1:]]
            diffs = [[Ai[a] - Ai[b] for a, b in pairs] for Ai in A_rows]
            m, independent = _echelon(diffs, len(pairs))[:2]
            if len(independent) < n:
                underdetermined.append(_underdetermined(at_int, pairs, n, combo, cells))
                continue
            key = tuple(map(pairs.__getitem__, independent))
            if key not in pivoted:
                d, _, h_rows, _ = _tie_system(at_int, key, n)
                pivoted[key] = (d, h_rows, {}, [], set())
            d, h_rows, bits, checks, masks = pivoted[key]
            for j, pair in enumerate(pairs):
                if pair not in bits:
                    # c = sum_t lam_t (e_b_t - e_a_t) + d (e_a - e_b) with
                    # lam_t = m[t][j]: the pair itself enters with -d
                    c = [0] * A.cols
                    for (a, b), lam in zip((*key, pair), [*(row[j] for row in m), -d]):
                        c[a], c[b] = c[a] - lam, c[b] + lam
                    bits[pair] = 1 << len(checks) if any(c) else 0
                    checks += [tuple(c)] if any(c) else []
            masks.add(sum(map(bits.get, pairs)))
    pivot_sets = tuple(
        (d, h, tuple(c), tuple(sorted(m, key=lambda m: (m.bit_count(), m))))
        for d, h, _, c, m in pivoted.values()
    )
    return _FanPlan(diagnostics, empty, at_int, pivot_sets, tuple(underdetermined))


def _consistent(
    checks: Sequence[Sequence[int]], masks: Iterable[int], h_int: Sequence[int]
) -> bool:
    """Whether some mask has no check row c with c . (H h) != 0.

    The masks are tried in order and each row is evaluated at most once:
    ``good`` and ``bad`` hold the rows found to hold and to fail, so a
    mask with a failing row is passed over at once, and the first mask
    whose rows all hold ends the walk.
    """
    good = bad = 0
    for mask in masks:
        if mask & bad:
            continue
        rest = mask & ~good
        while rest:
            low = rest & -rest
            if sum(map(mul, checks[low.bit_length() - 1], h_int)):
                bad |= low
                break
            good |= low
            rest ^= low
        else:
            return True
    return False


def _probe_cells(
    system: _Underdetermined, H: int, h_int: Sequence[int]
) -> list[tuple[int, tuple[Fraction, ...] | None]]:
    """Per product cell of an underdetermined system, in the order of
    ``itertools.product`` over its groups, the dimension of the cell's
    piece at the shift with integer multiple (H, H h) and, when that is
    0, the piece's point v; no cells when the ties fail there, and then
    the cells are not listed.

    Each cell is probed by ``_polyhedra.polyhedron_dimension``, one
    Fourier-Motzkin run, in the k free coordinates t of the ties'
    solutions, with the ordering facets of ``_Underdetermined`` as its
    inequalities and no equalities: each facet's right-hand side is
    found once per call.  A zero-dimensional
    piece is one point, so its sample t maps back to the one v.
    """
    if any(sum(map(mul, row, h_int)) for row in system.check):
        return []
    d, pivots, kernel = system.d, system.pivots, system.kernel
    x = [sum(map(mul, row, h_int)) for row in system.h_rows]
    facets = {
        (a, b): (row, d * (h_int[b] - h_int[a]) - sum(map(mul, diffs, x)))
        for a, b, row, diffs in system.facets
    }
    verdicts = []
    for combo in itertools.product(*system.groups):
        ineqs = [facets[pair] for cell in combo for pair in _ordering_pairs(cell)]
        dim, t = _polyhedra.polyhedron_dimension(len(kernel), [], ineqs)
        v = None
        if dim == 0:
            x0 = dict(zip(pivots, x))
            v = tuple(
                (x0.get(j, 0) + sum(s * k[j] for s, k in zip(t, kernel))) / (d * H)
                for j in range(len(kernel[0]))
            )
        verdicts.append((dim, v))
    return verdicts


def _product_cells(
    plan: _FanPlan, H: int, h_int: Sequence[int]
) -> Iterable[tuple[tuple[_Cell, ...], tuple[int, tuple[Fraction, ...] | None]]]:
    """Each product cell the fan walk probes at the shift with integer
    multiple (H, H h), as one cell per component, with its
    ``_probe_cells`` verdict: the cells of the underdetermined systems
    whose ties hold there."""
    for system in plan.underdetermined:
        verdicts = _probe_cells(system, H, h_int)
        if verdicts:
            yield from zip(itertools.product(*system.groups), verdicts)


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
    with h left symbolic, once per (OM, A) in ``_fan_plan``; the systems
    of full rank share one elimination per set of pivot ties.  Per call,
    ``integer_multiple`` gives H and the ints H h, and the check rows are
    evaluated at them, each at most once: a pivot set is consistent iff,
    for some one of its combinations, each check row . (H h) is 0 (its
    masks are walked until one holds), an underdetermined system iff all
    of its own are, and then x_i = h_row_i . (H h).  A pivot set has the
    unique solution v = x / (d H); its image A^T v + h is tested for
    positive membership in integers, on the positive multiple
    p = d H (A^T v + h), and Fractions are built only for accepted
    points.  An underdetermined system's cells are probed in the k free
    coordinates of its solutions (``_probe_cells``): the plan entry
    lists the cells and reduces each ordering facet onto them the first
    time its ties hold, so a call only finds each facet's
    right-hand side and hands ``_polyhedra`` k variables and no
    equalities.  A point a cell pins maps back to v and gets p from
    ``integer_multiple`` of its image.  Each point's level flag and
    interiority are read off p: a positive multiple has the same level
    sets and the same argmins.

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
    hh = vector(h)
    plan = _fan_plan(OM, A)
    at_int = plan.at_int
    H, h_int = integer_multiple(hh)

    notes: list[str] = []
    if plan.empty is not None:
        notes.append(
            f"component {list(plan.empty)} admits no positive weight; the positive fan is empty"
        )

    # v -> (w, an integer positive multiple p of w + h)
    candidates: dict[tuple[Fraction, ...], tuple[tuple[Fraction, ...], list[int]]] = {}
    seen: set[tuple[tuple[int, ...], int]] = set()
    pinned = 0
    for d, h_rows, checks, masks in plan.pivoted:
        if not _consistent(checks, masks, h_int):
            continue
        x = [sum(map(mul, row, h_int)) for row in h_rows]
        # v = x / (d H); many pivot sets share a point, so each v, keyed
        # by x / d in lowest terms, is tested once
        g = gcd(d, *x)
        key = (tuple(xi // g for xi in x), d // g)
        if key in seen:
            continue
        seen.add(key)
        aw = [sum(map(mul, row, x)) for row in at_int]
        p = [a + d * hj for a, hj in zip(aw, h_int)]
        if is_positive_member(p, OM):
            den = d * H
            v = tuple(Fraction(xi, den) for xi in x)
            candidates[v] = (tuple(Fraction(a, den) for a in aw), p)
    # the product cells whose piece has positive dimension
    pieces = []
    for cell, (dim, vstar) in _product_cells(plan, H, h_int):
        if dim == 0:
            wstar = tuple(sum(map(mul, row, vstar)) for row in at_int)
            p = integer_multiple([a + b for a, b in zip(wstar, hh)])[1]
            if not is_positive_member(p, OM):
                raise RuntimeError(
                    "pinned cone point escaped the positive fan; cell"
                    " bookkeeping is wrong"
                )
            candidates[vstar] = (wstar, p)
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
    points = []
    for v in sorted(candidates):
        w, p = candidates[v]
        points.append(
            IntersectionPoint(
                v=v,
                w=w,
                supporting_flag=_level_flag(p),
                isolated=not any(_in_closed_cone(p, cell) for cell in pieces),
                interior=_is_interior(p, OM),
            )
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
    path with the fan walk: no cells, chains or calls into `_polyhedra`.

    A depth-first search chooses one plane at a time.  Each node carries
    its remaining candidate planes as integer rows already reduced
    against the planes chosen above it; choosing a pivot row reduces the
    child's candidates against that one row and drops those whose
    coefficients vanished, since such a plane contains the node's flat
    or misses it and can never pivot below.  The flat itself is carried
    as v = (u + sum of v_c * q_c) / d over its free columns c, each pivot
    substituted in once, so at depth n - 1 it is a line and a candidate r
    meets it at v_c = r[n] / r[c].  Vertices are keyed by their
    gcd-normalized integer numerators and positive denominator, and each
    new one is tested once, in integers: A is read through
    ``integer_columns`` and (H, H h) come from ``integer_multiple``, so
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
    planes from its candidates, and at a line node only the mask's live
    planes meet the line.  A mask with no live candidate cuts the node,
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
        if len(free) == 1:
            ((c, q),) = free.items()
            for _, r in branches:
                # r meets the line at v_c = r[n] / r[c]
                rc, rn = r[c], r[n]
                den = d * rc
                if den < 0:
                    rc, rn, den = -rc, -rn, -den
                num = [x * rc + rn * y for x, y in zip(u, q)]
                g = gcd(den, *num)
                if g > 1:
                    num = [x // g for x in num]
                    den //= g
                key = (tuple(num), den)
                if key in seen:
                    continue
                seen.add(key)
                p = [
                    sum(a * x for a, x in zip(row, num)) + hi * den
                    for row, hi in zip(at_int, h_int)
                ]
                if is_positive_member(p, OM):
                    found.add(tuple(Fraction(x, den) for x in num))
            return
        done = 0  # the branch planes so far, dropped from every later branch
        # a child keeps at most len(cands) - 1 - j candidates and needs
        # len(free) - 1 of them
        for mark, r in branches[: len(cands) - len(free) + 1]:
            col = next(j for j, x in enumerate(r) if x)
            pv, rn = r[col], r[n]
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
            # substitute v_col = (r[n] - sum of r[c] * v_c) / r[col]
            qp = free[col]
            walk(
                child,
                [pv * a + rn * b for a, b in zip(u, qp)],
                {
                    c: [pv * a - r[c] * b for a, b in zip(q, qp)]
                    for c, q in free.items()
                    if c != col
                },
                d * pv,
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
