"""Exact enumeration of the positive tropical linear space, shifted by -h,
intersected with the row span of an integer exponent matrix.

Two structurally different complete enumerations are provided: the primary
one solves one tie system per distinct block partition of the positive
cells (componentwise, since circuits never straddle connected components),
listing the cells themselves only where a system is underdetermined; the
oracle enumerates vertices of the tie-hyperplane arrangement.
Per-point transversality is certified by an exact tangent-direction test,
never by genericity arguments.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from operator import mul, or_
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

from tropibound import _polyhedra
from tropibound.bergman import _is_positive_flat, is_positive_member
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
    out by tying each circuit's argmin set; merging those sets leaves
    exactly rank(M) parts iff the cell has the fan's full dimension.
    """
    argmins = []
    for sup in OM.circuit_supports:
        m = min(p[e - 1] for e in sup)
        argmins.append([e for e in sup if p[e - 1] == m])
    return len(_merge(OM.ground_size, argmins)) == OM.rank


def _restrict_kernel(basis: Sequence[Sequence[int]], row: Sequence[int]) -> list[tuple[int, ...]]:
    """A basis of primitive integer rows for the vectors of span(basis)
    orthogonal to row.

    With s_i = row . k_i and a pivot p with s_p != 0, the rows
    s_p k_i - s_i k_p for i != p are orthogonal to row, independent
    because the k_i are, and one fewer than the k_i: so they span the
    restriction exactly.  When every s_i is 0 the basis is kept whole.
    """
    dots = [sum(map(mul, row, k)) for k in basis]
    p = next((i for i, s in enumerate(dots) if s), None)
    if p is None:
        return list(basis)
    sp, kp = dots[p], basis[p]
    return [
        primitive([sp * a - s * b for a, b in zip(k, kp)])
        for i, (k, s) in enumerate(zip(basis, dots))
        if i != p
    ]


def _cone_point(
    n: int,
    kernel: list[tuple[int, ...]],
    eqs: Iterable[tuple[int, ...]],
    ineqs: Iterable[tuple[int, ...]],
) -> tuple[int, ...] | None:
    """A nonzero integer point of {u in R^n : Eu = 0, Gu <= 0}, or None
    when the cone is the origin alone; kernel is a nonempty basis of the
    kernel of E.  A vector left after restricting it by every row of G
    is a lineality vector, and only when none is left is the cone probed.
    """
    for g in ineqs:
        kernel = _restrict_kernel(kernel, g)
        if not kernel:
            found = _polyhedra.cone_nonzero_point(n, list(eqs), list(ineqs))
            return None if found is None else tuple(integer_multiple(found)[1])
    return kernel[0]


def tangent_direction(
    v: Sequence, OM: OrientedMatroid, A: RationalMatrix, h: Sequence
) -> tuple[Fraction, ...] | None:
    """A nonzero direction u with A^T (v + eps u) + h inside the positive
    fan for all small eps > 0, or None when no such direction exists.

    To first order the fan condition reads: for every circuit, the argmin
    of A^T u over the circuit's current argmin set still meets both
    signs.  That is a finite union of polyhedral cones {Eu = 0, Gu <= 0}
    indexed by per-circuit witness pairs, built one circuit per level;
    the direction exists iff some cone of the last level has a nonzero
    point.  A must be integer.  The argmins are read off the integer
    multiple V H (A^T v + h), with (V, V v) and (H, H h) from
    ``integer_multiple``, and the cones are cut out by ``primitive`` rows.

    Each accepted state carries a nonzero integer point of its cone and a
    basis of primitive integer rows for the kernel of its E.  A child
    adds one equality row and some inequality rows, so its cone is the
    parent's cone cut by the new rows, and it is decided by the first of
    four exact steps that settles it:

    1. the parent's kernel restricted by the new equality row is the
       child's kernel (``_restrict_kernel``); when it is zero, Eu = 0
       pins u to the origin and the child is refuted;
    2. the parent's point lies in the parent's cone, so when it meets
       the new equality and inequalities it lies in the child's cone;
    3. a nonzero vector of the kernel of [E; G] has Eu = 0 and Gu = 0,
       so it lies in {Eu = 0, Gu <= 0};
    4. otherwise ``_polyhedra.cone_nonzero_point`` decides the cone.
    """
    at_int = integer_columns(A)
    n = A.rows
    V, v_int = integer_multiple(vector(v))
    H, h_int = integer_multiple(vector(h))
    p = [H * sum(map(mul, row, v_int)) + V * x for row, x in zip(at_int, h_int)]

    tasks: list[tuple[list[tuple[int, int]], tuple[int, ...]]] = []
    for c in OM.circuits:
        if c.negative < c.positive:
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
    # frozenset of inequality rows) to a nonzero integer point of their
    # cone and a kernel basis of their equality rows; the root cone is
    # the whole space, and it carries no point
    identity = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    level: dict[tuple[frozenset, frozenset], tuple] = {(frozenset(), frozenset()): (None, identity)}
    for witnesses, arg in tasks:
        accepted: dict[tuple[frozenset, frozenset], tuple] = {}
        for (eqs, ineqs), (u, kernel) in level.items():
            for i_pos, i_neg in witnesses:
                row = diff(i_pos, i_neg)
                new = {diff(i_pos, j) for j in arg if j != i_pos and j != i_neg}
                key = (eqs | {row}, ineqs | new)
                if key in accepted:
                    continue
                child = _restrict_kernel(kernel, row)
                if not child:
                    continue
                w = u
                if w is None or sum(map(mul, row, w)) or any(sum(map(mul, g, w)) > 0 for g in new):
                    w = _cone_point(n, child, *key)
                    if w is None:
                        continue
                accepted[key] = (w, child)
        if not accepted:
            return None
        level = accepted
    return tuple(Fraction(x) for x in next(iter(level.values()))[0])


def is_isolated(v: Sequence, OM: OrientedMatroid, A: RationalMatrix, h: Sequence) -> bool:
    """Exact certificate: no nonzero tangent direction inside rowspan(A)
    stays in the positive fan."""
    return tangent_direction(v, OM, A, h) is None


# ---------------------------------------------------------------------------
# componentwise cell enumeration


def _merge(size: int, groups: Iterable[Sequence[int]]) -> list[list[int]]:
    """Partition of {1..size} into the classes of the union-find that
    merges each group, sorted."""
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

    A positive cell is the cone of an upward-maximal chain F_1 < ... < F_k
    of positive proper flats (Ardila-Klivans-Williams, arXiv
    math/0406116; see ``_is_positive_flat``), with blocks F_1, F_2 - F_1,
    ..., E - F_k.  So the partitions of the chains starting above a flat
    F are parts(F) = {E - F} when no positive proper flat lies above F,
    and otherwise the union over positive proper G > F of
    {G - F} + parts(G).  Each parts(F) is built once, larger flats
    first; the component's partitions are parts of the empty flat, which
    is {E} when it has no positive proper flat.  A component's flats are
    the bitmasks of global labels that ``_flat_levels`` finds from the
    circuit supports inside it, and its positive flats those that pass
    ``_is_positive_flat`` with the circuits inside it.  Returns
    ``(components, None)``, or ``((), comp)`` for the first component
    ``comp`` that admits no positive weight: there the empty flat fails,
    because some circuit is one-signed.
    """
    elements = functools.cache(lambda mask: _elements(mask, OM))
    signs = [(_mask(c.positive), _mask(c.negative)) for c in OM.circuits]
    components = []
    for comp in _merge(OM.ground_size, OM.circuit_supports):
        top = _mask(comp)
        inside = [(p, q) for p, q in signs if not (p | q) & ~top]
        if not _is_positive_flat(0, inside):
            return (), tuple(comp)
        levels = _flat_levels(top, [c for c in OM._masks if not c & ~top])
        # the proper flats have ranks 1 to rank - 1, the levels between the ends
        proper = [F for level in levels[1:-1] for F in level if _is_positive_flat(F, inside)]
        above = {F: tuple(G for G in proper if G != F and G & F == F) for F in [0, *proper]}
        # a flat strictly above F has more elements, so larger flats go first
        parts: dict[int, set[frozenset[int]]] = {}
        for F in sorted(above, key=int.bit_count, reverse=True):
            parts[F] = (
                {p | {G & ~F} for G in above[F] for p in parts[G]}
                if above[F]
                else {frozenset((top & ~F,))}
            )
        partitions = sorted(tuple(sorted(map(elements, p))) for p in parts[0])
        components.append(_Component(above, tuple(partitions)))
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


class _FanPlan(NamedTuple):
    """Everything the fan walk needs that depends only on (OM, A)."""

    diagnostics: Diagnostics
    empty: tuple[int, ...] | None  # a component admitting no positive weight
    at_int: tuple[tuple[int, ...], ...]  # the rows of A^T
    # per partition combination: the ``_tie_system`` of its ties and, when
    # their rank is below n, each component's positive cells with its
    # partition
    systems: tuple[tuple[int, tuple, tuple, tuple, tuple[tuple[_Cell, ...], ...] | None], ...]


@functools.lru_cache(maxsize=1)
def _fan_plan(OM: OrientedMatroid, A: RationalMatrix) -> _FanPlan:
    """Validate (OM, A), find each component's block partitions, and
    eliminate the ties of each partition combination.

    A is read through ``integer_columns``, so a non-integer A raises
    ValueError.  The ties of a combination tie each block's first element
    to each of its other elements, and ``_tie_system`` eliminates them
    with h left symbolic: so a one-entry memo lets every shift of a scan
    over one matroid and one A share the plan; the result is immutable
    because callers share it.  The positive cells of a combination are
    listed only when its ties have rank below n, since only an
    underdetermined system needs their ordering facets; each component
    partition's cells are listed once.
    """
    diagnostics = validate_inputs(OM, A)
    at_int = integer_columns(A)
    n = A.rows
    components, empty = _cell_partitions(OM)
    cells = functools.cache(lambda i, partition: _fine_cells(components[i].above, partition))
    systems = []
    # an empty fan has no cells; product() of no factors would yield one
    if empty is None:
        for combo in itertools.product(*(c.partitions for c in components)):
            pairs = [(block[0] - 1, e - 1) for blocks in combo for block in blocks for e in block[1:]]
            ties = _tie_system(at_int, pairs, n)
            groups = None
            if len(ties[1]) < n:
                groups = tuple(cells(i, partition) for i, partition in enumerate(combo))
            systems.append((*ties, groups))
    return _FanPlan(diagnostics, empty, at_int, tuple(systems))


def intersect_via_fan(OM: OrientedMatroid, A: RationalMatrix, h: Sequence) -> IntersectionReport:
    """Primary enumeration: one tie system per distinct block partition
    of the positive cells.

    Circuits never straddle circuit-connected components, so positive
    cells are products of per-component cells and their tie systems
    depend only on the induced block partition.  Every intersection point
    lies in the closed cone of some cell, hence solves some enumerated
    tie system.  Underdetermined systems are analyzed exactly, cell by
    cell with the cell's ordering facets: empty pieces are discarded,
    zero-dimensional pieces contribute their point, and
    higher-dimensional pieces flag the run as non-transverse.

    The partitions are found, and the ties of the integer A eliminated
    with h left symbolic, once per (OM, A) in ``_fan_plan``.  Per call,
    ``integer_multiple`` gives H and the ints H h, and a system is
    evaluated at them: it is consistent iff each check row . (H h) is 0,
    and then x_i = h_row_i . (H h).  A system of full rank has the
    unique solution v = x / (d H); its image A^T v + h is tested for
    positive membership in integers, on the positive multiple
    p = d H (A^T v + h), and Fractions are built only for accepted
    points.  An underdetermined system hands ``_polyhedra`` its
    equalities (H v_row_i) . v = x_i already reduced, and a point it
    pins gets p from ``integer_multiple`` of its image.  Each point's
    level flag and interiority are read off p: a positive multiple has
    the same level sets and the same argmins.
    """
    hh = vector(h)
    plan = _fan_plan(OM, A)
    n = A.rows
    at_int = plan.at_int
    H, h_int = integer_multiple(hh)

    @functools.cache
    def tie(a: int, b: int) -> tuple[tuple[int, ...], int]:
        """The ordering facet (w + h)_a <= (w + h)_b of 0-based elements
        as a gcd-primitive integer row and right-hand side in v."""
        row = primitive([H * (x - y) for x, y in zip(at_int[a], at_int[b])] + [h_int[b] - h_int[a]])
        return row[:-1], row[-1]

    notes: list[str] = []
    if plan.empty is not None:
        notes.append(
            f"component {list(plan.empty)} admits no positive weight; the positive fan is empty"
        )

    # v -> (w, an integer positive multiple p of w + h)
    candidates: dict[tuple[Fraction, ...], tuple[tuple[Fraction, ...], list[int]]] = {}
    seen: set[tuple[tuple[int, ...], int]] = set()
    pinned = 0
    positive_cells = 0
    for d, v_rows, h_rows, check, groups in plan.systems:
        if any(sum(map(mul, row, h_int)) for row in check):
            continue
        x = [sum(map(mul, row, h_int)) for row in h_rows]
        if len(x) == n:
            # v = x / (d H); many cells share a point, so each v, keyed
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
            continue
        # Underdetermined ties: examine each product cell of this
        # combination with its ordering facets.
        eqs = [(tuple(H * c for c in row), xi) for row, xi in zip(v_rows, x)]
        for combo in itertools.product(*groups):
            ineqs = [
                (*tie(lower[0] - 1, upper[0] - 1), False)
                for cell in combo
                for upper, lower in zip(cell, cell[1:])
            ]
            dim, vstar = _polyhedra.polyhedron_dimension(n, eqs, ineqs)
            if dim < 0:
                continue
            if dim == 0:
                # a zero-dimensional piece is one point, so its sample is it
                wstar = tuple(sum(map(mul, row, vstar)) for row in at_int)
                p = integer_multiple([a + b for a, b in zip(wstar, hh)])[1]
                if not is_positive_member(p, OM):
                    raise RuntimeError(
                        "pinned cone point escaped the positive fan; cell"
                        " bookkeeping is wrong"
                    )
                candidates[vstar] = (wstar, p)
                pinned += 1
            else:
                positive_cells += 1
    if pinned:
        notes.append(
            f"{pinned} underdetermined tie system(s) pinned to a point by cone facets"
        )
    if positive_cells:
        notes.append(
            f"{positive_cells} positive cell(s) meet rowspan(A) in positive dimension"
        )

    diagnostics = plan.diagnostics
    positive_dimensional = positive_cells > 0
    points = []
    for v in sorted(candidates):
        w, p = candidates[v]
        isolated = is_isolated(v, OM, A, hh)
        if not isolated and not positive_dimensional:
            # a tangent direction would put a segment into the closed piece
            # of some positive cell, which the fan walk would have counted
            raise RuntimeError(
                f"point v = {tuple(str(x) for x in v)} is not isolated, but the fan"
                " walk met no positive-dimensional piece"
            )
        points.append(
            IntersectionPoint(
                v=v,
                w=w,
                supporting_flag=_level_flag(p),
                isolated=isolated,
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
    circuit support.  An isolated point in the relative interior of a
    positive cell is pinned by its argmin ties, all of which live inside
    circuit supports, so it is a vertex here.  That argument does not
    cover a point pinned on a cell boundary by the cell's facets; the
    oracle finding those rests on its agreement with the fan walk
    (acceptance criterion 7), not on a proof.  The search shares no code
    path with the fan walk: no cells, chains or calls into `_polyhedra`.

    A depth-first search visits the independent sets of n planes, in
    plane index order.  Each node carries its remaining candidate planes
    as integer rows already reduced against the planes chosen above it;
    choosing a pivot row reduces the child's candidates against that one
    row and drops those whose coefficients vanished, since such a plane
    contains the node's flat or misses it and can never pivot below.
    The flat itself is carried as v = (u + sum of v_c * q_c) / d over its
    free columns c, each pivot substituted in once, so at depth n - 1 it
    is a line and every remaining candidate r meets it at
    v_c = r[n] / r[c].  Vertices are keyed by their gcd-normalized
    integer numerators and positive denominator, and each new one is
    tested once, in integers: A is read through ``integer_columns`` and
    (H, H h) come from ``integer_multiple``, so
    H * d * (A^T v + h) = (H A^T) num + (H h) d is a positive multiple of
    A^T v + h, every circuit has the same argmin and the verdict is
    exact.  Fractions are built only for accepted vertices.

    The search is pruned by circuit coverage.  A point in the positive
    fan has, for every signed circuit, a positive and a negative element
    tied at the circuit's argmin, so it lies on the plane of one
    opposite-sign pair of every circuit, or that pair is tied
    identically (equal columns of A and equal h).  Each circuit gets a
    bitmask of its opposite-sign planes; a circuit with an identically
    tied pair is exempt, and a pair whose row vanishes but whose sides
    differ is never tied and adds no bit.  Each node also holds its
    chosen planes and the candidates dropped with a zero right-hand
    side, which contain its flat.  A child is cut when some mask misses
    all of those and all of the child's remaining candidates; an empty
    mask means no vertex at all.  This loses no valid vertex p: on the
    path that chooses, in index order, the first basis of the planes
    through p, every plane through p is chosen, contains the flat (a
    skipped one depends on the chosen planes) or is still a candidate,
    so that path is never cut.  The prune keeps every plane as a
    candidate and cuts only subtrees.  Dropping planes instead, keeping
    only the opposite-sign ties inside each circuit, cut the hhk oracle
    about eightfold but missed 1 of the 5 points at
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

    planes: list[tuple[int, ...]] = []
    bit: dict[tuple[int, ...], int] = {}  # either sign of a plane -> its bit
    for sup in OM.circuit_supports:
        for i, j in itertools.combinations(sup, 2):
            aug = tie(i, j)
            if any(aug[:n]) and aug not in bit:
                bit[aug] = bit[tuple(-x for x in aug)] = 1 << len(planes)
                planes.append(aug)

    masks = set()
    for c in OM.circuits:
        ties = [tie(i, j) for i in c.positive for j in c.negative]
        if (0,) * (n + 1) not in ties:
            masks.add(functools.reduce(or_, (bit[t] for t in ties if any(t[:n])), 0))

    found: set[tuple[Fraction, ...]] = set()
    seen: set[tuple[tuple[int, ...], int]] = set()

    def walk(cands: list, u: list[int], free: dict[int, list[int]], d: int, held: int) -> None:
        # the node's flat: v = (u + sum over free columns c of v_c * free[c]) / d
        if len(free) == 1:
            ((c, q),) = free.items()
            for _, r in cands:
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
        for k in range(len(cands) - len(free) + 1):
            mark, r = cands[k]
            col = next(j for j, x in enumerate(r) if x)
            pv, rn = r[col], r[n]
            child = []
            child_held = held | mark
            reach = 0
            for t, s in cands[k + 1 :]:
                f = s[col]
                if f:
                    s = [pv * a - f * b for a, b in zip(s, r)]
                    if not any(s[:n]):
                        if not s[n]:
                            child_held |= t  # the plane contains the child's flat
                        continue
                    g = gcd(*s)
                    if g > 1:
                        s = [x // g for x in s]
                child.append((t, s))
                reach |= t
            reach |= child_held
            if not all(m & reach for m in masks):
                continue
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
                child_held,
            )

    if all(masks):
        walk(
            [(bit[p], p) for p in planes],
            [0] * n,
            {c: [int(j == c) for j in range(n)] for c in range(n)},
            1,
            0,
        )
    return found


def lower_bound(system: VerticalSystem, cross_check: bool = False) -> IntersectionReport:
    """Count the shifted positive tropical kernel against rowspan(A).

    The count is certified exactly when the report says transverse;
    otherwise it is still computed and reported honestly.  With
    cross_check=True the vertex oracle must reproduce the same v-set
    or an OracleMismatchError is raised.
    """
    OM = realize_from_kernel(system.C)
    report = intersect_via_fan(OM, system.A, system.h)
    if cross_check:
        found = {p.v for p in report.points}
        other = intersect_via_vertices(OM, system.A, system.h)
        if found != other:
            raise OracleMismatchError(
                f"fan walk found {sorted(found)} but vertex oracle found {sorted(other)}"
            )
    return report
