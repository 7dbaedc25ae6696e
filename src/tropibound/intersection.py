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
from operator import mul
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

from tropibound import _polyhedra
from tropibound.bergman import _positive_flats, is_positive_member
from tropibound.matroid import (
    Flat,
    FlagOfFlats,
    OrientedMatroid,
    SignedCircuit,
    _elements,
    _mask,
    realize_from_kernel,
)
from tropibound.rational import (
    RationalMatrix,
    _echelon,
    in_row_span,
    integer_columns,
    integer_multiple,
    primitive,
    rank,
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
    r - rank(OM), so C is never eliminated here.
    """
    n, r = A.rows, A.cols
    rank_A = rank(A)
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
    ones_in = in_row_span(A, [1] * r)
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
    ``interior`` records whether w + h sits in the relative interior of a
    full-dimensional cell of the coarse structure (the locus where the
    initial circuits stay constant); ``isolated`` records that no nonzero
    tangent direction inside rowspan(A) stays in the fan.
    """

    v: tuple[Fraction, ...]
    w: tuple[Fraction, ...]
    supporting_flag: FlagOfFlats
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
                    "flag": [list(f.elements) for f in p.supporting_flag.chain],
                    "isolated": p.isolated,
                    "interior": p.interior,
                }
                for p in self.points
            ],
            "notes": list(self.notes),
        }


def _level_flag(p: Sequence[Fraction], OM: OrientedMatroid) -> FlagOfFlats:
    """The chain of upper level sets of p, which are flats for fan members."""
    r = OM.ground_size
    values = sorted(set(p), reverse=True)
    chain = []
    for cut in values[:-1]:
        members = tuple(e for e in range(1, r + 1) if p[e - 1] >= cut)
        chain.append(Flat(members, OM.rank_of(members)))
    return FlagOfFlats(tuple(chain))


def _is_interior(p: Sequence[Fraction], OM: OrientedMatroid) -> bool:
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


def tangent_direction(
    v: Sequence, OM: OrientedMatroid, A: RationalMatrix, h: Sequence
) -> tuple[Fraction, ...] | None:
    """A nonzero direction u with A^T (v + eps u) + h inside the positive
    fan for all small eps > 0, or None when no such direction exists.

    To first order the fan condition reads: for every circuit, the argmin
    of A^T u over the circuit's current argmin set still meets both
    signs.  That is a finite union of polyhedral cones indexed by
    per-circuit witness pairs; each surviving cone is probed exactly for
    a nonzero point.  A must be integer.  The argmins are read off the
    integer multiple V H (A^T v + h), with (V, V v) and (H, H h) from
    ``integer_multiple``, and the cones are cut out by ``primitive`` rows.
    """
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
                u = _polyhedra.cone_nonzero_point(n, list(e2), list(i2))
                if u is not None:
                    accepted[(e2, i2)] = u
        if not accepted:
            return None
        level = accepted
    return next(iter(level.values()))


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
    math/0406116; see ``_positive_flats``), with blocks F_1, F_2 - F_1,
    ..., E - F_k.  So the partitions of the chains starting above a flat
    F are parts(F) = {E - F} when no positive proper flat lies above F,
    and otherwise the union over positive proper G > F of
    {G - F} + parts(G).  Each parts(F) is built once, larger flats
    first; the component's partitions are parts of the empty flat, which
    is {E} when it has no positive proper flat.  Each component is
    walked on its own matroid.  Returns ``(components, None)``, or
    ``((), comp)`` for the first component ``comp`` that admits no
    positive weight (some circuit is one-signed).
    """
    elements = functools.cache(lambda mask: _elements(mask, OM))
    components = []
    for comp in _merge(OM.ground_size, OM.circuit_supports):
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
        positive = _positive_flats(local)
        if not positive:
            return (), tuple(comp)
        proper = [
            _mask(comp[e - 1] for e in f.elements) for f in positive if 0 < f.rank < local.rank
        ]
        above = {F: tuple(G for G in proper if G != F and G & F == F) for F in [0, *proper]}
        top = _mask(comp)
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


class _TieTransform(NamedTuple):
    """The elimination [M | I] -> [T M | T] of an integer matrix M.

    The rows T_i in ``solve`` give d times the reduced echelon form of M,
    with pivots ``pivots``; those in ``check`` give zero rows.  So Mv = b
    is consistent iff T_i . b = 0 for every check row, and then its
    particular solution has v[pivots[i]] = (T_i . b) / d, zero elsewhere.
    """

    pivots: tuple[int, ...]
    d: int  # positive, as _echelon returns it
    solve: tuple[tuple[int, ...], ...]
    check: tuple[tuple[int, ...], ...]


def _tie_transform(M: Sequence[Sequence[int]], n: int) -> _TieTransform:
    """Eliminate [M | I] once, pivoting in the n columns of M only."""
    k = len(M)
    m, pivots, d, _ = _echelon(
        [(*row, *(int(i == j) for j in range(k))) for i, row in enumerate(M)], n
    )
    T = [tuple(row[n:]) for row in m]
    rank = len(pivots)
    return _TieTransform(tuple(pivots), d, tuple(T[:rank]), tuple(T[rank:]))


def _particular(t: _TieTransform, b: Sequence[int]) -> list[int] | None:
    """Numerators over t.d of the pivot entries of the particular solution
    of Mv = b, or None when Mv = b is inconsistent."""
    if any(sum(map(mul, row, b)) for row in t.check):
        return None
    return [sum(map(mul, row, b)) for row in t.solve]


class _FanPlan(NamedTuple):
    """Everything the fan walk needs that depends only on (OM, A)."""

    diagnostics: Diagnostics
    empty: tuple[int, ...] | None  # a component admitting no positive weight
    at_int: tuple[tuple[int, ...], ...]  # the rows of A^T
    # per partition combination: its tie pairs (a, b) as 0-based elements,
    # the transform of their tie matrix and, when that matrix has rank
    # below n, each component's positive cells with its partition
    systems: tuple[
        tuple[tuple[tuple[int, int], ...], _TieTransform, tuple[tuple[_Cell, ...], ...] | None],
        ...,
    ]


@functools.lru_cache(maxsize=1)
def _fan_plan(OM: OrientedMatroid, A: RationalMatrix) -> _FanPlan:
    """Validate (OM, A), find each component's block partitions, and
    eliminate the tie matrix of each partition combination.

    A is read through ``integer_columns``, so a non-integer A raises
    ValueError.  The tie (w + h)_a = (w + h)_b reads
    (A^T_a - A^T_b) . v = h_b - h_a: only its right-hand side depends on
    h, so a one-entry memo lets every shift of a scan over one matroid
    and one A share the plan; the result is immutable because callers
    share it.  The positive cells of a combination are listed only when
    its tie matrix has rank below n, since only an underdetermined
    system needs their ordering facets; each component partition's cells
    are listed once.
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
            pairs = tuple(
                (block[0] - 1, e - 1) for blocks in combo for block in blocks for e in block[1:]
            )
            M = [[x - y for x, y in zip(at_int[a], at_int[b])] for a, b in pairs]
            t = _tie_transform(M, n)
            groups = None
            if len(t.pivots) < n:
                groups = tuple(cells(i, partition) for i, partition in enumerate(combo))
            systems.append((pairs, t, groups))
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

    The partitions and the tie matrices of the integer A are found and
    eliminated once per (OM, A) in ``_fan_plan``.  Per call,
    ``integer_multiple`` gives H and the ints H h, and each tie system's
    right-hand side b is read off them; a consistent system M v = b / H
    of full rank has the unique solution v = (T b) / (d H).  Its image
    A^T v + h is tested for positive membership in integers, on the
    positive multiple d H (A^T v + h), and Fractions are built only for
    accepted points.
    """
    hh = vector(h)
    plan = _fan_plan(OM, A)
    n = A.rows
    at_int = plan.at_int
    H, h_int = integer_multiple(hh)

    @functools.cache
    def tie(a: int, b: int) -> tuple[tuple[int, ...], int]:
        """The tie (w + h)_a = (w + h)_b of 0-based elements as a
        gcd-primitive integer row and right-hand side in v."""
        row = primitive([H * (x - y) for x, y in zip(at_int[a], at_int[b])] + [h_int[b] - h_int[a]])
        return row[:-1], row[-1]

    notes: list[str] = []
    if plan.empty is not None:
        notes.append(
            f"component {list(plan.empty)} admits no positive weight; the positive fan is empty"
        )

    candidates: dict[tuple[Fraction, ...], tuple[Fraction, ...]] = {}
    seen: set[tuple[tuple[int, ...], int]] = set()
    pinned = 0
    positive_cells = 0
    for pairs, t, groups in plan.systems:
        x = _particular(t, [h_int[b] - h_int[a] for a, b in pairs])
        if x is None:
            continue
        if len(x) == n:
            # v = x / (d H); many cells share a point, so each v, keyed
            # by x / d in lowest terms, is tested once
            d = t.d
            g = gcd(d, *x)
            key = (tuple(xi // g for xi in x), d // g)
            if key in seen:
                continue
            seen.add(key)
            aw = [sum(map(mul, row, x)) for row in at_int]
            if is_positive_member([a + d * hj for a, hj in zip(aw, h_int)], OM):
                den = d * H
                v = tuple(Fraction(xi, den) for xi in x)
                candidates[v] = tuple(Fraction(a, den) for a in aw)
            continue
        # Underdetermined ties: examine each product cell of this
        # combination with its ordering facets.
        eqs = [tie(a, b) for a, b in pairs]
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
                pstar = tuple(a + b for a, b in zip(wstar, hh))
                if not is_positive_member(pstar, OM):
                    raise RuntimeError(
                        "pinned cone point escaped the positive fan; cell"
                        " bookkeeping is wrong"
                    )
                candidates[vstar] = wstar
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
        w = candidates[v]
        p = tuple(a + b for a, b in zip(w, hh))
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
                supporting_flag=_level_flag(p, OM),
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
    (acceptance criterion 7), not on a proof.  The plane set is kept
    whole: keeping only opposite-sign ties inside each circuit cut the
    hhk oracle about eightfold but missed 1 of the 5 points at
    h = (7, 8, 3, 3, -1, 8).  The search shares no code path with the
    fan walk: no cells, chains or calls into `_polyhedra`.

    A depth-first search visits every independent set of n planes, in
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
    On hhk this takes about 4 s (2 shared x86_64 cores, Python 3.11).

    Only the v set is returned, with no isolation, interiority or level
    flags: that set is all ``lower_bound`` and acceptance criterion 7
    compare.  A matroid with no circuits has no planes and so no vertices.
    """
    n = A.rows
    H, h_int = integer_multiple(vector(h))
    at_int = [[H * x for x in col] for col in integer_columns(A)]

    # Integer augmented rows a . v = b of H A^T and H h, divided by their
    # gcd, so each plane has one primitive form and the elimination below
    # runs on plain ints.
    hyperplanes: dict[tuple[int, ...], None] = {}
    for sup in OM.circuit_supports:
        for a_idx in range(len(sup)):
            for b_idx in range(a_idx + 1, len(sup)):
                i, j = sup[a_idx], sup[b_idx]
                row = [x - y for x, y in zip(at_int[i - 1], at_int[j - 1])]
                if not any(row):
                    continue
                aug = primitive((*row, h_int[j - 1] - h_int[i - 1]))
                if tuple(-x for x in aug) in hyperplanes:
                    continue
                hyperplanes[aug] = None

    found: set[tuple[Fraction, ...]] = set()
    seen: set[tuple[tuple[int, ...], int]] = set()

    def walk(cands: list, u: list[int], free: dict[int, list[int]], d: int) -> None:
        # the node's flat: v = (u + sum over free columns c of v_c * free[c]) / d
        if len(free) == 1:
            ((c, q),) = free.items()
            for r in cands:
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
            r = cands[k]
            col = next(j for j, x in enumerate(r) if x)
            pv, rn = r[col], r[n]
            child = []
            for s in cands[k + 1 :]:
                f = s[col]
                if f:
                    s = [pv * a - f * b for a, b in zip(s, r)]
                    if not any(s[:n]):
                        continue
                    g = gcd(*s)
                    if g > 1:
                        s = [x // g for x in s]
                child.append(s)
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
            )

    walk(list(hyperplanes), [0] * n, {c: [int(j == c) for j in range(n)] for c in range(n)}, 1)
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
