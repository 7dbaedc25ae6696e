"""Oriented matroids realized by kernels of rational matrices.

Ground set elements are the integers 1..r, matching the column numbering
of the defining matrix in every report and serialized document.  Signed
circuits record the sign pattern of the minimal-support linear forms that
vanish on the realized space; both orientations of every circuit are
stored.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from operator import and_, lt
from typing import Iterable, Sequence

from tropibound.rational import RationalMatrix, integer_multiple, kernel_basis, primitive


class MatroidError(ValueError):
    pass


def _normalized(t) -> bool:
    """Whether t is a strictly increasing tuple, which normalizing leaves alone."""
    return type(t) is tuple and all(map(lt, t, t[1:]))


@dataclass(frozen=True, order=True)
class SignedCircuit:
    """A pair of disjoint 1-based index sets (positive part, negative part)."""

    positive: tuple[int, ...]
    negative: tuple[int, ...]

    def __post_init__(self):
        if not (_normalized(self.positive) and _normalized(self.negative)):
            object.__setattr__(self, "positive", tuple(sorted(set(self.positive))))
            object.__setattr__(self, "negative", tuple(sorted(set(self.negative))))
        pos, neg = self.positive, self.negative
        if not set(pos).isdisjoint(neg):
            raise MatroidError(f"positive and negative parts overlap: {pos} / {neg}")
        if not pos and not neg:
            raise MatroidError("empty signed circuit")

    @property
    def support(self) -> frozenset[int]:
        return frozenset(self.positive) | frozenset(self.negative)

    def negated(self) -> "SignedCircuit":
        return SignedCircuit(self.negative, self.positive)

    def __repr__(self) -> str:
        return f"({set(self.positive) or '{}'}, {set(self.negative) or '{}'})"


@dataclass(frozen=True, order=True)
class Flat:
    """A closure-closed subset of the ground set, with its matroid rank."""

    elements: tuple[int, ...]
    rank: int

    def __post_init__(self):
        if not _normalized(self.elements):
            object.__setattr__(self, "elements", tuple(sorted(set(self.elements))))

    @cached_property
    def as_set(self) -> frozenset[int]:
        """The elements as a set, built on first read: the walks that make
        and render flats read only ``elements``."""
        return frozenset(self.elements)

    def __repr__(self) -> str:
        return f"Flat({set(self.elements) or '{}'}, rank={self.rank})"


class OrientedMatroid:
    """Signed-circuit presentation of an oriented matroid on {1..r}.

    Closed under negation: for every stored (C+, C-) the pair (C-, C+)
    is stored too.  ``circuit_supports`` holds the deduplicated circuit
    supports, sorted by (size, elements), and ``_masks`` their bitmasks;
    ``sign_masks`` holds each circuit once, up to negation, as bitmasks.

    The constructor works on the circuits' sorted ``(positive,
    negative)`` tuples: it checks the ground set on the ends of each
    sorted support and nesting on bitmasks, builds only the negations
    that are missing, each once through ``negated``, and sorts plain
    tuples.  So every ``SignedCircuit`` it holds was built, and checked
    by its constructor, once.
    """

    __slots__ = ("ground_size", "circuits", "circuit_supports", "_masks", "_rank", "_signs")

    def __init__(self, ground_size: int, circuits: Iterable[SignedCircuit]):
        if ground_size < 1:
            raise MatroidError("ground set must be nonempty")
        closed = {(c.positive, c.negative): c for c in circuits}
        found = set()
        for (pos, neg), c in list(closed.items()):
            s = tuple(sorted(pos + neg))
            if s[0] < 1 or s[-1] > ground_size:
                raise MatroidError(f"circuit {c} leaves the ground set [1..{ground_size}]")
            found.add(s)
            if (neg, pos) not in closed:
                closed[neg, pos] = c.negated()
        supports = [s for _, s in sorted((len(s), s) for s in found)]
        # bit i of holders[e] is set when support i holds e; the AND over a
        # support's elements marks every support containing it
        holders = [0] * (ground_size + 1)
        for i, s in enumerate(supports):
            for e in s:
                holders[e] |= 1 << i
        for i, s in enumerate(supports):
            above = reduce(and_, map(holders.__getitem__, s)) & ~(1 << i)
            if above:
                b = supports[(above & -above).bit_length() - 1]
                raise MatroidError(f"circuit supports are nested: {set(s)} < {set(b)}")
        object.__setattr__(self, "ground_size", ground_size)
        # the dataclass order is the order of the (positive, negative) keys
        object.__setattr__(self, "circuits", tuple(closed[k] for k in sorted(closed)))
        object.__setattr__(self, "circuit_supports", tuple(supports))
        object.__setattr__(self, "_masks", tuple(map(_mask, supports)))
        object.__setattr__(self, "_rank", None)
        object.__setattr__(self, "_signs", None)

    def __setattr__(self, name, value):
        raise AttributeError("OrientedMatroid is immutable")

    @property
    def rank(self) -> int:
        """Matroid rank of the ground set, by greedy extension of an
        independent set: an element joins unless it closes a circuit."""
        if self._rank is None:
            chosen = 0
            for e in range(self.ground_size):
                trial = chosen | 1 << e
                if all(c & ~trial for c in self._masks):
                    chosen = trial
            object.__setattr__(self, "_rank", chosen.bit_count())
        return self._rank

    @property
    def sign_masks(self) -> tuple[tuple[int, int], ...]:
        """One ``(positive, negative)`` bitmask pair per circuit up to
        negation, in ``circuits`` order: the orientation whose positive
        tuple sorts first.  Built on first use and kept, as ``rank`` is:
        listing circuits and flats never reads it."""
        if self._signs is None:
            signs = tuple(
                (_mask(c.positive), _mask(c.negative))
                for c in self.circuits
                if c.positive < c.negative
            )
            object.__setattr__(self, "_signs", signs)
        return self._signs

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, OrientedMatroid)
            and self.ground_size == other.ground_size
            and self.circuits == other.circuits
        )

    def __hash__(self) -> int:
        # equal circuits give equal masks, and ints hash faster than dataclasses
        return hash((self.ground_size, self._masks))

    def __repr__(self) -> str:
        return f"OrientedMatroid(r={self.ground_size}, circuits={list(self.circuits)})"

    def to_document(self) -> dict:
        """Serializable listing: ground size, circuits, flats by rank."""
        flats = all_flats(self)
        return {
            "ground_size": self.ground_size,
            "rank": self.rank,
            "circuits": [
                {"positive": list(c.positive), "negative": list(c.negative)}
                for c in self.circuits
            ],
            "flats_by_rank": {
                str(k): [list(f.elements) for f in flats if f.rank == k]
                for k in range(self.rank + 1)
            },
        }


def circuits_via_subsets(G: RationalMatrix) -> list[SignedCircuit]:
    """Signed circuits of the column matroid of G, both orientations.

    A depth-first search visits every independent set I of columns, each
    built in index order.  It rests on one fact (Oxley, *Matroid Theory*,
    ch. 1): if I is independent and I + j is dependent, then I + j holds
    exactly one circuit, because a relation on I + j is unique up to
    scale once I carries none.  That circuit is I + j itself iff the relation has no
    zero coefficient, and its signs are the circuit's.  Every circuit C
    is found once, at I = C - max(C): a subset of an independent set is
    independent, so the search reaches I.

    Each node carries the later candidate columns, every one already
    reduced against the node's columns: an integer row of its residual
    on the rows not yet pivoted, then its coefficients on the node's
    columns, then its own.  Choosing a candidate as pivot reduces the
    later ones against that one column, dropping the pivot row, and
    ``primitive`` keeps the rows small.  A candidate reduced to zero
    carries I + j's relation and is dropped, since a dependent set is
    never extended.  Each row of G is scaled to integers once by
    ``integer_multiple``, which leaves the column relations unchanged.

    The search collects each circuit as its sorted ``(positive,
    negative)`` tuples, in both orientations.  One sort of those plain
    tuples gives the dataclass order, and each ``SignedCircuit`` is then
    built once, already in place.
    """
    ints = [integer_multiple(G.row(i))[1] for i in range(G.rows)]
    circuits: list[tuple[tuple[int, ...], tuple[int, ...]]] = []

    def relation(cols: tuple[int, ...], row: Sequence[int]) -> None:
        lam = row[len(row) - len(cols) :]
        if 0 not in lam:
            pos = tuple(j + 1 for j, x in zip(cols, lam) if x > 0)
            neg = tuple(j + 1 for j, x in zip(cols, lam) if x < 0)
            circuits.extend(((pos, neg), (neg, pos)))

    def walk(path: tuple[int, ...], cands: list, live: int) -> None:
        # cands: (column, residual on `live` rows + coefficients on path + own)
        for k, (p, prow) in enumerate(cands):
            # the pivot row is the first with a nonzero entry, most often row 0
            t = 0 if prow[0] else next(i for i in range(live) if prow[i])
            a, head, own = prow[t], prow[:-1], prow[-1]
            below = (*path, p)
            child = []
            for q, qrow in cands[k + 1 :]:
                b = qrow[t]
                if not b:
                    child.append((q, (*qrow[:t], *qrow[t + 1 : -1], 0, qrow[-1])))
                    continue
                # zip stops at head's end, before q's own coefficient
                row = [a * x - b * y for x, y in zip(qrow, head)]
                del row[t]
                row += (-b * own, a * qrow[-1])
                if any(row[: live - 1]):
                    child.append((q, primitive(row)))
                else:
                    # a relation's signs need no common factor removed
                    relation((*below, q), row)
            if child:
                walk(below, child, live - 1)

    roots = []
    for j in range(G.cols):
        row = (*(x[j] for x in ints), 1)
        if any(row[:-1]):
            roots.append((j, row))
        else:
            relation((j,), row)
    walk((), roots, G.rows)
    return [SignedCircuit(pos, neg) for pos, neg in sorted(circuits)]


@lru_cache(maxsize=1)
def realize_from_kernel(C: RationalMatrix) -> OrientedMatroid:
    """Oriented matroid realized by ker(C), on ground set {1..cols(C)}.

    Circuits are the sign patterns of the minimal-support nonzero vectors
    of rowspan(C), i.e. of the minimal linear dependencies among the
    columns of a kernel basis of C.

    A one-entry memo keeps the last result, so a scan over many shifts of
    one C (a rate scan of one reaction network) realizes the matroid
    once.  One entry is enough for that and keeps unrelated systems cold.
    The matroid is immutable, so every caller shares the same object.
    """
    if C.is_zero():
        raise MatroidError("zero matrix realizes no oriented matroid here")
    return OrientedMatroid(C.cols, circuits_via_subsets(kernel_basis(C)))


def _mask(S: Iterable[int]) -> int:
    """Bitmask of distinct elements: element e is bit e-1."""
    return sum(1 << (e - 1) for e in S)


def _elements(mask: int) -> tuple[int, ...]:
    """The elements of a bitmask, increasing: the inverse of ``_mask``.
    Walks the set bits, lowest first."""
    out = []
    while mask:
        out.append((mask & -mask).bit_length())
        mask &= mask - 1
    return tuple(out)


def _close(mask: int, masks: Sequence[int]) -> int:
    """Add every e that is the only element of some circuit support outside.

    One pass suffices: e lies in the closure of S iff some circuit C has
    C - e inside S, and the closure of a closure adds nothing.  Only the
    circuits with at most rank(S) + 1 elements matter, because such a
    C - e is independent and inside S; ``_flat_levels`` passes that prefix
    of the size-sorted circuit supports.
    """
    for c in masks:
        outside = c & ~mask
        if outside and not outside & (outside - 1):
            mask |= outside
    return mask


def _flat_levels(ground: int, masks: Sequence[int]) -> list[set[int]]:
    """The flats of the matroid on the bitmask ``ground`` whose circuit
    supports are ``masks``, sorted by size, as one set of bitmasks per rank.

    Walks the lattice upward one rank at a time: the flats covering a
    rank-k flat F are the closures of F + {e} over e outside F, and each
    has rank k+1, so each is closed with the circuits of at most k+2
    elements (see ``_close``).  The covers of F partition E - F (Oxley,
    *Matroid Theory*, 1.4): e outside F lies in cl(F + e), and if it
    also lies in a cover cl(F + f), then cl(F + e) is a rank-(k+1) flat
    inside that rank-(k+1) flat and so equal to it.  So an e absorbed by
    a cover already found for F is skipped, and each cover of F is
    closed once.  The last level is {ground}.  The first flat whose
    cover is ground shows that its rank's flats are the hyperplanes,
    each covered by ground alone, so the walk stops there without
    closing the other hyperplanes' covers.
    """
    sizes = [c.bit_count() for c in masks]

    def small(k: int) -> Sequence[int]:
        return masks[: bisect_right(sizes, k + 1)]

    levels = [{_close(0, small(0))}]
    while ground not in levels[-1]:
        closing = small(len(levels))
        covers: set[int] = set()
        for F in levels[-1]:
            rest = ground & ~F
            while rest:
                cover = _close(F | rest & -rest, closing)
                covers.add(cover)
                rest &= ~cover
            if cover == ground:
                break
        levels.append(covers)
    return levels


@lru_cache(maxsize=64)
def all_flats(M: OrientedMatroid) -> tuple[Flat, ...]:
    """Every flat of the underlying matroid, graded by rank (see
    ``_flat_levels``): sorted as ``(rank, elements)`` tuples, then each
    ``Flat`` built once."""
    levels = _flat_levels((1 << M.ground_size) - 1, M._masks)
    flats = sorted((k, _elements(F)) for k, level in enumerate(levels) for F in level)
    return tuple(Flat(elements, k) for k, elements in flats)


def _covers(flats: Iterable[Flat], top_rank: int) -> list[list[tuple[Flat, list[int]]]]:
    """The given flats of ranks 0, 1, ..., max(top_rank - 1, 0), one list
    per rank in the given order, each flat paired with the positions, in
    the next rank's list, of the flats covering it: G covers F iff F is
    inside G and rank G = rank F + 1, tested on bitmasks."""
    levels: list[list[tuple[Flat, list[int]]]] = [[] for _ in range(max(top_rank, 1))]
    for f in flats:
        if f.rank < len(levels):
            levels[f.rank].append((f, []))
    masks = [[_mask(f.elements) for f, _ in level] for level in levels]
    for level, lower, upper in zip(levels, masks, masks[1:]):
        for j, G in enumerate(upper):
            for (_, above), F in zip(level, lower):
                if not F & ~G:
                    above.append(j)
    return levels


def _full_chains(flats: Iterable[Flat], top_rank: int) -> list[tuple[Flat, ...]]:
    """The chains F1 < F2 < ... of the given flats with ranks 1, 2, ...,
    top_rank - 1 above a given rank-0 flat, depth first in the given
    order; the empty chain alone when top_rank <= 1 and a rank-0 flat is
    given, and no chain when none is.

    In a geometric lattice every maximal chain steps through covers, so
    a depth-first walk over the covers (``_covers``) from the rank-0 flat
    lists exactly the maximal flags, in ``all_flats`` order when the
    flats come in that order.  Leaving some flats out leaves the
    remaining chains in the same order: ``positive_fan`` passes the
    positive flats and gets the positive maximal flags in the order of
    ``maximal_flags``.
    """
    levels = _covers(flats, top_rank)
    out: list[tuple[Flat, ...]] = []

    def extend(chain: tuple[Flat, ...], k: int, above: list[int]):
        if k == len(levels):
            out.append(chain)
        for j in above:
            f, up = levels[k][j]
            extend((*chain, f), k + 1, up)

    for _, above in levels[0]:
        extend((), 1, above)
    return out


def _chain_count(levels: list[list[tuple[Flat, list[int]]]]) -> int:
    """``len(_full_chains(flats, top_rank))`` without listing the chains,
    from the levels ``_covers(flats, top_rank)``, so that a caller who
    walks them too builds them once: the chains through a flat to the
    top are as many as those through the flats covering it, summed one
    rank at a time from the top."""
    paths = [1] * len(levels[-1])
    for level in reversed(levels[:-1]):
        paths = [sum(paths[j] for j in above) for _, above in level]
    return sum(paths)


@lru_cache(maxsize=64)
def maximal_flags(M: OrientedMatroid) -> tuple[tuple[Flat, ...], ...]:
    """All chains of proper nonempty flats of ranks 1, 2, ..., rank(M)-1,
    each the tuple of its flats; the empty chain, which indexes the
    lineality-only cone, alone when rank(M) <= 1."""
    return tuple(_full_chains(all_flats(M), M.rank))


def maximal_flag_count(M: OrientedMatroid) -> int:
    """``len(maximal_flags(M))`` without listing the flags."""
    return _chain_count(_covers(all_flats(M), M.rank))
