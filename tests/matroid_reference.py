"""Reference construction of the matroid layer, for the tests.

The package builds circuits and flats as bitmasks and sorted tuples and
makes each ``SignedCircuit`` and ``Flat`` once.  This module keeps the
construction it replaced: circuits built as records, negated and
sorted by the record order; supports deduplicated as frozensets; and
flats read off every ground-set element, built, then sorted by a key.
The tests check that both give the same objects in the same order.
``initial_circuit`` lives here too: only the tests call it.
"""

from bisect import bisect_right
from typing import Iterable, Sequence

from tropibound.matroid import Flat, MatroidError, SignedCircuit
from tropibound.rational import RationalMatrix, integer_multiple, primitive, to_rational


def initial_circuit(w: Sequence, c: SignedCircuit) -> SignedCircuit:
    """Restriction of a signed circuit to the argmin of w over its support."""
    vals = {e: to_rational(w[e - 1]) for e in c.support}
    m = min(vals.values())
    arg = {e for e, x in vals.items() if x == m}
    return SignedCircuit(
        tuple(e for e in c.positive if e in arg),
        tuple(e for e in c.negative if e in arg),
    )


def circuits_via_subsets(G: RationalMatrix) -> list[SignedCircuit]:
    """The depth-first circuit search, each relation built as a
    ``SignedCircuit`` and its negation, sorted by the record order."""
    ints = [integer_multiple(G.row(i))[1] for i in range(G.rows)]
    circuits: list[SignedCircuit] = []

    def relation(cols: tuple[int, ...], row: Sequence[int]) -> None:
        lam = row[len(row) - len(cols) :]
        if 0 not in lam:
            pos = tuple(j + 1 for j, x in zip(cols, lam) if x > 0)
            neg = tuple(j + 1 for j, x in zip(cols, lam) if x < 0)
            c = SignedCircuit(pos, neg)
            circuits.extend([c, c.negated()])

    def walk(path: tuple[int, ...], cands: list, live: int) -> None:
        for k, (p, prow) in enumerate(cands):
            t = next(i for i in range(live) if prow[i])
            a = prow[t]
            below = (*path, p)
            child = []
            for q, qrow in cands[k + 1 :]:
                b = qrow[t]
                if not b:
                    child.append((q, (*qrow[:t], *qrow[t + 1 : -1], 0, qrow[-1])))
                    continue
                row = [a * x - b * y for x, y in zip(qrow[:-1], prow[:-1])]
                del row[t]
                row = primitive((*row, -b * prow[-1], a * qrow[-1]))
                if any(row[: live - 1]):
                    child.append((q, row))
                else:
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
    return sorted(circuits)


def _mask(S: Iterable[int]) -> int:
    return sum(1 << (e - 1) for e in S)


class ReferenceMatroid:
    """The circuits, supports and masks of ``OrientedMatroid``, closed
    under negation through a set of records and sorted by key."""

    def __init__(self, ground_size: int, circuits: Iterable[SignedCircuit]):
        if ground_size < 1:
            raise MatroidError("ground set must be nonempty")
        ground = frozenset(range(1, ground_size + 1))
        closed: set[SignedCircuit] = set()
        for c in circuits:
            if not c.support <= ground:
                raise MatroidError(f"circuit {c} leaves the ground set [1..{ground_size}]")
            if c not in closed:
                closed.add(c)
                closed.add(c.negated())
        supports = sorted({c.support for c in closed}, key=lambda s: (len(s), sorted(s)))
        for i, s in enumerate(supports):
            for b in supports[i + 1 :]:
                if s < b:
                    raise MatroidError(f"circuit supports are nested: {set(s)} < {set(b)}")
        self.ground_size = ground_size
        self.circuits = tuple(sorted(closed, key=lambda c: (c.positive, c.negative)))
        self.circuit_supports = tuple(tuple(sorted(s)) for s in supports)
        self._masks = tuple(_mask(s) for s in supports)

    @property
    def rank(self) -> int:
        chosen = 0
        for e in range(1, self.ground_size + 1):
            trial = chosen | 1 << (e - 1)
            if all(c & ~trial for c in self._masks):
                chosen = trial
        return chosen.bit_count()

    def to_document(self) -> dict:
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


def _close(mask: int, masks: Sequence[int]) -> int:
    for c in masks:
        outside = c & ~mask
        if outside and not outside & (outside - 1):
            mask |= outside
    return mask


def _flat_levels(ground: int, masks: Sequence[int]) -> list[set[int]]:
    """The upward cover walk, closing the covers of every flat, the
    hyperplanes' too."""
    sizes = [c.bit_count() for c in masks]

    def small(k: int) -> Sequence[int]:
        return masks[: bisect_right(sizes, k + 1)]

    levels = [{_close(0, small(0))}]
    while levels[-1]:
        closing = small(len(levels))
        covers: set[int] = set()
        for F in levels[-1]:
            rest = ground & ~F
            while rest:
                cover = _close(F | rest & -rest, closing)
                covers.add(cover)
                rest &= ~cover
        levels.append(covers)
    levels.pop()
    return levels


def all_flats(M) -> tuple[Flat, ...]:
    """Every flat, its elements read off the whole ground set, sorted by
    (rank, elements) as a key on the built ``Flat``s."""
    levels = _flat_levels((1 << M.ground_size) - 1, M._masks)
    ground = range(1, M.ground_size + 1)
    flats = (
        Flat(tuple(e for e in ground if F >> (e - 1) & 1), k)
        for k, level in enumerate(levels)
        for F in level
    )
    return tuple(sorted(flats, key=lambda f: (f.rank, f.elements)))
