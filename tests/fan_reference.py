"""Reference geometry of a fine fan cone, for the tests.

A cone is the tuple of its chain's flats: the nonnegative span of the
flats' indicator vectors plus the all-ones lineality line, on the ground
set {1..ground_size}.
"""

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
