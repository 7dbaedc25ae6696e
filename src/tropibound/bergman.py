"""Fine Bergman fan of a matroid and its positive subfan.

Min-convention throughout: a weight vector belongs to the fan when the
minimum over every circuit support is attained at least twice, and to the
positive subfan when every circuit's argmin meets both the positive and
the negative part.  Fine cones are spanned by indicator vectors of flats
along a chain, plus the all-ones lineality line; small flats carry the
largest weights.  Whether a whole cone is positive is decided flat by
flat (``_is_positive_flat``); the weight predicates serve single vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from tropibound.matroid import (
    Flat,
    FlagOfFlats,
    OrientedMatroid,
    _full_chains,
    _mask,
    all_flats,
    maximal_flags,
)
from tropibound.rational import to_rational


def _coerce(w: Sequence) -> tuple:
    for x in w:
        if isinstance(x, float):
            raise TypeError("membership predicates are exact; pass int/Fraction, not float")
    return tuple(w)


def _min_attained_twice(w: Sequence, support: tuple[int, ...]) -> bool:
    m = min(w[e - 1] for e in support)
    hits = 0
    for e in support:
        if w[e - 1] == m:
            hits += 1
            if hits == 2:
                return True
    return False


def _argmin_two_signed(w: Sequence, positive: tuple[int, ...], negative: tuple[int, ...]) -> bool:
    m = min(w[e - 1] for e in positive + negative)
    return any(w[e - 1] == m for e in positive) and any(w[e - 1] == m for e in negative)


def is_member(w: Sequence, M: OrientedMatroid) -> bool:
    """Whether w lies in the Bergman fan of the underlying matroid."""
    ww = _coerce(w)
    if len(ww) != M.ground_size:
        raise ValueError("weight vector length mismatch")
    return all(_min_attained_twice(ww, sup) for sup in M.circuit_supports)


def is_positive_member(w: Sequence, OM: OrientedMatroid) -> bool:
    """Whether w lies in the positive Bergman fan of the oriented matroid."""
    ww = _coerce(w)
    if len(ww) != OM.ground_size:
        raise ValueError("weight vector length mismatch")
    return all(_argmin_two_signed(ww, c.positive, c.negative) for c in OM.circuits)


@dataclass(frozen=True)
class FlagCone:
    """Cone over a chain of flats: nonnegative spans of the flats'
    indicator vectors plus the all-ones lineality line."""

    flag: FlagOfFlats
    ground_size: int

    @property
    def generators(self) -> tuple[tuple[int, ...], ...]:
        return tuple(
            tuple(1 if e in f.as_set else 0 for e in range(1, self.ground_size + 1))
            for f in self.flag.chain
        )

    @property
    def dimension(self) -> int:
        return len(self.flag) + 1

    def blocks(self) -> list[tuple[int, ...]]:
        """Partition of {1..r} by the chain: F1, F2-F1, ..., complement."""
        out: list[tuple[int, ...]] = []
        prev: frozenset[int] = frozenset()
        for f in self.flag.chain:
            out.append(tuple(sorted(f.as_set - prev)))
            prev = f.as_set
        out.append(tuple(sorted(set(range(1, self.ground_size + 1)) - prev)))
        return out

    def contains(self, w: Sequence, strict: bool = False) -> bool:
        """Exact membership of w in the closed cone.

        Equivalent to: w constant on each block and block values weakly
        decreasing along the chain.  With strict=True, membership in the
        relative interior (strictly decreasing block values).
        """
        ww = _coerce(w)
        values = []
        for block in self.blocks():
            vals = {ww[e - 1] for e in block}
            if len(vals) != 1:
                return False
            values.append(next(iter(vals)))
        for a, b in zip(values, values[1:]):
            if a < b or (strict and a == b):
                return False
        return True

    def to_document(self) -> dict:
        return {
            "flats": [f.elements for f in self.flag.chain],
            "sample": [str(x) for x in sample_relative_interior(self)],
        }


def sample_relative_interior(cone: FlagCone) -> tuple[int, ...]:
    """Sum of the flag's indicator vectors, counted per element as the
    number of chain flats containing it: a canonical relative-interior
    point with zero lineality part."""
    acc = [0] * cone.ground_size
    for f in cone.flag.chain:
        for e in f.elements:
            acc[e - 1] += 1
    return tuple(acc)


def fine_fan(M: OrientedMatroid) -> list[FlagCone]:
    """One maximal cone per maximal flag of flats."""
    return [FlagCone(flag, M.ground_size) for flag in maximal_flags(M)]


def _is_positive_flat(F: int, signs: Sequence[tuple[int, int]]) -> bool:
    """Whether every circuit, given as bitmasks (positive part, negative
    part), either lies inside the flat bitmask F or meets both signs
    outside it.  The empty flat 0 passes iff no circuit is one-signed.

    On the relative interior of a chain's cone the argmin of a circuit S
    is S minus the largest chain flat not containing S, so the cone is
    positive iff the empty flat and each flat of the chain are (the flag
    description of Ardila-Klivans-Williams, arXiv math/0406116).
    """
    return all(bool(p & ~F) == bool(n & ~F) for p, n in signs)


def _positive_flats(OM: OrientedMatroid) -> list[Flat]:
    """The flats passing ``_is_positive_flat``, in ``all_flats`` order;
    none at all when the empty flat fails, that is when some circuit is
    one-signed."""
    signs = [(_mask(c.positive), _mask(c.negative)) for c in OM.circuits]
    if not _is_positive_flat(0, signs):
        return []
    return [f for f in all_flats(OM) if _is_positive_flat(_mask(f.elements), signs)]


def positive_fan(OM: OrientedMatroid) -> tuple[FlagCone, ...]:
    """The fine fan's maximal cones whose flats are all positive (see
    ``_is_positive_flat``), in the order of ``fine_fan``: the full-length
    chains of positive flats, walked directly."""
    positive = _positive_flats(OM)
    # no positive flats means a one-signed circuit, which the empty chain fails too
    flags = _full_chains(positive, OM.rank) if positive else ()
    return tuple(FlagCone(f, OM.ground_size) for f in flags)


def positive_chains(OM: OrientedMatroid) -> list[FlagOfFlats]:
    """Chains of proper nonempty flats whose cone lies in the positive fan
    and that have no positive upward extension, found by depth-first
    extension over the positive flats.

    A chain's cone is positive iff each of its flats is (see
    ``_is_positive_flat``), so the returned closed cones cover the whole
    positive fan.  The empty chain (lineality-only cone) is returned when
    no circuit is one-signed and no flat extends it.

    The fan walk does not list these chains: it reads block partitions
    off the positive flats (``intersection._cell_partitions``).  The
    remaining users are the tests, where the chains are the reference for
    that recursion and cover the positive fan, and ``bench/tracing.py``,
    which wraps this function by name.
    """
    positive = _positive_flats(OM)
    proper = sorted(
        (f for f in positive if 0 < f.rank < OM.rank), key=lambda f: (f.rank, f.elements)
    )
    out: list[FlagOfFlats] = []

    def extend(chain: list[Flat], start: int):
        extended = False
        for idx in range(start, len(proper)):
            f = proper[idx]
            if chain and not (chain[-1].as_set < f.as_set):
                continue
            extended = True
            extend(chain + [f], idx + 1)
        if not extended:
            out.append(FlagOfFlats(tuple(chain)))

    if positive:
        extend([], 0)
    return out


def compare_with_coarse(
    OM: OrientedMatroid,
    rays: Sequence[Sequence],
    cones: Sequence[Sequence[int]],
) -> dict:
    """Diagnostic for externally supplied coarse fan data.

    ``rays`` are weight vectors; ``cones`` list 1-based ray indices.  Each
    cone is sampled at the sum of its rays and both membership predicates
    are reported, alongside per-ray membership.
    """
    ray_vecs = [tuple(to_rational(x) for x in ray) for ray in rays]
    report = {
        "rays": [
            {
                "index": i + 1,
                "vector": [str(x) for x in ray],
                "member": is_member(ray, OM),
                "positive_member": is_positive_member(ray, OM),
            }
            for i, ray in enumerate(ray_vecs)
        ],
        "cones": [],
    }
    for idxs in cones:
        sample = tuple(
            sum(ray_vecs[i - 1][k] for i in idxs) for k in range(OM.ground_size)
        )
        report["cones"].append(
            {
                "ray_indices": list(idxs),
                "sample": [str(x) for x in sample],
                "member": is_member(sample, OM),
                "positive_member": is_positive_member(sample, OM),
            }
        )
    return report
