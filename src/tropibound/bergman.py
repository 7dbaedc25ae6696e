"""Fine Bergman fan of a matroid and its positive subfan.

Min-convention throughout: a weight vector belongs to the fan when the
minimum over every circuit support is attained at least twice, and to the
positive subfan when every circuit's argmin meets both the positive and
the negative part.  Fine cones are spanned by indicator vectors of flats
along a chain, plus the all-ones lineality line; small flats carry the
largest weights, and a cone is the tuple of its chain's flats.  Whether
a whole cone is positive is decided flat by flat (``_is_positive_flat``);
the weight predicates serve single vectors.
"""

from __future__ import annotations

from typing import Sequence

from tropibound.matroid import (
    Flat,
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


def _level_masks(w: Sequence) -> list[int]:
    """The elements of w grouped by value, as bitmasks (element e is bit
    e - 1), in increasing order of value."""
    levels: dict = {}
    for bit, x in enumerate(w):
        levels[x] = levels.get(x, 0) | 1 << bit
    return [levels[x] for x in sorted(levels)]


def _argmin(levels: Sequence[int], support: int) -> int:
    """The argmin set of a circuit support bitmask: its part in the first
    of the level masks (``_level_masks``) that meets it."""
    for level in levels:
        if level & support:
            return level & support
    raise ValueError("the levels do not cover the support")


def is_member(w: Sequence, M: OrientedMatroid) -> bool:
    """Whether w lies in the Bergman fan of the underlying matroid:
    whether every circuit support's argmin (``_argmin``) has at least two
    elements."""
    ww = _coerce(w)
    if len(ww) != M.ground_size:
        raise ValueError("weight vector length mismatch")
    levels = _level_masks(ww)
    return all(_argmin(levels, S).bit_count() >= 2 for S in M._masks)


def is_positive_member(w: Sequence, OM: OrientedMatroid) -> bool:
    """Whether w lies in the positive Bergman fan of the oriented matroid:
    whether every circuit's argmin meets both its signs.  Each circuit is
    read once, up to negation, as its sign bitmasks (P, N), and its
    argmin is its part in the first level mask of w that meets P | N."""
    ww = _coerce(w)
    if len(ww) != OM.ground_size:
        raise ValueError("weight vector length mismatch")
    levels = _level_masks(ww)
    for P, N in OM.sign_masks:
        m = _argmin(levels, P | N)
        if not (m & P and m & N):
            return False
    return True


def fine_fan(M: OrientedMatroid) -> tuple[tuple[Flat, ...], ...]:
    """One maximal cone per maximal flag of flats, each cone the tuple of
    its chain's flats."""
    return maximal_flags(M)


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
    one-signed.  The test is symmetric in the two signs, so each circuit
    is read once, up to negation (``sign_masks``)."""
    signs = OM.sign_masks
    if not _is_positive_flat(0, signs):
        return []
    return [f for f in all_flats(OM) if _is_positive_flat(_mask(f.elements), signs)]


def positive_fan(OM: OrientedMatroid) -> tuple[tuple[Flat, ...], ...]:
    """The fine fan's maximal cones whose flats are all positive (see
    ``_is_positive_flat``), in the order of ``fine_fan``: the full-length
    chains of positive flats, walked directly.  No flat is positive, the
    empty one included, when some circuit is one-signed, and then no
    chain is either."""
    return tuple(_full_chains(_positive_flats(OM), OM.rank))


def positive_chains(OM: OrientedMatroid) -> list[tuple[Flat, ...]]:
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
    # in all_flats order, which is (rank, elements) order
    proper = [f for f in positive if 0 < f.rank < OM.rank]
    masks = [_mask(f.elements) for f in proper]
    out: list[tuple[Flat, ...]] = []

    def extend(chain: tuple[Flat, ...], last: int, start: int):
        # last is the mask of the chain's top flat, 0 for the empty chain
        extended = False
        for idx in range(start, len(proper)):
            if last & ~masks[idx] or last == masks[idx]:
                continue
            extended = True
            extend((*chain, proper[idx]), masks[idx], idx + 1)
        if not extended:
            out.append(chain)

    if positive:
        extend((), 0, 0)
    return out


def compare_with_coarse(
    OM: OrientedMatroid,
    rays: Sequence[Sequence],
    cones: Sequence[Sequence[int]],
) -> dict:
    """Diagnostic for externally supplied coarse fan data.

    ``rays`` are weight vectors; ``cones`` list 1-based ray indices.  Each
    cone is sampled at the sum of its rays and both membership predicates
    are reported, alongside per-ray membership; one builder makes the
    pair for rays and samples alike.
    """

    def verdicts(w: Sequence) -> dict:
        return {"member": is_member(w, OM), "positive_member": is_positive_member(w, OM)}

    ray_vecs = [tuple(to_rational(x) for x in ray) for ray in rays]
    samples = [
        tuple(sum(ray_vecs[i - 1][k] for i in idxs) for k in range(OM.ground_size))
        for idxs in cones
    ]
    return {
        "rays": [
            {"index": i + 1, "vector": [str(x) for x in ray], **verdicts(ray)}
            for i, ray in enumerate(ray_vecs)
        ],
        "cones": [
            {"ray_indices": list(idxs), "sample": [str(x) for x in w], **verdicts(w)}
            for idxs, w in zip(cones, samples)
        ],
    }
