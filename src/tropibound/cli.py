"""Command-line entry points: parse structured input documents, dispatch
to the pipeline, render human- and machine-readable reports.

Exit codes: 0 success (certified where certification applies), 2 computed
but not certified, 1 error, 3 internal inconsistency (an independent check
disagreed with the pipeline).  Machine output is deterministic: exact
numbers as integers or fraction strings, sorted keys, fixed layout.  The
one exception to exact numbers is the ``witnesses`` document of
``verify``, whose ``t``, ``x`` and ``residual`` are JSON floats.  Human
output may show decimal approximations, always marked as such.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Iterator
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote

from tropibound.bergman import _positive_flats, compare_with_coarse
from tropibound.intersection import lower_bound
from tropibound.matroid import (
    MatroidError,
    _chain_count,
    _covers,
    _fine_flats,
    maximal_flag_count,
    realize_from_kernel,
)
from tropibound.numeric import count_roots, instantiate
from tropibound.rational import RationalMatrix, to_rational
from tropibound.subdivision import (
    decorated_count,
    decorated_document,
    full_cells,
    is_triangulation,
)
from tropibound.systems import CRNModel, SystemError_, VerticalSystem, assemble_crn, bound


class CliInputError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """Usage errors raise CliInputError, so they exit 1 through ``main``:
    argparse's own exit code 2 means "computed but not certified" here."""

    def error(self, message):
        raise CliInputError(message)


# the most characters of a refused entry that an error message echoes
_ECHO = 40


def _echo(value) -> str:
    text = repr(value)
    return text if len(text) <= _ECHO else f"{text[:_ECHO]}... ({len(text)} characters)"


def _fraction(value, path: str) -> Fraction:
    try:
        return to_rational(value)
    except ZeroDivisionError:
        raise CliInputError(f"{path}: zero denominator in {_echo(value)}") from None
    except (TypeError, ValueError):
        expected = "an integer or fraction string"
        # Fraction refuses a numerator or denominator of more digits than
        # this, so only a string longer than it can be well-formed and refused
        limit = getattr(sys, "get_int_max_str_digits", int)()
        if isinstance(value, str) and 0 < limit < len(value):
            expected += f" of at most {limit} digits a part"
        raise CliInputError(f"{path}: expected {expected}, got {_echo(value)}") from None


def _matrix(rows, path: str) -> RationalMatrix:
    if not isinstance(rows, list) or not rows or not all(isinstance(r, list) for r in rows):
        raise CliInputError(f"{path}: expected a non-empty list of rows")
    width = len(rows[0])
    if not width:
        raise CliInputError(f"{path}[0]: expected a row with at least one entry")
    parsed = []
    for i, row in enumerate(rows):
        if len(row) != width:
            raise CliInputError(f"{path}[{i}]: ragged row (expected {width} entries)")
        parsed.append([_fraction(x, f"{path}[{i}][{j}]") for j, x in enumerate(row)])
    return RationalMatrix.from_rows(parsed)


def _vector(values, path: str) -> list[Fraction]:
    if not isinstance(values, list):
        raise CliInputError(f"{path}: expected a list")
    return [_fraction(x, f"{path}[{j}]") for j, x in enumerate(values)]


def parse_input(path: str):
    """Parse a structured input document into the object its kind names.

    Returns a RationalMatrix, VerticalSystem, CRNModel, or, for a coarse
    fan, a dict of its rays and cones.  The system constructors check
    shapes and the integrality of A and B.
    """
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise CliInputError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise CliInputError(f"{path}: not valid JSON (line {exc.lineno}: {exc.msg})") from None
    except RecursionError:
        raise CliInputError(f"{path}: nested too deeply to parse") from None
    except ValueError as exc:
        # an integer literal of more digits than sys.get_int_max_str_digits(),
        # or bytes that are not UTF-8
        raise CliInputError(f"{path}: {exc}") from None
    if not isinstance(doc, dict) or "kind" not in doc:
        raise CliInputError(f"{path}: top-level object with a 'kind' field required")
    kind = doc["kind"]
    try:
        if kind == "matrix":
            return _matrix(doc.get("matrix"), "matrix")
        if kind == "vertical_system":
            C = _matrix(doc.get("C"), "C")
            A = _matrix(doc.get("A"), "A")
            h = _vector(doc.get("h"), "h")
            return VerticalSystem(C, A, tuple(h))
        if kind == "crn":
            N, W = _matrix(doc.get("N"), "N"), doc.get("W")
            return CRNModel(
                N_stoich=N,
                B=_matrix(doc.get("B"), "B"),
                # a network without conservation laws: no rows, and T empty
                W=RationalMatrix(0, N.rows, ()) if W == [] else _matrix(W, "W"),
                T=tuple(_vector(doc.get("T"), "T")),
                h=tuple(_vector(doc.get("h"), "h")),
            )
        if kind == "coarse_fan":
            rays, cones = doc.get("rays"), doc.get("cones")
            if not isinstance(rays, list) or not isinstance(cones, list):
                raise CliInputError(f"{path}: 'rays' and 'cones' must be lists")
            rays = [_vector(ray, f"rays[{i}]") for i, ray in enumerate(rays)]
            indices = range(1, len(rays) + 1)
            for k, c in enumerate(cones):
                if not isinstance(c, list) or not all(type(i) is int and i in indices for i in c):
                    raise CliInputError(f"{path}: cones[{k}]: indices run from 1 to {len(rays)}")
            return {"rays": rays, "cones": cones}
    except (SystemError_, MatroidError) as exc:
        raise CliInputError(f"{path}: {exc}") from None
    raise CliInputError(f"{path}: unknown kind {_echo(kind)}")


# cones in one piece of a fan document's cone text (see _cones)
_BATCH = 4096
# the highest rank whose sample counts fit the byte lanes of _cones
_MAX_FAN_RANK = 256
# what write_json's encoder leaves in place of each lazy array
_MARKER = "\x00lazy array\x00"


def _joined(texts, depth: int) -> str:
    """The array at ``depth`` of scalars already rendered as ``texts``.
    No scalar renders as empty text, so an empty join is an empty array."""
    inner = "\n" + "  " * (depth + 1)
    body = ("," + inner).join(texts)
    return "[" + inner + body + "\n" + "  " * depth + "]" if body else "[]"


def write_json(doc, stream) -> None:
    """Write ``json.dumps(doc, indent=2, sort_keys=True) + "\\n"`` to stream,
    byte for byte, without building the whole text.

    An iterator in ``doc`` stands for the text it yields: the finished
    JSON of one value, laid out for the place the document holds it, as
    ``_cones`` yields a fan document's whole ``cones`` array.  The library
    encoder renders the rest of the document, with a marker string in
    place of each iterator; the text is written up to each marker, then
    the iterator's strings as they stand, one write each, so only one is
    held at a time, then the rest.  A document string that reads as a
    marker raises RuntimeError before anything is written.  What
    ``json.dumps`` refuses raises its TypeError, and what it writes,
    such as an int key as a str, comes out the same.
    """
    lazy: list[Iterator[str]] = []

    def default(x):
        if not isinstance(x, Iterator):
            raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")
        lazy.append(x)
        return _MARKER

    chunks = json.JSONEncoder(indent=2, sort_keys=True, default=default).encode(doc).split(_quote(_MARKER))
    if len(chunks) != len(lazy) + 1:
        raise RuntimeError("a document string reads as write_json's lazy-array marker")
    for before, texts in zip(chunks, lazy):
        stream.write(before)
        stream.writelines(texts)
    stream.write(chunks[-1] + "\n")


def _emit(doc: dict, args, human_lines: list[str]) -> None:
    """Print the report, or with --json - the document instead.

    A --json PATH is opened before anything is printed, so a PATH that
    cannot be written, the empty one included, exits 1 with stdout empty.
    """
    if args.json == "-":
        write_json(doc, sys.stdout)
        return
    if args.json is not None:
        with open(args.json, "w") as fh:
            write_json(doc, fh)
        human_lines.append(f"machine-readable report written to {args.json}")
    for line in human_lines:
        print(line)


def _fmt_vec(v) -> str:
    return "(" + ", ".join(str(x) for x in v) + ")"


# --- input kinds: each command takes the document kinds COMMANDS lists


def _document(obj, kinds, user: str):
    """``obj``, a document ``parse_input`` returned, if its kind is among
    ``kinds``, with a crn document assembled into its vertical system.
    Any other kind is refused, in a message saying that ``user`` needs
    one of ``kinds``."""
    kind = {
        RationalMatrix: "matrix",
        VerticalSystem: "vertical_system",
        CRNModel: "crn",
        dict: "coarse_fan",
    }[type(obj)]
    if kind not in kinds:
        raise CliInputError(f"{user} needs a {' or '.join(kinds)} document, got a {kind} document")
    return assemble_crn(obj) if kind == "crn" else obj


# --- handlers: each returns (document, human lines, exit code)


def _circuits(M, args):
    lines = [f"oriented matroid on {{1..{M.ground_size}}}, rank {M.rank}"]
    lines += [f"  circuit {c!r}" for c in M.circuits]
    return {"kind": "matroid", **M.to_document()}, lines, 0


def _flats(M, args):
    by_rank = M.to_document()["flats_by_rank"]
    doc = {"kind": "flats", "ground_size": M.ground_size, "flats_by_rank": by_rank}
    lines = [f"flats of the rank-{M.rank} matroid, by rank:"]
    lines += [f"  rank {k}: {[set(f) or '{}' for f in flats]}" for k, flats in by_rank.items()]
    return doc, lines, 0


def _fan_levels(M, flats) -> list:
    """The cover levels (``_covers``) of the flats ``flats(M)``, which
    ``_cones`` walks and ``_chain_count`` counts.  A rank above
    ``_MAX_FAN_RANK`` is refused before any flat is listed."""
    if M.rank > _MAX_FAN_RANK:
        raise CliInputError(
            f"fan documents need rank at most {_MAX_FAN_RANK}, got rank {M.rank}"
        )
    return _covers(flats(M), M.rank)


def _cones(levels, ground_size: int, dimension: bool) -> Iterator[str]:
    """The text of a fan document's ``cones`` array, as ``write_json``
    splices it in at depth 1, where the fan documents hold it: one cone
    per maximal chain of the cover levels ``levels`` (``_fan_levels``),
    each the text at depth 2 of ``{"dimension": len(chain) + 1 (only with
    dimension), "flats": the flats' elements, "sample": the chain's
    sample as count strings}``.  The opening bracket comes with the first
    batch of ``_BATCH`` cones, the separator of depth-2 items before each
    later one, then the closing bracket; with no cone the text is ``[]``.

    In a geometric lattice every maximal chain steps through covers, so
    a depth-first walk over the covers from the rank-0 flat reaches
    exactly the maximal flags, in the order of the given flats.  The
    walk carries down the text of the flats so far and the chain's
    sample, which counts per element the chain's flats that contain it:
    a canonical relative-interior point of the cone with zero lineality
    part.  The sample is one int with a byte lane per element, element e
    at byte e - 1, so each step down adds the flat's indicator int.  A
    count is at most the chain length, rank - 1, so a byte holds every
    count up to rank 256 (``_MAX_FAN_RANK``).  The walk recurses over the
    ranks below the top; at the top a plain loop renders each cone.
    When the rank is at most 1 the empty chain is the one leaf, at the
    rank-0 flat.
    """
    top = len(levels) - 1  # the length of every chain
    d1, d2, d3, d4 = ("\n" + "  " * k for k in (1, 2, 3, 4))
    head = f"{{{d3}\"dimension\": {top + 1}," if dimension else "{"
    quoted = [_quote(str(k)) for k in range(top + 1)]
    sep = "," + d4
    # per flat: its text as an item of the flats array, with the separator
    # before it; its indicator in byte lanes; the positions covering it
    texts = [
        [(sep if k > 1 else d4) + _joined(map(int.__repr__, f.elements), 4) for f, _ in level]
        for k, level in enumerate(levels)
    ]
    ones = [[sum(256 ** (e - 1) for e in f.elements) for f, _ in level] for level in levels]
    ups = [[above for _, above in level] for level in levels]
    start, mid, end = f"{head}{d3}\"flats\": [", f"{d3}],{d3}\"sample\": [{d4}", f"{d3}]{d2}}}"
    between = "," + d2  # between two cones
    pending: list[str] = []  # rendered cones not yet yielded
    opening = "[" + d2  # the text before the next batch

    def batch(cones: list[str]) -> str:
        nonlocal opening
        text, opening = opening + between.join(cones), between
        return text

    def walk(k: int, above: list[int], sample: int, prefix: str):
        # the chains that go on through levels[k][j], j in above
        if k < top:
            for j in above:
                yield from walk(k + 1, ups[k][j], sample + ones[k][j], prefix + texts[k][j])
            return
        lead, leaf_texts, leaf_ones = start + prefix, texts[k], ones[k]
        for j in above:
            lanes = (sample + leaf_ones[j]).to_bytes(ground_size, "little")
            counts = sep.join(map(quoted.__getitem__, lanes))
            pending.append("".join((lead, leaf_texts[j], mid, counts, end)))
        while len(pending) >= _BATCH:
            yield batch(pending[:_BATCH])
            del pending[:_BATCH]

    for above in ups[0]:
        if top:
            yield from walk(1, above, 0, "")
        else:
            counts = sep.join([quoted[0]] * ground_size)
            pending.append(f"{head}{d3}\"flats\": [],{d3}\"sample\": [{d4}{counts}{end}")
    if pending:
        yield batch(pending)
    yield d1 + "]" if opening == between else "[]"


def _bergman(M, args):
    levels = _fan_levels(M, _fine_flats)
    doc = {
        "kind": "fan",
        "ground_size": M.ground_size,
        "cones": _cones(levels, M.ground_size, dimension=False),
    }
    return _coarse_compare(M, args, doc, [f"fine fan: {_chain_count(levels)} maximal cones"])


def _positive_bergman(M, args):
    levels = _fan_levels(M, _positive_flats)
    doc = {
        "kind": "positive_fan",
        "ground_size": M.ground_size,
        # no circuits: the fan is all of R^r
        "free_matroid": not M._masks,
        "cones": _cones(levels, M.ground_size, dimension=True),
    }
    count = _chain_count(levels)
    lines = [f"positive fan: {count} of {maximal_flag_count(M)} maximal cones"]
    return _coarse_compare(M, args, doc, lines)


def _coarse_compare(M, args, doc, lines):
    """A fan report, with the --coarse-compare diagnostics when asked for."""
    if args.coarse_compare:
        coarse = _document(parse_input(args.coarse_compare), ("coarse_fan",), "--coarse-compare")
        for i, ray in enumerate(coarse["rays"]):
            if len(ray) != M.ground_size:
                raise CliInputError(
                    f"{args.coarse_compare}: rays[{i}]: expected {M.ground_size}"
                    f" entries, got {len(ray)}"
                )
        cmp_doc = compare_with_coarse(M, coarse["rays"], coarse["cones"])
        doc["coarse_comparison"] = cmp_doc
        lines.append("coarse comparison:")
        for c in cmp_doc["cones"]:
            lines.append(
                f"  cone{tuple(c['ray_indices'])}: member={c['member']}"
                f" positive={c['positive_member']}"
            )
    return doc, lines, 0


def _intersect(system, args):
    report = lower_bound(system, cross_check=args.cross_check)
    lines = [
        f"intersection count: {report.count}"
        + (" (certified transverse)" if report.transverse else " (NOT certified)")
    ]
    for p in report.points:
        lines.append(
            f"  v = {_fmt_vec(p.v)}   w = {_fmt_vec(p.w)}"
            f"   isolated={p.isolated} interior={p.interior}"
        )
    lines += [f"  note: {note}" for note in report.notes]
    doc = {"kind": "intersection_report", **report.to_document()}
    return doc, lines, 0 if report.transverse else 2


def _subdivision(system, args):
    cells = full_cells(system.A, system.h)
    doc = {
        "kind": "subdivision",
        "cells": [c.to_document() for c in cells],
        "is_triangulation": is_triangulation(cells, system.n),
    }
    lines = [f"regular subdivision: {len(cells)} full-dimensional cells"]
    for c in cells:
        lines.append(f"  cell {set(c.members)}  witness v = {_fmt_vec(c.witness)}")
    return doc, lines, 0


def _decorated(system, args):
    count, simplices = decorated_count(system.reduced_coefficients(), system.A, system.h)
    doc = {"kind": "decorated", **decorated_document(count, simplices)}
    lines = [f"positively decorated simplices: {count}"]
    for s in simplices:
        lines.append(f"  cell {set(s.cell.members)}  kernel {_fmt_vec(s.kernel_vector)}")
    return doc, lines, 0


def _bound(system, args):
    report = bound(system, cross_check=args.cross_check)
    lines = [
        f"certified lower bound on positive real roots: {report.certified_bound}",
        f"  tropical count: {report.tropical.count}"
        + (" (transverse)" if report.tropical.transverse else " (not certified)"),
    ]
    if report.decorated is not None:
        lines.append(f"  decorated-simplex count: {report.decorated[0]}")
    lines += [f"  note: {note}" for note in report.method_notes]
    doc = {"kind": "bound_report", **report.to_document()}
    return doc, lines, 0 if report.tropical.transverse else 2


def _verify(system, args):
    F = instantiate(system, args.t)  # refuses bad input before bounding
    report = bound(system)
    witnesses = count_roots(F, report.tropical, seed=args.seed)
    doc = {
        "kind": "witnesses",
        "t": args.t,
        "empirical": True,
        "certified_bound": report.certified_bound,
        "witnesses": [
            {
                "x": list(w.x),
                "residual": w.residual,
                "jacobian_ok": w.jacobian_condition_flag,
                "seed_origin": w.seed_origin,
            }
            for w in witnesses
        ],
    }
    lines = [
        f"empirical witnesses at t = {args.t}: {len(witnesses)} distinct positive"
        f" roots (certified bound {report.certified_bound}); heuristic, not a certificate"
    ]
    for w in witnesses:
        approx = ", ".join(f"{v:.6g}" for v in w.x)
        lines.append(f"  x ~ ({approx})  residual {w.residual:.2e}  from {w.seed_origin}")
    return doc, lines, 0 if len(witnesses) >= report.certified_bound else 2


# command -> (the document kinds it takes, handler, the flags it takes
# besides --json).  The commands that take a matrix get the oriented
# matroid of the matrix or of the system's C, the others the vertical
# system (_document).
# Handlers reach the pipeline through this module's globals, so
# rebinding one of them reaches every command.
COMMANDS = {
    "circuits": (("matrix", "vertical_system", "crn"), _circuits, ()),
    "flats": (("matrix", "vertical_system", "crn"), _flats, ()),
    "bergman": (("matrix", "vertical_system", "crn"), _bergman, ("coarse_compare",)),
    "positive-bergman": (("matrix", "vertical_system", "crn"), _positive_bergman, ("coarse_compare",)),
    "intersect": (("vertical_system", "crn"), _intersect, ("cross_check",)),
    "subdivision": (("vertical_system", "crn"), _subdivision, ()),
    "decorated": (("vertical_system", "crn"), _decorated, ()),
    "bound": (("vertical_system", "crn"), _bound, ("cross_check",)),
    "crn": (("crn",), _bound, ("cross_check",)),
    "verify": (("vertical_system", "crn"), _verify, ("t", "seed")),
}

# each command-specific flag and its value when it is not given
FLAG_DEFAULTS = {"cross_check": False, "coarse_compare": None, "t": 0.01, "seed": 0}


def _options(flags) -> str:
    return ", ".join("--" + f.replace("_", "-") for f in flags)


def run(args) -> int:
    kinds, handler, flags = COMMANDS[args.command]
    given = vars(args)
    stray = [f for f in FLAG_DEFAULTS if f in given and f not in flags]
    if stray:
        raise CliInputError(
            f"command '{args.command}' does not take {_options(stray)}"
            f" (it takes {_options((*flags, 'json'))})"
        )
    args = argparse.Namespace(**{**FLAG_DEFAULTS, **given})
    obj = _document(parse_input(args.input), kinds, f"command '{args.command}'")
    if "matrix" in kinds:
        obj = realize_from_kernel(obj.C if isinstance(obj, VerticalSystem) else obj)
    doc, lines, code = handler(obj, args)
    _emit(doc, args, lines)
    return code


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tropibound",
        description=(
            "Exact lower bounds on positive real roots of vertically"
            " parametrized polynomial systems"
        ),
    )
    parser.add_argument("command", choices=list(COMMANDS))
    parser.add_argument("input", help="path to a JSON input document")
    parser.add_argument("--json", metavar="PATH", help="write machine-readable JSON ('-' for stdout only)")
    # the command-specific flags are absent from the namespace unless
    # given, so run can refuse them on the other commands
    unset = argparse.SUPPRESS
    parser.add_argument("--cross-check", action="store_true", default=unset, help="also run the vertex oracle and compare")
    parser.add_argument("--coarse-compare", metavar="PATH", default=unset, help="coarse fan document to diff against (bergman commands)")
    parser.add_argument("--t", type=float, default=unset, help="parameter value for verify")
    parser.add_argument("--seed", type=int, default=unset, help="pseudorandom seed for verify")
    return parser


def main(argv=None) -> int:
    try:
        return run(build_parser().parse_args(argv))
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (AssertionError, RuntimeError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
