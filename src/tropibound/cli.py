"""Command-line entry points: parse structured input documents, dispatch
to the pipeline, render human- and machine-readable reports.

Exit codes: 0 success (certified where certification applies), 2 computed
but not certified, 1 error, 3 internal inconsistency (an independent check
disagreed with the pipeline).  Machine output is deterministic: exact
fraction strings, sorted keys, fixed layout.  Human output may show
decimal approximations, always marked as such.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Iterator
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote

from tropibound.bergman import compare_with_coarse, fine_fan, positive_fan
from tropibound.intersection import lower_bound
from tropibound.matroid import MatroidError, maximal_flag_count, realize_from_kernel
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


def _fraction(value, path: str) -> Fraction:
    try:
        return to_rational(value)
    except TypeError:
        raise CliInputError(
            f"{path}: expected an integer or fraction string, got {value!r}"
        ) from None
    except (ValueError, ZeroDivisionError) as exc:
        raise CliInputError(f"{path}: malformed fraction {value!r} ({exc})") from None


def _matrix(rows, path: str) -> RationalMatrix:
    if not isinstance(rows, list) or not rows or not all(isinstance(r, list) for r in rows):
        raise CliInputError(f"{path}: expected a non-empty list of rows")
    width = len(rows[0])
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
            return CRNModel(
                N_stoich=_matrix(doc.get("N"), "N"),
                B=_matrix(doc.get("B"), "B"),
                W=_matrix(doc.get("W"), "W"),
                T=tuple(_vector(doc.get("T"), "T")),
                h=tuple(_vector(doc.get("h"), "h")),
            )
        if kind == "coarse_fan":
            rays, cones = doc.get("rays", []), doc.get("cones", [])
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
    raise CliInputError(f"{path}: unknown kind {kind!r}")


# iterator items rendered between two writes of write_json
_BATCH = 4096
# the element types of a list or tuple that write_json joins in one step
_JOINABLE = ({str}, {int})


def _float(x: float) -> str:
    """A float as json writes it, NaN and the infinities included."""
    if x != x:
        return "NaN"
    if x == float("inf"):
        return "Infinity"
    if x == float("-inf"):
        return "-Infinity"
    return float.__repr__(x)


def write_json(doc, stream) -> None:
    """Write ``json.dumps(doc, indent=2, sort_keys=True) + "\\n"`` to stream,
    byte for byte, without building the whole text.

    An iterator is written as an array, its items rendered and written
    ``_BATCH`` at a time, so a document can hand its cones over lazily.
    A list or tuple holding only str or only int values is joined in one
    step, and such a tuple is rendered once per depth, memoized by its
    value: not by ``id()``, which a freed tuple passes on.  A key that is
    not a str raises TypeError, as does a value json cannot encode.
    """
    out: list[str] = []
    memo: dict[tuple, str] = {}

    def flush():
        stream.write("".join(out))
        out.clear()

    def array(items, depth: int, batch: bool = False):
        inner = "\n" + "  " * (depth + 1)
        n = 0
        for x in items:
            out.append("," + inner if n else "[" + inner)
            put(x, depth + 1)
            n += 1
            if batch and not n % _BATCH:
                flush()
        out.append("\n" + "  " * depth + "]" if n else "[]")

    def joined(items, depth: int) -> str:
        inner = "\n" + "  " * (depth + 1)
        text = map(_quote if type(items[0]) is str else int.__repr__, items)
        return "[" + inner + ("," + inner).join(text) + "\n" + "  " * depth + "]"

    def put(o, depth: int):
        # no value is both a container and a scalar, so containers go first
        if isinstance(o, dict):
            for key in o:
                if not isinstance(key, str):
                    raise TypeError(f"keys must be str, not {type(key).__name__}")
            inner = "\n" + "  " * (depth + 1)
            for n, (key, value) in enumerate(sorted(o.items())):
                out.append(("," if n else "{") + inner + _quote(key) + ": ")
                put(value, depth + 1)
            out.append("\n" + "  " * depth + "}" if o else "{}")
        elif isinstance(o, (list, tuple)):
            # types before values: (True,) == (1,) but renders differently
            if set(map(type, o)) not in _JOINABLE:
                array(o, depth)
            elif isinstance(o, list):
                out.append(joined(o, depth))
            else:
                text = memo.get((depth, o))
                if text is None:
                    text = memo[depth, o] = joined(o, depth)
                out.append(text)
        elif isinstance(o, str):
            out.append(_quote(o))
        elif o is None:
            out.append("null")
        elif o is True:
            out.append("true")
        elif o is False:
            out.append("false")
        elif isinstance(o, int):
            out.append(int.__repr__(o))
        elif isinstance(o, float):
            out.append(_float(o))
        elif isinstance(o, Iterator):
            array(o, depth, batch=True)
        else:
            raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")

    put(doc, 0)
    out.append("\n")
    flush()


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


# --- input kinds: each turns a parsed document into what its commands take


def _matroid(obj, command):
    """The oriented matroid of a matrix, or of a system's C."""
    if isinstance(obj, CRNModel):
        obj = assemble_crn(obj)
    if isinstance(obj, VerticalSystem):
        obj = obj.C
    if not isinstance(obj, RationalMatrix):
        raise CliInputError(
            f"command '{command}' needs a matrix, vertical_system, or crn document"
        )
    return realize_from_kernel(obj)


def _system(obj, command) -> VerticalSystem:
    """A vertical system; a reaction network is assembled into one."""
    if isinstance(obj, CRNModel):
        return assemble_crn(obj)
    if not isinstance(obj, VerticalSystem):
        raise CliInputError(
            f"command '{command}' needs a VerticalSystem document, got {type(obj).__name__}"
        )
    return obj


def _crn(obj, command) -> VerticalSystem:
    """The system of a reaction network; no other document is accepted."""
    if not isinstance(obj, CRNModel):
        raise CliInputError(
            f"command '{command}' needs a CRNModel document, got {type(obj).__name__}"
        )
    return assemble_crn(obj)


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


def _bergman(M, args):
    cones = fine_fan(M)
    doc = {
        "kind": "fan",
        "ground_size": M.ground_size,
        "cones": (c.to_document() for c in cones),
    }
    return _coarse_compare(M, args, doc, [f"fine fan: {len(cones)} maximal cones"])


def _positive_bergman(M, args):
    cones = positive_fan(M)
    doc = {
        "kind": "positive_fan",
        "ground_size": M.ground_size,
        # no circuits: the fan is all of R^r
        "free_matroid": not M.circuits,
        "cones": ({**c.to_document(), "dimension": c.dimension} for c in cones),
    }
    lines = [f"positive fan: {len(cones)} of {maximal_flag_count(M)} maximal cones"]
    return _coarse_compare(M, args, doc, lines)


def _coarse_compare(M, args, doc, lines):
    """A fan report, with the --coarse-compare diagnostics when asked for."""
    if args.coarse_compare:
        coarse = parse_input(args.coarse_compare)
        if not isinstance(coarse, dict):
            raise CliInputError("--coarse-compare needs a coarse_fan document")
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


# command -> (input kind, handler, the flags it takes besides --json).
# Handlers reach the pipeline through this module's globals, so
# rebinding one of them reaches every command.
COMMANDS = {
    "circuits": (_matroid, _circuits, ()),
    "flats": (_matroid, _flats, ()),
    "bergman": (_matroid, _bergman, ("coarse_compare",)),
    "positive-bergman": (_matroid, _positive_bergman, ("coarse_compare",)),
    "intersect": (_system, _intersect, ("cross_check",)),
    "subdivision": (_system, _subdivision, ()),
    "decorated": (_system, _decorated, ()),
    "bound": (_system, _bound, ("cross_check",)),
    "crn": (_crn, _bound, ("cross_check",)),
    "verify": (_system, _verify, ("t", "seed")),
}

# each command-specific flag and its value when it is not given
FLAG_DEFAULTS = {"cross_check": False, "coarse_compare": None, "t": 0.01, "seed": 0}


def _options(flags) -> str:
    return ", ".join("--" + f.replace("_", "-") for f in flags)


def run(args) -> int:
    coerce, handler, flags = COMMANDS[args.command]
    given = vars(args)
    stray = [f for f in FLAG_DEFAULTS if f in given and f not in flags]
    if stray:
        raise CliInputError(
            f"command '{args.command}' does not take {_options(stray)}"
            f" (it takes {_options((*flags, 'json'))})"
        )
    args = argparse.Namespace(**{**FLAG_DEFAULTS, **given})
    doc, lines, code = handler(coerce(parse_input(args.input), args.command), args)
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
