"""The benchmark's four seeded workloads.

Each workload turns a seed into a list of instances.  An instance is a
call into tropibound's public functions (timed) and a check of what the
call returned (not timed).  The package receives only the generated
inputs; nothing here is specific to a seed.

Run ``python3 bench/workloads.py`` to rebuild ``golden.json``, the
certified bounds of the reference systems, from the current code.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUNNING = ROOT / "inputs" / "running_2x5.json"
HHK = ROOT / "inputs" / "hhk_crn.json"
COARSE = ROOT / "inputs" / "coarse_fan_2x5.json"
GOLDEN = BENCH / "golden.json"

# Certified bounds of the shipped examples.
SHIPPED_BOUND = {RUNNING: 2, HHK: 3}

FAMILY_SEED = 20260809  # tests/test_acceptance.py, criterion 7
CRN_BASE_SEED = 20260809
FAMILY_SIZE = 200
CRN_DRAWS = 24  # hhk systems per crn_scan pass
MATROID_SIZES = (8, 9, 10, 8, 9, 9) * 4  # ground-set sizes per matroid_scaling pass


@dataclass
class Outcome:
    ok: bool
    value: int = 0  # the instance's exact result, summed into exact_result_sum
    digest: str | None = None  # sha256 of the instance's output document
    output_bytes: int = 0  # bytes the CLI printed
    detail: str = ""


@dataclass
class Instance:
    label: str
    run: Callable[[], object]
    check: Callable[[object], Outcome]


@dataclass
class Workload:
    instances: list[Instance]
    cold: bool  # clear the flats caches before every instance, else once per pass


def clear_caches() -> None:
    from tropibound import matroid

    matroid.all_flats.cache_clear()
    matroid.maximal_flags.cache_clear()


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# ----------------------------------------------------------------------
# shipped_cli: every valid CLI command on the shipped inputs


def _cli_commands(verify_seed: int) -> list[tuple[list[str], Path, int]]:
    """(argv, input, expected exit code) for every command on both inputs.

    Exit 1 marks the by-design refusals: ``crn`` needs a crn document, and
    hhk has repeated exponent columns, so no subdivision or decorated bound.
    """
    out = []
    for path in (RUNNING, HHK):
        hhk = path == HHK
        for command in ("circuits", "flats", "bergman", "intersect", "bound"):
            out.append(([command], path, 0))
        coarse = [] if hhk else ["--coarse-compare", str(COARSE)]
        out.append((["positive-bergman", *coarse], path, 0))
        out.append((["intersect", "--cross-check"], path, 0))
        out.append((["subdivision"], path, 1 if hhk else 0))
        out.append((["decorated"], path, 1 if hhk else 0))
        out.append((["crn"], path, 0 if hhk else 1))
        out.append((["verify", "--seed", str(verify_seed)], path, 0))
    out.append((["bound", "--cross-check"], RUNNING, 0))
    return [([argv[0], str(path), *argv[1:], "--json", "-"], path, code) for argv, path, code in out]


def _cli_label(argv: list[str]) -> str:
    """The command line without the --json flag, paths relative to the root."""
    return " ".join(str(Path(a).relative_to(ROOT)) if a.startswith(str(ROOT)) else a for a in argv[:-2])


def _check_cli(command: str, path: Path, expected: int):
    golden = SHIPPED_BOUND[path]

    def check(result) -> Outcome:
        code, text, err = result
        if code != expected:
            return Outcome(False, detail=f"exit {code}, expected {expected}: {err.strip()}")
        if expected == 1:
            return Outcome(err.startswith("error: ") and not text, detail=err.strip())
        doc = json.loads(text)
        value = 0
        if command in ("bound", "crn"):
            value = doc["certified_bound"]
            ok = value == golden and doc["tropical"]["transverse"]
        elif command == "intersect":
            value = doc["count"]
            ok = value == golden and doc["transverse"] and len(doc["points"]) == golden
        elif command == "verify":
            value = doc["certified_bound"]
            ok = value == golden and len(doc["witnesses"]) >= golden
        elif command == "circuits":
            ok = doc["kind"] == "matroid" and len(doc["circuits"]) > 0
        else:
            ok = bool(doc)
        return Outcome(ok, value, sha256(text), len(text.encode()), f"{command} {path.name}")

    return check


def shipped_cli(seed: int) -> Workload:
    from tropibound import cli

    for path in (RUNNING, HHK, COARSE):
        cli.parse_input(str(path))
    rng = random.Random(seed)
    commands = _cli_commands(verify_seed=rng.randrange(1000))
    rng.shuffle(commands)

    def call(argv):
        def run():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            return code, out.getvalue(), err.getvalue()

        return run

    return Workload(
        [
            Instance(_cli_label(argv), call(argv), _check_cli(argv[0], path, code))
            for argv, path, code in commands
        ],
        cold=True,
    )


# ----------------------------------------------------------------------
# checks shared by the bounding workloads


def _positive_member(p, circuits) -> bool:
    """Every signed circuit's argmin over its support meets both signs."""
    for c in circuits:
        low = min(p[e - 1] for e in c.positive + c.negative)
        if not (
            any(p[e - 1] == low for e in c.positive) and any(p[e - 1] == low for e in c.negative)
        ):
            return False
    return True


def _check_bound_report(report, system, circuits) -> str:
    """Consistency of a BoundReport; an empty string when it holds."""
    trop = report.tropical
    if trop.count != len(trop.points) or len({p.v for p in trop.points}) != trop.count:
        return "point count disagrees with the points"
    A, h = system.A, system.h
    for p in trop.points:
        w = tuple(sum(A[i, j] * p.v[i] for i in range(A.rows)) for j in range(A.cols))
        if w != p.w:
            return f"w != A^T v at v={p.v}"
        if not _positive_member([a + b for a, b in zip(w, h)], circuits):
            return f"w + h leaves the positive fan at v={p.v}"
    if trop.transverse:
        expected = trop.count
    elif report.decorated is not None:
        expected = report.decorated[0]
    else:
        expected = 0
    if report.certified_bound != expected:
        return f"certified bound {report.certified_bound}, expected {expected}"
    if report.decorated is not None and trop.transverse and report.decorated[0] > trop.count:
        return "decorated count exceeds the tropical count"
    return ""


def _bound_outcome(report, system, circuits, extra_detail: str = "") -> Outcome:
    detail = _check_bound_report(report, system, circuits) or extra_detail
    text = json.dumps(report.to_document(), sort_keys=True)
    return Outcome(not detail, report.certified_bound, sha256(text), detail=detail)


def _summary(report) -> list:
    """What an equivalent system must reproduce: [bound, count, transverse]."""
    return [report.certified_bound, report.tropical.count, report.tropical.transverse]


def _golden_outcome(report, system, circuits, expected: list, extra_detail: str = "") -> Outcome:
    got = _summary(report)
    detail = extra_detail or ("" if got == expected else f"got {got}, golden {expected}")
    return _bound_outcome(report, system, circuits, detail)


# ----------------------------------------------------------------------
# crn_scan: one network, many rate-exponent draws


def crn_base_draws() -> list[tuple[int, ...]]:
    """The reference scan: rate exponents h in [-8, 8]^6 for the hhk network."""
    rng = random.Random(CRN_BASE_SEED)
    return [tuple(rng.randint(-8, 8) for _ in range(6)) for _ in range(CRN_DRAWS)]


def _hhk_models(draws: list[tuple[int, ...]]) -> list:
    """The hhk network once per rate-exponent draw."""
    from tropibound.rational import RationalMatrix
    from tropibound.systems import CRNModel

    doc = json.loads(HHK.read_text())
    shared = {
        "N_stoich": RationalMatrix.from_rows(doc["N"]),
        "B": RationalMatrix.from_rows(doc["B"]),
        "W": RationalMatrix.from_rows(doc["W"]),
        "T": tuple(Fraction(x) for x in doc["T"]),
    }
    return [CRNModel(h=tuple(Fraction(x) for x in h), **shared) for h in draws]


def crn_scan(seed: int) -> Workload:
    """The reference scan, with the seed scaling each draw by a positive
    integer and shuffling the draws.

    Scaling h scales the intersection with the fan, which is a union of
    cones, so it changes no certified bound.  Relabelling the reactions
    would not either, but it moves the cost of single draws by several
    times, so it is left to random_family.
    """
    from tropibound import matroid, systems

    golden = json.loads(GOLDEN.read_text())["crn_scan"]
    rng = random.Random(seed)
    scales = [rng.randint(1, 3) for _ in range(CRN_DRAWS)]
    draws = [tuple(k * x for x in h) for k, h in zip(scales, crn_base_draws())]
    items = list(enumerate(_hhk_models(draws)))
    rng.shuffle(items)
    circuits: list = []  # shared by every draw; found at the first check

    def instance(index, model):
        def run():
            return systems.bound(systems.assemble_crn(model))

        def check(report) -> Outcome:
            system = systems.assemble_crn(model)
            if not circuits:
                circuits.extend(matroid.realize_from_kernel(system.C).circuits)
            skipped = "" if report.decorated is None else "decorated bound was not skipped"
            return _golden_outcome(report, system, circuits, golden[index], skipped)

        return Instance(f"draw {index}", run, check)

    return Workload([instance(i, m) for i, m in items], cold=False)


# ----------------------------------------------------------------------
# random_family: the criterion-7 family, relabelled per seed


def criterion7_family() -> list[tuple[list, list, list]]:
    """The 200 random systems of the criterion-7 acceptance test, drawn in
    the same order under the same acceptance rule."""
    from tropibound.rational import RationalMatrix, rank

    rng = random.Random(FAMILY_SEED)
    family = []
    while len(family) < FAMILY_SIZE:
        r = rng.randint(3, 8)
        n = rng.randint(1, min(3, r - 1))
        m = rng.randint(n, r - 1)
        C_rows = [[rng.randint(-3, 3) for _ in range(r)] for _ in range(m)]
        A_rows = [[rng.randint(-3, 3) for _ in range(r)] for _ in range(n)]
        C = RationalMatrix.from_rows(C_rows)
        A = RationalMatrix.from_rows(A_rows)
        if C.is_zero() or rank(A) < n or rank(C) != n:
            continue
        h = [Fraction(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(r)]
        family.append((C_rows, A_rows, h))
    return family


def relabel(C_rows, A_rows, h, rng: random.Random):
    """An equivalent system: columns permuted, h shifted by A^T u.

    Neither changes the certified bound: a permutation relabels the
    coordinates, and adding A^T u to h translates the intersection by a
    vector of rowspan(A) and adds an affine function to the lift.
    """
    perm = list(range(len(h)))
    rng.shuffle(perm)
    u = [rng.randint(-2, 2) for _ in A_rows]
    shift = [sum(ui * row[j] for ui, row in zip(u, A_rows)) for j in range(len(h))]
    return (
        [[row[j] for j in perm] for row in C_rows],
        [[row[j] for j in perm] for row in A_rows],
        [h[j] + shift[j] for j in perm],
    )


def _vertical_system(C_rows, A_rows, h):
    from tropibound.rational import RationalMatrix
    from tropibound.systems import VerticalSystem

    return VerticalSystem(
        RationalMatrix.from_rows(C_rows), RationalMatrix.from_rows(A_rows), tuple(h)
    )


def random_family(seed: int) -> Workload:
    """The criterion-7 family, each system relabelled by the seed, shuffled."""
    from tropibound import matroid, systems

    golden = json.loads(GOLDEN.read_text())["random_family"]
    rng = random.Random(seed)
    items = [
        (index, _vertical_system(*relabel(*base, rng)))
        for index, base in enumerate(criterion7_family())
    ]
    rng.shuffle(items)

    def instance(index, system):
        circuits: list = []  # found at the first check

        def run():
            return systems.bound(system, cross_check=True)

        def check(report) -> Outcome:
            if not circuits:
                circuits.extend(matroid.realize_from_kernel(system.C).circuits)
            return _golden_outcome(report, system, circuits, golden[index])

        return Instance(f"system {index}", run, check)

    return Workload([instance(i, s) for i, s in items], cold=True)


def write_golden() -> None:
    """Record the summary of every reference system, before any relabelling."""
    from tropibound.systems import assemble_crn, bound

    golden = {
        "crn_scan": [
            _summary(bound(assemble_crn(m)))
            for m in _hhk_models(crn_base_draws())
        ],
        "random_family": [
            _summary(bound(_vertical_system(*base), cross_check=True))
            for base in criterion7_family()
        ],
    }
    GOLDEN.write_text(json.dumps(golden) + "\n")


# ----------------------------------------------------------------------
# matroid_scaling: circuits and flats of generic coefficient matrices


def _int_rank(rows: list[list[int]]) -> int:
    """Rank by fraction-free integer elimination (independent of tropibound)."""
    m = [list(r) for r in rows if any(r)]
    rank = 0
    for c in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        p = m[rank]
        for i in range(rank + 1, len(m)):
            f = m[i][c]
            if f:
                m[i] = [p[c] * x - f * y for x, y in zip(m[i], p)]
        rank += 1
    return rank


def _matroid_truth(C_rows: list[list[int]]):
    """Flats and circuit supports of the matroid realized by ker(C).

    That matroid is the dual of the column matroid of C, so the rank of a
    set S is |S| - rank(C) + rank(C restricted to the complement of S).
    """
    r = len(C_rows[0])
    k = _int_rank(C_rows)
    rank = [0] * (1 << r)
    for S in range(1 << r):
        rest = [j for j in range(r) if not S >> j & 1]
        sub = [[row[j] for j in rest] for row in C_rows]
        rank[S] = bin(S).count("1") - k + (_int_rank(sub) if rest else 0)
    flats = {
        S: rank[S]
        for S in range(1 << r)
        if all(rank[S | 1 << e] > rank[S] for e in range(r) if not S >> e & 1)
    }
    dependent = [rank[S] < bin(S).count("1") for S in range(1 << r)]
    circuits = {
        S
        for S in range(1, 1 << r)
        if dependent[S] and not any(dependent[S & ~(1 << e)] for e in range(r) if S >> e & 1)
    }
    return flats, circuits


def _mask(elements) -> int:
    return sum(1 << (e - 1) for e in elements)


def matroid_scaling(seed: int) -> Workload:
    from tropibound import matroid
    from tropibound.rational import RationalMatrix

    rng = random.Random(seed)
    instances = []
    for index, r in enumerate(MATROID_SIZES):
        k = r // 2
        while True:
            C_rows = [[rng.randint(-20, 20) for _ in range(r)] for _ in range(k)]
            if _int_rank(C_rows) == k:
                break
        C = RationalMatrix.from_rows(C_rows)

        def run(C=C):
            M = matroid.realize_from_kernel(C)
            return M, matroid.all_flats(M)

        def check(result, C_rows=C_rows) -> Outcome:
            M, flats = result
            true_flats, true_circuits = _matroid_truth(C_rows)
            got_flats = {_mask(f.elements): f.rank for f in flats}
            got_circuits = {_mask(c.support) for c in M.circuits}
            ok = got_flats == true_flats and got_circuits == true_circuits
            text = json.dumps(M.to_document(), sort_keys=True)
            detail = "" if ok else "flats or circuits differ from the rank oracle"
            return Outcome(ok, len(flats), sha256(text), detail=detail)

        instances.append(Instance(f"#{index} r={r} rank {k}", run, check))
    return Workload(instances, cold=True)


WORKLOADS = {
    "shipped_cli": shipped_cli,
    "crn_scan": crn_scan,
    "random_family": random_family,
    "matroid_scaling": matroid_scaling,
}


if __name__ == "__main__":
    import sys

    sys.path.insert(0, str(ROOT / "src"))
    write_golden()
    print(f"wrote {GOLDEN}")
