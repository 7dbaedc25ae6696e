import dataclasses
import importlib
import importlib.util
import math
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACING = BENCH / "tracing.py"
WORKLOADS = BENCH / "workloads.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_traced_functions_exist():
    # the benchmark's tracer rebinds these names; a rename or deletion in the
    # package would otherwise only show when a traced run crashes
    tracing = load_tracing()
    missing = [
        f"{module_name}.{name}"
        for module_name, names in tracing.GROUPS.values()
        for name in names
        if not callable(
            getattr(importlib.import_module(f"tropibound.{module_name}"), name, None)
        )
    ]
    assert tracing.GROUPS and not missing


def test_workloads_build(monkeypatch):
    # the benchmark clears the flats caches and builds its inputs through
    # package functions; a change that breaks either would otherwise only
    # show when a benchmark run crashes
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    # the module's dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    workloads.clear_caches()
    sizes = {name: len(build(1).instances) for name, build in workloads.WORKLOADS.items()}
    assert sizes and all(sizes.values()), sizes


def test_traced_bound_counts(running_system):
    # a traced cross-checked bound reaches the hooked functions it calls
    # and reads the result shapes their hooks expect; with the scan memos
    # (the matroid and the fan plan) cleared the counters of the running
    # example are exact, the fan walk lists no positive chain, and it
    # reads isolation off its own probes, so the isolation hooks see no call
    from tropibound import intersection, matroid, systems

    tracing = load_tracing()
    matroid.realize_from_kernel.cache_clear()
    intersection._fan_plan.cache_clear()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.run(lambda: systems.bound(running_system, cross_check=True))
    finally:
        tracer.uninstall()
    expected = {
        # the search returns the 3 circuits once each, up to negation
        "matroid.circuits_count": 3,
        "bergman.chains_count": 0,
        "intersection.points_count": 2,
        "subdivision.cells_count": 4,
        "subdivision.decorated_count": 1,
        "intersection.oracle_calls": 1,
        "intersection.isolation_calls": 0,
        "systems.bound_calls": 1,
    }
    metrics = tracer.per_layer(wall_s=1.0)
    assert {name: metrics[name] for name in expected} == expected


def test_traced_scan_reuses_eliminations(hhk_model):
    # three hhk draws share C and A: after the first draw, no rank, affine
    # solve or kernel is computed again, and the fan walk's points and
    # polyhedron probes are those of the per-draw solves it replaced
    from tropibound import intersection, matroid, systems

    tracing = load_tracing()
    matroid.realize_from_kernel.cache_clear()
    intersection._fan_plan.cache_clear()
    systems._independent_rows.cache_clear()
    draws = [(7, -6, -2, -3, -3, 3), (7, 8, 3, 3, -1, 8), (-4, 2, 6, -8, 1, -3)]
    eliminations = ("rational.rank", "rational.solve_affine", "rational.kernel_basis")
    after = []
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for h in draws:
            model = dataclasses.replace(hhk_model, h=h)
            tracer.run(lambda: systems.bound(systems.assemble_crn(model)))
            after.append([tracer.calls[name] for name in eliminations])
    finally:
        tracer.uninstall()
    assert after[0] == after[1] == after[2]
    # the fan walk's counters on these draws before its tie systems were
    # eliminated once per (matroid, A), pinned, less the feasibility and
    # cone probes of the tangent-cone search: isolation is now read off
    # the cells the walk probes, with no polyhedron probe of its own.
    # Each cell probe is one polyhedron_dimension call, which reads the
    # dimension off its one elimination and so calls no feasible_point
    expected = {
        "intersection.points_count": 9,
        "polyhedra.feasible_point_calls": 0,
        "polyhedra.dimension_calls": 48,
        "polyhedra.cone_probe_calls": 0,
    }
    metrics = tracer.per_layer(wall_s=1.0)
    assert {name: metrics[name] for name in expected} == expected


def test_traced_scan_eliminates_each_tie_system_once(hhk_model, monkeypatch):
    # on the three draws above, every elimination of the fan plan runs at
    # the first draw: one of the inputs and one per partition combination,
    # which also gives its pivot set's solutions and free directions;
    # every cell probe then runs in the free coordinates of those
    # solutions, so no draw eliminates a system's ties again
    from tropibound import _polyhedra, intersection, matroid, systems

    tracing = load_tracing()
    matroid.realize_from_kernel.cache_clear()
    intersection._fan_plan.cache_clear()
    calls = {"_echelon": 0}
    real_echelon = intersection._echelon

    def echelon(*args):
        calls["_echelon"] += 1
        return real_echelon(*args)

    monkeypatch.setattr(intersection, "_echelon", echelon)
    probes = []
    real_dimension = _polyhedra.polyhedron_dimension

    def dimension(dim, inequalities):
        probes.append(dim)
        return real_dimension(dim, inequalities)

    monkeypatch.setattr(_polyhedra, "polyhedron_dimension", dimension)
    draws = [(7, -6, -2, -3, -3, 3), (7, 8, 3, 3, -1, 8), (-4, 2, 6, -8, 1, -3)]
    after = []
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for h in draws:
            system = systems.assemble_crn(dataclasses.replace(hhk_model, h=h))
            tracer.run(lambda: systems.bound(system))
            after.append(dict(calls))
    finally:
        tracer.uninstall()
    OM = matroid.realize_from_kernel(system.C)
    plan = intersection._fan_plan(OM, system.A)
    combinations = math.prod(len(c.partitions) for c in intersection._cell_partitions(OM)[0])
    # hhk's 6 underdetermined combinations share 5 pivot sets; its full-rank
    # pivot sets name 200 check rows between them, 68 of them distinct
    assert combinations == 240 and len(plan.pivoted) == 77 and len(plan.underdetermined) == 6
    assert len(plan.checks) == 68
    assert after[0] == after[1] == after[2] == {"_echelon": 1 + combinations}
    assert len(probes) == tracer.per_layer(wall_s=1.0)["polyhedra.dimension_calls"] == 48
    # hhk's underdetermined ties leave 1 free coordinate of v's 6
    assert set(probes) == {1}
