import dataclasses
import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


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


def test_traced_bound_counts(running_system):
    # a traced cross-checked bound reaches every hooked function and reads
    # the result shapes its hooks expect; with the scan memos (the matroid
    # and the fan plan) cleared the counters of the running example are
    # exact, and the fan walk lists no positive chain
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
        "matroid.circuits_count": 6,
        "bergman.chains_count": 0,
        "intersection.points_count": 2,
        "subdivision.cells_count": 4,
        "subdivision.decorated_count": 1,
        "intersection.oracle_calls": 1,
        "intersection.isolation_calls": 2,
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
    # eliminated once per (matroid, A), pinned
    expected = {
        "intersection.points_count": 9,
        "polyhedra.feasible_point_calls": 274,
        "polyhedra.dimension_calls": 48,
        "polyhedra.cone_probe_calls": 150,
    }
    metrics = tracer.per_layer(wall_s=1.0)
    assert {name: metrics[name] for name in expected} == expected
