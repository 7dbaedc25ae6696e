"""Span tracing of tropibound from outside the package.

Tracing rebinds module attributes in this process only: every public
function listed in ``GROUPS`` is replaced by a wrapper in every
``tropibound`` namespace that holds it, so ``intersection.positive_chains``,
``bergman.all_flats``, ``cli.lower_bound`` and ``subdivision.det`` all
reach the wrapper.  Nothing under ``src/`` changes.

A span is ``[name, start, end, parent_index]``, in seconds of ``clock``.  Spans stay in
memory and are written out when the run ends.  A group's self time is
the duration of its spans minus the time their child spans cover.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

# metric group -> (module, public functions).  The per-weight predicates
# (is_member, is_positive_member, _argmin_two_signed) are left unwrapped:
# they run once per weight vector and a wrapper would dominate them.
GROUPS = {
    "matroid.circuits": ("matroid", ("realize_from_kernel", "circuits_via_subsets")),
    "matroid.flats": ("matroid", ("all_flats", "maximal_flags")),
    "rational": (
        "rational",
        (
            "rref",
            "rank",
            "kernel_basis",
            "solve_affine",
            "det",
            "row_space_equal",
            "first_independent_rows",
            "in_row_span",
        ),
    ),
    "bergman.positive_chains": ("bergman", ("positive_chains",)),
    "bergman.fan": ("bergman", ("fine_fan", "positive_fan", "compare_with_coarse")),
    "intersection.fan_walk": ("intersection", ("intersect_via_fan",)),
    "intersection.isolation": ("intersection", ("is_isolated", "tangent_direction")),
    "intersection.oracle": ("intersection", ("intersect_via_vertices",)),
    "intersection.other": ("intersection", ("lower_bound", "validate_inputs")),
    "polyhedra": ("_polyhedra", ("feasible_point", "polyhedron_dimension", "cone_nonzero_point")),
    "subdivision.full_cells": ("subdivision", ("full_cells",)),
    "subdivision.decorated": (
        "subdivision",
        ("decorated_count", "positively_decorated", "decorated_to_tropical"),
    ),
    "systems.bound": ("systems", ("bound",)),
    "systems.assemble": ("systems", ("assemble_crn",)),
    "numeric.count_roots": ("numeric", ("count_roots", "instantiate", "newton")),
    "cli.parse": ("cli", ("parse_input",)),
    "cli": ("cli", ("main", "run")),
}

ROOT = "bench.instance"


class Tracer:
    """Collects spans and result counters while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.calls: dict[str, int] = {}
        self.counts: dict[str, int] = {}
        self._originals: list[tuple[object, str, object]] = []
        self.active = False
        self.clock = perf_counter

    def bump(self, key: str, by: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + by

    def span(self, name: str, fn, *args, **kwargs):
        """Run fn under a span called name and return its result."""
        spans, stack = self.spans, self._stack
        record = [name, self.clock(), 0.0, stack[-1] if stack else -1]
        stack.append(len(spans))
        spans.append(record)
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = self.clock()
            stack.pop()

    def _wrap(self, qualname: str, fn, on_result):
        calls = self.calls
        calls.setdefault(qualname, 0)
        cache_info = getattr(fn, "cache_info", None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            calls[qualname] += 1
            hits = cache_info().hits if cache_info else 0
            result = self.span(qualname, fn, *args, **kwargs)
            if cache_info and cache_info().hits > hits:
                self.bump(f"{qualname}.cache_hits")
            elif on_result is not None:
                on_result(result)
            return result

        for attr in ("cache_clear", "cache_info"):
            if hasattr(fn, attr):
                setattr(wrapper, attr, getattr(fn, attr))
        return wrapper

    def install(self) -> None:
        """Rebind every listed function in every tropibound namespace."""
        import tropibound.cli  # noqa: F401  (loads every traced module)

        on_result = self._result_hooks()
        replacement: dict[int, object] = {}
        for module_name, names in GROUPS.values():
            module = sys.modules[f"tropibound.{module_name}"]
            for name in names:
                fn = getattr(module, name)
                qualname = f"{module_name}.{name}"
                replacement[id(fn)] = self._wrap(qualname, fn, on_result.get(qualname))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "tropibound" and not mod_name.startswith("tropibound."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = replacement.get(id(value))
                if wrapper is not None:
                    self._originals.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._originals):
            setattr(module, attr, value)
        self._originals.clear()

    def _result_hooks(self) -> dict:
        """Counters taken from computed results, where the work happens."""

        def bump(key: str, size=len):
            return lambda result: self.bump(key, size(result))

        return {
            "matroid.circuits_via_subsets": bump("matroid.circuits_count"),
            "matroid.all_flats": bump("matroid.flats_count"),
            "bergman.positive_chains": bump("bergman.chains_count"),
            "intersection.intersect_via_fan": bump(
                "intersection.points_count", lambda r: r.count
            ),
            "_polyhedra.feasible_point": bump(
                "polyhedra.feasible_found", lambda r: r is not None
            ),
            "subdivision.full_cells": bump("subdivision.cells_count"),
            "subdivision.decorated_count": bump(
                "subdivision.decorated_count", lambda r: r[0]
            ),
            "numeric.newton": bump("numeric.newton_converged", lambda r: r is not None),
        }

    def run(self, fn):
        """Run one instance as a root span with tracing active."""
        self.active = True
        try:
            return self.span(ROOT, fn)
        finally:
            self.active = False

    def self_times(self) -> dict[str, float]:
        """Self seconds per span name."""
        child = [0.0] * len(self.spans)
        for _name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for (name, start, end, _parent), inner in zip(self.spans, child):
            out[name] = out.get(name, 0.0) + end - start - inner
        return out

    def group_seconds(self) -> dict[str, float]:
        """Self seconds per metric group."""
        group_of = {
            f"{module}.{fn}": group for group, (module, fns) in GROUPS.items() for fn in fns
        }
        out = dict.fromkeys(GROUPS, 0.0)
        for name, seconds in self.self_times().items():
            if name in group_of:
                out[group_of[name]] += seconds
        return out

    def per_layer(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics: self-time shares of the traced wall time
        `wall_s` (summed instance latency), call counts, result counts and
        ratios."""
        seconds = self.group_seconds()
        metrics = {f"{group}_share": s / wall_s for group, s in seconds.items()}
        calls = self.calls
        counts = self.counts

        def ratio(num: int, den: int) -> float:
            return num / den if den else 0.0

        flats_calls = calls["matroid.all_flats"]
        metrics.update(
            {
                "matroid.circuits_calls": calls["matroid.circuits_via_subsets"],
                "matroid.circuits_count": counts.get("matroid.circuits_count", 0),
                "matroid.flats_count": counts.get("matroid.flats_count", 0),
                "matroid.flats_cache_hit_ratio": ratio(
                    counts.get("matroid.all_flats.cache_hits", 0), flats_calls
                ),
                "rational.kernel_basis_calls": calls["rational.kernel_basis"],
                "rational.solve_affine_calls": calls["rational.solve_affine"],
                "rational.rank_calls": calls["rational.rank"],
                "bergman.chains_count": counts.get("bergman.chains_count", 0),
                "intersection.points_count": counts.get("intersection.points_count", 0),
                "intersection.isolation_calls": calls["intersection.is_isolated"],
                "intersection.oracle_calls": calls["intersection.intersect_via_vertices"],
                "polyhedra.feasible_point_calls": calls["_polyhedra.feasible_point"],
                "polyhedra.feasible_ratio": ratio(
                    counts.get("polyhedra.feasible_found", 0), calls["_polyhedra.feasible_point"]
                ),
                "polyhedra.dimension_calls": calls["_polyhedra.polyhedron_dimension"],
                "polyhedra.cone_probe_calls": calls["_polyhedra.cone_nonzero_point"],
                "subdivision.cells_count": counts.get("subdivision.cells_count", 0),
                "subdivision.decorated_count": counts.get("subdivision.decorated_count", 0),
                "systems.bound_calls": calls["systems.bound"],
                "numeric.newton_calls": calls["numeric.newton"],
                "numeric.newton_converged_ratio": ratio(
                    counts.get("numeric.newton_converged", 0), calls["numeric.newton"]
                ),
                "trace.unattributed_share": (wall_s - sum(seconds.values())) / wall_s,
                "trace.spans_count": len(self.spans),
            }
        )
        return metrics
