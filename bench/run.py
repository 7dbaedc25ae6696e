"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a tropibound checkout; the package is imported from
``src/``.  One process, one client, closed loop: each instance starts
after the previous one finished and was checked.  With ``--trace 0`` the
workload runs passes over its instances (see ``measure``) and the
end-to-end metrics are printed.  With ``--trace 1`` it runs one untraced
pass and one traced pass over the same instances and prints the
per-layer metrics.  Times are in reference seconds (see ``speed.py``).
The last line of standard output is always the JSON result; a full
record (digests, latencies, spans) goes to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 3  # fresh processes timed for setup_s; the median is reported
# (reference seconds, runs): an instance whose first run took less runs this
# often in all, since a single short run is at the mercy of the moment
MIN_RUNS = ((0.02, 5), (0.25, 2))
LONG_S = 2.0  # an instance this slow (reference seconds) in its first pass runs once
TAIL_BEYOND = 10  # instances the tail percentile leaves above it

sys.path.insert(0, str(SRC))

import workloads  # noqa: E402  (bench/ is on sys.path as the script's directory)
import speed  # noqa: E402
from tracing import Tracer  # noqa: E402


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def probe_setup(name: str, seed: int) -> tuple[float, float]:
    """(reference, wall) seconds to import tropibound and build the
    workload's inputs.  The speed probes run afterwards, so that the
    import of `fractions` stays inside the timed setup."""
    start = time.perf_counter()
    import tropibound  # noqa: F401

    workloads.WORKLOADS[name](seed)
    wall = time.perf_counter() - start
    probes = [speed.probe() for _ in range(4)]
    return speed.to_reference(wall, probes[1:]), wall  # the first probe warms up


def measure_setup(name: str, seed: int) -> list[tuple[float, float]]:
    """Setup times in fresh interpreters, as a CLI user pays them."""
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, __file__, "--probe-setup", "--workload", name, "--seed", str(seed)],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        samples.append(tuple(json.loads(done.stdout.strip().splitlines()[-1])))
    return samples


class Tally:
    """Latencies and outcomes of the instances run so far, by label."""

    def __init__(self):
        self.samples: dict[str, list[float]] = {}  # label -> reference seconds per pass
        self.wall: dict[str, list[float]] = {}  # label -> wall seconds per pass
        self.probes: list[float] = []
        self.failures: list[str] = []
        self.digests: dict[str, str | None] = {}
        self.values: dict[str, int] = {}
        self.output_bytes = 0
        self.passes = 0

    def record(self, label: str, seconds: float, wall: float, outcome: workloads.Outcome) -> None:
        ok = outcome.ok
        if label not in self.samples:
            self.samples[label] = []
            self.wall[label] = []
            self.digests[label] = outcome.digest
            self.values[label] = outcome.value
            self.output_bytes += outcome.output_bytes
        elif self.digests[label] != outcome.digest or self.values[label] != outcome.value:
            ok = False
            outcome.detail = "output differs from the first pass"
        self.samples[label].append(seconds)
        self.wall[label].append(wall)
        if not ok:
            self.failures.append(f"{label}: {outcome.detail}")

    @property
    def attempted(self) -> int:
        return sum(len(v) for v in self.samples.values())

    def latencies(self) -> list[float]:
        """Each instance's median run, in reference seconds."""
        return [statistics.median(v) for v in self.samples.values()]


def run_instance(instance: workloads.Instance, meter: speed.Speedometer, tracer: Tracer | None):
    """(reference seconds, wall seconds, outcome) of one instance."""
    gc.collect()  # start every instance from the same heap, as a fresh CLI run does
    start = meter.clock()
    try:
        result = instance.run() if tracer is None else tracer.run(instance.run)
    except Exception:  # a failed instance is counted, the run goes on
        outcome = workloads.Outcome(False, detail=traceback.format_exc())
    else:
        outcome = None
    end = meter.clock()
    if outcome is None:
        try:
            outcome = instance.check(result)
        except Exception:
            outcome = workloads.Outcome(False, detail="check raised " + traceback.format_exc())
    return meter.reference(start, end), end - start, outcome


def wanted(first: float, passes: int, time_up: bool) -> bool:
    """Whether an instance whose first run took `first` reference seconds
    runs again, after `passes` passes."""
    if any(first < below and passes < runs for below, runs in MIN_RUNS):
        return True
    return first < LONG_S and not time_up


def measure(workload: workloads.Workload, seconds: float, passes=None, tracer=None) -> Tally:
    """Passes over the instances until none is wanted again, or `passes`.

    Every instance runs in the first pass, and short ones as often as
    MIN_RUNS asks.  Instances under LONG_S repeat until `seconds`
    have elapsed, stopping inside a pass.  Longer instances run once: they
    average over the machine's load changes on their own, and repeating
    them would crowd out the rest.
    """
    tally = Tally()
    with speed.Speedometer() as meter:
        if tracer is not None:
            tracer.clock = meter.clock
        start = meter.clock()
        while passes is None or tally.passes < passes:
            if not workload.cold:
                workloads.clear_caches()
            ran = 0
            for instance in workload.instances:
                if tally.passes and not wanted(
                    tally.samples[instance.label][0],
                    tally.passes,
                    meter.clock() - start >= seconds,
                ):
                    continue
                if workload.cold:
                    workloads.clear_caches()
                tally.record(instance.label, *run_instance(instance, meter, tracer))
                ran += 1
            if not ran:
                break
            tally.passes += 1
    tally.probes = meter.probes
    return tally


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) at the highest percentile that
    leaves TAIL_BEYOND samples above it, or the maximum for short lists."""
    ordered = sorted(latencies)
    index = len(ordered) - 1 - (TAIL_BEYOND if len(ordered) > TAIL_BEYOND else 0)
    return ordered[index], 100.0 * (index + 1) / len(ordered), len(ordered) - index - 1


def end_to_end(tally: Tally, setup_samples: list[tuple[float, float]]) -> tuple[dict, dict]:
    latencies = tally.latencies()
    tail_s, tail_pct, beyond = tail(latencies)
    metrics = {
        "setup_s": (statistics.median(ref for ref, _wall in setup_samples), "s"),
        "instances_per_s": (len(latencies) / sum(latencies), "1/s"),
        "latency_p50_s": (statistics.median(latencies), "s"),
        "latency_tail_s": (tail_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "success_rate": ((tally.attempted - len(tally.failures)) / tally.attempted, "ratio"),
        "exact_result_sum": (sum(tally.values.values()), "count"),
    }
    notes = {
        "latency_tail_percentile": tail_pct,
        "latency_tail_samples_beyond": beyond,
        "latency_samples": len(latencies),
        "work_s": sum(latencies),
        "wall_work_s": sum(statistics.median(v) for v in tally.wall.values()),
        "probe_s": {"min": min(tally.probes), "median": statistics.median(tally.probes)},
        "setup_samples_s": setup_samples,
    }
    return metrics, notes


def per_layer(workload: workloads.Workload, tracer: Tracer) -> tuple[dict, Tally, Tally]:
    plain = measure(workload, 0, passes=1)
    tracer.install()
    try:
        traced = measure(workload, 0, passes=1, tracer=tracer)
    finally:
        tracer.uninstall()
    layers = tracer.per_layer(sum(v[0] for v in traced.wall.values()))
    layers["trace.wall_s"] = sum(traced.latencies())
    layers["trace.overhead_s"] = sum(traced.latencies()) - sum(plain.latencies())
    layers["cli.output_bytes"] = traced.output_bytes
    return {name: (value, unit_of(name)) for name, value in layers.items()}, plain, traced


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith(("_share", "_ratio")):
        return "ratio"
    return "count"


def environment(args) -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if "TROPIBOUND_THREADS" in os.environ:
        print("error: unset TROPIBOUND_THREADS; the benchmark runs single-threaded", file=sys.stderr)
        return 2
    if not (SRC / "tropibound" / "__init__.py").is_file():
        print(f"error: no tropibound package under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    if args.probe_setup:
        print(json.dumps(probe_setup(args.workload, args.seed)))
        return 0

    record = environment(args)
    setup_samples = [] if args.trace else measure_setup(args.workload, args.seed)
    workload = workloads.WORKLOADS[args.workload](args.seed)
    if args.trace:
        tracer = Tracer()
        metrics, plain, tally = per_layer(workload, tracer)
        record["spans"] = tracer.spans
        notes = {
            "untraced_work_s": sum(plain.latencies()),
            "self_s": tracer.group_seconds(),
            "calls": tracer.calls,
        }
        failures = plain.failures + tally.failures
        attempted = plain.attempted + tally.attempted
        if plain.digests != tally.digests:
            failures.append("traced and untraced passes produced different documents")
    else:
        tally = measure(workload, args.seconds)
        metrics, notes = end_to_end(tally, setup_samples)
        failures = tally.failures
        attempted = tally.attempted
    record.update(
        notes=notes,
        passes=tally.passes,
        instances=len(workload.instances),
        digests=tally.digests,
        latencies=tally.samples,
        failures=failures,
        metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    )
    OUT.mkdir(exist_ok=True)
    out_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record) + "\n")

    for failure in failures[:20]:
        print(f"FAILED {failure}")
    summary = {
        k: v
        for k, v in record.items()
        if k not in ("spans", "digests", "latencies", "metrics")
    }
    print(json.dumps(summary, default=str))
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": record["metrics"],
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
