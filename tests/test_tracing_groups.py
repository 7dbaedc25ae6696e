import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_traced_functions_exist():
    # the benchmark's tracer rebinds these names; a rename or deletion in the
    # package would otherwise only show when a traced run crashes
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"{module_name}.{name}"
        for module_name, names in tracing.GROUPS.values()
        for name in names
        if not callable(
            getattr(importlib.import_module(f"tropibound.{module_name}"), name, None)
        )
    ]
    assert tracing.GROUPS and not missing
