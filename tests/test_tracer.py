"""The span tracer of `perfbench/tracer.py` against the package: it skips a
traced function or method that is gone, but not a module or class that owns
one, so a renamed owner would crash every traced benchmark run."""
import importlib
import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "perfbench_tracer", Path(__file__).parents[1] / "perfbench" / "tracer.py")
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)


def test_every_span_owner_resolves():
    for name, (module_name, path) in tracer.SPANS.items():
        owner = importlib.import_module(module_name)
        for part in path.split(".")[:-1]:
            assert hasattr(owner, part), (name, module_name, path)
            owner = getattr(owner, part)
