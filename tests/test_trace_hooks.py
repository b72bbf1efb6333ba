"""Every span of the benchmark tracer still names a wrappable attribute.

`bench/tracer.py` wraps functions and methods in place, reading
methods from the owning class's own `__dict__`.  A refactor that moves
or renames one of them breaks only traced benchmark runs, so this test
resolves every entry of its `SPANS` table the same way, without
installing the tracer.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(module, path):
    mod = importlib.import_module(module)
    if "." not in path:
        return getattr(mod, path, None)
    cls_name, attr = path.split(".")
    target = getattr(mod, cls_name).__dict__.get(attr)
    return target.__func__ if isinstance(target, classmethod) else target


def test_every_span_target_resolves():
    spans = _load_tracer().SPANS
    assert spans
    missing = [f"{module}:{path}" for _, module, path in spans
               if not callable(_resolve(module, path))]
    assert missing == []
