"""The benchmark tracer wraps these methods by name: they must keep existing.

`ridebench/tracer.py` replaces each (module, class, method) it lists with a
timing or counting wrapper, and `run.py --trace 1` fails when one is gone.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "ridebench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("ridebench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_method_resolves():
    tracer = load_tracer()
    listed = tracer.TIMED_METHODS + tracer.COUNTED_METHODS
    assert listed
    for modname, cls, meth in listed:
        owner = getattr(importlib.import_module(modname), cls)
        assert callable(getattr(owner, meth)), (modname, cls, meth)
