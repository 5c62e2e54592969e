"""The program keeps every binding the benchmark tracer patches.

bench/tracer.py wraps each traced function at the module attributes its
callers resolve (TIMED and COUNTED).  A binding renamed or deleted here
would otherwise only show in the slow bench/tests/check_trace.py run.
"""

import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def load_tracer(monkeypatch):
    """bench/tracer.py as a module, leaving no bytecode cache in bench/."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_binding_resolves(monkeypatch):
    tracer = load_tracer(monkeypatch)
    bindings = [b for group in (tracer.TIMED, tracer.COUNTED) for bs in group.values() for b in bs]
    assert len(bindings) > 30
    missing = []
    for binding in bindings:
        try:
            tracer._resolve(binding)
        except (ImportError, AttributeError):
            missing.append(binding)
    assert missing == []
