"""The benchmark tracer wraps berglab functions by name.

``perfbench/tracing.py`` looks every traced ``(module, function)`` up with
``getattr`` when it installs its wrappers, so a renamed or deleted function
makes every traced benchmark run fail.  This test loads the tracer by path and
checks that each name it wraps still resolves.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_resolve_in_berglab():
    traced = _load_tracing().TRACED
    assert traced
    for module, name in traced:
        assert callable(getattr(importlib.import_module("berglab." + module), name)), (module, name)
    # wrapped on the class by Tracer.install, outside TRACED
    from berglab.covering import Covering
    assert callable(Covering.cell_diameters)
