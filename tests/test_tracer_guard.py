"""The benchmark's span tracer still finds every name it wraps.

``bench/tracer.py`` replaces dpgfem functions and methods by name when
it is installed, so a function that is renamed or deleted in dpgfem
breaks traced benchmark runs only.  Here the tracer file is imported as
it is, installed on the dpgfem modules and removed again: every traced
name must exist, be wrapped while the tracer is installed and be the
original again afterwards.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_removes_on_dpgfem():
    tracer = _tracer_module()
    for modname, *_ in tracer.FUNCTIONS + tracer.METHODS:
        importlib.import_module(modname)
    functions = {(m, a): getattr(sys.modules[m], a)
                 for m, a, _ in tracer.FUNCTIONS}
    methods = {(m, c, a): getattr(sys.modules[m], c).__dict__[a]
               for m, c, a, _ in tracer.METHODS}

    with tracer.Tracer():
        for (m, a), original in functions.items():
            assert getattr(sys.modules[m], a) is not original, (m, a)
        for (m, c, a), original in methods.items():
            assert getattr(sys.modules[m], c).__dict__[a] is not original, \
                (m, c, a)

    for (m, a), original in functions.items():
        assert getattr(sys.modules[m], a) is original, (m, a)
    for (m, c, a), original in methods.items():
        assert getattr(sys.modules[m], c).__dict__[a] is original, (m, c, a)
