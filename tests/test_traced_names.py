"""Every function the benchmark traces by name must exist in the package.

`bench/tracing.py` wraps the functions and methods listed in its `TRACED`
table by looking them up on `bicomm.<module>`.  The benchmark's own tests
catch a missing name only by running a traced job; this check names the
missing attribute directly, without running any job.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _traced_names():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


TRACED = _traced_names()


@pytest.mark.parametrize(
    "module_name,attr", TRACED, ids=[f"{module}.{attr}" for module, attr in TRACED]
)
def test_traced_name_resolves(module_name, attr):
    home = importlib.import_module(f"bicomm.{module_name}")
    if "." in attr:
        class_name, method = attr.split(".")
        # The tracer replaces the method in the class's own namespace.
        assert callable(vars(getattr(home, class_name)).get(method))
    else:
        assert callable(getattr(home, attr, None))
