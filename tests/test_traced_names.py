"""Every name perfbench/tracing.py wraps still exists where it looks for it.

The tracer rebinds each name of its ``SPECS`` on the name's home module, or
on the class for a method (``Word.__post_init__``), so a renamed function
would otherwise surface only in a benchmark run.  The module is only loaded
here: ``Tracer.install`` is never called, since it rebinds package globals
for the rest of the test run."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _specs():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # dataclasses reads the defining module's namespace from sys.modules
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return [(s.prefix, s.module, name) for s in module.SPECS for name in s.names]


SPECS = _specs()


@pytest.mark.parametrize("prefix, module, name", SPECS, ids=[f"{p}:{n}" for p, _, n in SPECS])
def test_traced_name_resolves_to_a_callable(prefix, module, name):
    owner_name, _, attr = name.rpartition(".")
    owner = importlib.import_module(module)
    if owner_name:
        owner = getattr(owner, owner_name)
    assert callable(getattr(owner, attr, None)), f"{prefix}: {module}.{name} is gone"
