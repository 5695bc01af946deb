"""The benchmark's traced run wraps program functions by name; each must exist."""

import importlib
import importlib.util
import inspect
import pkgutil
from pathlib import Path

import pytest

import morpion

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
_spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)
TARGETS = [*tracer.SPANS, *tracer.COUNTS]

for _info in pkgutil.iter_modules(morpion.__path__):
    importlib.import_module(f"morpion.{_info.name}")


@pytest.mark.parametrize("name, module, attr", TARGETS, ids=[t[0] for t in TARGETS])
def test_every_traced_target_is_a_function(name, module, attr):
    """``Tracer.install`` looks each target up as it is written here; a
    renamed or deleted one would fail the traced run with ``AttributeError``
    or ``KeyError``."""
    home = importlib.import_module(module)
    if "." in attr:
        cls_name, meth = attr.split(".")
        target = vars(getattr(home, cls_name)).get(meth)
    else:
        target = getattr(home, attr, None)
    assert inspect.isfunction(target), f"{name}: {module}.{attr} is not a function"
