"""Every layer boundary that ``perfbench/spans.py`` wraps still exists.

``Tracer.install`` looks each function up by module attribute and each
method in its class ``__dict__``; a rename or a move breaks ``--trace 1``.
The module is loaded by path, as the benchmark harness sits outside the
package.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _spans()


@pytest.mark.parametrize("module, attr", [entry[:2] for entry in spans.FUNCTIONS])
def test_wrapped_function_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


@pytest.mark.parametrize("module, cls, method", [entry[:3] for entry in spans.METHODS])
def test_wrapped_method_is_defined_on_its_class(module, cls, method):
    assert method in vars(getattr(importlib.import_module(module), cls))


def test_package_modules_import():
    for module in spans.PACKAGE_MODULES:
        importlib.import_module(module)
