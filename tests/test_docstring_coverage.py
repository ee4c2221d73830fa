"""Documentation deliverable guard: every public item has a docstring.

Walks every module under :mod:`repro` and asserts that the module itself
and each public (non-underscore) class, function, and method defined there
carries a non-trivial docstring.  This keeps the "doc comments on every
public item" promise enforceable rather than aspirational.
"""

import importlib
import inspect
import pkgutil

import pytest

import repro

_MIN_DOC_LENGTH = 10


def _iter_modules():
    yield repro
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if info.name == "repro.__main__":
            continue  # executes the CLI on import
        yield importlib.import_module(info.name)


MODULES = list(_iter_modules())


def _defined_here(obj, module) -> bool:
    return getattr(obj, "__module__", None) == module.__name__


def _doc_ok(obj) -> bool:
    doc = inspect.getdoc(obj)
    return doc is not None and len(doc.strip()) >= _MIN_DOC_LENGTH


def test_parallel_sweep_modules_are_covered():
    """Guard: the sweep-engine modules must stay under the doc walker.

    ``_iter_modules`` discovers modules dynamically, so a packaging slip
    (e.g. the module moving out of the ``repro`` namespace) would silently
    drop its docstring enforcement.  Pin the modules the parallel-runner
    PR added so that cannot happen unnoticed.
    """
    names = {module.__name__ for module in MODULES}
    assert {
        "repro.experiments.parallel",
        "repro.experiments.cache",
        "repro.experiments.runner",
        "repro.experiments.spec",
        "repro.experiments.faults",
        "repro.experiments.retry",
        "repro.service.sharding",
        "repro.service.sharding.partitioner",
        "repro.service.sharding.coordinator",
        "repro.service.connection",
        "repro.service.constraints",
        "repro.service.eager",
    } <= names


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_has_docstring(module):
    assert _doc_ok(module), f"{module.__name__} lacks a module docstring"


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_public_classes_and_functions_documented(module):
    undocumented = []
    for name, obj in vars(module).items():
        if name.startswith("_"):
            continue
        if inspect.isclass(obj) or inspect.isfunction(obj):
            if not _defined_here(obj, module):
                continue
            if not _doc_ok(obj):
                undocumented.append(f"{module.__name__}.{name}")
            if inspect.isclass(obj):
                for member_name, member in vars(obj).items():
                    if member_name.startswith("_"):
                        continue
                    if inspect.isfunction(member) and not _doc_ok(member):
                        undocumented.append(
                            f"{module.__name__}.{name}.{member_name}"
                        )
    assert not undocumented, f"missing docstrings: {undocumented}"
