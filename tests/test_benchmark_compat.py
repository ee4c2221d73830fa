"""The program keeps every name the end-to-end benchmark's tracer wraps.

``benchmarks/suite/tracer.py`` replaces each ``(owner, attribute)`` of
its ``TARGETS`` by a timing wrapper, read from ``owner.__dict__``: a
method renamed, moved to a base class or deleted makes every ``--trace
1`` run fail with a ``KeyError``.  The suite changes only in a benchmark
change of its own, so this test holds the program to its names.
"""

import importlib.util
import pathlib

TRACER = (
    pathlib.Path(__file__).resolve().parents[1]
    / "benchmarks" / "suite" / "tracer.py"
)


def _tracer_module():
    spec = importlib.util.spec_from_file_location("suite_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_attribute_is_defined_on_its_owner():
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attribute}"
        for owner, attribute, _, _ in _tracer_module().TARGETS
        if attribute not in owner.__dict__
    ]
    assert not missing, f"tracer targets not in their owner's __dict__: {missing}"


def test_ceiling_index_is_importable_from_the_lock_table_module():
    from repro.engine.lock_table import CeilingIndex

    assert "update" in CeilingIndex.__dict__
