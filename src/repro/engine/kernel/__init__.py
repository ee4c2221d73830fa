"""Array kernel: the table-driven integer fast path for lock admission.

See :mod:`repro.engine.kernel.core` for the engine,
:mod:`repro.engine.kernel.tables` for the compiled per-protocol tables,
:mod:`repro.engine.kernel.interning` for the id maps, and
docs/ENGINE.md ("Array kernel") for the design and the decision map.
"""

from repro import _lazy_surface

__getattr__, __dir__, __all__ = _lazy_surface(__name__, {
    "repro.engine.kernel.core": ("Kernel", "build_kernel"),
    "repro.engine.kernel.interning": ("Interner",),
    "repro.engine.kernel.tables": ("ProtocolTable",),
})
