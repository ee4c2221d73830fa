"""Array kernel: the table-driven integer fast path for lock admission.

See :mod:`repro.engine.kernel.core` for the engine,
:mod:`repro.engine.kernel.tables` for the compiled per-protocol tables,
:mod:`repro.engine.kernel.interning` for the id maps, and
docs/ENGINE.md ("Array kernel") for the design and the decision map.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.engine.kernel.core import Kernel
from repro.engine.kernel.interning import Interner
from repro.engine.kernel.tables import ProtocolTable

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.inheritance import WaitForGraph
    from repro.engine.interfaces import ConcurrencyControlProtocol
    from repro.engine.lock_table import LockTable

__all__ = ["Kernel", "Interner", "ProtocolTable", "build_kernel"]


def build_kernel(
    protocol: "ConcurrencyControlProtocol",
    lock_table: "LockTable",
    wait_graph: "Optional[WaitForGraph]" = None,
) -> Optional[Kernel]:
    """Compile ``protocol`` into a :class:`Kernel` bound to the run's lock
    table and wait graph, or ``None`` when the protocol keeps the object
    path (its ``compile_table()`` returns ``None``).

    Must be called after ``protocol.bind(...)`` — compilation flattens the
    bound task set's items and ceilings into the interned arrays.
    """
    table_spec = protocol.compile_table()
    if table_spec is None:
        return None
    return Kernel(table_spec, protocol.taskset, lock_table, wait_graph)
