"""Memory-resident database substrate.

The paper assumes "a single processor with a memory resident database".
This package provides:

* :class:`~repro.db.database.Database` — named data items holding versioned
  values, with both *update-in-workspace* (deferred install at commit) and
  *update-in-place* (immediate install) write paths, because PCP-DA uses the
  former while RW-PCP/CCP use the latter;
* :class:`~repro.db.history.History` — a recorder of committed reads and
  installed writes, sufficient to decide conflict serializability;
* :class:`~repro.db.serialization_graph.SerializationGraph` — ``SG(H)`` with
  cycle detection, used by Theorem 3's correctness check.
"""

from repro import _lazy_surface

__getattr__, __dir__, __all__ = _lazy_surface(__name__, {
    "repro.db.database": ("DataItem", "Database", "Version"),
    "repro.db.history": ("History", "HistoryEvent"),
    "repro.db.serialization_graph": ("SerializationGraph",),
    "repro.db.serializability": (
        "check_serializable", "check_serializable_fast", "serialization_order",
    ),
})
