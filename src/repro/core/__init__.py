"""The paper's contribution: PCP-DA and its building blocks.

* :class:`~repro.core.ceilings.CeilingTable` — static priority ceilings
  (``Wceil``, ``Aceil``, ``HPW``) derived from a task set's declared read
  and write sets;
* :mod:`repro.core.compatibility` — the paper's Table 1 (lock compatibility
  under dynamic adjustment of serialization order);
* :mod:`repro.core.locking_conditions` — LC1..LC4 as inspectable
  predicates, shared by the protocol and the tests;
* :class:`~repro.core.pcp_da.PCPDA` — the protocol itself.
"""

from repro import _lazy_surface

__getattr__, __dir__, __all__ = _lazy_surface(__name__, {
    "repro.core.ceilings": ("CeilingTable",),
    "repro.core.compatibility": (
        "CompatibilityDecision", "compatibility_table", "lock_compatible",
    ),
    "repro.core.locking_conditions": ("ConditionReport", "evaluate_conditions"),
    "repro.core.pcp_da": ("PCPDA",),
})
