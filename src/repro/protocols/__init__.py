"""Concurrency-control protocols: PCP-DA's comparators and variants.

Every protocol implements
:class:`repro.engine.interfaces.ConcurrencyControlProtocol` and registers
itself in the name registry, so simulations can be parameterised by a
string (``make_protocol("rw-pcp")``).

Implemented protocols:

========== =====================================================
name        protocol
========== =====================================================
pcp-da      the paper's contribution (:mod:`repro.core.pcp_da`)
rw-pcp      read/write priority ceiling protocol (Sha et al.)
ccp         convex ceiling protocol (Nakazato), early-unlock
pcp         the original single-ceiling, exclusive-lock PCP
pip-2pl     two-phase locking with basic priority inheritance
2pl-hp      two-phase locking with high-priority abort
2pl         plain two-phase locking (no priority management)
ipcp        immediate priority ceiling protocol (ceiling locking)
occ-bc      optimistic concurrency control, broadcast commit
rw-pcp-abort RW-PCP with high-priority abort instead of blocking
pcp-da-checked PCP-DA with the paper's Lemmas 1-6 asserted live
weak-pcp-da PCP-DA with only condition (2) — Example 5's deadlock
========== =====================================================
"""

from repro import _lazy_surface

__getattr__, __dir__, __all__ = _lazy_surface(__name__, {
    "repro.protocols.base": (
        "available_protocols", "make_protocol", "register_protocol",
    ),
    "repro.core.pcp_da": ("PCPDA",),
    "repro.protocols.rw_pcp": ("RWPCP",),
    "repro.protocols.ccp": ("CCP",),
    "repro.protocols.original_pcp": ("OriginalPCP",),
    "repro.protocols.pip_2pl": ("PIP2PL",),
    "repro.protocols.two_pl_hp": ("TwoPLHP",),
    "repro.protocols.plain_2pl": ("Plain2PL",),
    "repro.protocols.occ_bc": ("OCCBroadcastCommit",),
    "repro.protocols.rw_pcp_abort": ("RWPCPAbort",),
    "repro.protocols.ipcp": ("IPCP",),
    "repro.protocols.weak_pcp_da": ("WeakPCPDA",),
})
