"""repro — a reproduction of *"A Priority Ceiling Protocol with Dynamic
Adjustment of Serialization Order"* (Kwok-wa Lam, Sang H. Son, Sheung-lun
Hung; ICDE 1997).

The library implements the paper's protocol (**PCP-DA**), its published
comparators (RW-PCP, CCP, the original PCP, priority-inheritance 2PL,
2PL-HP, plain 2PL), a deterministic discrete-event simulator of a
single-processor hard real-time database system, the worst-case
schedulability analysis of Section 9, and the tooling that regenerates
every table and figure of the paper.

Quickstart::

    from repro import (
        PCPDA, SimConfig, Simulator, TransactionSpec,
        assign_by_order, compute, read, render_gantt, write,
    )

    t_high = TransactionSpec("T1", (read("x"), read("y")), period=5, offset=1)
    t_low = TransactionSpec("T2", (write("x"), compute(2.0), write("y", 2.0)))
    taskset = assign_by_order([t_high, t_low])        # first = highest priority

    result = Simulator(taskset, PCPDA(), SimConfig(horizon=11, max_instances=2)).run()
    print(render_gantt(result))    # the paper's Figure 2, in ASCII
    result.check_serializable()    # Theorem 3, checked on the actual history

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every experiment.
"""

import importlib
import sys
from typing import Callable, Dict, List, Tuple


def _lazy_surface(
    package: str, exports: Dict[str, Tuple[str, ...]]
) -> Tuple[Callable[[str], object], Callable[[], List[str]], List[str]]:
    """PEP 562 ``(__getattr__, __dir__, __all__)`` for a package's
    re-exports.

    ``exports`` maps a defining module to the names the package
    re-exports from it, and ``__all__`` is exactly those names, so each
    export is named once.  A name is imported on its first access and
    then stored in the package's globals, so later lookups never come
    back here; any other name resolves as a submodule
    (``repro.verify.parity``) or raises :class:`AttributeError`.  Every
    package ``__init__`` builds its surface with this, so importing a
    layer loads that layer and the layers below it, and nothing else.
    """
    namespace = sys.modules[package].__dict__
    home = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> object:
        if name in home:
            value = getattr(importlib.import_module(home[name]), name)
        else:
            try:
                value = importlib.import_module(f"{package}.{name}")
            except ModuleNotFoundError as exc:
                if exc.name != f"{package}.{name}":
                    raise
                raise AttributeError(
                    f"module {package!r} has no attribute {name!r}"
                ) from None
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(namespace.keys() | home.keys())

    return __getattr__, __dir__, sorted(home)


__getattr__, __dir__, __all__ = _lazy_surface(__name__, {
    "repro.core.ceilings": ("CeilingTable",),
    "repro.core.compatibility": ("compatibility_table", "lock_compatible"),
    "repro.core.pcp_da": ("PCPDA",),
    "repro.db.database": ("Database",),
    "repro.db.history": ("History",),
    "repro.db.serializability": ("check_serializable", "serialization_order"),
    "repro.engine.simulator": ("SimConfig", "SimulationResult", "Simulator"),
    "repro.exceptions": (
        "DeadlockError", "InvariantViolation", "ProtocolError", "ReproError",
        "SerializationViolation", "SimulationError", "SpecificationError",
    ),
    "repro.model.spec": (
        "DUMMY_PRIORITY", "LockMode", "OpKind", "Operation", "TaskSet",
        "TransactionSpec", "compute", "read", "write",
    ),
    "repro.model.priorities": ("assign_by_order", "assign_rate_monotonic"),
    "repro.protocols.base": ("available_protocols", "make_protocol"),
    "repro.protocols.ccp": ("CCP",),
    "repro.protocols.original_pcp": ("OriginalPCP",),
    "repro.protocols.pip_2pl": ("PIP2PL",),
    "repro.protocols.plain_2pl": ("Plain2PL",),
    "repro.protocols.rw_pcp": ("RWPCP",),
    "repro.protocols.two_pl_hp": ("TwoPLHP",),
    "repro.protocols.weak_pcp_da": ("WeakPCPDA",),
    "repro.trace.gantt": ("render_gantt",),
    "repro.trace.metrics": ("compute_metrics",),
    "repro.trace.sysceil": ("SysceilTrace",),
    "repro.trace.timeline": ("build_timeline",),
    "repro.verify.invariants": (
        "assert_deadlock_free", "assert_serializable",
        "assert_single_blocking", "verify_pcp_da_run",
    ),
    "repro.verify.lemmas": ("LemmaCheckingPCPDA",),
    "repro.workloads.examples": (
        "example1_taskset", "example3_taskset", "example4_taskset",
        "example5_taskset",
    ),
    "repro.workloads.generator": ("WorkloadConfig", "generate_taskset"),
})

__version__ = "1.0.0"
