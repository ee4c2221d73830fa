"""Transaction and task-set model.

This package defines the *static* description of a real-time database
workload, exactly as the paper's Section 5 assumes it:

* periodic transactions on a single processor,
* rate-monotonic priority assignment (shorter period = higher priority),
* deadline at the end of the period,
* each transaction is a fixed, declared sequence of read / write / compute
  operations, so read sets and write sets are known a priori — a
  prerequisite for computing priority ceilings.

Public names:

* :class:`~repro.model.spec.Operation` and the constructors
  :func:`~repro.model.spec.read`, :func:`~repro.model.spec.write`,
  :func:`~repro.model.spec.compute`
* :class:`~repro.model.spec.TransactionSpec`
* :class:`~repro.model.spec.TaskSet`
* :func:`~repro.model.priorities.assign_rate_monotonic`
* :data:`~repro.model.spec.DUMMY_PRIORITY`
"""

from repro import _lazy_surface

__getattr__, __dir__, __all__ = _lazy_surface(__name__, {
    "repro.model.spec": (
        "DUMMY_PRIORITY", "LockMode", "OpKind", "Operation", "TaskSet",
        "TransactionSpec", "compute", "read", "write",
    ),
    "repro.model.priorities": (
        "assign_deadline_monotonic", "assign_rate_monotonic",
    ),
    "repro.model.validation": ("validate_taskset",),
})
