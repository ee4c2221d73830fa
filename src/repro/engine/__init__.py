"""Discrete-event simulation engine for a single-processor hard RTDBS.

This package is the substrate the paper's evaluation runs on: a
deterministic discrete-event simulator of a single CPU with preemptive
fixed-priority scheduling, priority inheritance, a lock manager, and
private per-transaction workspaces (the update-in-workspace model of
Section 4).  Concurrency-control protocols plug in through
:class:`~repro.engine.interfaces.ConcurrencyControlProtocol`.

Public names:

* :class:`~repro.engine.simulator.Simulator` and
  :class:`~repro.engine.simulator.SimulationResult`
* :class:`~repro.engine.simulator.SimConfig`
* :class:`~repro.engine.job.Job` / :class:`~repro.engine.job.JobState`
* :class:`~repro.engine.lock_table.LockTable`
* the protocol decision types
  :class:`~repro.engine.interfaces.Grant`,
  :class:`~repro.engine.interfaces.Deny`,
  :class:`~repro.engine.interfaces.AbortAndGrant`
"""

from repro import _lazy_surface

__getattr__, __dir__, __all__ = _lazy_surface(__name__, {
    "repro.engine.interfaces": (
        "AbortAndGrant", "ConcurrencyControlProtocol", "Deny", "Grant",
        "InstallPolicy",
    ),
    "repro.engine.job": ("Job", "JobState"),
    "repro.engine.lock_table": ("LockTable",),
    "repro.engine.simulator": ("SimConfig", "SimulationResult", "Simulator"),
})
