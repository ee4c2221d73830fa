"""Verification oracles for the paper's theorems.

Each oracle takes a finished :class:`~repro.engine.simulator.SimulationResult`
and raises :class:`~repro.exceptions.InvariantViolation` (or
:class:`~repro.exceptions.SerializationViolation`) when the corresponding
property fails:

* Theorem 1 — single blocking: :func:`assert_single_blocking`;
* Theorem 2 — deadlock freedom: :func:`assert_deadlock_free`;
* Theorem 3 — serializability: :func:`assert_serializable`;
* PCP-DA's design goal — no restarts: :func:`assert_no_restarts`.

:func:`verify_pcp_da_run` bundles all four; the property-based tests run it
over thousands of random workloads.

Two harness modules build on the oracles (docs/TESTING.md):

* :mod:`repro.verify.parity` — decision-level parity: one seeded workload
  replayed sequentially through the simulator (both kernel modes), the
  in-process service, and the sharded coordinator must produce identical
  grant/block/abort decisions with identical rule strings;
* :mod:`repro.verify.stress` — invariant-level parity under true
  concurrency: overload traces with bursts and chaos knobs, checked for
  serializability, conservation, and abort attribution.
"""

from repro import _lazy_surface

__getattr__, __dir__, __all__ = _lazy_surface(__name__, {
    "repro.verify.invariants": (
        "assert_all_committed", "assert_deadlock_free", "assert_no_restarts",
        "assert_serializable", "assert_single_blocking",
        "lower_priority_blockers", "verify_pcp_da_run",
    ),
    "repro.verify.lemmas": ("LemmaCheckingPCPDA",),
    "repro.verify.parity": (
        "ParityError", "ParityReport", "check_decision_parity",
        "parity_battery",
    ),
    "repro.verify.stress": (
        "CEILING_FAMILY", "StressReport", "StressSpec", "run_stress",
        "simulator_stress_check",
    ),
    "repro.verify.value_replay": ("assert_value_replay_consistent",),
})
