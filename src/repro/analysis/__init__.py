"""Worst-case schedulability analysis (paper, Section 9).

* :mod:`repro.analysis.blocking` — blocking transaction sets ``BTS_i`` and
  worst-case blocking terms ``B_i`` for PCP-DA, RW-PCP, and the original
  PCP;
* :mod:`repro.analysis.rm_bound` — the rate-monotonic utilisation-bound
  schedulability condition with blocking;
* :mod:`repro.analysis.response_time` — exact response-time analysis
  (extension; tighter than the utilisation bound);
* :mod:`repro.analysis.breakdown` — breakdown-utilisation search;
* :mod:`repro.analysis.report` — side-by-side comparison tables.
"""

from repro import _lazy_surface

__getattr__, __dir__, __all__ = _lazy_surface(__name__, {
    "repro.analysis.blocking": (
        "blocking_term", "blocking_terms", "bts", "bts_original_pcp",
        "bts_pcp_da", "bts_rw_pcp",
    ),
    "repro.analysis.rm_bound": (
        "liu_layland_bound", "rm_schedulable", "rm_schedulable_detail",
    ),
    "repro.analysis.response_time": ("response_times", "rta_schedulable"),
    "repro.analysis.breakdown": ("breakdown_utilization",),
    "repro.analysis.report": ("schedulability_report",),
    "repro.analysis.critical_instant": (
        "critical_instant_phasings", "simulate_worst_responses",
    ),
    "repro.analysis.refined_blocking": (
        "refined_blocking_term", "refined_blocking_terms",
    ),
})
