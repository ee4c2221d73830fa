"""Execution tracing, timelines, figures, and metrics.

The simulator feeds a :class:`~repro.trace.recorder.TraceRecorder`; the rest
of this package turns the recorded events into the artifacts the paper
presents:

* :mod:`repro.trace.timeline` — per-transaction execution/blocked segments
  (the horizontal bars of Figures 1-5);
* :mod:`repro.trace.gantt` — an ASCII Gantt renderer that regenerates those
  figures in the terminal;
* :mod:`repro.trace.sysceil` — the ``Sysceil(t)`` step function (the dotted
  ``Max_Sysceil`` line in Figures 4 and 5);
* :mod:`repro.trace.metrics` — blocking times, response times, deadline
  misses, restarts.
"""

from repro import _lazy_surface

__getattr__, __dir__, __all__ = _lazy_surface(__name__, {
    "repro.trace.recorder": (
        "LockEvent", "LockOutcome", "SchedEvent", "SchedEventKind",
        "TraceRecorder",
    ),
    "repro.trace.timeline": ("Segment", "SegmentKind", "Timeline", "build_timeline"),
    "repro.trace.gantt": ("render_gantt", "render_gantt_comparison"),
    "repro.trace.metrics": (
        "JobMetrics", "RunMetrics", "compute_metrics", "priority_inversion_time",
    ),
    "repro.trace.sysceil": ("SysceilTrace",),
    "repro.trace.export": (
        "metrics_to_csv", "result_to_dict", "result_to_json",
        "segments_to_csv", "sysceil_to_csv",
    ),
    "repro.trace.compare": ("RunComparison", "compare_runs", "render_comparison"),
    "repro.trace.svg": ("render_svg_gantt",),
})
