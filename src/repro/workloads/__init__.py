"""Workloads: the paper's worked examples and a parametric generator.

* :mod:`repro.workloads.examples` — Examples 1, 3, 4, 5 from the paper,
  encoded with the arrival times and operation durations that reproduce
  Figures 1-5 (the reconstruction of the durations is documented in
  DESIGN.md §2);
* :mod:`repro.workloads.generator` — random periodic transaction sets over
  a synthetic database, parameterised by size, utilisation, and read/write
  mix, for the Section 9 schedulability experiments and the protocol
  comparison benchmarks.
"""

from repro import _lazy_surface

__getattr__, __dir__, __all__ = _lazy_surface(__name__, {
    "repro.workloads.examples": (
        "example1_taskset", "example3_taskset", "example4_taskset",
        "example5_taskset",
    ),
    "repro.workloads.generator": ("WorkloadConfig", "generate_taskset"),
    "repro.workloads.io": (
        "dump_taskset", "load_taskset", "taskset_from_dict", "taskset_to_dict",
    ),
    "repro.workloads.open_system": (
        "OpenSystemConfig", "generate_open_system", "offered_load",
    ),
    "repro.workloads.scenarios": ("all_scenarios",),
})
