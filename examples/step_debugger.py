#!/usr/bin/env python
"""Step through the paper's Example 4 and watch the protocol think.

Uses the simulator's stepping API (`start` / `advance` / `finalize`) to
pause at each integer instant of Example 4 under PCP-DA and print:

* who runs, who is ready, who is blocked (and on whom),
* the lock table (item -> holders and modes),
* the live system ceiling and T* — the quantities LC2/LC3/LC4 consult.

Follow along with Section 6's narration: the LC4 grant at t=1, T4's
write lock at t=3 raising no ceiling, T1 reading the write-locked x at
t=4, and the ceiling collapsing to dummy at t=9.

Run:  python examples/step_debugger.py [--protocol rw-pcp]
"""

import argparse

from repro import DUMMY_PRIORITY, Simulator, make_protocol
from repro.engine.job import JobState
from repro.workloads.examples import example4_taskset


def snapshot(sim: Simulator, now: float) -> str:
    lines = [f"--- t = {now:g} ---"]

    for job in sorted(sim.jobs, key=lambda j: j.name):
        if not job.state.active:
            status = f"committed at {job.finish_time:g}"
        elif job.state is JobState.BLOCKED:
            blockers = ", ".join(
                b.name for b in sim.waits.blockers_of(job)
            )
            wait = job.block_intervals[-1]  # the open one
            status = (f"BLOCKED on {wait.mode.value}-lock({wait.item}) "
                      f"by {blockers}")
        else:
            status = job.state.value
            if job.running_priority != job.base_priority:
                status += f" (inherited priority {job.running_priority})"
        lines.append(f"  {job.name:<6} {status}")

    held = {}
    for job in sim.jobs:
        for item, modes in sim.table.items_held_by(job).items():
            held.setdefault(item, []).append(
                f"{job.name}:{'+'.join(sorted(m.value for m in modes))}"
            )
    locks = "; ".join(
        f"{item} -> {', '.join(holders)}" for item, holders in sorted(held.items())
    )
    lines.append(f"  locks: {locks or '(none)'}")

    ceiling = sim.protocol.system_ceiling(None)
    lines.append(
        "  Sysceil: "
        + ("dummy" if ceiling == DUMMY_PRIORITY else f"P={ceiling}")
    )
    return "\n".join(lines)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--protocol", default="pcp-da")
    args = parser.parse_args()

    sim = Simulator(example4_taskset(), make_protocol(args.protocol))
    sim.start()
    for t in range(0, 12):
        sim.advance(until=float(t))
        print(snapshot(sim, float(t)))
    sim.advance()
    result = sim.finalize()
    print("\nfinal commits:", {
        j.name: j.finish_time for j in sorted(result.jobs, key=lambda j: j.name)
    })
    result.check_serializable()
    print("history is serializable.")


if __name__ == "__main__":
    main()
