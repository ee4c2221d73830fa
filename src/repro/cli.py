"""Command-line interface: ``python -m repro`` or the ``repro`` script.

Subcommands:

* ``repro examples`` — run the paper's worked examples under PCP-DA and
  RW-PCP and print the Gantt charts (Figures 1-5);
* ``repro table1`` — print the lock-compatibility table (Table 1);
* ``repro schedulability`` — Section 9 analysis on a random workload;
* ``repro compare`` — simulate one random workload under every protocol
  and print the metric comparison;
* ``repro protocols`` — list registered protocols;
* ``repro serve`` — serve a lock-manager catalog to concurrent TCP
  clients (NDJSON protocol, see docs/SERVICE.md);
* ``repro loadgen`` — drive a service with concurrent clients and verify
  the run's serializability from its shipped history;
* ``repro stress`` — the heavy-traffic parity harness: one seeded
  workload through every execution path (simulator kernel/object,
  service, sharded coordinator), decision-level parity sequentially and
  invariant-level parity under overload (docs/TESTING.md).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.analysis.report import schedulability_report
from repro.core.compatibility import render_compatibility_table
from repro.engine.simulator import SimConfig, Simulator
from repro.protocols import available_protocols, make_protocol
from repro.trace.gantt import render_gantt
from repro.trace.metrics import compute_metrics
from repro.trace.sysceil import SysceilTrace
from repro.workloads.examples import (
    example1_taskset,
    example3_taskset,
    example4_taskset,
    example5_taskset,
)
from repro.workloads.generator import WorkloadConfig, generate_taskset


def _cmd_examples(args: argparse.Namespace) -> int:
    runs = [
        ("Example 1 (Figure 1)", example1_taskset(), None),
        ("Example 3 (Figures 2/3)", example3_taskset(),
         SimConfig(horizon=11, max_instances=2)),
        ("Example 4 (Figures 4/5)", example4_taskset(), None),
    ]
    for title, taskset, config in runs:
        for protocol_name in ("pcp-da", "rw-pcp"):
            result = Simulator(
                taskset, make_protocol(protocol_name), config
            ).run()
            print(f"=== {title} under {protocol_name} ===")
            print(render_gantt(result))
            print(SysceilTrace.from_result(result).render())
            metrics = compute_metrics(result)
            for jm in sorted(metrics.jobs, key=lambda m: m.job):
                print(
                    f"  {jm.job}: finish={jm.finish}, "
                    f"blocked={jm.blocking_time:g}, miss={jm.missed_deadline}"
                )
            print()
    # Example 5: the deadlock demonstration.
    result = Simulator(
        example5_taskset(),
        make_protocol("weak-pcp-da"),
        SimConfig(deadlock_action="halt"),
    ).run()
    print("=== Example 5 under weak-pcp-da (conditions (1)/(2) only) ===")
    assert result.deadlock is not None
    print(
        f"deadlock at t={result.deadlock.time:g}: "
        f"{' -> '.join(result.deadlock.cycle)}"
    )
    result = Simulator(example5_taskset(), make_protocol("pcp-da")).run()
    print("=== Example 5 under pcp-da ===")
    print(render_gantt(result))
    return 0


def _cmd_table1(args: argparse.Namespace) -> int:
    print(render_compatibility_table())
    return 0


def _workload_from_args(args: argparse.Namespace) -> WorkloadConfig:
    return WorkloadConfig(
        n_transactions=args.transactions,
        n_items=args.items,
        write_probability=args.write_probability,
        target_utilization=args.utilization,
        seed=args.seed,
    )


def _cmd_schedulability(args: argparse.Namespace) -> int:
    taskset = generate_taskset(_workload_from_args(args))
    print(taskset.describe())
    print()
    print(schedulability_report(taskset).render())
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    taskset = generate_taskset(_workload_from_args(args))
    print(taskset.describe())
    print()
    print(
        f"{'protocol':<13} {'blocked':>9} {'miss%':>7} "
        f"{'restarts':>9} {'maxceil':>8}"
    )
    names = (
        "pcp-da", "rw-pcp", "ccp", "pcp", "pip-2pl", "2pl-hp", "2pl",
        "occ-bc", "rw-pcp-abort",
    )
    for name in names:
        config = SimConfig(deadlock_action="abort_lowest")
        result = Simulator(taskset, make_protocol(name), config).run()
        metrics = compute_metrics(result)
        print(
            f"{name:<13} {metrics.total_blocking_time:>9.2f} "
            f"{100 * metrics.miss_ratio:>6.1f}% "
            f"{metrics.total_restarts:>9} {metrics.max_sysceil:>8}"
        )
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    """Simulate one paper example and write the trace as JSON/CSV files."""
    import pathlib

    from repro.trace.export import (
        metrics_to_csv,
        result_to_json,
        segments_to_csv,
        sysceil_to_csv,
    )
    from repro.workloads.examples import (
        example1_taskset,
        example3_taskset,
        example4_taskset,
    )

    builders = {
        "example1": (example1_taskset, None),
        "example3": (example3_taskset, SimConfig(horizon=11, max_instances=2)),
        "example4": (example4_taskset, None),
    }
    try:
        build, config = builders[args.example]
    except KeyError:
        print(f"unknown example {args.example!r}; choose from {sorted(builders)}")
        return 2
    result = Simulator(build(), make_protocol(args.protocol), config).run()
    out = pathlib.Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    stem = f"{args.example}_{args.protocol}"
    from repro.trace.svg import render_svg_gantt

    (out / f"{stem}.json").write_text(result_to_json(result))
    (out / f"{stem}_segments.csv").write_text(segments_to_csv(result))
    (out / f"{stem}_sysceil.csv").write_text(sysceil_to_csv(result))
    (out / f"{stem}_metrics.csv").write_text(metrics_to_csv(result))
    (out / f"{stem}.svg").write_text(
        render_svg_gantt(result, title=f"{args.example} under {args.protocol}")
    )
    print(f"wrote {stem}.json, {stem}.svg and 3 CSV series to {out}/")
    return 0


def _cmd_protocols(args: argparse.Namespace) -> int:
    for name in available_protocols():
        print(name)
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    """Simulate a user-supplied task-set file and print the outcome."""
    from repro.trace.sysceil import SysceilTrace
    from repro.workloads.io import load_taskset

    taskset = load_taskset(args.taskset)
    print(taskset.describe())
    print()
    config = SimConfig(
        horizon=args.horizon,
        on_miss="abort" if args.firm else "record",
        deadlock_action="abort_lowest",
    )
    result = Simulator(taskset, make_protocol(args.protocol), config).run()
    print(render_gantt(result))
    print(SysceilTrace.from_result(result).render())
    metrics = compute_metrics(result)
    for jm in sorted(metrics.jobs, key=lambda m: (m.transaction, m.arrival)):
        status = "MISSED" if jm.missed_deadline else "ok"
        finish = f"{jm.finish:g}" if jm.finish is not None else "-"
        print(
            f"  {jm.job}: finish={finish} blocked={jm.blocking_time:g} "
            f"restarts={jm.restarts} deadline {status}"
        )
    result.check_serializable()
    print(
        f"\n{metrics.committed_jobs}/{metrics.total_jobs} committed, "
        f"{metrics.missed_jobs} missed, total blocking "
        f"{metrics.total_blocking_time:g}; history is serializable"
    )
    return 0


def _cmd_reproduce(args: argparse.Namespace) -> int:
    if getattr(args, "profile", False):
        import cProfile
        import pstats

        if args.jobs > 1:
            print(
                "--profile measures only this process; use --jobs 1 for a "
                "complete picture (continuing anyway)",
                file=sys.stderr,
            )
        # cProfile.enable() clobbers whatever profile function was already
        # installed (coverage tools, an outer profiler), and disable() resets
        # it to None rather than to what was there before — so remember the
        # incumbent and reinstall it on every exit path, including when the
        # run itself raises.
        previous_profiler = sys.getprofile()
        profiler = cProfile.Profile()
        profiler.enable()
        try:
            return _run_reproduce(args)
        finally:
            profiler.disable()
            try:
                print(
                    "\n--- cProfile: hottest functions (by cumulative time) ---",
                    file=sys.stderr,
                )
                # Stats() snapshots via create_stats(), which calls
                # disable() — clearing the profile hook again — so the
                # incumbent can only be reinstalled after the report.
                stats = pstats.Stats(profiler, stream=sys.stderr)
                stats.sort_stats("cumulative").print_stats(25)
            except Exception as exc:  # the report must never mask the run
                print(f"(profile report failed: {exc})", file=sys.stderr)
            finally:
                sys.setprofile(previous_profiler)
    return _run_reproduce(args)


def _service_manager(taskset, protocol, config, shards, partitioner):
    """A plain or sharded lock manager, depending on ``--shards``."""
    from repro.service import LockManager, ShardedLockManager

    if shards > 1:
        return ShardedLockManager(
            taskset, protocol, config, shards=shards, partitioner=partitioner
        )
    return LockManager(taskset, protocol, config)


def _cmd_serve(args: argparse.Namespace) -> int:
    """Serve a generated catalog over TCP until interrupted."""
    import asyncio

    from repro.service import LockServer, ServiceConfig

    taskset = generate_taskset(_workload_from_args(args))
    config = ServiceConfig(
        max_sessions=args.max_sessions,
        default_deadline_s=args.deadline,
    )

    async def run() -> int:
        supervisor = None
        if args.shard_procs > 1:
            from repro.service.sharding.procs import start_proc_deployment

            supervisor, manager = await start_proc_deployment(
                taskset,
                args.protocol,
                shards=args.shard_procs,
                config=config,
                partitioner=args.partitioner,
                on_crash=args.on_crash,
            )
            sharding = (
                f", {args.shard_procs} shard processes ({args.partitioner})"
            )
        else:
            manager = _service_manager(
                taskset, args.protocol, config, args.shards, args.partitioner
            )
            sharding = (
                f", {args.shards} shards ({args.partitioner})"
                if args.shards > 1 else ""
            )
        server = LockServer(manager, args.host, args.port)
        await server.start()
        print(
            f"repro-service listening on {server.host}:{server.port} "
            f"(protocol={args.protocol}, "
            f"{len(taskset.names)} transactions, "
            f"{len(taskset.items)} items{sharding})",
            flush=True,
        )
        try:
            if supervisor is None:
                await server.serve_forever()
                return 0
            # Multi-process mode: serve until interrupted OR the
            # deployment fails (a shard host died under on_crash=fail).
            serving = asyncio.ensure_future(server.serve_forever())
            crashed = asyncio.ensure_future(supervisor.crashed.wait())
            try:
                await asyncio.wait(
                    (serving, crashed),
                    return_when=asyncio.FIRST_COMPLETED,
                )
            finally:
                for task in (serving, crashed):
                    task.cancel()
                await asyncio.gather(serving, crashed,
                                     return_exceptions=True)
            if supervisor.failed is not None:
                print(f"deployment failed: {supervisor.failed}",
                      file=sys.stderr)
                return 1
            return 0
        finally:
            await server.close()
            if supervisor is not None:
                await supervisor.stop()

    try:
        return asyncio.run(run())
    except KeyboardInterrupt:
        print("interrupted; shutting down", file=sys.stderr)
    return 0


def _cmd_shard_host(args: argparse.Namespace) -> int:
    """Run one shard host (normally spawned by the supervisor)."""
    from repro.service.sharding.procs.host import run_shard_host
    import asyncio

    try:
        return asyncio.run(run_shard_host(args))
    except KeyboardInterrupt:
        return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    """Drive a lock-manager service and print the latency/oracle report."""
    import asyncio

    from repro.service import (
        LoadgenConfig,
        LockServer,
        ServiceConfig,
        connect_tcp,
        run_loadgen,
    )

    config = LoadgenConfig(
        clients=args.clients,
        transactions_per_client=args.per_client,
        duration_s=args.duration,
        think_time_s=args.think_time,
        arrival_rate_hz=args.arrival_rate,
        burst_factor=args.burst_factor,
        burst_period_s=args.burst_period,
        burst_duty=args.burst_duty,
        deadline_s=args.deadline,
        seed=args.seed,
        abort_probability=args.abort_probability,
    )

    async def run():
        server = None
        supervisor = None
        if args.connect:
            host, _, port_text = args.connect.rpartition(":")
            if not host or not port_text.isdigit():
                raise SystemExit(f"--connect expects HOST:PORT, got {args.connect!r}")
            host, port = host, int(port_text)
        else:
            # Self-hosting mode: stand up the same TCP server `repro serve`
            # runs, on an ephemeral loopback port — still real sockets.
            taskset = generate_taskset(WorkloadConfig(
                n_transactions=args.transactions,
                n_items=args.items,
                write_probability=args.write_probability,
                target_utilization=args.utilization,
                seed=args.workload_seed,
            ))
            service_config = ServiceConfig(max_sessions=args.max_sessions)
            if args.shard_procs > 1:
                from repro.service.sharding.procs import (
                    start_proc_deployment,
                )

                supervisor, manager = await start_proc_deployment(
                    taskset,
                    args.protocol,
                    shards=args.shard_procs,
                    config=service_config,
                    partitioner=args.partitioner,
                )
            else:
                manager = _service_manager(
                    taskset,
                    args.protocol,
                    service_config,
                    args.shards,
                    args.partitioner,
                )
            server = LockServer(manager, "127.0.0.1", 0)
            await server.start()
            host, port = server.host, server.port
        try:
            return await run_loadgen(config, lambda: connect_tcp(host, port))
        finally:
            if server is not None:
                await server.close()
            if supervisor is not None:
                await supervisor.stop()

    report = asyncio.run(run())
    print(report.render())
    return 0 if report.serializable else 1


def _cmd_stress(args: argparse.Namespace) -> int:
    """Run the parity + overload stress harness and gate on its verdicts.

    Three phases (docs/TESTING.md):

    1. **decision parity** — a battery of seeded workloads replayed
       sequentially through the simulator (both kernel modes), the
       in-process service, and the sharded coordinator; every execution
       must make identical decisions with identical rule strings;
    2. **simulator oracle** — a bounded prefix of the overload schedule
       in virtual time: kernel/object byte-identity plus the Theorem 1–3
       oracles;
    3. **concurrent overload** — the full arrival schedule against live
       deployments (each ``--shards`` entry), checked for
       serializability, conservation, and abort attribution.

    Exits non-zero when any phase fails.  ``--ledger`` appends one
    ``repro-bench/1`` trend row per concurrent run.
    """
    import asyncio

    from repro.verify.parity import ParityError, parity_battery
    from repro.verify.stress import (
        StressSpec,
        append_trend_rows,
        run_stress,
        simulator_stress_check,
    )

    if args.smoke:
        transactions = 400
        parity_seeds = range(2)
        parity_transactions = 10
        sim_limit = 150
        # 1 vs 4 shards so the smoke ledger feeds the shard-scaling gate
        # (make stress-smoke fails when 4-shard loses to 1-shard).
        shard_counts = [1, 4]
        # The gate compares *sustained* committed throughput, so the
        # smoke's offered load must sit inside every deployment's
        # capacity: at a burst peak of 4 x 600 = 2,400 arrivals/s both
        # deployments keep pace and the ratio catches coordination
        # regressions (a polling coordinator parks waiters for whole
        # failsafe periods and craters the multi-shard wall) instead of
        # re-litigating peak capacity, which a single event loop decides
        # in the 1-shard deployment's favor by construction — see
        # docs/PERFORMANCE.md.  The full `repro stress` run keeps the
        # genuine overload profile.
        overload = 1.0
        arrival_hz = 600.0
    else:
        transactions = args.transactions
        parity_seeds = range(args.parity_seeds)
        parity_transactions = args.parity_transactions
        sim_limit = args.sim_limit
        shard_counts = [int(s) for s in args.shards.split(",") if s]
        overload = args.overload
        arrival_hz = args.arrival_rate

    spec = StressSpec(
        seed=args.seed,
        transactions=transactions,
        overload=overload,
        arrival_rate_hz=arrival_hz,
        burst_factor=args.burst_factor,
        burst_period_s=args.burst_period,
        burst_duty=args.burst_duty,
        abort_probability=args.abort_probability,
    )
    failed = False

    if not args.skip_parity:
        try:
            reports = parity_battery(
                seeds=parity_seeds,
                transactions=parity_transactions,
                coordinator_shards=args.parity_shards,
            )
        except ParityError as exc:
            print(f"decision parity: FAIL — {exc}")
            failed = True
        else:
            decisions = sum(r.decisions for r in reports)
            print(
                f"decision parity: OK — {len(reports)} workload×protocol "
                f"cases, {decisions} decisions, 4 executions each "
                f"(coordinator at {args.parity_shards} shard(s))"
            )

    try:
        result = simulator_stress_check(
            spec, args.protocol, limit=sim_limit
        )
    except Exception as exc:  # oracle violations are terse; show them all
        print(f"simulator oracle: FAIL — {exc}")
        failed = True
    else:
        print(
            f"simulator oracle: OK — {len(result.jobs)} jobs in virtual "
            "time, kernel/object byte-identical, Theorem 1-3 oracles pass"
        )

    # One cap for every deployment shape: the event-driven
    # coordinator holds up under hundreds of live sessions, so
    # multi-shard runs no longer need a protective lower default.
    max_sessions = args.max_sessions
    if max_sessions is None:
        max_sessions = 512

    rows = []
    for shards in shard_counts:
        report = asyncio.run(run_stress(
            spec,
            args.protocol,
            shards=shards,
            partitioner=args.partitioner,
            max_sessions=max_sessions,
        ))
        print(report.render())
        if report.ok:
            rows.append(report.trend_row())
        else:
            failed = True

    proc_counts = [
        int(s) for s in (args.shard_procs or "").split(",") if s
    ]
    for procs in proc_counts:
        report = asyncio.run(run_stress(
            spec,
            args.protocol,
            partitioner=args.partitioner,
            max_sessions=max_sessions,
            shard_procs=procs,
        ))
        print(report.render())
        if report.ok:
            rows.append(report.trend_row())
        else:
            failed = True

    if args.ledger and rows:
        doc = append_trend_rows(args.ledger, rows)
        print(
            f"appended {len(rows)} trend row(s) to {args.ledger} "
            f"({len(doc['results'])} total)"
        )
    return 1 if failed else 0


def _run_reproduce(args: argparse.Namespace) -> int:
    from repro.exceptions import FaultSpecError, SweepResumeError
    from repro.experiments import (
        FaultPlan,
        ResultCache,
        RetryPolicy,
        render_summary,
        run_all,
    )

    if args.retries < 0:
        print(f"--retries must be >= 0 (got {args.retries})", file=sys.stderr)
        return 2
    if args.job_timeout is not None and args.job_timeout <= 0:
        print(f"--job-timeout must be positive seconds (got {args.job_timeout:g})",
              file=sys.stderr)
        return 2
    if args.resume and args.no_cache:
        print("--resume needs the on-disk result cache; drop --no-cache",
              file=sys.stderr)
        return 2
    fault_plan = None
    if args.inject_faults:
        try:
            fault_plan = FaultPlan.parse(args.inject_faults)
        except FaultSpecError as exc:
            print(f"invalid --inject-faults spec: {exc}", file=sys.stderr)
            return 2
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    if cache is not None:
        try:
            cache.ensure_writable()
        except OSError as exc:
            print(f"cache directory {cache.root} is unusable: {exc}; "
                  "pass --no-cache or a writable --cache-dir", file=sys.stderr)
            return 2
    stats_out: list = []
    try:
        reports = run_all(
            extended=args.extended,
            jobs=args.jobs,
            cache=cache,
            progress=args.jobs > 1,
            stats_out=stats_out,
            retry=RetryPolicy(
                max_retries=args.retries, job_timeout=args.job_timeout
            ),
            fault_plan=fault_plan,
            resume=args.resume,
        )
    except SweepResumeError as exc:
        print(f"cannot resume: {exc}", file=sys.stderr)
        return 2
    except FaultSpecError as exc:
        print(f"invalid --inject-faults spec: {exc}", file=sys.stderr)
        return 2
    print(render_summary(reports, verbose=args.verbose))
    if stats_out:
        print(stats_out[-1].render(), file=sys.stderr)
    return 0 if all(r.passed for r in reports) else 1


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for every subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'A Priority Ceiling Protocol with Dynamic "
            "Adjustment of Serialization Order' (Lam, Son, Hung; ICDE 1997)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("examples", help="run the paper's worked examples").set_defaults(
        func=_cmd_examples
    )
    sub.add_parser("table1", help="print the Table 1 compatibility matrix").set_defaults(
        func=_cmd_table1
    )
    sub.add_parser("protocols", help="list registered protocols").set_defaults(
        func=_cmd_protocols
    )

    for name, func, help_text in (
        ("schedulability", _cmd_schedulability, "Section 9 analysis on a random set"),
        ("compare", _cmd_compare, "simulate one workload under every protocol"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--transactions", type=int, default=6)
        p.add_argument("--items", type=int, default=12)
        p.add_argument("--write-probability", type=float, default=0.3)
        p.add_argument("--utilization", type=float, default=0.5)
        p.add_argument("--seed", type=int, default=0)
        p.set_defaults(func=func)

    export = sub.add_parser(
        "export", help="write a paper example's trace as JSON + CSV series"
    )
    export.add_argument("example", choices=["example1", "example3", "example4"])
    export.add_argument("--protocol", default="pcp-da")
    export.add_argument("--output-dir", default="traces")
    export.set_defaults(func=_cmd_export)

    simulate = sub.add_parser(
        "simulate", help="simulate a task set defined in a JSON file"
    )
    simulate.add_argument("taskset", help="path to a task-set JSON document")
    simulate.add_argument("--protocol", default="pcp-da")
    simulate.add_argument("--horizon", type=float, default=None)
    simulate.add_argument(
        "--firm", action="store_true",
        help="drop jobs at their deadlines (on_miss='abort')",
    )
    simulate.set_defaults(func=_cmd_simulate)

    reproduce = sub.add_parser(
        "reproduce",
        help="run the full paper-vs-measured ledger (every table and figure)",
    )
    reproduce.add_argument(
        "-v", "--verbose", action="store_true",
        help="print every check and the regenerated artifacts",
    )
    reproduce.add_argument(
        "--extended", action="store_true",
        help="also run the extension experiments (overload, open system, "
             "ablation, refined analysis)",
    )
    reproduce.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="fan independent experiments across N worker processes "
             "(output is byte-identical for every N)",
    )
    reproduce.add_argument(
        "--no-cache", action="store_true",
        help="recompute every experiment instead of consulting the "
             "on-disk result cache",
    )
    reproduce.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="result-cache root (default: $REPRO_CACHE_DIR or "
             "~/.cache/repro)",
    )
    reproduce.add_argument(
        "--retries", type=int, default=2, metavar="N",
        help="resubmissions allowed per job after a crash, hang, or "
             "transient failure (default 2; 0 = fail fast)",
    )
    reproduce.add_argument(
        "--job-timeout", type=float, default=None, metavar="SECONDS",
        help="abandon and retry any single job attempt running longer "
             "than this (default: no timeout)",
    )
    reproduce.add_argument(
        "--resume", action="store_true",
        help="resume an interrupted sweep from the manifest journaled "
             "next to the cache, recomputing only unfinished jobs",
    )
    reproduce.add_argument(
        "--inject-faults", default=None, metavar="SPEC",
        help="deterministically inject faults for testing, e.g. "
             "'flaky:table1@2,crash:figure3' or 'random:7:3' "
             "(kinds: crash, hang, flaky, corrupt; see docs/RELIABILITY.md)",
    )
    reproduce.add_argument(
        "--profile", action="store_true",
        help="run under cProfile and print the hottest functions to "
             "stderr (cumulative time; single-process runs only)",
    )
    reproduce.set_defaults(func=_cmd_reproduce)

    def add_workload_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--transactions", type=int, default=6,
                       help="catalog size (generated workload)")
        p.add_argument("--items", type=int, default=12)
        p.add_argument("--write-probability", type=float, default=0.3)
        p.add_argument("--utilization", type=float, default=0.5)

    serve = sub.add_parser(
        "serve",
        help="serve a lock-manager catalog to TCP clients (NDJSON protocol)",
    )
    serve.add_argument("--protocol", default="pcp-da")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0,
                       help="TCP port (0 = ephemeral, printed at startup)")
    add_workload_args(serve)
    serve.add_argument("--seed", type=int, default=0,
                       help="workload-generator seed for the catalog")
    serve.add_argument("--shards", type=int, default=1,
                       help="partition the item space across N shard lock "
                            "managers behind one coordinator (default 1: "
                            "unsharded)")
    serve.add_argument("--partitioner", default="hash",
                       choices=("hash", "range"),
                       help="item-to-shard mapping scheme (with --shards > 1)")
    serve.add_argument("--shard-procs", type=int, default=1,
                       help="run N shards as separate shard-host OS "
                            "processes behind the coordinator (default 1: "
                            "in-process; overrides --shards)")
    serve.add_argument("--on-crash", default="fail",
                       choices=("fail", "restart"),
                       help="shard-host crash policy with --shard-procs: "
                            "fail the deployment fast, or restart the "
                            "shard empty after aborting affected "
                            "transactions")
    serve.add_argument("--max-sessions", type=int, default=None,
                       help="admission-control cap on live sessions")
    serve.add_argument("--deadline", type=float, default=None, metavar="S",
                       help="default relative deadline for sessions")
    serve.set_defaults(func=_cmd_serve)

    loadgen = sub.add_parser(
        "loadgen",
        help="load-generate against a service and verify serializability",
    )
    loadgen.add_argument("--protocol", default="pcp-da",
                         help="protocol for the self-hosted server "
                              "(ignored with --connect)")
    loadgen.add_argument("--connect", default=None, metavar="HOST:PORT",
                         help="target a running `repro serve` instead of "
                              "self-hosting one")
    loadgen.add_argument("--clients", type=int, default=8)
    loadgen.add_argument("--per-client", type=int, default=25, metavar="N",
                         help="transactions per client (closed-loop budget)")
    loadgen.add_argument("--duration", type=float, default=None, metavar="S",
                         help="wall-clock cap for the run")
    loadgen.add_argument("--think-time", type=float, default=0.0, metavar="S",
                         help="mean closed-loop think time between "
                              "transactions")
    loadgen.add_argument("--arrival-rate", type=float, default=None,
                         metavar="HZ",
                         help="switch to the open loop: per-client "
                              "transaction start rate")
    loadgen.add_argument("--burst-factor", type=float, default=1.0,
                         help="open-loop burst multiplier (square-wave "
                              "arrival bursts; 1.0 = steady)")
    loadgen.add_argument("--burst-period", type=float, default=0.5,
                         metavar="S", help="length of one burst cycle")
    loadgen.add_argument("--burst-duty", type=float, default=0.25,
                         help="fraction of each cycle at the bursty rate")
    loadgen.add_argument("--deadline", type=float, default=None, metavar="S",
                         help="per-session relative deadline")
    loadgen.add_argument("--abort-probability", type=float, default=0.0,
                         help="chance a client deliberately aborts")
    loadgen.add_argument("--seed", type=int, default=0,
                         help="loadgen RNG seed")
    add_workload_args(loadgen)
    loadgen.add_argument("--workload-seed", type=int, default=0,
                         help="workload-generator seed for the self-hosted "
                              "catalog")
    loadgen.add_argument("--max-sessions", type=int, default=None,
                         help="admission cap for the self-hosted server")
    loadgen.add_argument("--shards", type=int, default=1,
                         help="shard count for the self-hosted server "
                              "(ignored with --connect)")
    loadgen.add_argument("--partitioner", default="hash",
                         choices=("hash", "range"),
                         help="partitioning scheme for the self-hosted "
                              "sharded server")
    loadgen.add_argument("--shard-procs", type=int, default=1,
                         help="self-host N shards as separate shard-host "
                              "processes (ignored with --connect; "
                              "overrides --shards)")
    loadgen.set_defaults(func=_cmd_loadgen)

    stress = sub.add_parser(
        "stress",
        help="heavy-traffic parity harness: decision parity + overload "
             "invariant checks across every execution path",
    )
    stress.add_argument("--protocol", default="pcp-da",
                        help="protocol for the oracle and overload phases")
    stress.add_argument("--seed", type=int, default=0,
                        help="workload seed (catalog + arrival schedule)")
    stress.add_argument("--transactions", type=int, default=100_000,
                        help="arrivals in the overload schedule "
                             "(streamed; can be millions)")
    stress.add_argument("--overload", type=float, default=2.0,
                        help="offered-load multiplier over --arrival-rate")
    stress.add_argument("--arrival-rate", type=float, default=2000.0,
                        metavar="HZ", help="base arrival rate")
    stress.add_argument("--burst-factor", type=float, default=4.0,
                        help="arrival-rate multiplier during bursts")
    stress.add_argument("--burst-period", type=float, default=0.5,
                        metavar="S", help="burst cycle length")
    stress.add_argument("--burst-duty", type=float, default=0.25,
                        help="fraction of each cycle at the burst rate")
    stress.add_argument("--abort-probability", type=float, default=0.02,
                        help="chaos knob: chance an arrival aborts "
                             "instead of committing")
    stress.add_argument("--shards", default="1,4",
                        help="comma list of shard counts for the "
                             "concurrent phase (default '1,4')")
    stress.add_argument("--partitioner", default="hash",
                        choices=("hash", "range"))
    stress.add_argument("--shard-procs", default="", metavar="LIST",
                        help="comma list of shard-process counts to also "
                             "run the concurrent phase against (e.g. '4': "
                             "one 4-process deployment; default: none)")
    stress.add_argument("--max-sessions", type=int, default=None,
                        help="admission cap for the concurrent phase "
                             "(default: 512 for every shard count)")
    stress.add_argument("--parity-seeds", type=int, default=20, metavar="N",
                        help="decision-parity workload seeds 0..N-1")
    stress.add_argument("--parity-transactions", type=int, default=25,
                        help="arrivals per parity workload")
    stress.add_argument("--parity-shards", type=int, default=2,
                        help="coordinator shard count in the parity phase")
    stress.add_argument("--sim-limit", type=int, default=500,
                        help="schedule prefix replayed in the simulator "
                             "oracle phase")
    stress.add_argument("--ledger", default=None, metavar="PATH",
                        help="append repro-bench/1 trend rows here")
    stress.add_argument("--smoke", action="store_true",
                        help="small deterministic run (seconds): the "
                             "make stress-smoke / make verify gate")
    stress.add_argument("--skip-parity", action="store_true",
                        help="skip the decision-parity battery")
    stress.set_defaults(func=_cmd_stress)

    shard_host = sub.add_parser(
        "shard-host",
        help="run one lock-manager shard behind the NDJSON wire "
             "(normally spawned by the --shard-procs supervisor)",
    )
    from repro.service.sharding.procs.host import add_host_args

    add_host_args(shard_host)
    shard_host.set_defaults(func=_cmd_shard_host)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
