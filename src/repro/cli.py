"""Command-line interface: ``python -m repro <command>``.

Subcommands
-----------
``machines``
    List the platform models and their configuration-space sizes.
``apps``
    Print the Table 2 application registry.
``characterize``
    Print a platform's energy-efficiency landscape for one application
    (the paper's Fig. 3 data).
``run``
    One closed-loop experiment: an application on a platform under an
    energy-reduction factor, with any of the four controllers; optional
    CSV/JSON export.
``sweep``
    The Fig. 5/6 sweep for one platform (all its applications × the
    paper's factors), optional CSV export.
``oracle``
    The clairvoyant optimum and feasibility limit for a combination.
``serve``
    Run the multi-tenant JouleGuard daemon (``repro.service``) in the
    foreground on a TCP port and/or Unix socket.
``client``
    Drive one synthetic closed-loop session against a running daemon,
    or a concurrent load run with ``--clients N``.
``chaos``
    Run the seeded fault-injection suite (``repro.faults``) and check
    its invariants: budgets never silently overdrawn, pole stable,
    accuracy monotone in fault severity, runs replayable.  With
    ``--enforce``, run the enforcement-ladder scenario instead:
    escalating runaway sessions against a live manager, asserting
    hard-tier sessions end with zero budget overdraft (the ladder's
    guarantee holds only under the assumptions stated on
    ``repro.enforce.LadderPolicy``; the fleet finds counterexamples).
``dash``
    Live ascii dashboard over a running daemon's ``metrics`` and
    ``events`` verbs (``repro.obs``).
``fleet``
    Vectorized fleet simulation (``repro.fleet``): cohorts of sessions
    stepped as numpy arrays under arrivals, churn, warm starts, and
    the enforcement ladder; ``--smoke`` gates CI on zero hard-tier
    overdraft plus a pool/scalar equivalence spot check.
``lint``
    Forward to ``python -m repro.lint``: jglint static analysis, plus
    the jgflow project-wide flow analyses with ``--flow``.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .apps import applications_for_platform, build_application, table2
from .core.budget import PAPER_FACTORS
from .hw import PlatformSimulator, all_machines, get_machine
from .runtime.baselines import (
    run_application_only,
    run_system_only,
    run_uncoordinated,
)
from .runtime.ascii_plot import chart, sparkline
from .runtime.export import (
    summary_dict,
    write_sweep_csv,
    write_summary_json,
    write_trace_csv,
)
from .runtime.harness import run_jouleguard
from .runtime.oracle import max_feasible_factor, oracle_accuracy

CONTROLLERS = {
    "jouleguard": run_jouleguard,
    "system-only": run_system_only,
    "app-only": run_application_only,
    "uncoordinated": run_uncoordinated,
}


def _cmd_machines(args: argparse.Namespace) -> int:
    print(f"{'name':<10}{'configs':>9}{'clusters':>10}{'idle W':>8}"
          f"{'ext W':>7}")
    for name, machine in all_machines().items():
        print(f"{name:<10}{len(machine.space):>9d}"
              f"{len(machine.clusters):>10d}{machine.idle_w:>8.2f}"
              f"{machine.external_w:>7.2f}")
    return 0


def _cmd_apps(args: argparse.Namespace) -> int:
    print(f"{'application':<15}{'framework':<18}{'configs':>8}"
          f"{'speedup':>9}{'loss %':>8}  metric")
    for row in table2():
        app = build_application(row.application)
        print(f"{row.application:<15}{app.framework:<18}"
              f"{row.configs:>8d}{row.max_speedup:>9.2f}"
              f"{row.max_accuracy_loss_pct:>8.2f}  {row.accuracy_metric}")
    return 0


def _cmd_characterize(args: argparse.Namespace) -> int:
    machine = get_machine(args.machine)
    app = build_application(args.app)
    if not app.runs_on(machine.name):
        print(f"{args.app} does not run on {args.machine}", file=sys.stderr)
        return 2
    simulator = PlatformSimulator(machine, app.resource_profile)
    linear = machine.space.linearized()
    print(f"# {args.app} on {args.machine}: efficiency per config index")
    print("index,efficiency,rate,power_w")
    step = max(1, len(linear) // args.points)
    for i in range(0, len(linear), step):
        config = linear[i]
        print(f"{i},{simulator.energy_efficiency(config):.6f},"
              f"{simulator.ideal_rate(config):.4f},"
              f"{simulator.ideal_power(config):.4f}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    machine = get_machine(args.machine)
    app = build_application(args.app)
    runner = CONTROLLERS[args.controller]
    result = runner(
        machine,
        app,
        factor=args.factor,
        n_iterations=args.iterations,
        seed=args.seed,
    )
    for key, value in summary_dict(result).items():
        print(f"{key:>24}: {value}")
    if args.plot:
        print()
        print(
            chart(
                list(result.trace.energy_per_work()),
                target=result.goal.energy_per_work,
                label="energy per work unit (J; target line dashed)",
            )
        )
        print(f"accuracy  {sparkline(result.trace.accuracy)}")
        print(f"epsilon   {sparkline(result.trace.epsilon)}")
    if args.trace_csv:
        print(f"{'trace':>24}: {write_trace_csv(result, args.trace_csv)}")
    if args.summary_json:
        print(
            f"{'summary':>24}: "
            f"{write_summary_json(result, args.summary_json)}"
        )
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    machine = get_machine(args.machine)
    results = []
    print(f"{'app':<15}{'factor':>8}{'rel err %':>11}{'accuracy':>10}"
          f"{'effective':>11}")
    for app_name, app in applications_for_platform(machine.name).items():
        limit = max_feasible_factor(machine, app) * args.margin
        for factor in PAPER_FACTORS:
            if factor > limit:
                continue
            result = run_jouleguard(
                machine,
                app,
                factor=factor,
                n_iterations=args.iterations,
                seed=args.seed,
            )
            results.append(result)
            print(f"{app_name:<15}{factor:>8.2f}"
                  f"{result.relative_error_pct:>11.2f}"
                  f"{result.mean_accuracy:>10.4f}"
                  f"{result.effective_acc:>11.4f}")
    if args.csv:
        print(f"\nwrote {write_sweep_csv(results, args.csv)}")
    return 0


def _cmd_racepace(args: argparse.Namespace) -> int:
    from .hw import GENERIC_PROFILE, compare_policies
    from .hw.speedup_model import work_rate

    machine = get_machine(args.machine)
    rate = work_rate(machine, machine.default_config, GENERIC_PROFILE)
    print(f"{'slack':>7}{'race J':>10}{'pace J':>10}{'hybrid J':>10}"
          f"{'winner':>8}")
    for slack in args.slacks:
        comparison = compare_policies(
            machine, GENERIC_PROFILE, work=1.0, period_s=slack / rate,
            deep_sleep_fraction=args.deep_sleep,
        )
        if comparison.winner == "infeasible":
            print(f"{slack:>6.1f}x  infeasible")
            continue
        print(f"{slack:>6.1f}x"
              f"{comparison.race.energy_j:>10.4f}"
              f"{comparison.pace.energy_j:>10.4f}"
              f"{comparison.hybrid.energy_j:>10.4f}"
              f"{comparison.winner:>8}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import pathlib

    from .service import SessionManager, SnapshotStore, serve

    if args.host is None and args.unix is None:
        print("serve needs --host/--port and/or --unix", file=sys.stderr)
        return 2
    where = []
    if args.host is not None:
        where.append(f"tcp {args.host}:{args.port}")
    if args.unix is not None:
        where.append(f"unix {args.unix}")
    if args.metrics_host is not None:
        where.append(
            f"metrics http://{args.metrics_host}:{args.metrics_port}"
            "/metrics"
        )
    if args.shards > 1:
        from .service import ShardRouter, serve_sharded

        router = ShardRouter(
            n_shards=args.shards,
            budget_j=args.budget_j,
            host=args.host,
            port=args.port,
            unix_path=args.unix,
            state_dir=args.state_dir,
            idle_timeout_s=args.idle_timeout,
            reap_interval_s=args.reap_interval,
            metrics_host=args.metrics_host,
            metrics_port=args.metrics_port,
        )
        print(
            f"serving sharded JouleGuard ({args.shards} workers) on "
            f"{', '.join(where)} (budget {args.budget_j:.0f} J)"
        )
        serve_sharded(router)
        return 0
    store = SnapshotStore(
        directory=pathlib.Path(args.state_dir)
        if args.state_dir
        else None
    )
    manager = SessionManager(
        global_budget_j=args.budget_j,
        store=store,
        idle_timeout_s=args.idle_timeout,
        session_prefix=args.session_prefix,
        external_rebalance=args.external_rebalance,
    )
    print(f"serving JouleGuard on {', '.join(where)} "
          f"(budget {args.budget_j:.0f} J)")
    serve(
        manager,
        host=args.host,
        port=args.port,
        unix_path=args.unix,
        reap_interval_s=args.reap_interval,
        metrics_host=args.metrics_host,
        metrics_port=args.metrics_port,
        admin=args.admin,
    )
    return 0


def _cmd_dash(args: argparse.Namespace) -> int:
    from .obs.dash import run_dash
    from .service import ServiceError

    if (args.unix is None) == (args.host is None):
        print("dash needs --host/--port or --unix", file=sys.stderr)
        return 2
    try:
        run_dash(
            host=args.host,
            port=args.port,
            unix_path=args.unix,
            interval_s=args.interval,
            frames=args.frames,
            clear=not args.no_clear,
        )
    except KeyboardInterrupt:
        print()
    except (ServiceError, ConnectionError, OSError) as exc:
        print(f"dash failed: {exc}", file=sys.stderr)
        return 1
    return 0


def _cmd_client(args: argparse.Namespace) -> int:
    from .service import (
        RetryPolicy,
        ServiceClient,
        ServiceError,
        drive_synthetic_session,
        run_load,
    )

    if (args.unix is None) == (args.host is None):
        print("client needs --host/--port or --unix", file=sys.stderr)
        return 2
    retry = RetryPolicy(seed=args.seed) if args.retry else None
    if args.clients > 1:
        report = run_load(
            args.clients,
            steps=args.steps,
            machine=args.machine,
            app=args.app,
            factor=args.factor,
            host=args.host,
            port=args.port,
            unix_path=args.unix,
            base_seed=args.seed,
            retry=retry,
            batch=args.batch,
            fast=args.fast,
        )
        for key, value in report.as_dict().items():
            print(f"{key:>22}: {value}")
        return 0 if report.errors == 0 else 1
    try:
        with ServiceClient(
            host=args.host, port=args.port, unix_path=args.unix,
            retry=retry,
        ) as client:
            run = drive_synthetic_session(
                client,
                machine=args.machine,
                app=args.app,
                factor=args.factor,
                steps=args.steps,
                seed=args.seed,
                warm_start=not args.cold,
                take_snapshot=args.snapshot,
                batch=args.batch,
                fast=args.fast,
            )
    except (ServiceError, ConnectionError, OSError) as exc:
        print(f"client failed: {exc}", file=sys.stderr)
        return 1
    print(f"{'session':>22}: {run.session}")
    print(f"{'warm start':>22}: {run.warm}")
    print(f"{'steps':>22}: {run.steps}")
    print(f"{'convergence step':>22}: {run.convergence_step()}")
    print(f"{'final epsilon':>22}: "
          f"{run.decisions[-1]['epsilon']:.4f}")
    if run.state is not None:
        print(f"{'snapshot':>22}: saved "
              f"({run.state['machine']}, {run.state['app']})")
    for key in ("energy_used_j", "effective_budget_j", "work_done"):
        if key in run.report:
            print(f"{key:>22}: {run.report[key]}")
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    import json

    from .faults import (
        run_chaos_suite,
        run_enforcement_chaos,
        shipped_plans,
    )

    if args.enforce:
        report = run_enforcement_chaos(
            machine=args.machine,
            app=args.app,
            factor=args.factor,
            seed=args.seed,
        )
        if args.json:
            print(json.dumps(report, indent=2, sort_keys=True))
        else:
            for session in report["sessions"]:
                print(
                    f"x{session['inflation']:<6g}"
                    f"{session['tier']:<10}"
                    f"killed={str(session['killed']):<6}"
                    f"steps={session['steps']:<4d}"
                    f"overdraft={session['hard_overdraft_j']:.6f} J"
                )
            for violation in report["violations"]:
                print(f"    {violation}")
            print(
                "enforcement chaos: "
                f"{'PASS' if report['passed'] else 'FAIL'}"
            )
        return 0 if report["passed"] else 1
    if args.list:
        for name, plan in shipped_plans(seed=args.seed).items():
            parts = [
                part
                for part, present in (
                    ("sensor", plan.sensor),
                    ("channel", plan.channel),
                    ("budget", plan.budget),
                    ("network", plan.network),
                    ("crash", plan.crash),
                )
                if present is not None
            ]
            print(f"{name:<20} {'+'.join(parts)}")
        return 0
    try:
        suite = run_chaos_suite(
            plan_names=args.plan or None,
            seed=args.seed,
            n_iterations=args.iterations,
            steps=args.steps,
            machine=args.machine,
            app=args.app,
            factor=args.factor,
        )
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(suite, indent=2, sort_keys=True))
    else:
        for name, report in suite["plans"].items():
            status = "PASS" if report["passed"] else "FAIL"
            print(f"{name:<20} {status}")
            for violation in report.get("violations", []):
                print(f"    {violation}")
        print(f"chaos suite: {'PASS' if suite['passed'] else 'FAIL'}")
    return 0 if suite["passed"] else 1


def _cmd_fleet(args: argparse.Namespace) -> int:
    import json
    import pathlib
    from dataclasses import replace as _replace

    from .fleet import (
        FleetScenario,
        FleetSimulator,
        preset_scenario,
    )

    if args.scenario:
        text = pathlib.Path(args.scenario).read_text(encoding="utf-8")
        scenario = FleetScenario.from_json(text)
        if args.seed is not None:
            scenario = _replace(scenario, seed=args.seed)
    else:
        scenario = preset_scenario(
            args.preset, seed=args.seed if args.seed is not None else 0
        )
    if args.devices is not None:
        scenario = _replace(scenario, devices=float(args.devices))
    if args.epochs is not None:
        scenario = _replace(scenario, n_epochs=args.epochs)
    if args.scenario_out:
        pathlib.Path(args.scenario_out).write_text(
            scenario.to_json() + "\n", encoding="utf-8"
        )

    simulator = FleetSimulator(scenario)
    report = simulator.run()
    summary = report.as_dict()
    if args.prom:
        pathlib.Path(args.prom).write_text(
            simulator.metrics.render(), encoding="utf-8"
        )
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        print(f"scenario            : {scenario.name}")
        print(
            f"epochs x steps      : {scenario.n_epochs} x "
            f"{scenario.steps_per_epoch}"
        )
        print(f"devices opened      : {summary['opened']}")
        print(f"device steps        : {summary['device_steps']}")
        print(
            "retired             : "
            f"{summary['completed']} completed, "
            f"{summary['killed']} killed, "
            f"{summary['churned']} churned, "
            f"{summary['running']} running, "
            f"{summary['shed']} shed"
        )
        print(
            f"violations / million: "
            f"{summary['violations_per_million']:.1f}"
        )
        print(
            f"hard-tier sessions  : {summary['hard_tier_sessions']} "
            f"(overdraft: {summary['hard_tier_overdraft']})"
        )
        burn = summary["burn_fraction"]
        print(
            "burn fraction       : "
            f"p50 {burn['p50']:.3f}  p95 {burn['p95']:.3f}  "
            f"p99 {burn['p99']:.3f}  max {burn['max']:.3f}"
        )
        accuracy = summary["accuracy"]
        print(
            "accuracy            : "
            f"mean {accuracy['mean']:.4f}  p05 {accuracy['p05']:.4f}  "
            f"p01 {accuracy['p01']:.4f}"
        )

    if not args.smoke:
        return 0
    failures = []
    if summary["hard_tier_overdraft"] != 0:
        failures.append(
            f"{summary['hard_tier_overdraft']} hard-tier sessions "
            "finished over budget (the ladder guarantee requires 0)"
        )
    if summary["killed"] == 0:
        failures.append(
            "no sessions were killed: the smoke run must exercise "
            "the full enforcement ladder"
        )
    mismatches = _fleet_equivalence_spot_check(scenario)
    if mismatches:
        failures.append(
            f"pool/scalar equivalence: {len(mismatches)} divergences, "
            f"first: {mismatches[0]}"
        )
    for failure in failures:
        print(f"smoke: {failure}")
    print(f"fleet smoke: {'PASS' if not failures else 'FAIL'}")
    return 0 if not failures else 1


def _fleet_equivalence_spot_check(
    scenario: "object", n_sessions: int = 8, n_steps: int
    = 120
) -> List[str]:
    """Replay a small mixed cohort in exact mode against the scalar
    runtime + ladder; return the divergences (empty = equivalent)."""
    import numpy as np

    from .fleet import (
        CohortHardwareModel,
        CohortSpec,
        ScalarSessionLoop,
        SessionPool,
        run_lockstep,
    )
    from .hw import GENERIC_PROFILE
    from .hw.vector import MachineTables

    cohort = scenario.cohorts[0]  # type: ignore[attr-defined]
    seed = scenario.seed  # type: ignore[attr-defined]
    machine = get_machine(cohort.machine)
    app = build_application(cohort.app)
    spec = CohortSpec.from_pair(machine, app)
    tables = MachineTables.build(machine, GENERIC_PROFILE)
    waste = np.ones(n_sessions)
    waste[n_sessions // 2 :] = cohort.runaway_waste
    model = CohortHardwareModel(
        tables, spec, n_sessions, waste=waste, seed=seed + 17
    )
    work = np.full(n_sessions, 40.0)
    seeds = np.arange(n_sessions, dtype=np.int64) * 13 + seed
    factors = np.linspace(
        cohort.min_factor, cohort.max_factor, n_sessions
    )
    pool = SessionPool(spec, mode="exact")
    pool.open(work, seeds, factors=factors)
    loops = [
        ScalarSessionLoop(
            machine,
            app,
            float(work[i]),
            int(seeds[i]),
            factor=float(factors[i]),
        )
        for i in range(n_sessions)
    ]
    return run_lockstep(pool, loops, model, n_steps)


def _cmd_lint(args: argparse.Namespace) -> int:
    from .lint.cli import main as lint_main

    return lint_main(args.args)


def _cmd_oracle(args: argparse.Namespace) -> int:
    machine = get_machine(args.machine)
    app = build_application(args.app)
    limit = max_feasible_factor(machine, app)
    result = oracle_accuracy(machine, app, factor=args.factor)
    print(f"default energy/work : {result.default_epw:.6f} J")
    print(f"best system epw     : {result.best_system_epw:.6f} J")
    print(f"required speedup    : {result.required_speedup:.3f}")
    print(f"oracle accuracy     : {result.accuracy:.4f}")
    print(f"feasible            : {result.feasible}")
    print(f"max feasible factor : {limit:.2f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="JouleGuard (SOSP'15) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("machines", help="list platform models").set_defaults(
        func=_cmd_machines
    )
    sub.add_parser("apps", help="list the Table 2 suite").set_defaults(
        func=_cmd_apps
    )

    characterize = sub.add_parser(
        "characterize", help="Fig. 3 efficiency landscape (CSV to stdout)"
    )
    characterize.add_argument("machine", choices=["mobile", "tablet", "server"])
    characterize.add_argument("app")
    characterize.add_argument("--points", type=int, default=64)
    characterize.set_defaults(func=_cmd_characterize)

    run = sub.add_parser("run", help="one closed-loop experiment")
    run.add_argument("machine", choices=["mobile", "tablet", "server"])
    run.add_argument("app")
    run.add_argument("factor", type=float)
    run.add_argument("--controller", choices=sorted(CONTROLLERS), default="jouleguard")
    run.add_argument("--iterations", type=int, default=400)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--trace-csv")
    run.add_argument("--summary-json")
    run.add_argument(
        "--plot", action="store_true",
        help="render ASCII charts of the run",
    )
    run.set_defaults(func=_cmd_run)

    sweep = sub.add_parser("sweep", help="Fig. 5/6 sweep for one platform")
    sweep.add_argument("machine", choices=["mobile", "tablet", "server"])
    sweep.add_argument("--iterations", type=int, default=400)
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--margin", type=float, default=0.9,
                       help="feasibility margin on the max factor")
    sweep.add_argument("--csv")
    sweep.set_defaults(func=_cmd_sweep)

    oracle = sub.add_parser("oracle", help="clairvoyant optimum for a goal")
    oracle.add_argument("machine", choices=["mobile", "tablet", "server"])
    oracle.add_argument("app")
    oracle.add_argument("factor", type=float)
    oracle.set_defaults(func=_cmd_oracle)

    racepace = sub.add_parser(
        "racepace", help="race-to-idle vs pacing for a periodic job"
    )
    racepace.add_argument("machine", choices=["mobile", "tablet", "server"])
    racepace.add_argument(
        "--slacks", type=float, nargs="+",
        default=[1.2, 2.0, 4.0, 8.0, 16.0],
        help="period as a multiple of the default-config busy time",
    )
    racepace.add_argument("--deep-sleep", type=float, default=0.0)
    racepace.set_defaults(func=_cmd_racepace)

    serve_cmd = sub.add_parser(
        "serve", help="run the multi-tenant JouleGuard daemon"
    )
    serve_cmd.add_argument("--host", help="TCP listen address")
    serve_cmd.add_argument("--port", type=int, default=7715)
    serve_cmd.add_argument("--unix", help="unix socket path")
    serve_cmd.add_argument(
        "--budget-j", type=float, default=1e9,
        help="global energy budget the daemon may promise",
    )
    serve_cmd.add_argument(
        "--state-dir",
        help="directory persisting warm-start snapshots",
    )
    serve_cmd.add_argument("--idle-timeout", type=float, default=300.0)
    serve_cmd.add_argument("--reap-interval", type=float, default=5.0)
    serve_cmd.add_argument(
        "--metrics-host",
        help="also expose Prometheus metrics over HTTP on this address",
    )
    serve_cmd.add_argument(
        "--metrics-port", type=int, default=0,
        help="metrics HTTP port (0 picks a free one)",
    )
    serve_cmd.add_argument(
        "--shards", type=int, default=1,
        help="run a shard router over this many pinned worker "
        "processes (1 = single-process daemon)",
    )
    serve_cmd.add_argument(
        "--session-prefix", default="",
        help="prefix baked into every session id (shard workers)",
    )
    serve_cmd.add_argument(
        "--external-rebalance", action="store_true",
        help="disable the local rebalance cadence; an external "
        "coordinator drives rebalances via the admin verbs",
    )
    serve_cmd.add_argument(
        "--admin", action="store_true",
        help="serve the admin_* verbs (shard workers only; never on "
        "a listener facing untrusted clients)",
    )
    serve_cmd.set_defaults(func=_cmd_serve)

    dash_cmd = sub.add_parser(
        "dash", help="live ascii dashboard over a running daemon"
    )
    dash_cmd.add_argument("--host", help="daemon TCP address")
    dash_cmd.add_argument("--port", type=int, default=7715)
    dash_cmd.add_argument("--unix", help="daemon unix socket path")
    dash_cmd.add_argument(
        "--interval", type=float, default=1.0,
        help="seconds between refreshes",
    )
    dash_cmd.add_argument(
        "--frames", type=int,
        help="stop after this many refreshes (default: run until ^C)",
    )
    dash_cmd.add_argument(
        "--no-clear", action="store_true",
        help="append frames instead of clearing the screen",
    )
    dash_cmd.set_defaults(func=_cmd_dash)

    client_cmd = sub.add_parser(
        "client", help="synthetic closed-loop client for the daemon"
    )
    client_cmd.add_argument("--host", help="daemon TCP address")
    client_cmd.add_argument("--port", type=int, default=7715)
    client_cmd.add_argument("--unix", help="daemon unix socket path")
    client_cmd.add_argument("--machine", default="tablet",
                            choices=["mobile", "tablet", "server"])
    client_cmd.add_argument("--app", default="x264")
    client_cmd.add_argument("--factor", type=float, default=1.5)
    client_cmd.add_argument("--steps", type=int, default=50)
    client_cmd.add_argument("--seed", type=int, default=0)
    client_cmd.add_argument(
        "--clients", type=int, default=1,
        help="run a concurrent load with this many clients",
    )
    client_cmd.add_argument(
        "--cold", action="store_true",
        help="skip warm-start even when a snapshot exists",
    )
    client_cmd.add_argument(
        "--snapshot", action="store_true",
        help="store this session's learned state before closing",
    )
    client_cmd.add_argument(
        "--retry", action="store_true",
        help="retry lost requests with backoff and idempotent ids",
    )
    client_cmd.add_argument(
        "--batch", type=int, default=1,
        help="send heartbeats in protocol-v3 batched frames of this "
        "size (1 = one step per round trip)",
    )
    client_cmd.add_argument(
        "--fast", action="store_true",
        help="cheap seeded heartbeat source instead of the full "
        "platform simulator (load generation only)",
    )
    client_cmd.set_defaults(func=_cmd_client)

    chaos_cmd = sub.add_parser(
        "chaos",
        help="run the seeded fault-injection suite and its invariants",
    )
    chaos_cmd.add_argument(
        "--plan", action="append",
        help="run only this plan (repeatable; default: all shipped)",
    )
    chaos_cmd.add_argument(
        "--list", action="store_true",
        help="list the shipped fault plans and exit",
    )
    chaos_cmd.add_argument("--machine", default="tablet",
                           choices=["mobile", "tablet", "server"])
    chaos_cmd.add_argument("--app", default="x264")
    chaos_cmd.add_argument("--factor", type=float, default=1.5)
    chaos_cmd.add_argument(
        "--iterations", type=int, default=120,
        help="closed-loop iterations per severity level",
    )
    chaos_cmd.add_argument(
        "--steps", type=int, default=25,
        help="steps per session in service-level scenarios",
    )
    chaos_cmd.add_argument("--seed", type=int, default=0)
    chaos_cmd.add_argument(
        "--enforce", action="store_true",
        help="run the enforcement-ladder scenario instead of the "
        "fault-plan suite",
    )
    chaos_cmd.add_argument(
        "--json", action="store_true",
        help="emit the full machine-readable report",
    )
    chaos_cmd.set_defaults(func=_cmd_chaos)

    fleet_cmd = sub.add_parser(
        "fleet",
        help="vectorized fleet simulation (repro.fleet)",
    )
    fleet_cmd.add_argument(
        "--preset",
        default="smoke",
        choices=["smoke", "city", "million"],
        help="named scenario preset (default smoke)",
    )
    fleet_cmd.add_argument(
        "--scenario",
        default=None,
        help="path to a scenario JSON (overrides --preset)",
    )
    fleet_cmd.add_argument(
        "--scenario-out",
        default=None,
        help="write the resolved scenario JSON to this path",
    )
    fleet_cmd.add_argument(
        "--devices",
        type=float,
        default=None,
        help="override the expected device count",
    )
    fleet_cmd.add_argument(
        "--epochs",
        type=int,
        default=None,
        help="override the number of simulation epochs",
    )
    fleet_cmd.add_argument(
        "--seed", type=int, default=None, help="scenario seed"
    )
    fleet_cmd.add_argument(
        "--json",
        action="store_true",
        help="print the fleet report as JSON",
    )
    fleet_cmd.add_argument(
        "--prom",
        default=None,
        help="write Prometheus text metrics to this path",
    )
    fleet_cmd.add_argument(
        "--smoke",
        action="store_true",
        help=(
            "CI gate: require kills with zero hard-tier overdraft "
            "and re-verify pool/scalar equivalence"
        ),
    )
    fleet_cmd.set_defaults(func=_cmd_fleet)

    lint_cmd = sub.add_parser(
        "lint",
        help="jglint static analysis (add --flow for jgflow)",
    )
    lint_cmd.add_argument(
        "args",
        nargs=argparse.REMAINDER,
        help="arguments forwarded to python -m repro.lint",
    )
    lint_cmd.set_defaults(func=_cmd_lint)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # Route ``lint`` before argparse: REMAINDER does not forward
    # leading options like ``--flow`` through a subparser.
    if list(argv)[:1] == ["lint"]:
        from .lint.cli import main as lint_main

        return lint_main(list(argv)[1:])
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
