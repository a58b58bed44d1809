"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``verify <config>``
    Verify a configuration file's resiliency requirement (or one given
    on the command line); print the verdict and any threat vector.

``lint <config>``
    Statically analyze a configuration (or a DIMACS file) without
    invoking the solver; exit 0 when clean, 1 on error-level findings,
    2 when the input cannot be parsed.

``enumerate <config>``
    Enumerate all minimal threat vectors of a specification.

``case5bus``
    Re-run the paper's §IV case study and print both scenarios.

``generate``
    Generate a synthetic SCADA system (§V-A policy) and write it as a
    configuration file.

``harden <config>``
    Search for a minimal configuration repair restoring a failed
    specification.

``corpus generate|run|status <dir>``
    Grow a corpus of seeded synthetic grids (hundreds to thousands of
    buses), sweep grids × properties × budgets into a versioned
    on-disk result store, and resume interrupted sweeps without
    re-solving stored cells.

``audit <config>``
    Cross-validate the polynomial-time structural analysis (security
    indices, min-cut silencing costs) against the SAT engine on the
    same configuration; exit 0 when the two agree everywhere.

``stats <trace>...``
    Aggregate JSONL telemetry traces (written via ``--trace FILE`` on
    the solver-backed commands) into a text or ``--json`` summary:
    time per phase, cache hit rates, solver work per query, and sweep
    worker utilization.

Exit codes
----------

Solver-backed commands follow one convention: **0** — the requirement
holds (or the search/report completed); **1** — a threat vector exists
(or no repair was found); **2** — the input fails lint or cannot be
parsed; **3** — a resource budget (``--timeout`` / ``--max-conflicts``)
expired before a verdict: the answer is UNKNOWN, which certifies
nothing, and is deliberately distinct from both 0 and 1 so scripts
cannot mistake a timeout for a verdict.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from .analysis import threat_space
from .core import (
    ConfigurationLintError,
    ObservabilityProblem,
    Property,
    ResiliencySpec,
    ScadaAnalyzer,
    Status,
)
from .core.hardening import harden
from .engine import VerificationEngine
from .grid.ieee_cases import case_by_buses
from .obs.tracer import Tracer, set_tracer
from .sat.limits import Limits, ResourceLimitReached
from .scada import (
    CaseConfig,
    GeneratorConfig,
    dump_config,
    generate_scada,
    load_config,
)
from .scada.config_io import ConfigError

__all__ = ["main"]

#: Exit code for UNKNOWN verdicts (resource budget expired) — distinct
#: from 0 (holds), 1 (threat found), and 2 (lint/parse failure).
EXIT_UNKNOWN = 3


def _spec_from_args(args, fallback: Optional[ResiliencySpec]
                    ) -> ResiliencySpec:
    if args.k is None and args.k1 is None and args.k2 is None:
        if fallback is not None:
            return fallback
        raise SystemExit("no requirement in the file; pass --k or "
                         "--k1/--k2")
    prop = Property(args.property)
    if args.k is not None:
        budget = {"k": args.k}
    else:
        budget = {"k1": args.k1 or 0, "k2": args.k2 or 0}
    budget["link_k"] = getattr(args, "link_k", None)
    if prop is Property.OBSERVABILITY:
        return ResiliencySpec.observability(**budget)
    if prop is Property.SECURED_OBSERVABILITY:
        return ResiliencySpec.secured_observability(**budget)
    if prop is Property.COMMAND_DELIVERABILITY:
        return ResiliencySpec.command_deliverability(**budget)
    return ResiliencySpec.bad_data_detectability(r=args.r, **budget)


def _add_limit_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="wall-clock budget per solver call; an "
                             "expired budget yields UNKNOWN (exit "
                             f"{EXIT_UNKNOWN}), never a spurious verdict")
    parser.add_argument("--max-conflicts", type=int, default=None,
                        dest="max_conflicts", metavar="N",
                        help="conflict budget per solver call (a "
                             "deterministic alternative to --timeout)")


def _limits_from_args(args) -> Optional[Limits]:
    """The ``Limits`` requested on the command line, or ``None``."""
    timeout = getattr(args, "timeout", None)
    max_conflicts = getattr(args, "max_conflicts", None)
    if timeout is None and max_conflicts is None:
        return None
    try:
        return Limits(max_time=timeout, max_conflicts=max_conflicts)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2) from None


def _add_engine_args(parser: argparse.ArgumentParser) -> None:
    _add_limit_args(parser)
    parser.add_argument("--trace", default=None, metavar="FILE",
                        help="write a JSONL telemetry trace (spans, "
                             "solver events, metrics); aggregate with "
                             "'repro stats FILE'")


def _add_spec_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--property", default="observability",
                        choices=[p.value for p in Property],
                        help="resiliency property to verify")
    parser.add_argument("--k", type=int, default=None,
                        help="total failure budget")
    parser.add_argument("--k1", type=int, default=None,
                        help="IED failure budget")
    parser.add_argument("--k2", type=int, default=None,
                        help="RTU failure budget")
    parser.add_argument("-r", type=int, default=1,
                        help="corrupted-measurement budget (bad data)")
    parser.add_argument("--link-k", type=int, default=None, dest="link_k",
                        help="additionally admit this many link failures")


def _cmd_verify(args) -> int:
    # Lenient load: structural defects reach the lint gate below, which
    # reports all of them at once instead of dying on the first.
    config = load_config(args.config, strict=False)
    spec = _spec_from_args(args, config.spec)
    try:
        engine = VerificationEngine(config.network, config.problem,
                                    backend="fresh",
                                    lint=not args.no_lint)
    except ConfigurationLintError as exc:
        print(exc.report.to_text(), file=sys.stderr)
        print("verification refused: the configuration fails lint "
              "(use --no-lint to override)", file=sys.stderr)
        return 2
    if args.dump_smt2:
        with open(args.dump_smt2, "w", encoding="utf-8") as handle:
            handle.write(engine.export_smtlib(spec))
        print(f"wrote SMT-LIB model to {args.dump_smt2}")
    result = engine.verify(spec, certify=args.certify,
                           limits=_limits_from_args(args))
    if args.certify and result.is_resilient:
        checked = result.details.get("proof_checked")
        print(f"  unsat proof independently checked: {checked}")
    print(result.summary())
    if result.status is Status.THREAT_FOUND and result.threat:
        threat = result.threat
        print("  failed devices :", threat.describe(config.network.label))
        if threat.undelivered_measurements:
            lost = sorted(threat.undelivered_measurements)
            print("  lost measurements:", " ".join(map(str, lost)))
        if threat.uncovered_states:
            states = sorted(threat.uncovered_states)
            print("  uncovered states :", " ".join(map(str, states)))
    print(f"  model: {result.num_vars} vars, {result.num_clauses} clauses "
          f"({result.backend} backend)")
    if result.is_unknown:
        return EXIT_UNKNOWN
    return 0 if result.is_resilient else 1


def _cmd_lint(args) -> int:
    from .lint import Diagnostic, LintReport, Severity, analyze_cnf, lint_case
    from .scada.config_io import ConfigError

    def emit(report: LintReport, code: int) -> int:
        if args.format == "json":
            print(report.to_json())
        else:
            print(report.to_text())
        return code

    if args.config.endswith((".cnf", ".dimacs")):
        from .sat.dimacs import DimacsError, parse_dimacs

        try:
            with open(args.config, "r", encoding="utf-8") as handle:
                cnf = parse_dimacs(handle.read())
        except (OSError, DimacsError, ValueError) as exc:
            report = LintReport(subject=args.config)
            report.append(Diagnostic("CONFIG001", Severity.ERROR, str(exc)))
            return emit(report, 2)
        report = analyze_cnf(cnf, subject=args.config)
        return emit(report, report.exit_code())

    builtins = {"fig3", "fig4", "case5bus"}
    if args.config in builtins:
        from .cases import case_problem, fig3_network, fig4_network

        network = (fig4_network() if args.config == "fig4"
                   else fig3_network())
        problem = case_problem()
        file_spec = None
    else:
        try:
            config = load_config(args.config, strict=False)
        except (OSError, ConfigError, ValueError) as exc:
            report = LintReport(subject=args.config)
            report.append(Diagnostic("CONFIG001", Severity.ERROR, str(exc)))
            return emit(report, 2)
        network, problem, file_spec = (config.network, config.problem,
                                       config.spec)

    if args.k is not None or args.k1 is not None or args.k2 is not None:
        spec = _spec_from_args(args, file_spec)
    else:
        spec = file_spec

    report = lint_case(network, problem, spec)
    if args.encoding and not report.has_errors:
        reference = spec or ResiliencySpec.observability(k=1)
        analyzer = ScadaAnalyzer(network, problem, lint=False)
        cnf, frozen = analyzer.export_cnf(reference)
        report.extend(analyze_cnf(cnf, frozen=frozen).diagnostics)
    return emit(report, report.exit_code())


def _cmd_enumerate(args) -> int:
    config = load_config(args.config)
    spec = _spec_from_args(args, config.spec)
    engine = VerificationEngine(config.network, config.problem,
                                backend="fresh")
    space = threat_space(engine, spec, limit=args.limit,
                         limits=_limits_from_args(args),
                         screen=not args.no_screen)
    if space.screened:
        print(f"{spec.describe()}: 0 minimal threat vector(s) "
              f"(structurally screened: the certified min-cut lower "
              f"bound exceeds the failure budget)")
        return 0
    marker = "+" if space.incomplete else ""
    print(f"{spec.describe()}: {space.size}{marker} minimal threat "
          f"vector(s)")
    for vector in space.vectors:
        print("  -", vector.describe(config.network.label))
    if space.incomplete:
        reason = space.limit_reason or "resource"
        print(f"  (incomplete: the {reason} budget expired "
              f"mid-enumeration)")
        return EXIT_UNKNOWN
    return 0 if space.size == 0 else 1


def _cmd_case5bus(args) -> int:
    from .cases import case_analyzer

    for topology in ("fig3", "fig4"):
        analyzer = case_analyzer(topology)
        print(f"== topology {topology} ==")
        for spec in (
            ResiliencySpec.observability(k1=1, k2=1),
            ResiliencySpec.observability(k1=2, k2=1),
            ResiliencySpec.secured_observability(k1=1, k2=0),
            ResiliencySpec.secured_observability(k1=0, k2=1),
            ResiliencySpec.secured_observability(k1=1, k2=1),
        ):
            result = analyzer.verify(spec)
            print(" ", result.summary())
    return 0


def _cmd_generate(args) -> int:
    bus_system = case_by_buses(args.buses, seed=args.seed)
    config = GeneratorConfig(
        measurement_fraction=args.fraction,
        hierarchy_level=args.hierarchy,
        secure_fraction=args.secure_fraction,
        seed=args.seed,
    )
    synthetic = generate_scada(bus_system, config)
    problem = ObservabilityProblem.from_table(synthetic.table)
    case = CaseConfig(network=synthetic.network, problem=problem, spec=None)
    text = dump_config(case, rows=synthetic.table.rows)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {args.out}: {len(synthetic.network.ied_ids)} IEDs, "
              f"{len(synthetic.network.rtu_ids)} RTUs, "
              f"{synthetic.plan.num_measurements} measurements")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_max_resiliency(args) -> int:
    config = load_config(args.config)
    prop = Property(args.property)
    limits = _limits_from_args(args)
    # One warm engine runs the three searches in turn: every probe is
    # a budget change on the same cached encoding.
    engine = VerificationEngine(config.network, config.problem,
                                backend="assumption")
    total, ied, rtu = (
        engine.max_resiliency(prop, axis=axis, limits=limits,
                              screen=not args.no_screen)
        for axis in ("total", "ied", "rtu"))
    print(f"maximal resiliency ({prop.value}):")
    print(f"  any field devices: {total.describe()}")
    print(f"  IEDs only        : {ied.describe()}")
    print(f"  RTUs only        : {rtu.describe()}")
    if not (total.exact and ied.exact and rtu.exact):
        print("  (a solver budget expired before the searches finished; "
              "brackets are sound, not exact)")
        return EXIT_UNKNOWN
    return 0


def _cmd_report(args) -> int:
    from .report import audit_report

    config = load_config(args.config)
    text = audit_report(config.network, config.problem,
                        threat_limit=args.limit,
                        include_hardening=not args.no_hardening,
                        limits=_limits_from_args(args))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_stats(args) -> int:
    from .obs.stats import aggregate

    try:
        stats = aggregate(args.traces)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(stats.to_json(), indent=2))
    else:
        sys.stdout.write(stats.to_text())
    # Malformed traces still aggregate (the summary lists the schema
    # problems), but scripts get a distinct exit code to notice them.
    return 2 if stats.problems else 0


def _cmd_serve(args) -> int:
    import asyncio

    from .service import ReproService

    service = ReproService(
        host=args.host, port=args.port, jobs=args.jobs,
        max_sessions=args.sessions,
        queue_limit=args.queue_limit, trace_dir=args.trace_dir)

    async def run() -> None:
        await service.start()
        print(f"repro service listening on "
              f"http://{service.host}:{service.port} "
              f"({service.bridge.workers} worker(s), up to "
              f"{args.sessions} warm session(s))")
        sys.stdout.flush()
        try:
            await service.serve_forever()
        finally:
            await service.shutdown()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        print("repro service: shut down")
    return 0


def _client_spec(args) -> Optional[dict]:
    if args.k is None and args.k1 is None and args.k2 is None:
        return None
    spec = {"property": args.property, "k": args.k, "k1": args.k1,
            "k2": args.k2, "r": args.r, "link_k": args.link_k}
    return {name: value for name, value in spec.items()
            if value is not None}


def _client_limits(args) -> Optional[dict]:
    limits = {"max_time": args.timeout,
              "max_conflicts": args.max_conflicts}
    cleaned = {name: value for name, value in limits.items()
               if value is not None}
    return cleaned or None


def _cmd_client(args) -> int:
    from .service.client import ServiceClient, ServiceClientError

    client = ServiceClient(host=args.host, port=args.port,
                           tenant=args.tenant)

    def require(value: Optional[str], what: str) -> str:
        if not value:
            raise SystemExit(f"action {args.action!r} needs {what}")
        return value

    config_text: Optional[str] = None
    if args.config:
        with open(args.config, "r", encoding="utf-8") as handle:
            config_text = handle.read()
    wait = not args.no_wait
    try:
        if args.action in ("health", "metrics", "sessions", "jobs"):
            payload = getattr(client, args.action)()
        elif args.action == "open":
            payload = client.open_session(
                require(config_text, "a config file"))
        elif args.action == "invalidate":
            payload = client.invalidate(
                require(args.session, "--session"))
        elif args.action == "job":
            payload = client.job(require(args.job, "--job"))
        elif args.action == "wait":
            payload = client.wait(require(args.job, "--job"))
        elif args.action == "cancel":
            payload = client.cancel(require(args.job, "--job"))
        elif args.action == "trace":
            text = client.trace(require(args.job, "--job"))
            if args.out:
                with open(args.out, "w", encoding="utf-8") as handle:
                    handle.write(text)
                print(f"wrote {args.out}")
            else:
                sys.stdout.write(text)
            return 0
        elif args.action == "verify":
            payload = client.verify(
                config=config_text, session=args.session,
                spec=_client_spec(args), limits=_client_limits(args),
                wait=wait)
        elif args.action == "enumerate":
            payload = client.enumerate_vectors(
                config=config_text, session=args.session,
                spec=_client_spec(args), limits=_client_limits(args),
                limit=args.limit, wait=wait)
        else:  # max-resiliency
            payload = client.max_resiliency(
                config=config_text, session=args.session,
                prop=args.property, limits=_client_limits(args),
                wait=wait)
    except ServiceClientError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConnectionError, OSError) as exc:
        print(f"error: cannot reach the service at "
              f"{args.host}:{args.port}: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(payload, indent=2))
    # Completed solves surface the shared exit-code convention so a
    # scripted `repro client verify` behaves like `repro verify`.
    result = payload.get("result") if isinstance(payload, dict) else None
    if wait and isinstance(result, dict):
        return int(result.get("exit_code", 0))
    return 0


def _cmd_emulate(args) -> int:
    from .stream import ScenarioEmulator, StreamError, write_events

    config = load_config(args.config, strict=False)
    scenarios = (args.scenarios.split(",") if args.scenarios else None)
    try:
        emulator = ScenarioEmulator(
            config.network, seed=args.seed, scenarios=scenarios,
            mean_interval=args.mean_interval)
        events = emulator.events(args.events)
    except StreamError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            write_events(events, handle)
        print(f"wrote {args.out}: {len(events)} event(s) over "
              f"{events[-1].time:.1f}s simulated" if events
              else f"wrote {args.out}: 0 events")
    else:
        write_events(events, sys.stdout)
    return 0


def _watch_floors(args, config) -> List[ResiliencySpec]:
    if args.all_properties:
        k = args.k if args.k is not None else 1
        return [
            ResiliencySpec.observability(k=k),
            ResiliencySpec.secured_observability(k=k),
            ResiliencySpec.bad_data_detectability(r=args.r, k=k),
            ResiliencySpec.command_deliverability(k=k),
        ]
    return [_spec_from_args(args, config.spec)]


def _cmd_watch(args) -> int:
    from .stream import (
        ScenarioEmulator,
        StreamError,
        Watcher,
        batch_verdicts,
        read_events,
    )

    config = load_config(args.config, strict=False)
    floors = _watch_floors(args, config)
    try:
        if args.events_file:
            with open(args.events_file, "r", encoding="utf-8") as handle:
                events = read_events(handle)
        else:
            emulator = ScenarioEmulator(config.network, seed=args.seed)
            events = emulator.events(args.emulate)
        watcher = Watcher(config, floors,
                          limits=_limits_from_args(args),
                          engine_cache=args.engine_cache)
    except StreamError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not args.json:
        for spec in floors:
            status = watcher.verdicts[spec].status.value
            print(f"baseline {spec.describe()}: {status}")
    mismatches = 0
    for event in events:
        try:
            update = watcher.apply(event)
        except StreamError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if args.json:
            print(json.dumps(update.to_json()))
        else:
            print(update.delta.describe() if not update.delta.changed
                  else update.event.describe())
            for spec, result in update.reverified:
                print(f"  {spec.describe()}: {result.status.value} "
                      f"({result.total_time * 1000.0:.1f} ms)")
            for alarm in update.alarms:
                print(f"  {alarm.describe()}")
        if args.selfcheck:
            truth = batch_verdicts(config, watcher.state, floors,
                                   limits=_limits_from_args(args))
            for spec in floors:
                live = watcher.verdicts[spec].status
                if live is not truth[spec]:
                    mismatches += 1
                    print(f"SELFCHECK MISMATCH after event "
                          f"#{event.seq}: {spec.describe()} watcher="
                          f"{live.value} batch={truth[spec].value}",
                          file=sys.stderr)
    snapshot = watcher.snapshot()
    if args.json:
        print(json.dumps({"final": snapshot}))
    else:
        print(f"watched {snapshot['events']} event(s): "
              f"{len(watcher.alarms)} alarm record(s), "
              f"{len(snapshot['below_floor'])} floor cell(s) violated")
        for spec in snapshot["below_floor"]:
            print(f"  below floor: {spec}")
    if args.selfcheck and mismatches:
        print(f"error: {mismatches} selfcheck mismatch(es) — the "
              f"affected-property pruning is unsound for this stream",
              file=sys.stderr)
        return 2
    if any(result.is_unknown for result in watcher.verdicts.values()):
        return EXIT_UNKNOWN
    return 1 if snapshot["below_floor"] else 0


def _cmd_harden(args) -> int:
    config = load_config(args.config)
    spec = _spec_from_args(args, config.spec)
    result = harden(config.network, config.problem, spec,
                    max_repairs=args.max_repairs,
                    limits=_limits_from_args(args))
    print(result.summary())
    return 0 if result.succeeded else 1


def _cmd_audit(args) -> int:
    from .graphs import cross_check
    from .scada.config_io import ConfigError

    builtins = {"fig3", "fig4", "case5bus"}
    if args.config in builtins:
        from .cases import case_problem, fig3_network, fig4_network

        network = (fig4_network() if args.config == "fig4"
                   else fig3_network())
        problem = case_problem()
    else:
        try:
            config = load_config(args.config, strict=False)
        except (OSError, ConfigError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        network, problem = config.network, config.problem

    if args.property == "all":
        properties = None
    else:
        properties = [Property(args.property)]
    report = cross_check(network, problem, properties=properties,
                         r=args.r, limits=_limits_from_args(args))
    if args.format == "json":
        print(report.to_json())
    else:
        print(report.to_text())
    return report.exit_code()


def _cmd_corpus_generate(args) -> int:
    from .corpus import generate_corpus

    scada = GeneratorConfig(
        measurement_fraction=args.measurement_fraction,
        hierarchy_level=args.hierarchy,
        secure_fraction=args.secure_fraction,
        rtus_per_bus=args.rtus_per_bus,
        seed=args.scada_seed)
    entries = generate_corpus(
        args.root, sizes=args.sizes, seeds=args.seeds,
        avg_degree=args.avg_degree, preferential=args.preferential,
        meshing=args.meshing, scada=scada)
    for entry in entries:
        print(f"  {entry['num_buses']:>6d} buses  "
              f"{entry['num_devices']:>6d} devices  "
              f"{entry['network_fingerprint']}")
    print(f"{len(entries)} grid recipe(s) written to {args.root}")
    return 0


def _cmd_corpus_run(args) -> int:
    from .corpus import StoreVersionError, run_corpus

    properties = [Property(name) for name in args.properties]
    try:
        report = run_corpus(
            args.root, properties=properties, ks=args.ks, r=args.r,
            limits=_limits_from_args(args), jobs=args.jobs,
            timeout=args.task_timeout, retries=args.retries,
            resume=args.resume)
    except StoreVersionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(report.to_json(), indent=2, sort_keys=True))
    else:
        print(report.summary())
        for failure in report.failures:
            print(f"  ! {failure}", file=sys.stderr)
    # The verify convention, over the whole sweep: a lost task is a
    # failed run (2); an UNKNOWN cell anywhere — fresh or resumed —
    # means the sweep proved less than asked (3); any threat is 1.
    if report.failures:
        return 2
    verdicts = set(report.verdicts.values())
    if Status.UNKNOWN.value in verdicts:
        return EXIT_UNKNOWN
    if Status.THREAT_FOUND.value in verdicts:
        return 1
    return 0


def _cmd_corpus_status(args) -> int:
    from .corpus import StoreVersionError, corpus_status

    try:
        status = corpus_status(args.root)
    except StoreVersionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(status, indent=2, sort_keys=True))
        return 0
    buses = ", ".join(map(str, status["buses"]))
    print(f"corpus {status['root']}: {status['grids']} grid(s) "
          f"({buses} buses), {status['records']} stored cell(s)")
    for name, tally in status["by_status"].items():
        print(f"  {name}: {tally}")
    if status["quarantined_shards"]:
        print(f"  quarantined shards: {status['quarantined_shards']}")
    for cell in status["unknown_cells"]:
        print(f"  ? {cell['spec']} — bounds {cell['bounds']} "
              f"({cell['limit_reason']} limit)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SCADA resiliency verification (DSN'16 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="verify a configuration")
    p_verify.add_argument("config")
    p_verify.add_argument("--dump-smt2", default=None, dest="dump_smt2",
                          help="also write the model as SMT-LIB 2")
    p_verify.add_argument("--certify", action="store_true",
                          help="re-check unsat verdicts with the RUP "
                               "proof checker")
    p_verify.add_argument("--no-lint", action="store_true", dest="no_lint",
                          help="skip the configuration linter and verify "
                               "even with error-level diagnostics")
    _add_engine_args(p_verify)
    _add_spec_args(p_verify)
    p_verify.set_defaults(func=_cmd_verify)

    p_lint = sub.add_parser(
        "lint", help="statically analyze a configuration")
    p_lint.add_argument("config",
                        help="a configuration file, a builtin case "
                             "(fig3/fig4/case5bus), or a DIMACS file "
                             "(*.cnf, *.dimacs)")
    p_lint.add_argument("--format", default="text",
                        choices=("text", "json"),
                        help="diagnostic output format")
    p_lint.add_argument("--encoding", action="store_true",
                        help="also analyze the Tseitin CNF encoding")
    _add_spec_args(p_lint)
    p_lint.set_defaults(func=_cmd_lint)

    p_enum = sub.add_parser("enumerate",
                            help="enumerate minimal threat vectors")
    p_enum.add_argument("config")
    p_enum.add_argument("--limit", type=int, default=None)
    p_enum.add_argument("--no-screen", action="store_true",
                        dest="no_screen",
                        help="skip the polynomial-time structural "
                             "screen and always run the solver")
    _add_engine_args(p_enum)
    _add_spec_args(p_enum)
    p_enum.set_defaults(func=_cmd_enumerate)

    p_case = sub.add_parser("case5bus", help="run the paper's case study")
    p_case.set_defaults(func=_cmd_case5bus)

    p_gen = sub.add_parser("generate",
                           help="generate a synthetic SCADA system")
    p_gen.add_argument("--buses", type=int, default=14,
                       choices=(14, 30, 57, 118))
    p_gen.add_argument("--hierarchy", type=int, default=1)
    p_gen.add_argument("--fraction", type=float, default=0.7)
    p_gen.add_argument("--secure-fraction", type=float, default=0.8)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", default=None)
    p_gen.set_defaults(func=_cmd_generate)

    p_max = sub.add_parser("max-resiliency",
                           help="search the maximal tolerable budgets")
    p_max.add_argument("config")
    p_max.add_argument("--property", default="observability",
                       choices=[p.value for p in Property])
    p_max.add_argument("--no-screen", action="store_true",
                       dest="no_screen",
                       help="skip the structural screen (no min-cut "
                            "bracket seeding of the searches)")
    _add_engine_args(p_max)
    p_max.set_defaults(func=_cmd_max_resiliency)

    p_report = sub.add_parser("report",
                              help="produce a Markdown audit report")
    p_report.add_argument("config")
    p_report.add_argument("--out", default=None)
    p_report.add_argument("--limit", type=int, default=100)
    p_report.add_argument("--no-hardening", action="store_true")
    _add_engine_args(p_report)
    p_report.set_defaults(func=_cmd_report)

    p_emulate = sub.add_parser(
        "emulate",
        help="emit a seeded stream of live attack/failure events")
    p_emulate.add_argument("config")
    p_emulate.add_argument("--events", type=int, default=20,
                           help="number of events to emit")
    p_emulate.add_argument("--seed", type=int, default=0)
    p_emulate.add_argument("--scenarios", default=None,
                           help="comma-separated scenario families "
                                "(default: all five)")
    p_emulate.add_argument("--mean-interval", type=float, default=1.0,
                           dest="mean_interval",
                           help="mean seconds between events "
                                "(exponential inter-arrival)")
    p_emulate.add_argument("--out", default=None,
                           help="write the JSONL event stream here "
                                "(default: stdout)")
    p_emulate.set_defaults(func=_cmd_emulate)

    p_watch = sub.add_parser(
        "watch",
        help="stream events through a live watcher and alarm on "
             "floor violations")
    p_watch.add_argument("config")
    p_watch.add_argument("--events-file", default=None,
                         dest="events_file", metavar="FILE",
                         help="replay a JSONL event stream (from "
                              "'repro emulate' or an external feed)")
    p_watch.add_argument("--emulate", type=int, default=20, metavar="N",
                         help="without --events-file: emulate N events "
                              "in-process")
    p_watch.add_argument("--seed", type=int, default=0,
                         help="emulator seed (with --emulate)")
    p_watch.add_argument("--all-properties", action="store_true",
                         dest="all_properties",
                         help="monitor all four properties at the "
                              "given budget instead of one spec")
    p_watch.add_argument("--engine-cache", type=int, default=4,
                         dest="engine_cache",
                         help="warm engines kept across network "
                              "shapes (LRU)")
    p_watch.add_argument("--selfcheck", action="store_true",
                         help="after every event, recompute all floor "
                              "cells from scratch and fail (exit 2) on "
                              "any divergence from the watcher")
    p_watch.add_argument("--json", action="store_true",
                         help="one JSON object per event instead of "
                              "text")
    p_watch.add_argument("--trace", default=None, metavar="FILE",
                         help="write a JSONL telemetry trace (stream.* "
                              "counters, re-verify spans)")
    _add_limit_args(p_watch)
    _add_spec_args(p_watch)
    p_watch.set_defaults(func=_cmd_watch)

    p_harden = sub.add_parser("harden",
                              help="search for configuration repairs")
    p_harden.add_argument("config")
    p_harden.add_argument("--max-repairs", type=int, default=2)
    _add_limit_args(p_harden)
    _add_spec_args(p_harden)
    p_harden.set_defaults(func=_cmd_harden)

    p_audit = sub.add_parser(
        "audit",
        help="cross-validate the structural analysis against the "
             "SAT engine")
    p_audit.add_argument("config",
                         help="a configuration file or a builtin case "
                              "(fig3/fig4/case5bus)")
    p_audit.add_argument("--property", default="all",
                         choices=["all"] + [p.value for p in Property],
                         help="restrict the resiliency cross-check to "
                              "one property")
    p_audit.add_argument("-r", type=int, default=1,
                         help="corrupted-measurement budget for the "
                              "bad-data cross-check")
    p_audit.add_argument("--format", default="text",
                         choices=("text", "json"),
                         help="report output format")
    _add_limit_args(p_audit)
    p_audit.add_argument("--trace", default=None, metavar="FILE",
                         help="write a JSONL telemetry trace")
    p_audit.set_defaults(func=_cmd_audit)

    p_serve = sub.add_parser(
        "serve",
        help="run the verification service daemon (HTTP, warm "
             "sessions, request coalescing)")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8321,
                         help="listen port (0 = ephemeral, printed at "
                              "startup)")
    p_serve.add_argument("--jobs", type=int, default=None,
                         help="solver worker threads (default/0 = "
                              "cores minus one, reserving a core for "
                              "the event loop)")
    p_serve.add_argument("--sessions", type=int, default=8,
                         help="warm sessions kept (LRU-evicted beyond "
                              "this)")
    p_serve.add_argument("--queue-limit", type=int, default=64,
                         dest="queue_limit",
                         help="pending-job cap across all tenants")
    p_serve.add_argument("--trace-dir", default=None, dest="trace_dir",
                         help="also mirror every job's JSONL trace "
                              "into this directory")
    p_serve.set_defaults(func=_cmd_serve)

    p_client = sub.add_parser(
        "client", help="talk to a running verification service")
    p_client.add_argument("action",
                          choices=("health", "metrics", "sessions",
                                   "jobs", "open", "invalidate",
                                   "verify", "enumerate",
                                   "max-resiliency", "job", "wait",
                                   "cancel", "trace"))
    p_client.add_argument("config", nargs="?", default=None,
                          help="configuration file (verify/enumerate/"
                               "max-resiliency/open)")
    p_client.add_argument("--host", default="127.0.0.1")
    p_client.add_argument("--port", type=int, default=8321)
    p_client.add_argument("--tenant", default=None,
                          help="tenant name sent as X-Tenant")
    p_client.add_argument("--session", default=None,
                          help="reuse a warm session by id instead of "
                               "sending config text")
    p_client.add_argument("--job", default=None,
                          help="job id (job/wait/cancel/trace)")
    p_client.add_argument("--limit", type=int, default=None,
                          help="vector cap for enumerate")
    p_client.add_argument("--no-wait", action="store_true",
                          dest="no_wait",
                          help="submit and return the job id instead "
                               "of waiting for the verdict")
    p_client.add_argument("--out", default=None,
                          help="write the downloaded trace here")
    _add_limit_args(p_client)
    _add_spec_args(p_client)
    p_client.set_defaults(func=_cmd_client)

    p_stats = sub.add_parser("stats",
                             help="aggregate JSONL telemetry traces")
    p_stats.add_argument("traces", nargs="+", metavar="TRACE",
                         help="trace files written via --trace")
    p_stats.add_argument("--json", action="store_true",
                         help="emit the machine-readable summary")
    p_stats.set_defaults(func=_cmd_stats)

    p_corpus = sub.add_parser(
        "corpus",
        help="corpus-scale synthetic grids and resumable sweeps")
    corpus_sub = p_corpus.add_subparsers(dest="corpus_command",
                                         required=True)

    p_cgen = corpus_sub.add_parser(
        "generate",
        help="grow seeded synthetic grids and write their recipes")
    p_cgen.add_argument("root", help="corpus directory")
    p_cgen.add_argument("--sizes", type=int, nargs="+", required=True,
                        metavar="BUSES", help="bus counts to grow")
    p_cgen.add_argument("--seeds", type=int, nargs="+", default=[0],
                        help="one grid per size × seed")
    p_cgen.add_argument("--avg-degree", type=float, default=3.0,
                        dest="avg_degree",
                        help="target mean bus degree (real grids ≈ 3)")
    p_cgen.add_argument("--preferential", type=float, default=0.8,
                        help="hub-attachment probability in [0, 1]")
    p_cgen.add_argument("--meshing", type=float, default=0.3,
                        help="local-reinforcement probability in [0, 1]")
    p_cgen.add_argument("--measurement-fraction", type=float,
                        default=0.7, dest="measurement_fraction")
    p_cgen.add_argument("--hierarchy", type=int, default=1,
                        help="mean RTU hierarchy depth")
    p_cgen.add_argument("--rtus-per-bus", type=float, default=1 / 3,
                        dest="rtus_per_bus")
    p_cgen.add_argument("--secure-fraction", type=float, default=0.8,
                        dest="secure_fraction")
    p_cgen.add_argument("--scada-seed", type=int, default=0,
                        dest="scada_seed")
    p_cgen.set_defaults(func=_cmd_corpus_generate)

    p_crun = corpus_sub.add_parser(
        "run",
        help="sweep grids × properties × budgets, resumably: cells "
             "already in the store are never re-solved")
    p_crun.add_argument("root", help="corpus directory")
    p_crun.add_argument("--properties", nargs="+",
                        default=["observability"],
                        choices=[p.value for p in Property],
                        help="properties to sweep")
    p_crun.add_argument("--ks", type=int, nargs="+", default=[0, 1, 2],
                        metavar="K", help="total failure budgets")
    p_crun.add_argument("-r", type=int, default=1,
                        help="corrupted-measurement budget (bad data)")
    p_crun.add_argument("--jobs", type=int, default=1,
                        help="worker processes (0 = all cores)")
    p_crun.add_argument("--task-timeout", type=float, default=None,
                        dest="task_timeout", metavar="SECONDS",
                        help="wall-clock budget per grid task "
                             "(pooled runs)")
    p_crun.add_argument("--retries", type=int, default=0,
                        help="extra solo attempts per failed grid task")
    p_crun.add_argument("--no-resume", dest="resume",
                        action="store_false",
                        help="recompute every cell (overwrites in "
                             "place) instead of skipping stored ones")
    p_crun.add_argument("--json", action="store_true",
                        help="emit the machine-readable report")
    p_crun.add_argument("--trace", default=None, metavar="FILE",
                        help="write a JSONL telemetry trace; aggregate "
                             "with 'repro stats FILE'")
    _add_limit_args(p_crun)
    p_crun.set_defaults(func=_cmd_corpus_run)

    p_cstat = corpus_sub.add_parser(
        "status", help="summarize a corpus store without running")
    p_cstat.add_argument("root", help="corpus directory")
    p_cstat.add_argument("--json", action="store_true")
    p_cstat.set_defaults(func=_cmd_corpus_status)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    trace_path = getattr(args, "trace", None)
    sink = None
    tracer = None
    previous = None
    if trace_path:
        sink = open(trace_path, "w", encoding="utf-8")
        tracer = Tracer(sink, meta={"command": args.command,
                                    "argv": list(argv or sys.argv[1:])})
        previous = set_tracer(tracer)
    try:
        return args.func(args)
    except ResourceLimitReached as exc:
        # A budgeted search that cannot report a sound partial result
        # surfaces here; UNKNOWN gets its own exit code so scripts never
        # mistake an expired budget for a verdict.
        print(f"UNKNOWN: {exc}", file=sys.stderr)
        return EXIT_UNKNOWN
    except BrokenPipeError:
        # Output piped into a pager/head that closed early; the usual
        # CLI convention is to exit quietly.  Must precede the OSError
        # clause below — BrokenPipeError is a subclass of it.
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0
    except (OSError, ConfigError) as exc:
        # Missing or unparseable input: the same exit code the lint
        # command uses, and a one-line message instead of a traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if tracer is not None:
            # Flush the final metrics record even when the command
            # failed — a partial trace is still analyzable.
            tracer.close()
            set_tracer(previous)
            assert sink is not None
            sink.close()


if __name__ == "__main__":
    sys.exit(main())
