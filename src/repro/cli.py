"""Command-line interface: ``repro`` (also installed as ``repro-legalize``).

Subcommands
-----------
``gen``      generate a synthetic benchmark (Bookshelf or JSON output)
``legalize`` legalize a design file with a chosen algorithm
             (``--trace out.jsonl`` records spans + solver events +
             metrics; ``--trace-chrome out.json`` writes a
             ``chrome://tracing`` file)
``check``    verify legality of a design file (``--full`` adds metrics)
``compare``  run several legalizers on one benchmark and print a table
``bench``    regenerate one of the paper's experiments (table1/table2/sec53)
``trace``    work with recorded traces: ``trace summarize out.jsonl``
             prints the per-stage / per-solver breakdown,
             ``trace summarize out.jsonl --chrome out.json`` converts,
             ``--prometheus -`` emits the metrics in Prometheus text
``serve``    run the legalization service (async HTTP front end, keyed
             warm-state store, cross-request batched solves)
``submit``   send a design file to a running ``repro serve`` process
``sweep``    expand a JSON/YAML axes file through the scenario spec's
             valid-config lattice and run a telemetry-backed campaign
             (JSONL report; ``--dry-run`` plans without solving)
``spec``     inspect the declarative configuration specs:
             ``spec check`` runs the self-checks (spec <-> dataclass
             drift, fuzz-oracle matrix),
             ``spec knobs`` prints a spec's knob table

Invalid configurations (``--lam 0``, ``serve --queue-limit 0``, ...)
exit with status 2 and the same violation message the Python
constructor and the service's HTTP 400 report (see
docs/CONFIGURATION.md).

Design files are Bookshelf ``.aux`` suites or this package's ``.json``
format (chosen by extension).
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from repro.analysis.compare import run_comparison
from repro.analysis.tables import format_table
from repro.baselines import ChowLegalizer, TetrisLegalizer, WangLegalizer
from repro.benchgen import make_benchmark
from repro.core.legalizer import LegalizerConfig, MMSIMLegalizer
from repro.io import load_design, read_design, save_design, write_design
from repro.legality import check_legality
from repro.netlist.design import Design
from repro.scenario.specs import LEGALIZER_SPEC
from repro.viz import save_svg

ALGORITHMS = {
    "mmsim": lambda: MMSIMLegalizer(),
    "tetris": lambda: TetrisLegalizer(),
    "chow": lambda: ChowLegalizer(),
    "chow_imp": lambda: ChowLegalizer(improved=True),
    "wang": lambda: WangLegalizer(),
}


def _load(path: str) -> Design:
    if path.endswith(".json"):
        return load_design(path)
    if path.endswith(".aux"):
        return read_design(path)
    raise SystemExit(f"unsupported design file {path!r} (use .aux or .json)")


def _save(design: Design, path: str) -> None:
    if path.endswith(".json"):
        save_design(design, path)
    elif path.endswith(".aux"):
        import os

        directory = os.path.dirname(os.path.abspath(path))
        base = os.path.splitext(os.path.basename(path))[0]
        write_design(design, directory, base)
    else:
        raise SystemExit(f"unsupported output file {path!r} (use .aux or .json)")


def _config_error(message: str) -> int:
    """Report a configuration violation the way argparse reports usage
    errors: message on stderr, exit status 2."""
    print(f"error: {message}", file=sys.stderr)
    return 2


def cmd_gen(args: argparse.Namespace) -> int:
    from repro.scenario import BENCHGEN_SPEC, format_violations

    gen_args = dict(
        scale=args.scale,
        seed=args.seed,
        mixed=not args.single_height,
        fences=args.fences,
        macro_fraction=args.macro_frac,
    )
    violations = BENCHGEN_SPEC.validate(gen_args)
    if violations:
        return _config_error(
            f"invalid generator options: {format_violations(violations)}"
        )
    design = make_benchmark(args.benchmark, with_nets=True, **gen_args)
    _save(design, args.output)
    extras = ""
    if design.fences:
        extras += f", {len(design.fences)} fences"
    num_fixed = design.num_cells - len(design.movable_cells)
    if num_fixed:
        extras += f", {num_fixed} fixed macros"
    print(
        f"generated {design.name}: {design.num_cells} cells, "
        f"density {design.density():.2f}{extras} -> {args.output}"
    )
    return 0


def cmd_legalize(args: argparse.Namespace) -> int:
    from repro import telemetry

    factory = ALGORITHMS.get(args.algorithm)
    if factory is None:
        raise SystemExit(f"unknown algorithm {args.algorithm!r}")
    legalizer = factory()
    if args.algorithm == "mmsim":
        # Validate the flags (spec-backed, inside the constructor)
        # before touching the input file, so `--lam 0` exits 2 with the
        # violation message instead of failing deep in the flow.
        overrides = dict(
            shard=not args.no_shard,
            kernel_backend=args.kernel_backend,
        )
        if args.lam is not None:
            overrides["lam"] = args.lam
        try:
            config = LegalizerConfig(**overrides)
        except ValueError as exc:
            return _config_error(str(exc))
        legalizer = MMSIMLegalizer(config)
    try:
        design = _load(args.input)
    except ValueError as exc:
        # A malformed design (NaN/inf coordinates, bad fences) is named
        # before any stage runs, with the config-error exit status.
        return _config_error(f"bad design {args.input!r}: {exc}")

    warm_start_z = None
    state_path = getattr(args, "state", None)
    if state_path and args.algorithm == "mmsim":
        import os

        from repro.core.state import load_solver_state

        if os.path.exists(state_path):
            # The state carries a design fingerprint; a stale file (saved
            # from a structurally different design) is rejected inside
            # legalize() with a StaleWarmStart warning instead of crashing
            # mid-sweep or silently warping the start point.
            warm_start_z = load_solver_state(state_path)
            print(f"warm-starting from {state_path}")

    def _legalize(target):
        if args.algorithm == "mmsim":
            return target.legalize(design, warm_start_z=warm_start_z)
        return target.legalize(design)

    from repro.rows import InfeasibleAssignment

    tracing = bool(args.trace or args.trace_chrome)
    try:
        if tracing:
            with telemetry.session(event_limit=args.trace_events) as tel:
                result = _legalize(legalizer)
            if args.trace:
                telemetry.write_jsonl(tel, args.trace)
                print(f"wrote {args.trace}")
            if args.trace_chrome:
                telemetry.write_chrome_trace(tel, args.trace_chrome)
                print(f"wrote {args.trace_chrome}")
        else:
            result = _legalize(legalizer)
    except InfeasibleAssignment as exc:
        print(f"error: infeasible design: {exc}", file=sys.stderr)
        return 3

    if state_path and getattr(result, "kkt_solution", None) is not None:
        from repro.core.state import SolverState, save_solver_state

        # Write to the exact path (np.save would append ".npy" to a bare
        # filename and break the reload round-trip).
        save_solver_state(state_path, SolverState.from_result(design, result))
        print(f"wrote solver state to {state_path}")

    print(result.summary())
    # Make the warm-start decision explicit: a silently discarded --state
    # file looks identical to a cold run in the metrics, so say why.
    warm_start = getattr(result, "warm_start", None)
    if warm_start is not None and args.algorithm == "mmsim":
        if getattr(result, "warm_start_rejected", None):
            print(
                f"warm start: cold ({warm_start}) — state rejected: "
                f"{result.warm_start_rejected}"
            )
        elif warm_start == "state":
            print("warm start: warm (persisted solver state accepted)")
        elif state_path:
            print(f"warm start: cold ({warm_start})")
    # The MMSIM flow audits itself (mandatory post-flow check_legality);
    # other algorithms are audited here so no path can report success on
    # an illegal placement.
    report = getattr(result, "legality", None)
    if report is None:
        report = check_legality(design)
    print(report.summary())
    for escalation in getattr(result, "solver_escalations", []):
        print(" ", escalation.summary())
    if args.output:
        _save(design, args.output)
    if args.svg:
        save_svg(design, args.svg)
        print(f"wrote {args.svg}")
    if not report.is_legal:
        if args.fail_on_illegal:
            print(
                f"error: legality audit found {len(report.violations)} "
                "violation(s)",
                file=sys.stderr,
            )
            return 2
        return 1
    return 0


def cmd_fuzz(args: argparse.Namespace) -> int:
    from repro import telemetry
    from repro.fuzz import FuzzOptions, run_fuzz

    opts = FuzzOptions(
        cases=args.cases,
        seed=args.seed,
        time_budget=args.time_budget,
        shrink=not args.no_shrink,
        corpus_dir=None if args.no_write else args.corpus,
        max_failures=args.max_failures,
        kinds=args.kinds.split(",") if args.kinds else None,
    )
    with telemetry.session() as tel:
        report = run_fuzz(opts)
    print(report.summary())
    counters = {
        name: snap.get("value")
        for name, snap in tel.metrics.snapshot().items()
        if name.startswith("fuzz.")
    }
    if counters:
        print("telemetry:", ", ".join(f"{k}={v:g}" for k, v in counters.items()))
    return 0 if report.ok else 1


def cmd_trace(args: argparse.Namespace) -> int:
    from repro import telemetry

    if args.trace_command == "summarize":
        data = telemetry.read_jsonl(args.input)
        if args.prometheus is not None:
            text = telemetry.prometheus_text(data)
            if args.prometheus == "-":
                print(text, end="")
            else:
                with open(args.prometheus, "w") as fh:
                    fh.write(text)
                print(f"wrote {args.prometheus}")
        else:
            print(telemetry.summarize(data))
        if args.chrome:
            telemetry.write_chrome_trace(data, args.chrome)
            print(f"wrote {args.chrome}")
        return 0
    raise SystemExit(f"unknown trace command {args.trace_command!r}")


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import ServiceConfig, run_server

    try:
        config = ServiceConfig(
            host=args.host,
            port=args.port,
            queue_limit=args.queue_limit,
            max_batch=args.max_batch,
            workers=args.workers,
            default_deadline_seconds=args.deadline,
            store_max_entries=args.store_entries,
            store_max_bytes=args.store_bytes,
            store_ttl_seconds=args.store_ttl,
        )
    except ValueError as exc:
        return _config_error(str(exc))

    def announce(server) -> None:
        print(
            f"repro serve: listening on http://{config.host}:{server.port} "
            f"(workers={config.workers}, queue={config.queue_limit}, "
            f"max batch={config.max_batch})",
            flush=True,
        )

    run_server(config, on_ready=announce)
    print("repro serve: drained, exiting")
    return 0


def cmd_submit(args: argparse.Namespace) -> int:
    from repro.service import ServiceClient, ServiceError

    design = _load(args.input)
    client = ServiceClient(args.host, args.port, timeout=args.timeout)
    try:
        response = client.legalize(
            design,
            key=args.key,
            deadline_seconds=args.deadline,
            store_state=not args.no_store,
            warm=not args.no_warm,
            retries=args.retries,
        )
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (OSError, TimeoutError) as exc:
        print(
            f"error: cannot reach server at {args.host}:{args.port}: {exc}",
            file=sys.stderr,
        )
        return 4
    print(response.summary)
    print(f"cache: {response.cache} (key={response.key!r})")
    if response.warm_start_rejected:
        print(f"  state rejected: {response.warm_start_rejected}")
    if not response.ok:
        # A failed run answers no positions: there is nothing to write.
        print(f"error: {response.error}", file=sys.stderr)
        return 1
    if args.output:
        client.apply(design, response)
        _save(design, args.output)
        print(f"wrote {args.output}")
    return 0 if response.audit_clean else 1


def cmd_sweep(args: argparse.Namespace) -> int:
    from repro.scenario.sweep import SweepOptions, load_axes, run_sweep

    try:
        axes = load_axes(args.axes)
    except (OSError, ValueError) as exc:
        return _config_error(f"cannot load axes file: {exc}")
    opts = SweepOptions(
        benchmark=args.benchmark,
        scale=args.scale,
        seed=args.seed,
        out=args.out,
        dry_run=args.dry_run,
        limit=args.limit,
    )
    try:
        summary = run_sweep(
            axes, opts, progress=None if args.quiet else sys.stderr
        )
    except ValueError as exc:
        # Unknown axis names / ill-typed axis values: a config error,
        # same exit convention as the other subcommands.
        return _config_error(str(exc))
    print(summary.summary())
    if summary.valid_points == 0:
        print(
            "error: no valid points in the lattice (every combination "
            "violates the spec)",
            file=sys.stderr,
        )
        return 2
    return 1 if summary.failed else 0


def cmd_spec(args: argparse.Namespace) -> int:
    from repro.core.legalizer import LegalizerConfig as _LegalizerConfig
    from repro.scenario import BENCHGEN_SPEC, SERVICE_SPEC, SWEEP_SPEC
    from repro.scenario.matrix import matrix_self_check, oracle_matrix
    from repro.service.server import ServiceConfig

    specs = {
        "legalizer": LEGALIZER_SPEC,
        "service": SERVICE_SPEC,
        "benchgen": BENCHGEN_SPEC,
        "sweep": SWEEP_SPEC,
    }
    if args.spec_command == "check":
        problems = []
        problems += LEGALIZER_SPEC.self_check(_LegalizerConfig)
        problems += SERVICE_SPEC.self_check(ServiceConfig)
        problems += BENCHGEN_SPEC.self_check()
        problems += SWEEP_SPEC.self_check()
        problems += matrix_self_check()
        if problems:
            for problem in problems:
                print(f"FAIL: {problem}", file=sys.stderr)
            return 1
        matrix = oracle_matrix()
        print(
            f"spec check: ok ({len(LEGALIZER_SPEC.variables)} legalizer + "
            f"{len(SERVICE_SPEC.variables)} service + "
            f"{len(BENCHGEN_SPEC.variables)} benchgen knobs, "
            f"{len(matrix)}-point oracle matrix)"
        )
        return 0
    if args.spec_command == "knobs":
        spec = specs[args.spec]
        print(f"## {spec.name} knobs\n")
        print(spec.knob_table())
        return 0
    raise SystemExit(f"unknown spec command {args.spec_command!r}")


def cmd_check(args: argparse.Namespace) -> int:
    design = _load(args.input)
    if args.full:
        from repro.metrics import quality_report

        report = quality_report(design)
        print(report.format())
        for violation in report.legality.violations[: args.max_messages]:
            print(" ", violation.message)
        return 0 if report.is_legal else 1
    report = check_legality(design)
    print(report.summary())
    for violation in report.violations[: args.max_messages]:
        print(" ", violation.message)
    return 0 if report.is_legal else 1


def cmd_bench(args: argparse.Namespace) -> int:
    from repro.analysis import run_sec53, run_table1, run_table2

    runners = {"table1": run_table1, "table2": run_table2, "sec53": run_sec53}
    report = runners[args.experiment](cell_cap=args.cell_cap, seed=args.seed)
    print(report.text)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(report.text)
        print(f"wrote {args.output}")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    names = args.algorithms.split(",")
    for name in names:
        if name not in ALGORITHMS:
            raise SystemExit(f"unknown algorithm {name!r}")

    def factory() -> Design:
        return make_benchmark(args.benchmark, scale=args.scale, seed=args.seed)

    records = run_comparison(factory, [ALGORITHMS[n]() for n in names])
    rows = [
        [r.algorithm, r.disp_sites, 100 * r.delta_hpwl, r.runtime, r.legal]
        for r in records
    ]
    print(
        format_table(
            ["algorithm", "disp (sites)", "dHPWL %", "runtime (s)", "legal"],
            rows,
            title=f"{args.benchmark} @ scale {args.scale}",
        )
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-legalize",
        description="Mixed-cell-height legalization (DAC'17 MMSIM reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic benchmark")
    p.add_argument("benchmark", help="paper benchmark name, e.g. fft_2")
    p.add_argument("output", help="output file (.aux or .json)")
    p.add_argument("--scale", type=float, default=0.02)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--single-height", action="store_true")
    p.add_argument("--fences", type=int, default=0, metavar="N",
                   help="add N fence regions (vertical slabs packed so the "
                        "instance stays feasible; members must legalize "
                        "inside, everything else outside)")
    p.add_argument("--macro-frac", type=float, default=0.0, metavar="F",
                   help="add fixed macros worth F of the movable cell area "
                        "(3-6 rows x 10-30 sites, placed as obstacles)")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("legalize", help="legalize a design file")
    p.add_argument("input")
    p.add_argument("--algorithm", default="mmsim", choices=sorted(ALGORITHMS))
    p.add_argument("--lam", type=float, default=None)
    p.add_argument("--no-shard", action="store_true",
                   help="solve one monolithic KKT LCP instead of sharding "
                        "it into independent coupling-graph components "
                        "(mmsim only; sharding is exact and on by default)")
    p.add_argument("--kernel-backend", default="reference",
                   choices=LEGALIZER_SPEC.var("kernel_backend").domain.choices,
                   help="MMSIM convergence-check cadence (mmsim only): "
                        "'reference' tests after every sweep (the default), "
                        "'fused' every 8 sweeps")
    p.add_argument("--state", default=None, metavar="PATH",
                   help="solver-state file: if PATH exists, warm-start the "
                        "MMSIM from its KKT solution; afterwards the run's "
                        "solution is saved back to PATH")
    p.add_argument("--fail-on-illegal", action="store_true",
                   help="exit with status 2 if the post-flow legality "
                        "audit finds any violation (for CI gates)")
    p.add_argument("--output", default=None)
    p.add_argument("--svg", default=None)
    p.add_argument("--trace", default=None, metavar="PATH",
                   help="record a JSONL telemetry trace (spans + per-"
                        "iteration solver events + metrics) to PATH")
    p.add_argument("--trace-chrome", default=None, metavar="PATH",
                   help="also/instead write a chrome://tracing JSON file")
    p.add_argument("--trace-events", type=int, default=100000,
                   help="max solver events kept in memory (default 100000)")
    p.set_defaults(func=cmd_legalize)

    p = sub.add_parser(
        "fuzz",
        help="differential fuzzing: random designs x every solver config",
    )
    p.add_argument("--cases", type=int, default=100,
                   help="number of scenarios to generate (default 100)")
    p.add_argument("--seed", type=int, default=0,
                   help="campaign seed; case seeds derive deterministically")
    p.add_argument("--time-budget", type=float, default=None, metavar="SEC",
                   help="wall-clock budget in seconds; the campaign stops "
                        "cleanly (and shrinking is bounded) when exceeded")
    p.add_argument("--corpus", default="tests/fuzz_corpus", metavar="DIR",
                   help="where minimized Bookshelf repros are written "
                        "(default tests/fuzz_corpus)")
    p.add_argument("--no-write", action="store_true",
                   help="do not persist repros for failing cases")
    p.add_argument("--no-shrink", action="store_true",
                   help="skip ddmin minimization of failing cases")
    p.add_argument("--max-failures", type=int, default=10,
                   help="stop the campaign after this many failing cases")
    p.add_argument("--kinds", default=None, metavar="K1,K2",
                   help="restrict scenario sampling to these kinds "
                        "(comma-separated, e.g. fences,benchgen; "
                        "default: the full weighted mix)")
    p.set_defaults(func=cmd_fuzz)

    p = sub.add_parser(
        "serve",
        help="run the legalization service (JSON over HTTP)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8787,
                   help="TCP port (0 binds an ephemeral port; the bound "
                        "port is printed on startup)")
    p.add_argument("--queue-limit", type=int, default=64,
                   help="bounded job queue; a full queue answers 429 "
                        "with Retry-After (default 64)")
    p.add_argument("--max-batch", type=int, default=16,
                   help="max queued designs a free worker stacks into one "
                        "solve (default 16)")
    p.add_argument("--workers", type=int, default=2,
                   help="solver worker threads; a queued job starts as "
                        "soon as one is idle (default 2)")
    p.add_argument("--deadline", type=float, default=None, metavar="SEC",
                   help="default per-request deadline when the request "
                        "does not send one (default: none)")
    p.add_argument("--store-entries", type=int, default=1024,
                   help="warm-state store entry cap (default 1024)")
    p.add_argument("--store-bytes", type=int, default=256 * 1024 * 1024,
                   help="warm-state store byte cap (default 256 MiB)")
    p.add_argument("--store-ttl", type=float, default=None, metavar="SEC",
                   help="warm-state TTL; expired entries count as misses "
                        "(default: no TTL)")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "submit",
        help="submit a design file to a running legalization server",
    )
    p.add_argument("input", help="design file (.aux or .json)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8787)
    p.add_argument("--key", default=None,
                   help="warm-state cache key (default: the design name)")
    p.add_argument("--deadline", type=float, default=None, metavar="SEC",
                   help="server-side deadline for this request")
    p.add_argument("--no-warm", action="store_true",
                   help="skip the warm-state lookup (force a cold solve)")
    p.add_argument("--no-store", action="store_true",
                   help="do not cache this run's solver state")
    p.add_argument("--retries", type=int, default=0,
                   help="retries on 429/503 backpressure (default 0)")
    p.add_argument("--timeout", type=float, default=120.0,
                   help="client-side HTTP timeout (default 120)")
    p.add_argument("--output", default=None,
                   help="apply the returned positions and save the "
                        "design here (.aux or .json)")
    p.set_defaults(func=cmd_submit)

    p = sub.add_parser(
        "sweep",
        help="run a config-lattice campaign from a JSON/YAML axes file",
    )
    p.add_argument("axes",
                   help="axes file: a mapping of knob name -> value list "
                        "(legalizer knobs plus gen.* benchmark knobs); "
                        "invalid combinations are pruned via the scenario "
                        "spec, not run")
    p.add_argument("--benchmark", default="fft_2",
                   help="paper benchmark profile each point builds "
                        "(default fft_2)")
    p.add_argument("--scale", type=float, default=0.02,
                   help="default build scale (a gen.scale axis overrides "
                        "it per point; default 0.02)")
    p.add_argument("--seed", type=int, default=0,
                   help="default build seed (a gen.seed axis overrides it)")
    p.add_argument("--out", default=None, metavar="PATH",
                   help="write the JSONL campaign report here (one "
                        "'campaign' header record + one 'point' record "
                        "per executed point with result metrics and "
                        "telemetry counters)")
    p.add_argument("--dry-run", action="store_true",
                   help="enumerate and report the valid lattice without "
                        "solving anything")
    p.add_argument("--limit", type=int, default=None, metavar="N",
                   help="run at most N valid points")
    p.add_argument("--quiet", action="store_true",
                   help="suppress per-point progress lines on stderr")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser(
        "spec",
        help="inspect the declarative configuration specs",
    )
    ssub = p.add_subparsers(dest="spec_command", required=True)
    pc = ssub.add_parser(
        "check",
        help="self-check the specs: dataclass drift and fuzz-oracle "
             "matrix coverage",
    )
    pc.set_defaults(func=cmd_spec)
    pk = ssub.add_parser(
        "knobs", help="print a spec's knob table"
    )
    pk.add_argument("--spec", default="legalizer",
                    choices=["legalizer", "service", "benchgen", "sweep"])
    pk.set_defaults(func=cmd_spec)

    p = sub.add_parser("check", help="check legality of a design file")
    p.add_argument("input")
    p.add_argument("--max-messages", type=int, default=10)
    p.add_argument("--full", action="store_true",
                   help="print the full quality report (metrics + legality)")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("bench", help="regenerate one of the paper's experiments")
    p.add_argument("experiment", choices=["table1", "table2", "sec53"])
    p.add_argument("--cell-cap", type=int, default=2000)
    p.add_argument("--seed", type=int, default=2017)
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("compare", help="compare legalizers on a benchmark")
    p.add_argument("benchmark")
    p.add_argument("--algorithms", default="tetris,chow,chow_imp,wang,mmsim")
    p.add_argument("--scale", type=float, default=0.02)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("trace", help="work with recorded telemetry traces")
    tsub = p.add_subparsers(dest="trace_command", required=True)
    ps = tsub.add_parser(
        "summarize",
        help="print the per-stage / per-solver breakdown of a JSONL trace",
    )
    ps.add_argument("input", help="JSONL trace written by legalize --trace")
    ps.add_argument("--chrome", default=None, metavar="PATH",
                    help="also convert to a chrome://tracing JSON file")
    ps.add_argument("--prometheus", default=None, metavar="PATH",
                    help="emit the trace's metrics in Prometheus text "
                         "exposition format instead of the summary "
                         "('-' writes to stdout)")
    ps.set_defaults(func=cmd_trace)
    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
