"""Command-line interface.

Eight subcommands cover the common workflows::

    python -m repro analyze --hidden 8192 --tp 16 --dp 8   # one config
    python -m repro experiment figure-10                   # reproduce art.
    python -m repro experiment all                         # everything
    python -m repro zoo --format csv                        # Table 2
    python -m repro forecast --start 2023 --end 2027        # future models
    python -m repro cache info                              # result cache
    python -m repro check --configs 200 --seed 7            # verify engines
    python -m repro search --hidden 1024,...,16384 --tp 2,...,64 \\
        --jobs 4 --reduce top-k --reduce pareto             # design space

``analyze`` prints the Comp-vs-Comm breakdown of one configuration on the
simulated MI210 testbed (optionally scaled to future hardware);
``experiment`` regenerates any registered paper table/figure through the
shared runtime session (memoized model fits and a keyed result cache),
one experiment after another; ``cache`` inspects or clears the
on-disk result store; ``check`` runs the differential oracle, the
fault-seeding self-test, and the streamed-vs-one-shot oracle of
:mod:`repro.sim.checker`; ``search`` streams an arbitrarily large
``(H, SL, B, TP, DP)`` grid through chunked process-parallel evaluation
(:func:`repro.runtime.megasweep.stream_sweep`) and reports online
reductions (top-k, Pareto frontier, serialized-fraction histogram)
instead of raw rows.  ``analyze``, ``experiment``, and ``search`` accept
``--check`` (equivalently ``REPRO_CHECK=1``) to validate every schedule
or batched breakdown against the engine invariants.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import sys
from typing import List, Optional

from repro.hardware.specs import DEVICE_CATALOG, Precision

__all__ = ["build_parser", "main"]


def _int_list(text: str) -> List[int]:
    """Parse a comma-separated axis value like ``1024,2048,4096``."""
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        )
    if not values:
        raise argparse.ArgumentTypeError("axis must list at least one value")
    return values


def _analyze_arguments(analyze: argparse.ArgumentParser) -> None:
    analyze.add_argument("--hidden", type=int, required=True,
                         help="hidden dimension H")
    analyze.add_argument("--seq-len", type=int, required=True,
                         help="sequence length SL")
    analyze.add_argument("--batch", type=int, default=1,
                         help="per-replica batch size B (default 1)")
    analyze.add_argument("--layers", type=int, default=4,
                         help="layer count (default 4)")
    analyze.add_argument("--heads", type=int, default=0,
                         help="attention heads (default: H/128, >= TP)")
    analyze.add_argument("--tp", type=int, default=1,
                         help="tensor-parallel degree")
    analyze.add_argument("--dp", type=int, default=1,
                         help="data-parallel degree")
    analyze.add_argument("--precision",
                         choices=[p.value for p in Precision],
                         default="fp16")
    analyze.add_argument("--device", choices=sorted(DEVICE_CATALOG),
                         default="MI210")
    analyze.add_argument("--compute-scale", type=float, default=1.0,
                         help="future-hardware compute scaling")
    analyze.add_argument("--network-scale", type=float, default=1.0,
                         help="future-hardware network scaling")
    analyze.add_argument("--timeline", action="store_true",
                         help="render an ASCII stream timeline")
    analyze.add_argument("--hotspots", type=int, default=0, metavar="N",
                         help="show the N hottest operators")
    analyze.add_argument("--check", action="store_true",
                         help="validate the schedule against the engine "
                              "invariants (also: REPRO_CHECK=1)")


def _experiment_arguments(experiment: argparse.ArgumentParser) -> None:
    experiment.add_argument("id",
                            help='experiment id (e.g. "figure-10") or '
                                 '"all" / "list"')
    experiment.add_argument("--format", choices=("text", "json", "csv"),
                            default="text",
                            help="output format (default text)")
    experiment.add_argument("--output", "-o", default=None,
                            help="write to a file instead of stdout")
    experiment.add_argument("--cache-dir", default=None, metavar="DIR",
                            help="persist the result cache under DIR "
                                 "(default: in-memory only)")
    experiment.add_argument("--no-cache", action="store_true",
                            help="bypass the result cache entirely")
    experiment.add_argument("--meta", action="store_true",
                            help="append run metadata (wall time, cache "
                                 "hit/miss, session fingerprint)")
    experiment.add_argument("--check", action="store_true",
                            help="validate every executed schedule and "
                                 "batched breakdown against the engine "
                                 "invariants (also: REPRO_CHECK=1)")


def _check_arguments(check: argparse.ArgumentParser) -> None:
    check.add_argument("--configs", type=int, default=200, metavar="N",
                       help="random configs for the differential oracle "
                            "(default 200)")
    check.add_argument("--seed", type=int, default=0,
                       help="config-generator seed (default 0)")
    check.add_argument("--skip-oracle", action="store_true",
                       help="skip the scalar-vs-batch differential oracle")
    check.add_argument("--skip-selftest", action="store_true",
                       help="skip the fault-seeding self-test")
    check.add_argument("--skip-stream", action="store_true",
                       help="skip the streamed-vs-one-shot sweep oracle")
    check.add_argument("--skip-prune", action="store_true",
                       help="skip the bound-and-prune oracle (exact "
                            "bounds + pruned-vs-exhaustive "
                            "bit-equality)")
    check.add_argument("--stream-jobs", type=int, default=2, metavar="N",
                       help="max worker processes exercised by the "
                            "stream oracle (default 2)")


def _search_arguments(search: argparse.ArgumentParser) -> None:
    search.add_argument("--hidden", type=_int_list, required=True,
                        metavar="H1,H2,...",
                        help="hidden-dimension axis (comma-separated)")
    search.add_argument("--seq-len", type=_int_list, required=True,
                        metavar="S1,S2,...", help="sequence-length axis")
    search.add_argument("--batch", type=_int_list, default=[1],
                        metavar="B1,B2,...",
                        help="batch-size axis (default 1)")
    search.add_argument("--tp", type=_int_list, default=[1],
                        metavar="T1,T2,...",
                        help="tensor-parallel axis (default 1)")
    search.add_argument("--dp", type=_int_list, default=[1],
                        metavar="D1,D2,...",
                        help="data-parallel axis (default 1)")
    search.add_argument("--max-world", type=int, default=None, metavar="N",
                        help="drop configs with TP*DP > N devices")
    search.add_argument("--max-memory-gb", type=float, default=None,
                        metavar="GB",
                        help="drop configs whose per-device training "
                             "state exceeds GB (checkpointed activations)")
    search.add_argument("--mode", choices=("execute", "project"),
                        default="execute",
                        help="ground-truth batch engine (default) or "
                             "operator-model projection")
    search.add_argument("--chunk-size", type=int, default=None, metavar="N",
                        help="rows evaluated per chunk (default 4096); "
                             "bounds peak memory")
    search.add_argument("--jobs", "-j", type=int, default=1,
                        help="worker processes for exhaustive sweeps "
                             "(default 1 = in-process; -1 = CPU count; "
                             "--prune always runs in-process)")
    search.add_argument("--reduce", action="append",
                        choices=("top-k", "pareto", "hist", "extrema"),
                        default=None,
                        help="reduction to apply (repeatable; default: "
                             "top-k + pareto + hist)")
    search.add_argument("--metric", default="iteration_time",
                        help="breakdown metric for top-k/extrema "
                             "(default iteration_time)")
    search.add_argument("--k", type=int, default=10,
                        help="top-k size (default 10)")
    search.add_argument("--largest", action="store_true",
                        help="rank top-k descending (default: smallest "
                             "metric values win)")
    search.add_argument("--prune", dest="prune", action="store_true",
                        help="bound-and-prune scheduler: reduce only the "
                             "chunks whose exact metrics can still reach "
                             "the output (every chunk is still evaluated; "
                             "bit-identical results; selection reducers "
                             "only)")
    search.add_argument("--no-prune", dest="prune", action="store_false",
                        help="force exhaustive evaluation (the default)")
    search.set_defaults(prune=False)
    search.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="persist per-chunk partials under DIR")
    search.add_argument("--check", action="store_true",
                        help="validate every chunk's breakdown against "
                             "the engine invariants (also: REPRO_CHECK=1)")
    search.add_argument("--format", choices=("text", "json"),
                        default="text",
                        help="output format (default text)")
    search.add_argument("--output", "-o", default=None,
                        help="write to a file instead of stdout")


def _zoo_arguments(zoo: argparse.ArgumentParser) -> None:
    zoo.add_argument("--format", choices=("text", "json", "csv"),
                     default="text",
                     help="output format (default text)")
    zoo.add_argument("--output", "-o", default=None,
                     help="write to a file instead of stdout")


def _forecast_arguments(forecast: argparse.ArgumentParser) -> None:
    forecast.add_argument("--start", type=int, default=2023)
    forecast.add_argument("--end", type=int, default=2027)
    forecast.add_argument("--format", choices=("text", "json", "csv"),
                          default="text",
                          help="output format (default text)")
    forecast.add_argument("--output", "-o", default=None,
                          help="write to a file instead of stdout")


def _cache_arguments(cache: argparse.ArgumentParser) -> None:
    cache.add_argument("action", choices=("info", "clear"),
                       help="show cache contents or remove every entry")
    cache.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="cache directory (default: ~/.cache/repro or "
                            "$REPRO_CACHE_DIR)")


def _plan_arguments(plan: argparse.ArgumentParser) -> None:
    plan.add_argument("--hidden", type=int, required=True)
    plan.add_argument("--seq-len", type=int, required=True)
    plan.add_argument("--layers", type=int, default=32)
    plan.add_argument("--batch", type=int, default=8)
    plan.add_argument("--heads", type=int, default=0,
                      help="attention heads (default: H/128)")
    plan.add_argument("--devices", type=int, required=True,
                      help="world size (power of two)")
    plan.add_argument("--microbatches", type=int, default=1)
    plan.add_argument("--top", type=int, default=5,
                      help="show the N best plans")


def _parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The CLI parser; with ``command``, only that subcommand gets its
    arguments.

    Every subcommand is registered either way, so the top-level help,
    usage and choice errors read the same; adding a subcommand's
    arguments is what costs, and a process runs one subcommand.
    """
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Comp-vs-Comm analysis for Transformers "
                    "(IISWC 2023 reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_arguments, _) in _COMMANDS.items():
        subparser = subparsers.add_parser(name, help=help_text)
        if command is None or command == name:
            add_arguments(subparser)
    return parser


def build_parser() -> argparse.ArgumentParser:
    """The full CLI parser, every subcommand with its arguments."""
    return _parser()


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.core.hyperparams import ModelConfig, ParallelConfig
    from repro.core.report import format_ms, format_pct
    from repro.hardware.cluster import mi210_node
    from repro.hardware.specs import get_device
    from repro.models.trace import training_trace
    from repro.sim.checkflag import check_enabled
    from repro.sim.executor import execute_trace

    heads = args.heads or max(args.tp, max(1, args.hidden // 128))
    try:
        model = ModelConfig(
            name="cli-model",
            hidden=args.hidden,
            seq_len=args.seq_len,
            batch=args.batch,
            num_layers=args.layers,
            num_heads=heads,
            precision=Precision(args.precision),
        )
        parallel = ParallelConfig(tp=args.tp, dp=args.dp)
        cluster = mi210_node().replace(device=get_device(args.device))
        cluster = cluster.scaled(compute_scale=args.compute_scale,
                                 network_scale=args.network_scale)
        trace = training_trace(model, parallel)
        result = execute_trace(trace, cluster)
        breakdown = result.breakdown
    except (ValueError, KeyError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if check_enabled(args.check or None):
        from repro.sim.checker import validate_execution

        try:
            validate_execution(result)
        except ValueError as error:
            print(f"check failed: {error}", file=sys.stderr)
            return 1
        print("check: schedule and breakdown invariants hold")
    print(f"config: H={model.hidden} SL={model.seq_len} B={model.batch} "
          f"layers={model.num_layers} TP={parallel.tp} DP={parallel.dp} "
          f"({model.precision.value} on {args.device}, "
          f"compute x{args.compute_scale:g}, network x{args.network_scale:g})")
    print(f"iteration time:        {format_ms(breakdown.iteration_time)}")
    print(f"compute:               {format_ms(breakdown.compute_time)}")
    print(f"serialized comm:       "
          f"{format_ms(breakdown.serialized_comm_time)} "
          f"({format_pct(breakdown.serialized_comm_fraction)})")
    print(f"overlapped comm:       "
          f"{format_ms(breakdown.overlapped_comm_time)} "
          f"(hidden {format_ms(breakdown.hidden_comm_time)}, "
          f"exposed {format_ms(breakdown.exposed_comm_time)})")
    print(f"comm on critical path: "
          f"{format_pct(breakdown.critical_comm_fraction)}")
    if args.timeline:
        from repro.sim.timeline import render_timeline
        print()
        print(render_timeline(result.schedule))
    if args.hotspots:
        from repro.sim.profiler import profile_trace
        profile = profile_trace(trace, cluster)
        print()
        print(f"top {args.hotspots} operators:")
        for name, seconds, share in profile.hotspots(args.hotspots):
            print(f"  {name:20s} {format_ms(seconds)}  "
                  f"({format_pct(share)})")
    return 0


def _render(result, fmt: str, include_meta: bool = False) -> str:
    if fmt == "json":
        return result.to_json(include_meta=include_meta)
    if fmt == "csv":
        return result.to_csv()
    return result.to_text(include_meta=include_meta)


def _emit(text: str, output: Optional[str]) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _experiment_session(args: argparse.Namespace):
    """The session an ``experiment`` invocation runs under.

    A ``--cache-dir`` or ``--check`` builds a dedicated session;
    otherwise the process-wide shared session (memory-only cache,
    memoized suite fits) is used.
    """
    from repro.runtime.session import Session, get_session

    check = True if getattr(args, "check", False) else None
    if args.cache_dir:
        return Session(cache_dir=args.cache_dir, check=check)
    if check:
        return Session(check=check)
    return get_session()


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.experiments import registry

    if args.id == "list":
        _emit("\n".join(registry.EXPERIMENTS), args.output)
        return 0
    session = _experiment_session(args)
    use_cache = not args.no_cache
    if args.id == "all":
        results = session.run_all(use_cache=use_cache)
        rendered = [_render(result, args.format, include_meta=args.meta)
                    for result in results]
        _emit("\n\n".join(rendered), args.output)
        return 0
    try:
        result = session.run(args.id, use_cache=use_cache)
    except KeyError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    _emit(_render(result, args.format, include_meta=args.meta),
          args.output)
    return 0


def _cmd_zoo(args: argparse.Namespace) -> int:
    from repro.experiments import table2_zoo

    _emit(_render(table2_zoo.run(), args.format), args.output)
    return 0


def _cmd_forecast(args: argparse.Namespace) -> int:
    from repro.experiments import ext_forecast

    try:
        result = ext_forecast.run(start_year=args.start, end_year=args.end)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    _emit(_render(result, args.format), args.output)
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.runtime.cache import ResultCache, default_cache_dir

    cache_dir = args.cache_dir or default_cache_dir()
    cache = ResultCache(cache_dir=cache_dir)
    if args.action == "clear":
        removed = cache.clear()
        print(f"cleared {removed} entries from {cache_dir}")
        return 0
    info = cache.info()
    print(f"cache dir:      {info['cache_dir']}")
    print(f"cache version:  {info['version']}")
    print(f"disk entries:   {info['disk_entries']}")
    print(f"disk bytes:     {info['disk_bytes']}")
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    from repro.core.autotune import enumerate_plans
    from repro.core.hyperparams import ModelConfig
    from repro.core.report import format_pct, format_table
    from repro.hardware.cluster import mi210_node

    heads = args.heads or max(1, args.hidden // 128)
    try:
        model = ModelConfig(
            name="cli-plan",
            hidden=args.hidden,
            seq_len=args.seq_len,
            batch=args.batch,
            num_layers=args.layers,
            num_heads=heads,
        )
        plans = enumerate_plans(model, args.devices, mi210_node(),
                                microbatches=args.microbatches)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if not plans:
        print("no feasible plan fits device memory; add devices",
              file=sys.stderr)
        return 1
    rows = [
        (
            f"TP={p.parallel.tp} DP={p.parallel.dp} PP={p.parallel.pp}",
            f"{p.tokens_per_second:,.0f}",
            f"{p.memory_gb:.1f}",
            format_pct(p.serialized_comm_fraction),
        )
        for p in plans[:args.top]
    ]
    print(f"{len(plans)} feasible plans for {args.devices} devices; "
          f"top {len(rows)}:")
    print(format_table(("plan", "tokens/s", "mem/device (GB)",
                        "serialized comm"), rows))
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    from repro.sim.checker import (
        differential_oracle,
        fault_selftest,
        prune_oracle,
        stream_oracle,
    )

    failed = False
    if not args.skip_oracle:
        try:
            report_ = differential_oracle(n=args.configs, seed=args.seed)
        except ValueError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        print(report_.summary())
        failed = failed or not report_.ok
    if not args.skip_selftest:
        selftest = fault_selftest()
        print(selftest.summary())
        failed = failed or not selftest.ok
    if not args.skip_stream:
        jobs = sorted({1, max(1, args.stream_jobs)})
        stream = stream_oracle(jobs=jobs)
        print(stream.summary())
        failed = failed or not stream.ok
    if not args.skip_prune:
        prune = prune_oracle(seed=args.seed)
        print(prune.summary())
        failed = failed or not prune.ok
    return 1 if failed else 0


def _format_config(config: List[int]) -> str:
    hidden, seq_len, batch, tp, dp = config
    return f"H={hidden} SL={seq_len} B={batch} TP={tp} DP={dp}"


def _render_search_text(result) -> str:
    from repro.core.report import format_ms, format_pct

    lines = [
        f"sweep: {result.evaluated_points:,}/{result.raw_points:,} points "
        f"evaluated in {result.chunk_count} chunks "
        f"(chunk size {result.chunk_size}, jobs {result.jobs}, "
        f"mode {result.mode}, {result.wall_time_s:.2f}s, "
        f"cache hits {result.cache_hits})"
    ]
    prune_meta = result.meta.get("prune")
    if prune_meta is not None:
        if prune_meta["enabled"]:
            # The fraction's base excludes the points replayed from the
            # cache (none without --cache-dir).
            unreplayed = (prune_meta["feasible_points"]
                          - prune_meta["cached_points"])
            lines.append(
                f"prune: {prune_meta['pruned_chunks']} of "
                f"{prune_meta['chunks']} chunks evaluated and pruned "
                f"before reduction; {prune_meta['exact_chunks']} reduced "
                f"({prune_meta['exact_point_fraction']:.1%} of "
                f"{unreplayed:,} feasible points) -- "
                f"results bit-identical to exhaustive"
            )
        else:
            lines.append(f"prune: disabled -- {prune_meta['reason']}")
    for label, payload in result.reductions.items():
        value_fmt = format_pct if label.endswith("fraction") else format_ms
        lines.append("")
        lines.append(f"{label}:")
        if "entries" in payload:
            entries = payload["entries"]
            if not entries:
                lines.append("  (empty)")
            for entry in entries:
                if "value" in entry:
                    lines.append(f"  {_format_config(entry['config'])}  "
                                 f"{value_fmt(entry['value'])}")
                else:
                    lines.append(f"  {_format_config(entry['config'])}  "
                                 f"x={format_ms(entry['x'])} "
                                 f"y={format_ms(entry['y'])}")
        elif "counts" in payload:
            if payload["count"]:
                lines.append(
                    f"  n={payload['count']:,} mean={payload['mean']:.4f} "
                    f"p50={payload['p50']:.4f} p90={payload['p90']:.4f} "
                    f"p99={payload['p99']:.4f} "
                    f"range=[{payload['min']:.4f}, {payload['max']:.4f}]"
                )
            else:
                lines.append("  (empty)")
        else:
            for name in ("min", "max"):
                entry = payload.get(name)
                if entry is not None:
                    lines.append(f"  {name}: "
                                 f"{_format_config(entry['config'])}  "
                                 f"{format_ms(entry['value'])}")
    return "\n".join(lines)


def _cmd_search(args: argparse.Namespace) -> int:
    import json

    from repro.core.gridplan import (
        FitsDeviceMemory,
        GridConstraint,
        GridSpec,
        MaxWorldSize,
    )
    from repro.core.reducers import (
        ArgExtrema,
        Histogram,
        ParetoFront,
        TopK,
    )
    from repro.runtime.session import Session, get_session

    constraints: List[GridConstraint] = []
    if args.max_world is not None:
        constraints.append(MaxWorldSize(args.max_world))
    if args.max_memory_gb is not None:
        constraints.append(FitsDeviceMemory(
            capacity_bytes=int(args.max_memory_gb * (1 << 30))
        ))
    kinds = args.reduce or ["top-k", "pareto", "hist"]
    try:
        spec = GridSpec(
            hidden=tuple(args.hidden),
            seq_len=tuple(args.seq_len),
            batch=tuple(args.batch),
            tp=tuple(args.tp),
            dp=tuple(args.dp),
            constraints=tuple(constraints),
        )
        reducers = []
        for kind in dict.fromkeys(kinds):
            if kind == "top-k":
                reducers.append(TopK(args.metric, k=args.k,
                                     largest=args.largest))
            elif kind == "pareto":
                reducers.append(ParetoFront())
            elif kind == "hist":
                reducers.append(Histogram("serialized_comm_fraction"))
            else:
                reducers.append(ArgExtrema(args.metric))
    except (KeyError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    session = Session(cache_dir=args.cache_dir,
                      check=True if args.check else None) \
        if (args.cache_dir or args.check) else get_session()
    try:
        result = session.stream_sweep(
            spec, reducers, mode=args.mode,
            chunk_size=args.chunk_size, jobs=args.jobs,
            prune=args.prune,
            # A one-shot process never reads back memory-only chunk
            # records, so only a --cache-dir store is worth keying.
            use_cache=args.cache_dir is not None,
        )
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.format == "json":
        document = {
            "raw_points": result.raw_points,
            "evaluated_points": result.evaluated_points,
            "chunk_count": result.chunk_count,
            "chunk_size": result.chunk_size,
            "jobs": result.jobs,
            "mode": result.mode,
            "cache_hits": result.cache_hits,
            "prune": result.meta.get("prune"),
            "reductions": result.reductions,
        }
        _emit(json.dumps(document, indent=2), args.output)
    else:
        _emit(_render_search_text(result), args.output)
    return 0


#: Subcommands in help order: name -> (one-line help, the function that
#: adds the subcommand's arguments, the function that runs it).
_COMMANDS = {
    "analyze": ("break down one training configuration",
                _analyze_arguments, _cmd_analyze),
    "experiment": ("reproduce a paper table/figure", _experiment_arguments,
                   _cmd_experiment),
    "check": ("verify the engines: differential oracle + "
              "fault-seeding self-test", _check_arguments, _cmd_check),
    "search": ("stream a large (H, SL, B, TP, DP) grid through "
               "chunked parallel evaluation + online reducers",
               _search_arguments, _cmd_search),
    "zoo": ("print the Table 2 model zoo", _zoo_arguments, _cmd_zoo),
    "forecast": ("synthesize and analyze future Transformers",
                 _forecast_arguments, _cmd_forecast),
    "cache": ("inspect or clear the on-disk result cache", _cache_arguments,
              _cmd_cache),
    "plan": ("rank (TP, DP, PP) layouts for a device budget",
             _plan_arguments, _cmd_plan),
}


_exit_freeze_registered = False


def _freeze_at_exit() -> None:
    """Skip the collector's final pass when the interpreter exits.

    Everything a command built -- modules, the session, NumPy's state
    -- lives until exit, and interpreter teardown would otherwise walk
    it all in one last full collection.  ``gc.freeze`` at exit moves it
    to the permanent generation first, so that pass has nothing to
    scan.  Nothing relies on the pass: every file is closed before
    ``main`` returns (output inside ``with``, cache entries by
    ``write_text`` plus ``os.replace``), and the interpreter flushes
    stdout whether or not the collector runs.  The collector stays on
    while a command runs.  Registered once per process, however often
    ``main`` is called.
    """
    global _exit_freeze_registered
    if not _exit_freeze_registered:
        atexit.register(gc.freeze)
        _exit_freeze_registered = True


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    _freeze_at_exit()
    if argv is None:
        argv = sys.argv[1:]
    # Only the invoked subcommand needs its arguments; help, an unknown
    # command or none at all get the full parser.
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    args = _parser(command).parse_args(argv)
    _, _, run = _COMMANDS[args.command]
    try:
        return run(args)
    except BrokenPipeError:
        # Output truncated by a downstream pipe (e.g. `| head`): fine.
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
