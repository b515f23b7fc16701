"""Command-line interface.

``repro figures``                list the reproducible paper figures
``repro run-figure fig7 fig8``   reproduce figures (or ``all``), sharing their cells
``repro run --engine lsm ...``   run a single custom experiment
``repro campaign --preset ...``  run a grid of experiments on a worker pool
``repro profile``                cProfile one fig-2 cell (top-N hot spots)
``repro pitfalls``               print the seven-pitfall checklist
"""

from __future__ import annotations

import argparse
import sys

from repro.bench import WORKLOADS, profile_case
from repro.campaign import PRESETS, run_campaign
from repro.core.experiment import Engine, ExperimentSpec, run_experiment
from repro.core.figures import CELL_COUNTS, FIGURES, SCALES
from repro.core.metrics import end_to_end_write_amplification
from repro.core.pitfalls import PITFALLS, EvaluationPlan, check_plan, render_report
from repro.core.report import (render_campaign, render_series,
                               render_shard_table, render_table)
from repro.errors import CampaignError, ConfigError
from repro.flash.profiles import PROFILES
from repro.flash.state import DriveState
from repro.fleet import ARRIVALS, ROUTERS
from repro.fleet.pool import AVAILABILITY_TARGET
from repro.rng import DEFAULT_SEED
from repro.units import MIB
from repro.workload.keys import DISTRIBUTIONS


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code (2: a bad spec; 1: a
    campaign a dead worker cut short)."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    try:
        return args.func(args)
    except (ConfigError, CampaignError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ConfigError) else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Toward a Better Understanding and Evaluation of "
            "Tree Structures on Flash SSDs' (VLDB 2020)."
        ),
    )
    sub = parser.add_subparsers(dest="command")

    figures = sub.add_parser("figures", help="list reproducible figures")
    figures.set_defaults(func=_cmd_figures)

    run_figure = sub.add_parser(
        "run-figure", help="reproduce paper figures in one process")
    run_figure.add_argument("figures", nargs="+", metavar="figure",
                            choices=[*FIGURES, "all"])
    run_figure.add_argument("--scale", choices=sorted(SCALES), default="default")
    run_figure.add_argument("--out", help="also write the rendered text to a file")
    run_figure.set_defaults(func=_cmd_run_figure)

    run = sub.add_parser("run", help="run a single custom experiment")
    _add_spec_args(run)
    run.add_argument("--trace", metavar="OUT", default=None,
                     help="record a flight-recorder trace of the measured "
                          "phase and write it (Chrome trace_event JSON, "
                          "loadable in Perfetto) to OUT")
    run.set_defaults(func=_cmd_run)

    campaign = sub.add_parser(
        "campaign",
        help="run a declarative experiment grid on a worker pool",
        description=(
            "Expand a preset grid into cells, audit it against the seven "
            "pitfalls, run the cells (in parallel with --workers), and "
            "persist one JSONL record per completed cell.  --resume skips "
            "cells already recorded in the output file.  --render re-renders "
            "a finished JSONL file without running anything."
        ),
    )
    campaign.add_argument("--preset", choices=sorted(PRESETS), default=None)
    campaign.add_argument("--workers", type=int, default=1,
                          help="worker processes (cells are independent "
                               "simulations; default 1 = in-process)")
    campaign.add_argument("--out", default=None,
                          help="JSONL results path (default campaign-<preset>.jsonl)")
    campaign.add_argument("--resume", action="store_true",
                          help="skip cells already recorded in --out")
    campaign.add_argument("--dry-run", action="store_true",
                          help="print the grid and pitfall audit, run nothing")
    campaign.add_argument("--render", metavar="JSONL", default=None,
                          help="render the consolidated table from a finished "
                               "campaign file, running nothing")
    campaign.add_argument("--force", action="store_true",
                          help="with --merge: allow a non-empty output file, "
                               "appending only cells it does not hold yet")
    campaign.add_argument("--merge", metavar="JSONL", nargs="+", default=None,
                          help="merge campaign files: first path is the "
                               "(fresh) output, the rest are inputs; "
                               "duplicate cells are dropped (first wins)")
    campaign.add_argument("--trace", metavar="PREFIX", default=None,
                          help="trace every cell: write one Chrome trace per "
                               "cell to PREFIX-<cellhash>.json and record its "
                               "latency attribution in the JSONL output")
    campaign.set_defaults(func=_cmd_campaign)

    profile = sub.add_parser(
        "profile",
        help="cProfile one fig-2 cell and print the hottest functions",
        description=(
            "Run one fig-2 cell under cProfile and print the top-N "
            "functions (DESIGN.md §8), so perf work starts from measured hot "
            "spots.  Profiles rank; the perf ledger (benchmarks/ledger) "
            "decides."
        ),
    )
    profile.add_argument("--engine", choices=[e.value for e in Engine],
                         default="lsm")
    profile.add_argument("--workload", choices=sorted(WORKLOADS),
                         default="update")
    profile.add_argument("--clients", type=int, default=1,
                         help="1 = inline runner; >1 = pooled cell")
    profile.add_argument("--scale", choices=sorted(SCALES), default="small")
    profile.add_argument("--shards", type=int, default=1,
                         help=">1 profiles the fleet path (router + "
                              "per-shard stacks, DESIGN.md §10)")
    profile.add_argument("--arrival", choices=sorted(ARRIVALS), default=None,
                         help="profile the open-loop fleet driver with this "
                              "arrival process (implies the fleet path)")
    profile.add_argument("--arrival-rate", type=float, default=0.0,
                         help="open-loop offered load, ops/s (with --arrival)")
    profile.add_argument("--queue-cap", type=int, default=0,
                         help="per-shard admission bound (with --arrival; "
                              "0 = spec default)")
    profile.add_argument("--top", type=int, default=30,
                         help="rows to print (default %(default)s)")
    profile.add_argument("--sort", choices=["cumulative", "tottime", "ncalls"],
                         default="cumulative",
                         help="pstats sort key (default %(default)s)")
    profile.add_argument("--out", help="also write the table to a file")
    profile.set_defaults(func=_cmd_profile)

    pitfalls = sub.add_parser("pitfalls", help="print the 7-pitfall checklist")
    pitfalls.set_defaults(func=_cmd_pitfalls)
    return parser


def _add_spec_args(parser: argparse.ArgumentParser) -> None:
    """Register the single-experiment spec flags of `repro run`."""
    parser.add_argument("--engine", choices=[e.value for e in Engine],
                        default="lsm")
    parser.add_argument("--ssd", choices=sorted(PROFILES), default="ssd1")
    parser.add_argument("--state", choices=[s.value for s in DriveState],
                        default="trimmed")
    parser.add_argument("--capacity-mib", type=int, default=128)
    parser.add_argument("--dataset-fraction", type=float, default=0.5)
    parser.add_argument("--value-bytes", type=int, default=4000)
    parser.add_argument("--read-fraction", type=float, default=0.0)
    parser.add_argument("--scan-fraction", type=float, default=0.0)
    parser.add_argument("--scan-length", type=int, default=100,
                        help="keys returned per scan operation")
    parser.add_argument("--delete-fraction", type=float, default=0.0)
    parser.add_argument("--distribution", choices=sorted(DISTRIBUTIONS),
                        default="uniform")
    parser.add_argument("--op-reserved", type=float, default=0.0)
    parser.add_argument("--duration", type=float, default=3.5,
                        help="stop after host writes reach DURATION x capacity")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--clients", type=int, default=1,
                        help="concurrent clients; >1 runs on the event-driven "
                             "scheduler with channel-parallel device timing")
    parser.add_argument("--driver", choices=["auto", "inline", "pool"],
                        default="auto",
                        help="measured-phase driver; 'pool' forces the client "
                             "pool even at one client (bit-identical to "
                             "inline, and it records per-op latencies)")
    parser.add_argument("--shards", type=int, default=1,
                        help="store shards, each with its own SSD; >1 routes "
                             "keys through the fleet router (DESIGN.md §10)")
    parser.add_argument("--router", choices=sorted(ROUTERS), default="hash",
                        help="key-to-shard router (default %(default)s)")
    parser.add_argument("--arrival", choices=sorted(ARRIVALS), default=None,
                        help="open-loop arrival process; ops arrive at "
                             "--arrival-rate instead of being issued by "
                             "closed-loop clients")
    parser.add_argument("--arrival-rate", type=float, default=0.0,
                        help="mean offered load in ops/sec (with --arrival)")
    parser.add_argument("--queue-cap", type=int, default=64,
                        help="per-shard admission bound for open-loop runs; "
                             "arrivals beyond it are rejected, not queued")
    parser.add_argument("--slo-ms", type=float, default=5.0,
                        help="response-time SLO in milliseconds (fleet "
                             "attainment metric; default %(default)s)")
    parser.add_argument("--faults", type=_parse_faults, default=None,
                        metavar="JSON",
                        help="fault plan as a JSON object, e.g. "
                             "'{\"read\": 0.01, \"program\": 0.005}' "
                             "(DESIGN.md §11); off when omitted")
    parser.add_argument("--kill-at", type=float, default=None,
                        help="crash a shard this many virtual seconds into "
                             "the measured phase; it recovers via WAL/journal "
                             "replay when traffic next routes to it "
                             "(open-loop runs only)")
    parser.add_argument("--kill-shard", type=int, default=0,
                        help="which shard --kill-at crashes "
                             "(default %(default)s)")
    parser.add_argument("--retry-limit", type=int, default=3,
                        help="engine + fleet retry budget per op "
                             "(default %(default)s)")
    parser.add_argument("--retry-backoff-ms", type=float, default=0.5,
                        help="base retry backoff, doubled per attempt "
                             "(default %(default)s ms)")
    parser.add_argument("--op-timeout-ms", type=float, default=None,
                        help="drop queued ops older than this at service "
                             "time (client deadline; off when omitted)")


def _parse_faults(text: str):
    """argparse type for --faults: a JSON object (validated by the spec)."""
    import json

    try:
        value = json.loads(text)
    except json.JSONDecodeError as exc:
        raise argparse.ArgumentTypeError(f"--faults must be valid JSON: {exc}")
    if not isinstance(value, dict):
        raise argparse.ArgumentTypeError("--faults must be a JSON object")
    return value


def _spec_from_args(args) -> ExperimentSpec:
    return ExperimentSpec(
        engine=Engine(args.engine),
        ssd=args.ssd,
        drive_state=DriveState(args.state),
        capacity_bytes=args.capacity_mib * MIB,
        dataset_fraction=args.dataset_fraction,
        value_bytes=args.value_bytes,
        read_fraction=args.read_fraction,
        scan_fraction=args.scan_fraction,
        scan_length=args.scan_length,
        delete_fraction=args.delete_fraction,
        distribution=args.distribution,
        op_reserved_fraction=args.op_reserved,
        duration_capacity_writes=args.duration,
        seed=args.seed,
        nclients=args.clients,
        driver=args.driver,
        nshards=args.shards,
        router=args.router,
        arrival=args.arrival,
        arrival_rate=args.arrival_rate,
        queue_cap=args.queue_cap,
        slo_ms=args.slo_ms,
        faults=args.faults,
        kill_at=args.kill_at,
        kill_shard=args.kill_shard,
        retry_limit=args.retry_limit,
        retry_backoff_ms=args.retry_backoff_ms,
        op_timeout_ms=args.op_timeout_ms,
    )


def _cmd_figures(args) -> int:
    for name in sorted(FIGURES):
        print(f"{name:7s} {FIGURES[name].__doc__.strip().splitlines()[0]}")
    return 0


def _cmd_run_figure(args) -> int:
    names = list(FIGURES) if "all" in args.figures else args.figures
    before = dict(CELL_COUNTS)
    texts = []
    for name in names:
        texts.append(FIGURES[name](SCALES[args.scale]).text)
        print(texts[-1])
    print(f"{CELL_COUNTS['run'] - before['run']} cell(s) run, "
          f"{CELL_COUNTS['shared'] - before['shared']} shared")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write("\n\n".join(texts) + "\n")
    return 0


def _cmd_run(args) -> int:
    spec = _spec_from_args(args)
    tracer = None
    if args.trace:
        from repro.obs import Tracer

        tracer = Tracer()
    result = run_experiment(spec, tracer=tracer)
    rows = [
        [f"{s.t:.2f}", f"{s.kv_tput:.0f}", f"{s.dev_write_mbps:.0f}",
         f"{s.dev_read_mbps:.0f}", f"{s.wa_a:.1f}", f"{s.wa_d:.2f}",
         f"{s.space_amp:.2f}"]
        for s in result.samples
    ]
    print(render_series(
        f"{args.engine} on {args.ssd} ({args.state})",
        ["t(s)", "ops/s", "devW MB/s", "devR MB/s", "WA-A", "WA-D", "space amp"],
        rows,
    ))
    if result.out_of_space:
        print("RUN ENDED: out of space")
    open_loop = result.fleet is not None and result.fleet["arrival"] is not None
    if result.client_latencies is not None and not open_loop:
        # Open-loop latencies are per shard, not per client; the fleet
        # per-shard breakdown below already covers them.
        rows = [
            [str(row["client"]), str(row["ops"]), f"{row['mean'] * 1e6:.0f}",
             f"{row['p50'] * 1e6:.0f}", f"{row['p95'] * 1e6:.0f}",
             f"{row['p99'] * 1e6:.0f}"]
            for row in result.client_latencies.summary()
        ]
        print(render_table(
            ["client", "ops", "mean us", "p50 us", "p95 us", "p99 us"],
            rows,
            title=f"per-client latency ({args.clients} clients)",
        ))
    if result.fleet is not None:
        print(_render_fleet(result.fleet))
    if result.steady:
        steady = result.steady
        print(
            f"steady state ({'CUSUM' if steady.detected else 'tail fallback'}): "
            f"{steady.kv_tput:.0f} ops/s, WA-A={steady.wa_a:.1f}, "
            f"WA-D={steady.wa_d:.2f}, end-to-end WA="
            f"{end_to_end_write_amplification(steady):.1f}, "
            f"space amp={steady.space_amp:.2f}"
        )
    if tracer is not None:
        print()
        _finish_trace(tracer, result, args.trace)
    return 0


def _render_fleet(fleet: dict) -> str:
    """Fleet summary block for `repro run`: load line + per-shard table."""
    lines = []
    if fleet["arrival"] is not None:
        lines.append(
            f"fleet ({fleet['nshards']} shard(s), {fleet['router']} router, "
            f"{fleet['arrival']} arrivals @ {fleet['arrival_rate']:g}/s, "
            f"queue cap {fleet['queue_cap']}): "
            f"offered {fleet['offered']} (measured {fleet['offered_rate']:.0f}/s), "
            f"admitted {fleet['admitted']}, rejected {fleet['rejected']}, "
            f"goodput {fleet['goodput']:.0f} ops/s, "
            f"SLO({fleet['slo_ms']:g} ms) attainment "
            f"{fleet['slo_attainment'] * 100:.1f}%"
        )
    else:
        lines.append(
            f"fleet ({fleet['nshards']} shard(s), {fleet['router']} router, "
            f"closed-loop): {fleet['completed']} ops, "
            f"goodput {fleet['goodput']:.0f} ops/s, "
            f"SLO({fleet['slo_ms']:g} ms) attainment "
            f"{fleet['slo_attainment'] * 100:.1f}%"
        )
    if fleet.get("availability") is not None:
        lines.append(
            f"availability {fleet['availability'] * 100:.2f}% "
            f"(error-budget burn {fleet['error_budget_burn']:.2f}x of "
            f"{(1 - AVAILABILITY_TARGET) * 100:g}%), "
            f"retry amplification {fleet['retry_amplification']:.3f}x, "
            f"failed {fleet['failed']}, timeouts {fleet['timeouts']}, "
            f"retries {fleet['retries']}, lost keys {fleet['lost_keys']}"
        )
    lines.append(render_shard_table(fleet["per_shard"],
                                    title="per-shard breakdown"))
    return "\n".join(lines)


def _finish_trace(tracer, result, path: str) -> None:
    """Close a traced run: write the Chrome trace to *path*, then print
    the attribution table and what the ring evicted."""
    from repro.obs import render_attribution, write_chrome_trace

    nevents = write_chrome_trace(tracer.events(), path,
                                 attribution=result.attribution)
    print(render_attribution(result.attribution,
                             title="per-op latency attribution"))
    print(f"trace written to {path} ({nevents} events, "
          f"{tracer.dropped} older ones evicted from the ring; "
          f"open at https://ui.perfetto.dev)")


def _cmd_campaign(args) -> int:
    if args.merge is not None:
        from repro.campaign import merge_stores

        if len(args.merge) < 2:
            raise ConfigError(
                "--merge needs an output path and at least one input")
        out, inputs = args.merge[0], args.merge[1:]
        merged, dropped = merge_stores(out, inputs, force=args.force)
        print(f"merged {merged} cell(s) from {len(inputs)} file(s) into {out}"
              + (f" ({dropped} duplicate(s) dropped)" if dropped else ""))
        return 0
    if args.render is not None:
        from repro.campaign.store import CampaignStore

        store = CampaignStore(args.render)
        records = list(store.load().values())  # file (= completion) order
        if not records:
            print(f"no completed cells in {args.render}")
            return 1
        names = {record.get("campaign", "?") for record in records}
        print(render_campaign(
            records,
            title=f"campaign {'/'.join(sorted(names))!s} "
                  f"({len(records)} cells, from {args.render})",
        ))
        return 0
    if args.preset is None:
        raise ConfigError("--preset is required (or pass --render FILE)")
    campaign = PRESETS[args.preset]
    cells = campaign.cells()
    print(f"campaign {campaign.name!r}: {len(cells)} cells over "
          f"axes {', '.join(campaign.axis_names)}")
    violations = check_plan(campaign.plan())
    print("pitfall audit of the grid itself:")
    print(render_report(violations))
    if args.dry_run:
        for cell in cells:
            print(f"  {cell.stable_hash()}  {cell.name}")
        return 0

    out = args.out or f"campaign-{args.preset}.jsonl"
    done = 0

    def progress(cell) -> None:
        nonlocal done
        done += 1
        steady = cell.record.get("steady")
        tput = f"{steady['kv_tput'] / 1000.0:.2f} KOps/s" if steady else "no steady"
        status = "out-of-space" if cell.record.get("out_of_space") else tput
        print(f"  [{done}] {cell.spec.name}: {status}", flush=True)

    outcome = run_campaign(
        campaign, workers=args.workers, out=out,
        resume=args.resume, progress=progress, trace_out=args.trace,
    )
    print(f"{outcome.ran} cell(s) run, {outcome.skipped} resumed from {out} "
          f"in {outcome.wall_seconds:.1f}s with {args.workers} worker(s)")
    print()
    print(render_campaign(outcome.records, title=f"campaign {campaign.name!r}"))
    return 0


def _cmd_profile(args) -> int:
    table = profile_case(
        Engine(args.engine), args.scale, workload_name=args.workload,
        nclients=args.clients, top=args.top,
        sort=args.sort, nshards=args.shards, arrival=args.arrival,
        arrival_rate=args.arrival_rate, queue_cap=args.queue_cap,
    )
    print(table)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(table)
    return 0


def _cmd_pitfalls(args) -> int:
    print("The seven benchmarking pitfalls (Didona et al., VLDB 2020):")
    for pid, (title, guideline) in PITFALLS.items():
        print(f"  {pid}. {title}")
        print(f"     guideline: {guideline}")
    print()
    print("A naive evaluation plan hits all of them:")
    print(render_report(check_plan(EvaluationPlan())))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
