"""``prob-slice``: a small command-line front end.

Usage::

    prob-slice FILE.prob               # print the sliced program
    prob-slice FILE.prob --show-pre    # also print the pre-pass output
    prob-slice FILE.prob --stats       # sizes and influencer sets
    prob-slice FILE.prob --simplify    # constant-propagation post-pass
    prob-slice FILE.prob --exact       # exact posterior of both versions
    prob-slice FILE.prob --slicer ab   # Amtoft–Banerjee CFG slicing
                                       # instead of the default OBS/SVF
                                       # pipeline
    prob-slice FILE.prob --infer mh --samples 2000 --jobs 4
                                       # sample the sliced posterior on
                                       # 4 worker processes
    prob-slice FILE.prob --cache-dir .prob-cache
                                       # reuse slices/compilations across
                                       # invocations (content-addressed)
    prob-slice FILE.prob --infer mh --jobs 2 --trace trace.json \
        --trace-format chrome          # record spans/metrics; load the
                                       # file in chrome://tracing or
                                       # https://ui.perfetto.dev
    prob-slice FILE.prob --infer mh --progress --metrics-summary
                                       # live progress line + final
                                       # stage-timing/counter summary
    prob-slice FILE.prob --passes obs,svf,ssa,slice,constprop \
        --print-after-each --verify-each
                                       # run an explicit pass pipeline,
                                       # printing and verifying the
                                       # program after every pass
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .core.parser import ProbSyntaxError, parse
from .core.printer import pretty
from .semantics.exact import ExactEngineError, exact_inference
from .transforms.pipeline import run_sli, sli

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prob-slice",
        description=(
            "Slice a PROB probabilistic program with respect to its "
            "return expression (Hur et al., PLDI 2014)."
        ),
        epilog=(
            "This is the one-shot frontend; `python -m repro.serve` runs "
            "the same pipeline as an always-on HTTP service (submit/poll "
            "jobs, SSE snapshot streams, cache-warmed multi-tenancy)."
        ),
    )
    parser.add_argument(
        "file", nargs="?", help="PROB source file ('-' for stdin)"
    )
    parser.add_argument(
        "--benchmark",
        metavar="NAME",
        help=(
            "run a Table-1 benchmark model by name instead of FILE "
            "(repro.models.registry; e.g. Ex3, BayesianLinearRegression)"
        ),
    )
    parser.add_argument(
        "--show-pre",
        action="store_true",
        help="also print the OBS/SVF/SSA pre-pass output",
    )
    parser.add_argument(
        "--stats", action="store_true", help="print size and influencer stats"
    )
    parser.add_argument(
        "--simplify",
        action="store_true",
        help="run the constant-propagation post-pass",
    )
    parser.add_argument(
        "--no-obs",
        action="store_true",
        help="disable the OBS transformation (larger slices)",
    )
    parser.add_argument(
        "--slicer",
        metavar="NAME",
        default="svf",
        help=(
            "slicing theory: 'svf' (default — the paper's OBS/SVF/SSA "
            "pipeline; slices speak SSA names) or 'ab' (Amtoft–Banerjee "
            "weak slice sets computed directly on the CFG; slices speak "
            "source variable names).  Both are verified the same way "
            "(--verify-each) and cached under separate keys"
        ),
    )
    parser.add_argument(
        "--exact",
        action="store_true",
        help="print the exact posterior of the original and the slice",
    )
    parser.add_argument(
        "--factorize",
        action="store_true",
        help=(
            "partition the sliced program into independent factors; "
            "prints one standalone program per factor (with --infer: "
            "each factor is inferred separately and the sub-posteriors "
            "recombine exactly; with --exact: the product of factor "
            "posteriors is compared against the monolithic one)"
        ),
    )
    parser.add_argument(
        "--explain",
        metavar="VAR",
        help="explain why VAR is (or is not) in the slice",
    )
    parser.add_argument(
        "--dot",
        action="store_true",
        help="emit the dependence graph as Graphviz DOT instead of code",
    )
    parser.add_argument(
        "--emit-cfg",
        action="store_true",
        help=(
            "emit the preprocessed program's control-flow graph "
            "(with control-dependence edges) as Graphviz DOT"
        ),
    )
    passes = parser.add_argument_group("pass pipeline (repro.passes)")
    passes.add_argument(
        "--passes",
        metavar="NAMES",
        help=(
            "run a custom comma-separated pass pipeline instead of the "
            "default SLI one (e.g. 'obs,svf,ssa,slice,constprop'); "
            "available passes: obs, svf, ssa, slice, cfgslice, "
            "factorize, constprop, copyprop"
        ),
    )
    passes.add_argument(
        "--print-after-each",
        action="store_true",
        help="print the program after every pass",
    )
    passes.add_argument(
        "--verify-each",
        action="store_true",
        help=(
            "re-validate the program after every pass and spot-check "
            "distribution-preserving passes with seeded interpreter runs"
        ),
    )
    runtime = parser.add_argument_group("runtime (inference on the slice)")
    runtime.add_argument(
        "--infer",
        metavar="ENGINE",
        choices=sorted(_ENGINE_FACTORIES),
        help=(
            "run this inference engine on the sliced program and print "
            "posterior summaries instead of code; one of: "
            + ", ".join(sorted(_ENGINE_FACTORIES))
        ),
    )
    runtime.add_argument(
        "--samples",
        type=int,
        default=2_000,
        help="sample budget for --infer (default: 2000)",
    )
    runtime.add_argument(
        "--seed", type=int, default=0, help="master RNG seed (default: 0)"
    )
    runtime.add_argument(
        "--compiled",
        action="store_true",
        help=(
            "compile the program to Python closures before sampling "
            "(mh/church/importance/rejection/smc; ignored by gibbs)"
        ),
    )
    runtime.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help=(
            "fan --infer's sampling out over N worker processes "
            "(chains for mh/church/gibbs, i.i.d. draws for "
            "importance/rejection, particle islands for smc); N=1 is "
            "bit-identical to the sequential engine (default: 1)"
        ),
    )
    runtime.add_argument(
        "--cache-dir",
        metavar="DIR",
        help=(
            "persist slices and compiled executors under DIR, keyed by "
            "program content fingerprint, so repeated invocations skip "
            "the slicing pipeline and recompilation"
        ),
    )
    obs = parser.add_argument_group("observability (repro.obs)")
    obs.add_argument(
        "--trace",
        metavar="FILE",
        help=(
            "record spans (slicing stages, compilation, per-worker "
            "inference) and metrics, and write them to FILE on exit"
        ),
    )
    obs.add_argument(
        "--trace-format",
        choices=("jsonl", "chrome"),
        default="jsonl",
        help=(
            "trace file format: 'jsonl' (one record per line, schema in "
            "repro/obs/trace_schema.json) or 'chrome' (trace-event JSON "
            "for chrome://tracing / ui.perfetto.dev) (default: jsonl)"
        ),
    )
    obs.add_argument(
        "--metrics-summary",
        action="store_true",
        help="print stage timings, counters, and gauges after the run",
    )
    obs.add_argument(
        "--progress",
        action="store_true",
        help="live stderr progress line during --infer (engine metrics)",
    )
    obs.add_argument(
        "--watch",
        action="store_true",
        help=(
            "live multi-row terminal dashboard (one row per engine and "
            "per parallel worker, plus health warnings); implies live "
            "snapshot telemetry"
        ),
    )
    obs.add_argument(
        "--stream-metrics",
        metavar="FILE",
        help=(
            "stream NDJSON snapshots to FILE ('-' for stdout) as the run "
            "progresses; schema in repro/obs/snapshot_schema.json "
            "(validate with python -m repro.obs.validate --schema snapshot)"
        ),
    )
    obs.add_argument(
        "--snapshot-cadence",
        type=float,
        default=0.25,
        metavar="SECONDS",
        help=(
            "minimum seconds between live snapshots for "
            "--watch/--stream-metrics (default: 0.25; 0 snapshots every "
            "recorded event)"
        ),
    )
    return parser


def _engine_mh(args):
    from .inference.mh import MetropolisHastings

    return MetropolisHastings(
        n_samples=args.samples, seed=args.seed, compiled=args.compiled
    )


def _engine_church(args):
    from .inference.tracemh import ChurchTraceMH

    return ChurchTraceMH(
        n_samples=args.samples, seed=args.seed, compiled=args.compiled
    )


def _engine_importance(args):
    from .inference.importance import LikelihoodWeighting

    return LikelihoodWeighting(
        n_samples=args.samples, seed=args.seed, compiled=args.compiled
    )


def _engine_rejection(args):
    from .inference.rejection import RejectionSampler

    return RejectionSampler(
        n_samples=args.samples, seed=args.seed, compiled=args.compiled
    )


def _engine_smc(args):
    from .inference.smc import SMCSampler

    return SMCSampler(
        n_particles=args.samples, seed=args.seed, compiled=args.compiled
    )


def _engine_gibbs(args):
    from .inference.gibbs import GibbsSampler

    return GibbsSampler(n_samples=args.samples, seed=args.seed)


_ENGINE_FACTORIES = {
    "mh": _engine_mh,
    "church": _engine_church,
    "importance": _engine_importance,
    "rejection": _engine_rejection,
    "smc": _engine_smc,
    "gibbs": _engine_gibbs,
}


def _run_inference(args, result, cache, health=None) -> int:
    """The --infer path: sample the sliced posterior, optionally in
    parallel, and print a summary.  ``health`` is the
    :class:`~repro.obs.health.HealthTracker` subscribed to the live
    recorder, if any."""
    from .inference.base import InferenceError
    from .metrics.online import cross_chain_diagnostics
    from .runtime import ParallelRunner

    from .obs import current_recorder

    runner = ParallelRunner(n_workers=args.jobs, cache=cache)
    engine = _ENGINE_FACTORIES[args.infer](args)
    factored = args.factorize and result.factors is not None
    try:
        with current_recorder().span(
            "infer", engine=engine.name, jobs=args.jobs, seed=args.seed
        ):
            if factored:
                inferred = runner.run_factored(engine, result.factors)
            else:
                inferred = runner.run(engine, result.sliced)
    except InferenceError as exc:
        print(f"inference error: {exc}", file=sys.stderr)
        return 1
    # Live telemetry: publish the terminal snapshot first (a short run
    # may never have crossed the cadence, and the monitors must see the
    # final progress state), then finalize the health monitors against
    # the merged result and attach the report (printed below,
    # machine-readable on the result itself).
    if health is not None:
        current_recorder().publish()
        inferred.health = health.finalize(inferred)
    print(f"// engine: {engine.name}  jobs: {args.jobs}  seed: {args.seed}")
    if factored:
        print(
            f"// factors: {len(result.factors)} "
            f"(recombined sub-posteriors; {result.factors.dropped} "
            f"prior-only components dropped)"
        )
    print(
        f"// samples: {len(inferred.samples)}  "
        f"statements: {inferred.statements_executed}  "
        f"elapsed: {inferred.elapsed_seconds:.3f}s"
    )
    if inferred.n_proposals:
        print(f"// acceptance rate: {inferred.acceptance_rate:.3f}")
    try:
        print(f"// mean: {inferred.mean():.6g}")
        print(f"// variance: {inferred.variance():.6g}")
    except InferenceError as exc:
        print(f"// moments unavailable: {exc}")
    if inferred.chains and len(inferred.chains) > 1:
        try:
            summary = cross_chain_diagnostics(inferred)
        except ValueError:
            pass
        else:
            print(
                f"// cross-chain: R-hat {summary.r_hat:.4f}  "
                f"ESS {summary.ess:.1f}  chains {summary.n_chains}"
            )
    if inferred.health is not None:
        for line in inferred.health.summary().splitlines():
            print(f"// {line}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    from .passes import SLICER_REGISTRY

    if args.slicer not in SLICER_REGISTRY:
        print(
            f"error: unknown slicer {args.slicer!r}; available: "
            + ", ".join(sorted(SLICER_REGISTRY)),
            file=sys.stderr,
        )
        return 2
    if (args.file is None) == (args.benchmark is None):
        print(
            "error: give exactly one of FILE or --benchmark NAME",
            file=sys.stderr,
        )
        return 2
    if args.benchmark is not None:
        from .models import benchmark

        try:
            program = benchmark(args.benchmark).bench()
        except KeyError as exc:
            print(f"error: {exc.args[0]}", file=sys.stderr)
            return 2
    else:
        if args.file == "-":
            source = sys.stdin.read()
        else:
            try:
                with open(args.file) as f:
                    source = f.read()
            except OSError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
        try:
            program = parse(source)
        except ProbSyntaxError as exc:
            print(f"syntax error: {exc}", file=sys.stderr)
            return 1
    live = args.watch or args.stream_metrics is not None
    if not (args.trace or args.metrics_summary or args.progress or live):
        return _dispatch(args, program)
    # Observability path: record the whole slice→(compile→)infer run,
    # then export / summarize.  --watch / --stream-metrics also
    # subscribe the dashboard / NDJSON stream and the health monitors,
    # so the recorder publishes live snapshots while it runs.
    from .obs import (
        HealthTracker,
        ProgressLine,
        SnapshotStreamWriter,
        TraceRecorder,
        WatchDashboard,
        format_metrics_summary,
        use_recorder,
        write_trace,
    )

    progress_line = ProgressLine(force=True) if args.progress else None
    watch = None
    stream = None
    health = None
    subscribers = []
    if live:
        if args.stream_metrics is not None:
            stream = SnapshotStreamWriter(args.stream_metrics)
            subscribers.append(stream)
        if args.watch:
            watch = WatchDashboard(force=True)
            subscribers.append(watch)
        health = HealthTracker()
        subscribers.append(health)
        if watch is not None:
            health.on_warning(watch.note_warning)
    recorder = TraceRecorder(
        on_progress=progress_line,
        cadence=max(0.0, args.snapshot_cadence),
        subscribers=subscribers,
    )
    try:
        with use_recorder(recorder):
            status = _dispatch(args, program, health)
    finally:
        recorder.publish()  # terminal snapshot (live runs only)
        if watch is not None:
            watch.close()
        if stream is not None:
            stream.close()
        if progress_line is not None:
            progress_line.close()
    if args.trace:
        n = write_trace(recorder, args.trace, args.trace_format)
        unit = "records" if args.trace_format == "jsonl" else "events"
        print(f"// trace: {n} {unit} -> {args.trace}", file=sys.stderr)
    if args.metrics_summary:
        print(format_metrics_summary(recorder))
    return status


def _print_after_pass(pazz, ctx) -> None:
    print(f"// --- after pass {pazz.name} ---")
    print(pretty(ctx.program))


def _dispatch(args, program, health=None) -> int:
    from .passes import PassVerificationError

    cache = None
    if args.cache_dir:
        from .runtime import ProgramCache

        cache = ProgramCache(cache_dir=args.cache_dir)
    on_after_pass = _print_after_pass if args.print_after_each else None
    # Three seeds give the spot-check some behavioural coverage while
    # staying cheap (two interpreter runs per seed per pass).
    seeds = tuple(range(args.seed, args.seed + 3)) if args.verify_each else ()
    ctx = None
    try:
        if args.passes:
            from .passes import PassManager, build_pipeline
            from .transforms.pipeline import _result_from_context

            try:
                pipeline = build_pipeline(args.passes)
            except ValueError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            manager = PassManager(
                pipeline,
                verify=args.verify_each,
                spot_check_seeds=seeds,
                on_after_pass=on_after_pass,
            )
            ctx = manager.run(program)
            if "transformed" in ctx.artifacts:
                result = _result_from_context(program, ctx)
            else:
                # No slice pass ran: there is no SliceResult to report
                # on, just the rewritten program.
                result = None
        elif args.emit_cfg or args.print_after_each:
            # These need the pass context (the cached lowering, the
            # per-pass hook), so skip the cache short-circuit.
            result, ctx = run_sli(
                program,
                use_obs=not args.no_obs,
                simplify=args.simplify,
                factorize=args.factorize,
                slicer=args.slicer,
                verify=args.verify_each,
                spot_check_seeds=seeds,
                on_after_pass=on_after_pass,
            )
        else:
            result = sli(
                program,
                use_obs=not args.no_obs,
                simplify=args.simplify,
                factorize=args.factorize,
                slicer=args.slicer,
                cache=cache,
                verify=args.verify_each,
                spot_check_seeds=seeds,
            )
    except PassVerificationError as exc:
        print(f"pass verification failed: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        # Invalid slicer/option combination (e.g. --factorize with the
        # ab slicer, whose pipeline has no single-variable-form graph).
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.emit_cfg:
        from .analysis.dot import cfg_dot

        # The CFG the analyses actually ran on: the pipeline's cached
        # pre-slice lowering, read straight off the pass context.
        print(cfg_dot(ctx))
        return 0
    if result is None:
        print(pretty(ctx.program), end="")
        return 0
    if args.infer:
        return _run_inference(args, result, cache, health)
    if args.dot:
        from .analysis.dot import slice_result_dot

        print(slice_result_dot(result))
        return 0
    if args.explain:
        from .analysis.explain import format_explanation

        print(format_explanation(result, args.explain))
        return 0
    if args.show_pre:
        pre = "OBS; SVF; SSA" if args.slicer == "svf" else "OBS"
        print(f"// --- after {pre} ---")
        print(pretty(result.transformed))
        print("// --- slice ---")
    if args.factorize and result.factors is not None:
        factors = result.factors
        for factor in factors.factors:
            owns = ", ".join(factor.returns) or "(evidence only)"
            print(f"// --- factor {factor.index}: {owns} ---")
            print(pretty(factor.program), end="")
        if not factors.factors:
            print("// (no factors: constant return)")
    else:
        print(pretty(result.sliced), end="")
    if args.stats:
        print(
            f"// statements: {result.original_size} source, "
            f"{result.transformed_size} pre-pass, {result.sliced_size} sliced "
            f"({result.reduction:.1%} removed)"
        )
        print(f"// observed: {', '.join(sorted(result.observed)) or '(none)'}")
        print(f"// influencers: {', '.join(sorted(result.influencers))}")
        if args.factorize and result.factors is not None:
            sizes = ", ".join(str(f.size) for f in result.factors.factors)
            print(
                f"// factors: {len(result.factors)} "
                f"(sizes: {sizes or 'none'}; "
                f"{result.factors.dropped} dropped)"
            )
    if args.exact:
        try:
            original = exact_inference(program).distribution
            sliced = exact_inference(result.sliced).distribution
        except (ExactEngineError, ValueError) as exc:
            print(f"// exact inference unavailable: {exc}", file=sys.stderr)
            return 0
        print(f"// exact original: {original}")
        print(f"// exact sliced:   {sliced}")
        print(f"// agree: {original.allclose(sliced, atol=1e-9)}")
        if args.factorize and result.factors is not None:
            from .semantics.factored import factored_exact

            try:
                product = factored_exact(result.factors).distribution
            except (ExactEngineError, ValueError) as exc:
                print(
                    f"// factored exact unavailable: {exc}", file=sys.stderr
                )
                return 0
            print(f"// exact factored: {product}")
            print(
                f"// factored agrees: "
                f"{product.allclose(original, atol=1e-9)}"
            )
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
