"""Command-line entry point: ``python -m repro <experiment>``.

Runs one experiment (or the full report) and prints the same rows/series
the paper's tables and figures show.  ``--plot`` renders curve figures as
ASCII charts; ``--export-json PATH`` archives the raw result.

Runs are backed by the content-addressed artifact store by default
(``$REPRO_CACHE_DIR`` or ``~/.cache/repro``): built models and frozen
results are replayed when their inputs are unchanged.  ``--no-cache``
disables the store, ``--cache-dir`` relocates it, and ``--jobs N`` fans
the report's experiments out over worker processes.

``repro lint [paths]`` dispatches to the static analyser
(:mod:`repro.analysis`) instead of running an experiment; ``repro
profile <experiment>`` runs one experiment under the tracer
(:mod:`repro.obs`) and exports spans/metrics; ``repro serve`` runs the
partition-service daemon (:mod:`repro.service`); ``repro
list-experiments`` prints the registry.
"""

from __future__ import annotations

import argparse
import sys

from repro.experiments.common import ExperimentConfig
from repro.experiments.export import export_json
from repro.experiments.registry import all_experiments, get_experiment
from repro.store import ResultStore, default_store, use_store
from repro.util.asciiplot import line_plot


def _runnable_names() -> list[str]:
    """The directly runnable experiments (ablations run via 'ablations')."""
    return [e.name for e in all_experiments() if e.kind != "ablation"]


def _plot_fig2(result) -> str:
    return line_plot(
        result.sizes,
        {"s5": result.s5, "s6": result.s6},
        title="Figure 2: socket speed functions (GFlops vs blocks)",
        y_label="GFlops",
        x_label="blocks",
    )


def _plot_fig3(result) -> str:
    return line_plot(
        result.sizes,
        {"v1": result.v1, "v2": result.v2, "v3": result.v3},
        title=(
            "Figure 3: GTX680 kernel versions (GFlops vs blocks; memory "
            f"limit ~{result.memory_limit_blocks:.0f})"
        ),
        y_label="GFlops",
        x_label="blocks",
    )


def _plot_fig7(result) -> str:
    return line_plot(
        result.sizes,
        {
            "homogeneous": result.homogeneous,
            "CPM": result.cpm,
            "FPM": result.fpm,
        },
        title="Figure 7: execution time vs matrix size (seconds)",
        y_label="s",
        x_label="n",
    )


def _plot_fig6(result) -> str:
    ranks = list(range(len(result.cpm_times)))
    return line_plot(
        ranks,
        {"CPM": result.cpm_times, "FPM": result.fpm_times},
        title="Figure 6: per-process computation time (seconds vs rank)",
        y_label="s",
        x_label="rank",
    )


_PLOTTERS = {
    "fig2": _plot_fig2,
    "fig3": _plot_fig3,
    "fig6": _plot_fig6,
    "fig7": _plot_fig7,
}


def _seed_range(text: str) -> range:
    """``A:B`` -> ``range(A, B)`` (Python slice convention, B excluded)."""
    start, sep, stop = text.partition(":")
    try:
        seeds = range(int(start), int(stop))
    except ValueError:
        seeds = None
    if not sep or not seeds:
        raise argparse.ArgumentTypeError(
            f"expected A:B with integers A < B, got {text!r}"
        )
    return seeds


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiment",
        description=(
            "Reproduce the tables and figures of Zhong, Rychkov, "
            "Lastovetsky (CLUSTER 2012) on the simulated hybrid node."
        ),
        epilog=(
            "Separate subcommands: `repro lint [paths] [--help]` runs the "
            "static analyser; `repro profile <experiment> [--help]` runs "
            "one experiment under the tracer; `repro serve [--help]` runs "
            "the partition service daemon."
        ),
    )
    parser.add_argument(
        "experiment",
        choices=sorted(_runnable_names())
        + ["report", "models", "ablations", "list-experiments"],
        help=(
            "which table/figure to reproduce ('report' runs everything; "
            "'models' builds and saves the node's FPMs; 'ablations' runs "
            "all extension studies; 'list-experiments' prints the registry)"
        ),
    )
    parser.add_argument("--seed", type=int, default=42, help="experiment seed")
    parser.add_argument(
        "--seeds",
        metavar="A:B",
        type=_seed_range,
        default=None,
        help=(
            "for 'report': run the report experiments at seeds A..B-1 in "
            "process and print each shape check's pass count and failing seeds"
        ),
    )
    parser.add_argument(
        "--noise",
        type=float,
        default=0.02,
        help="measurement noise sigma (log-time std)",
    )
    parser.add_argument(
        "--fast",
        action="store_true",
        help="coarser sweeps for a quick run",
    )
    parser.add_argument(
        "--gpu-version",
        type=int,
        default=3,
        choices=(1, 2, 3),
        help="GPU kernel version for the application experiments",
    )
    parser.add_argument(
        "--plot",
        action="store_true",
        help="also render curve figures as ASCII charts",
    )
    parser.add_argument(
        "--export-json",
        metavar="PATH",
        help="write the raw experiment result as JSON",
    )
    parser.add_argument(
        "--out",
        metavar="PATH",
        default="models.json",
        help="output file for the 'models' command (default: models.json)",
    )
    parser.add_argument(
        "--max-blocks",
        type=float,
        default=6500.0,
        help="model range for the 'models' command, in b x b blocks",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for the 'report' command (default: 1)",
    )
    parser.add_argument(
        "--faults",
        metavar="SPEC",
        default=None,
        help=(
            "fault-injection spec, e.g. 'fail:GeForce GTX680:p=0.3; "
            "spike:*:p=0.05,x=10' (see docs/fault-tolerance.md)"
        ),
    )
    parser.add_argument(
        "--drift",
        metavar="SPEC",
        default=None,
        help=(
            "time-varying device speed spec, e.g. 'throttle:GeForce "
            "GTX680:t0=2,tau=10,floor=0.5; jitter:*:sigma=0.01' "
            "(see docs/drift.md)"
        ),
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-experiment timeout for the 'report' command",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the artifact store: rebuild models and results",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="PATH",
        default=None,
        help="artifact store root (default: $REPRO_CACHE_DIR or ~/.cache/repro)",
    )
    return parser


def _resolve_store(args) -> ResultStore | None:
    if args.no_cache:
        return None
    if args.cache_dir:
        return ResultStore(args.cache_dir)
    return default_store()


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["lint"]:
        # the analyser owns its own argparse surface; keep the experiment
        # parser free of lint flags
        from repro.analysis.cli import main as lint_main

        return lint_main(argv[1:])
    if argv[:1] == ["profile"]:
        # ditto for the tracing front-end
        from repro.obs.cli import main as profile_main

        return profile_main(argv[1:])
    if argv[:1] == ["serve"]:
        # ditto for the partition daemon
        from repro.service.cli import main as serve_main

        return serve_main(argv[1:])
    args = build_parser().parse_args(argv)
    config = ExperimentConfig(
        seed=args.seed,
        noise_sigma=args.noise,
        fast=args.fast,
        gpu_version=args.gpu_version,
        faults=args.faults,
        drift=args.drift,
    )
    if args.experiment == "list-experiments":
        return _list_experiments_command()
    store = _resolve_store(args)
    if args.seeds is not None:
        if args.experiment != "report":
            build_parser().error("--seeds only applies to 'report'")
        from repro.experiments.orchestrator import format_seed_sweep, sweep_shape_checks

        print(format_seed_sweep(args.seeds, sweep_shape_checks(config, args.seeds, store=store)))
        return 0
    if args.experiment == "report":
        from repro.experiments.orchestrator import run_full_report

        print(
            run_full_report(
                config, jobs=args.jobs, store=store, timeout_s=args.timeout
            )
        )
        return 0
    with use_store(store):
        if args.experiment == "models":
            return _build_models_command(config, args.out, args.max_blocks)
        if args.experiment == "ablations":
            return _run_ablations_command(config, store)
        from repro.experiments.orchestrator import run_experiment

        result = run_experiment(args.experiment, config, store=store)
    print(get_experiment(args.experiment).format_result(result))
    if args.plot:
        plotter = _PLOTTERS.get(args.experiment)
        if plotter is None:
            print(f"(no plot defined for {args.experiment})")
        else:
            print()
            print(plotter(result))
    if args.export_json:
        export_json(result, args.export_json)
        print(f"result written to {args.export_json}")
    return 0


def _list_experiments_command() -> int:
    """Print the experiment registry as a table."""
    print(f"{'name':<22} {'kind':<9} {'module':<46} paper refs")
    for e in all_experiments():
        refs = ", ".join(e.paper_refs) or "-"
        print(f"{e.name:<22} {e.kind:<9} {e.module:<46} {refs}")
    return 0


def _run_ablations_command(config: ExperimentConfig, store) -> int:
    """Run every extension study and print its regenerated output."""
    from repro.experiments.orchestrator import run_experiment

    for exp in all_experiments():
        if exp.kind != "ablation":
            continue
        name = exp.name
        print(f"=== {name} " + "=" * max(0, 60 - len(name)))
        print(exp.format_result(run_experiment(name, config, store=store)))
        print()
    return 0


def _build_models_command(
    config: ExperimentConfig, out: str, max_blocks: float
) -> int:
    """Build the preset node's FPMs and persist them as JSON."""
    from repro.app.matmul import HybridMatMul
    from repro.core.serialization import save_models
    from repro.platform.presets import ig_icl_node

    app = HybridMatMul(
        ig_icl_node(),
        seed=config.seed,
        noise_sigma=config.noise_sigma,
        gpu_version=config.gpu_version,
    )
    models = app.build_models(
        max_blocks=max_blocks,
        cpu_points=8 if config.fast else 12,
        gpu_points=10 if config.fast else 16,
        adaptive=not config.fast,
    )
    ordered = [models[name] for name in sorted(models)]
    save_models(out, ordered)
    total_reps = sum(m.repetitions_total for m in ordered)
    for m in ordered:
        print(
            f"  {m.name:18s} {len(m.speed_function):3d} samples "
            f"({m.repetitions_total} repetitions)"
        )
    print(f"{len(ordered)} models ({total_reps} repetitions) saved to {out}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
