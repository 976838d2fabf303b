"""Command-line harness.

Subcommands:
    solve       run the scheme once on the coarsest mesh and export the
                trajectory (csv or binary)
    converge    unaccelerated convergence study over the mesh ladder
    accelerate  extrapolated convergence study (weights chosen by base/level)
    correctors  corrector system, odd-corrector check, expansion-residual decay
                (on the first seed only)
    selfcheck   weight identities, summation by parts, dense-solve oracle,
                circulant-solve oracle

Exit codes: 0 pass, 1 acceptance fail, 2 solver failure, 3 config error.
A usage error (an unknown subcommand or option, or a bad option value), an
extrapolating study with base 4 on a scheme with one-sided terms, an error
writing the outputs, a study whose errors admit no order fit (a rung error
of exactly 0, or fewer than two above 1e-14, as the rounding errors of an
``accelerate`` on an exactly solved problem are), a missing dependency
(scipy, for a study that factors by sparse LU), problem data that is not
finite on the coarsest grid, and a command too large to allocate (a
lattice or a time axis beyond numpy's index range, or a lower bound on
what it must hold at once above the machine's physical memory, each
refused before anything is allocated, or a ``MemoryError``) are config
errors too, exit 3, each with one line on stderr; ``--help`` exits 0.
"""

import argparse
import os
import sys
import warnings
from dataclasses import replace
from pathlib import Path

from .correctors import export_corrector_set
from .experiments import (
    ConfigError,
    _check_memory,
    _parse_seeds,
    _validate_spec,
    build_problem,
    build_scheme,
    emit_outputs,
    ladder_grids,
    load_config,
    run_convergence_experiment,
    run_corrector_experiment,
    selfcheck,
)
from .richardson import ExtrapolationError
from .stepper import (
    TRAJECTORY_FORMATS,
    SolveFailure,
    export_trajectory,
    run_space_time_scheme,
)
from .wiener import sample_increments

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_SOLVER = 2
EXIT_CONFIG = 3


def _add_common(parser, config_required=True):
    parser.add_argument("--config", required=config_required,
                        help="experiment configuration file")
    parser.add_argument("--out", default=None, help="output directory "
                        "(overrides the config)")
    parser.add_argument("--seeds", default=None,
                        help="comma-separated seed list (overrides the config)")
    parser.add_argument("--threads", type=int, default=None,
                        help="accepted for compatibility and validated (>= 1), "
                        "but has no effect: a study steps all its seeds "
                        "together in one thread (overrides the config)")
    parser.add_argument("--format", choices=tuple(TRAJECTORY_FORMATS),
                        default=None, help="trajectory output format "
                        "(overrides the config)")


def _load_spec(args):
    """The config file's spec with the command-line overrides, validated."""
    spec = load_config(args.config)
    overrides = {}
    if args.out is not None:
        overrides["out"] = args.out
    if args.seeds is not None:
        overrides["seeds"] = _parse_seeds(args.seeds)
    if args.threads is not None:
        overrides["threads"] = args.threads
    if args.format is not None:
        overrides["format"] = args.format
    spec = _validate_spec(replace(spec, **overrides))
    # a study would run to the end and only then fail to make its directory
    out = Path(spec.out)
    ancestor = next(p for p in (out, *out.parents) if os.path.lexists(p))
    if not ancestor.is_dir():
        raise ConfigError(f"output path {spec.out}: {ancestor} is not a directory")
    return spec


def _cmd_solve(args) -> int:
    spec = _load_spec(args)
    problem = build_problem(spec)
    scheme = build_scheme(spec, problem)
    grid = ladder_grids(spec, problem)[0]
    _check_memory(8 * (spec.n + 1) * grid.npoints,
                  "[space] points0 and [time] n")
    increments = sample_increments(spec.n, problem.d1, problem.T / spec.n,
                                   spec.seeds[0])
    traj = run_space_time_scheme(problem, scheme, grid, spec.n, increments)
    out = Path(spec.out)
    out.mkdir(parents=True, exist_ok=True)
    path = export_trajectory(traj, out / "trajectory", spec.format)
    print(f"solved {spec.problem} on {grid.shape} points, n={spec.n}; "
          f"wrote {path}")
    return EXIT_PASS


def _run_study(args) -> int:
    spec = _load_spec(args)
    # a warning the study raises is a one-line note, not a Python warning
    with warnings.catch_warnings(record=True) as caught:
        if args.command == "correctors":
            result = run_corrector_experiment(spec)
        else:
            result = run_convergence_experiment(
                spec, accelerate=args.command == "accelerate")
    for warning in caught:
        print(f"note: {warning.message}", file=sys.stderr)
    paths = emit_outputs(result, spec.out)
    cs = result.extras.pop("corrector_set", None)
    if cs is not None:
        paths += export_corrector_set(cs, spec.out, "corrector", spec.format)
    for line in _summary_lines(result):
        print(line)
    ratios = result.extras.get("odd_corrector_ratios", {})
    for order, ratio in sorted(ratios.items()):
        print(f"  odd corrector {order}: sup ratio {ratio:.3e}")
    print(f"wrote {', '.join(str(p) for p in paths)}")
    if result.failed:
        print(f"solver failure: {result.failure}", file=sys.stderr)
        return EXIT_SOLVER
    return EXIT_PASS if result.passed else EXIT_FAIL


def _summary_lines(result):
    lines = [f"{result.kind} study: {result.spec.problem} "
             f"({result.spec.scheme}), n={result.spec.n}, "
             f"seeds={list(result.spec.seeds)}"]
    if result.report is not None:
        rep = result.report
        for idx, h in enumerate(rep.hs):
            pairwise = ("    --" if idx == 0
                        else f"{rep.pairwise_orders[idx - 1]:6.3f}")
            lines.append(f"  h={h:<12.6g} sup={rep.sup_errors[idx]:<12.6g} "
                         f"pairwise={pairwise}")
        lines.append(f"  least-squares order {rep.ls_order:.4f}"
                     + (f" (expected {rep.expected_order} "
                        f"+- {rep.tolerance})"
                        if rep.expected_order is not None else ""))
        for note in rep.notes:
            lines.append(f"  note: {note}")
        lines.append(f"  result: {'PASS' if result.passed else 'FAIL'}")
    return lines


def _cmd_selfcheck(_args) -> int:
    ok = True
    for name, passed, detail in selfcheck():
        print(f"{'PASS' if passed else 'FAIL'} {name}: {detail}")
        ok = ok and passed
    return EXIT_PASS if ok else EXIT_FAIL


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="spdefd",
        description="Finite-difference solver and convergence harness for "
                    "degenerate parabolic SPDEs on a periodic torus")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run one trajectory and export it")
    _add_common(p_solve)
    p_conv = sub.add_parser("converge", help="unaccelerated convergence study")
    _add_common(p_conv)
    p_acc = sub.add_parser("accelerate", help="extrapolated convergence study")
    _add_common(p_acc)
    p_corr = sub.add_parser(
        "correctors", help="corrector and residual study (first seed only)",
        description="Corrector system, odd-corrector check and expansion-"
                    "residual decay on the Wiener path of the first seed; "
                    "any further seeds are ignored.")
    _add_common(p_corr)
    p_self = sub.add_parser("selfcheck", help="run built-in structural checks")
    _add_common(p_self, config_required=False)

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:   # argparse exits 2 on a usage error, 0 on --help
        return EXIT_CONFIG if exc.code else EXIT_PASS
    try:
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "selfcheck":
            return _cmd_selfcheck(args)
        return _run_study(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SolveFailure as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except OSError as exc:      # load_config reports its own as ConfigError
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ExtrapolationError as exc:
        print(f"order error: no order can be fitted: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ImportError as exc:
        print(f"missing dependency: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:
        print(f"out of memory: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
