"""Command line interface.

Subcommands: converge (error table over a refinement schedule), solve (one
level with field exports), mc (Monte Carlo baseline), info (print the
experiment plan without running).  Exit codes: 0 on success, 1 on config
errors (a config mode the subcommand does not run, converge on a problem
without an exact solution and an output directory that cannot be created
included) and on output files that cannot be written, 2 when a solver fails
to converge.  The runner's ``run_*`` functions make these refusals, before
they make the output directory, so a refused command leaves none.
"""

from __future__ import annotations

import argparse
import logging
import sys

from .runner import (ConfigError, SolverNotConverged, load_config, run_convergence, run_mc,
                     run_single)

log = logging.getLogger("sgobstacle")

TABLE_PRINT_HEADER = (f"{'h':>10} {'s':>10} {'eL2m1':>10} {'eH1m1':>10} "
                      f"{'eL2m2':>10} {'eH1m2':>10} {'iters':>5} {'seconds':>8}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sgobstacle",
        description="Galerkin and Monte Carlo solvers for obstacle problems "
                    "with random coefficients",
    )
    parser.add_argument("-q", "--quiet", action="store_true",
                        help="suppress progress logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("converge", help="run the refinement schedule and "
                                        "write the error table")
    p.add_argument("config", help="JSON config file")
    p.add_argument("--output-dir", help="override the config's output_dir")

    p = sub.add_parser("solve", help="solve a single schedule level and "
                                     "export mean/variance fields")
    p.add_argument("config")
    p.add_argument("--level", type=int, default=0,
                   help="schedule level index (default 0)")
    p.add_argument("--output-dir")

    p = sub.add_parser("mc", help="run the Monte Carlo baseline")
    p.add_argument("config")
    p.add_argument("--output-dir")

    p = sub.add_parser("info", help="print the experiment plan")
    p.add_argument("config")
    return parser


def _info(cfg) -> None:
    problem = cfg.problem
    print(f"problem: {problem.name} ({cfg.parameterization} parameterization, "
          f"{problem.n_dims} parameter dimensions)")
    print(f"domain:  x in [{problem.rect[0]}, {problem.rect[1]}], "
          f"y in [{problem.rect[2]}, {problem.rect[3]}]")
    print(f"mode:    {cfg.mode}")
    print(f"solver:  {cfg.solver.method} (omega={cfg.solver.omega}, "
          f"tol={cfg.solver.tol:g})")
    print("levels:")
    x0, x1, _, _ = problem.rect
    for k, level in enumerate(cfg.levels):
        h = (x1 - x0) / level.nx
        interior, j = level.sizes(problem.n_dims)
        print(f"  {k}: nx={level.nx} cells={level.cells}  h={h:.6g}  "
              f"I={interior} J={j} IJ={interior * j}")
    if cfg.mode in ("mc", "both"):
        print(f"mc:      {cfg.mc_samples} samples, seed {cfg.mc_seed}, "
              f"level {cfg.mc_level}")
    print(f"output:  {cfg.output_dir}")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(level=logging.WARNING if args.quiet else logging.INFO,
                        format="%(message)s")
    try:
        cfg = load_config(args.config)
        if getattr(args, "output_dir", None):
            cfg.output_dir = args.output_dir
        if args.command == "info":
            _info(cfg)
        elif args.command == "converge":
            rows, _ = run_convergence(cfg)
            print(TABLE_PRINT_HEADER)
            for row in rows:
                print(f"{row.h:10.6g} {row.s:10.6g} {row.errors['eL2m1']:.4e} "
                      f"{row.errors['eH1m1']:.4e} {row.errors['eL2m2']:.4e} "
                      f"{row.errors['eH1m2']:.4e} {row.iters:5d} {row.seconds:8.2f}")
        elif args.command == "solve":
            run_single(cfg, args.level)
        elif args.command == "mc":
            run_mc(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        # an output file that cannot be written: a directory in its place,
        # a full disk, a file system that refuses the name
        print(f"output error: {exc}", file=sys.stderr)
        return 1
    except SolverNotConverged as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
